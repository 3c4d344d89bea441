"""The benchmark's workloads: their ops, output checks and timed loop.

Imported by harness.py once set-up is over, so that none of this module's
imports count towards setup_s.

Untraced: passes of ops run until the given seconds have passed; every op's
output is checked against golden.json after its timer stops.  Traced runs
(layers.traced_run) replay a fixed number of passes through run_ops.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

import catalogue as cat
from unitcycle import backends, cli, relsearch, sring

perf = time.perf_counter


class Op:
    """One unit of client work: run() is timed, check() and relations() are not."""

    def run(self):
        raise NotImplementedError

    def check(self, result) -> str | None:
        raise NotImplementedError

    def relations(self, result) -> int:
        raise NotImplementedError


# -- search workloads ----------------------------------------------------------------


class SearchOp(Op):
    def __init__(self, entry: dict):
        self.entry = entry

    def run(self):
        s = sring.InversionSet(tuple(self.entry["primes"]))
        return relsearch.find_relations(s, relsearch.SearchConfig.general(self.entry["bound"]))

    def check(self, result):
        got = cat.relation_digest(result)
        want = (self.entry["count"], self.entry["sha256"])
        if got != want:
            return f"{self.entry['primes']} general:{self.entry['bound']}: got {got}, golden {want}"
        return None

    def relations(self, result):
        return len(result)


class SearchWorkload:
    """find_relations on catalogue prime sets; each pass takes a fixed count per stratum."""

    def __init__(self, golden: dict, seed: int, strata: dict[str, int], name: str):
        rng = random.Random(f"{name}:{seed}")
        self.strata = strata
        self.queues = {}
        for stratum in strata:
            members = list(golden["search"][stratum])
            rng.shuffle(members)
            self.queues[stratum] = members
        self.cursor = Counter()
        self.rng = rng

    def _next(self, stratum: str) -> dict:
        members = self.queues[stratum]
        entry = members[self.cursor[stratum] % len(members)]
        self.cursor[stratum] += 1
        return entry

    def make_pass(self) -> list[Op]:
        ops = [SearchOp(self._next(st)) for st, n in self.strata.items() for _ in range(n)]
        self.rng.shuffle(ops)
        return ops

    def extra_checks(self) -> list[str | None]:
        """Cross-check the int64 engine against the big-int engine on one drawn int64 set."""
        int64 = [e for st in self.strata if not cat.SEARCH_STRATA[st]["bigint"]
                 for e in self.queues[st]]
        if not int64:
            return []
        entry = self.rng.choice(int64)
        s = sring.InversionSet(tuple(entry["primes"]))
        table = relsearch.term_table(s, entry["bound"])
        fast = backends.zero_quadruples(table.keys())
        os.environ[backends.BACKEND_ENV] = "python"
        try:
            slow = backends.zero_quadruples(table.keys())
        finally:
            del os.environ[backends.BACKEND_ENV]
        if fast != slow:
            return [f"engines disagree on {entry['primes']} general:{entry['bound']}"]
        return [None]


def make_enumerate(golden, seed):
    return SearchWorkload(golden, seed, {"dense": 3, "wide": 3}, "enumerate")


def make_bigint(golden, seed):
    return SearchWorkload(golden, seed, {"bigint": 4}, "bigint")


# -- CLI mix ---------------------------------------------------------------------------


class CliOp(Op):
    def __init__(self, argv: list[str], golden: dict):
        self.argv = argv
        self.golden = golden

    def run(self):
        return cat.run_cli(cli.main, self.argv)

    def check(self, result):
        code, out, err = result
        want = self.golden
        if code != want["code"]:
            return f"{self.argv}: exit {code}, golden {want['code']}"
        if cat.sha256(out) != want["stdout_sha256"] or cat.sha256(err) != want["stderr_sha256"]:
            return f"{self.argv}: output differs from golden"
        if cat.file_digests(self.argv) != want["files"]:
            return f"{self.argv}: written files differ from golden"
        return cat.verify_cli_payload(self.argv, out)

    def relations(self, result):
        return 1 if self.argv[0] == "admits" and result[0] == 0 else 0


class CliWorkload:
    """Rounds of in-process cli.main requests with a fixed slot mix, one client."""

    def __init__(self, golden: dict, seed: int):
        self.rng = random.Random(f"cli-mix:{seed}")
        self.golden = golden["cli"]
        Path(cat.OUT_DIR).mkdir(exist_ok=True)

    def make_pass(self) -> list[Op]:
        ops = []
        for slot in cat.CLI_ROUND:
            argv = self.rng.choice(cat.CLI_SLOTS[slot])
            ops.append(CliOp(argv, self.golden[cat.argv_key(argv)]))
        self.rng.shuffle(ops)
        return ops

    def extra_checks(self):
        return []


# name -> (factory, passes replayed in a traced run per second of --seconds)
WORKLOADS = {
    "enumerate": (make_enumerate, 0.4),
    "bigint": (make_bigint, 0.5),
    "cli-mix": (CliWorkload, 4.0),
}


# -- measurement -----------------------------------------------------------------------


def new_tally() -> dict:
    return {"latencies": [], "busy_s": 0.0, "relations": 0,
            "attempted": 0, "failed": 0, "problems": []}


def merge(total: dict, part: dict) -> None:
    """Add one tally into another: numbers are summed, lists concatenated."""
    for key, value in part.items():
        total[key] += value


def run_ops(ops: list[Op], tracer=None) -> dict:
    """Time each op; check its output outside the timer.  Returns raw tallies.

    With a tracer, spans are recorded only while an op runs, not while it is checked.
    """
    tally = new_tally()
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
            tracer.active = True
        t0 = perf()
        try:
            result = op.run()
            error = None
        except Exception as e:  # a raising op is a failed op, not a crashed run
            result, error = None, f"{type(e).__name__}: {e}"
        dt = perf() - t0
        if tracer is not None:
            tracer.active = False
        tally["attempted"] += 1
        tally["busy_s"] += dt
        tally["latencies"].append(dt)
        if error is None:
            try:
                error = op.check(result)
            except Exception as e:  # output too malformed to check: a failed op
                error = f"check raised {type(e).__name__}: {e}"
        if error is None:
            tally["relations"] += op.relations(result)
        else:
            tally["failed"] += 1
            tally["problems"].append(error)
        del result
    return tally


def end_to_end(tally: dict) -> dict:
    lat = tally["latencies"]
    busy = tally["busy_s"]
    return {
        "ops_per_s": len(lat) / busy,
        "relations_per_s": tally["relations"] / busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "samples": len(lat),
        "relations": tally["relations"],
        "busy_s": busy,
    }


def measure_untraced(wl, seconds: float) -> dict:
    total = new_tally()
    start = perf()
    while perf() - start < seconds:
        merge(total, run_ops(wl.make_pass()))
    total["wall_s"] = perf() - start
    total["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return total

