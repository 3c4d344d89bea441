"""Per-layer measurements: the traced replay, layer counters, engine timings, environment.

Layers are unitcycle's modules.  Counters are taken from the traced calls'
arguments and results after each span has ended.  `backends.pairs` and
`backends.join_candidates` are computed here from the kernel inputs after
the replay, outside any timed region; they are labelled "computed" in the
report.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracer import NO_PARENT, Tracer
from unitcycle import backends, relsearch, sring

perf = time.perf_counter

# Kernel input for the engine comparison: 256 terms, values inside int64.
ENGINE_SET = (13, 17, 19, 23)
ENGINE_BOUND = 3
ENGINE_REPEATS = 5

TRACE_DIR = ".bench_out"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "UNITCYCLE_BACKEND": os.environ.get(backends.BACKEND_ENV),
        "UNITCYCLE_CEILING": os.environ.get(relsearch.CEILING_ENV),
    }


def resolved_engine(values) -> str:
    """The engine backends.zero_quadruples runs on these term values: its own selection rule."""
    backend = backends.active_backend()
    if backend != "python" and max(values) <= backends.INT64_VALUE_LIMIT:
        return backend
    return "python"


def join_candidates(values) -> int:
    """Pairs (a <= b, positive head) times matching negated pairs, before the j <= k filter.

    This is the row count the numpy engine expands before filtering.
    """
    w = backends._signed_descending(values)
    m = len(w)
    all_sums: Counter[int] = Counter()
    heads: Counter[int] = Counter()
    for i in range(m):
        for j in range(i, m):
            s = w[i] + w[j]
            all_sums[s] += 1
            if w[i] > 0 and s != 0:
                heads[s] += 1
    return sum(n * all_sums.get(-s, 0) for s, n in heads.items())


class LayerCounters:
    """Counts taken from traced calls; run as tracer hooks after each span ends."""

    def __init__(self) -> None:
        self.backend = Counter()
        self.engines: Counter[str] = Counter()
        self.inputs: Counter[tuple[int, ...]] = Counter()
        self.relations = 0
        self.exit_codes: Counter[int] = Counter()
        self.subsets = 0

    def on_zero_quadruples(self, args, kwargs, result) -> None:
        values = tuple(args[0])
        self.backend["calls"] += 1
        self.backend["terms"] += len(values)
        self.backend["hits"] += len(result)
        if values:
            self.inputs[values] += 1
            self.engines[resolved_engine(values)] += 1

    def on_find_relations(self, args, kwargs, result) -> None:
        self.relations += len(result)

    def on_cli_main(self, args, kwargs, result) -> None:
        self.exit_codes[result] += 1

    def on_survey_run(self, args, kwargs, result) -> None:
        self.subsets += len(result[0])

    def install(self, tracer: Tracer) -> None:
        tracer.hooks.update({
            "backends.zero_quadruples": self.on_zero_quadruples,
            "relsearch.find_relations": self.on_find_relations,
            "cli.main": self.on_cli_main,
            "survey.survey_run": self.on_survey_run,
        })


def materialise_seconds(tracer: Tracer) -> float:
    """find_relations time outside its term_table and zero_quadruples children."""
    sp = tracer.spans()
    names = tracer.names
    fr = names.index("relsearch.find_relations")
    skip = [names.index("relsearch.term_table"), names.index("backends.zero_quadruples")]
    dur = sp["end"] - sp["start"]
    total = dur[sp["name"] == fr].sum()
    child = np.isin(sp["name"], skip) & (sp["parent"] != NO_PARENT)
    child &= sp["name"][np.where(child, sp["parent"], 0)] == fr
    return float(total - dur[child].sum())


def engines_seen(ops, run_ops) -> tuple[dict[str, int], dict]:
    """Run ops once, traced, and count the engine each kernel call resolved to.

    Returns those counts and the run's tally (its outputs are checked as usual).
    """
    tracer = Tracer()
    counters = LayerCounters()
    counters.install(tracer)
    tracer.install()
    try:
        tally = run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    return dict(counters.engines), tally


def engine_comparison() -> dict[str, float]:
    """Median kernel time per engine on one fixed term table (numba only when importable)."""
    table = relsearch.term_table(sring.InversionSet(ENGINE_SET), ENGINE_BOUND)
    values = sorted(table)
    out = {}
    reference = None
    for name in backends.available_backends():
        os.environ[backends.BACKEND_ENV] = name
        try:
            rows = backends.zero_quadruples(values)  # warm-up (JIT compile for numba)
            times = []
            for _ in range(ENGINE_REPEATS):
                t0 = perf()
                backends.zero_quadruples(values)
                times.append(perf() - t0)
        finally:
            del os.environ[backends.BACKEND_ENV]
        if reference is None:
            reference = rows
        elif rows != reference:
            raise RuntimeError(f"engine {name} disagrees on {ENGINE_SET} general:{ENGINE_BOUND}")
        out[name] = statistics.median(times) * 1e3
    return out


def traced_run(passes, run_ops, workload: str, seed: int) -> dict:
    """Run each pass untraced and traced back to back; return per-layer metrics and the report.

    The order alternates from pass to pass, so a drift in machine speed does
    not land on one side of trace.overhead_s.
    """
    base, traced = [], []
    tracer = Tracer()
    counters = LayerCounters()
    counters.install(tracer)
    for i, ops in enumerate(passes):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                base.append(run_ops(ops))
                continue
            tracer.install()
            try:
                traced.append(run_ops(ops, tracer))
            finally:
                tracer.uninstall()

    def total(tallies, key):
        return sum(t[key] for t in tallies)

    summary = tracer.summary()
    engines = engine_comparison()

    pairs = sum(n * (2 * len(v)) * (2 * len(v) + 1) // 2 for v, n in counters.inputs.items())
    candidates = sum(n * join_candidates(v) for v, n in counters.inputs.items())

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    b = counters.backend
    metrics = {
        "trace.overhead_s": total(traced, "busy_s") - total(base, "busy_s"),
        "relsearch.find_relations.self_s": self_s("relsearch.find_relations"),
        "relsearch.materialise_us_per_relation":
            materialise_seconds(tracer) / max(counters.relations, 1) * 1e6,
        "relsearch.term_table.self_s": self_s("relsearch.term_table"),
        "sring.term_value.calls": calls("sring.term_value"),
        "sring.term_value.self_s": self_s("sring.term_value"),
        "backends.zero_quadruples.self_s": self_s("backends.zero_quadruples"),
        "backends.calls": b["calls"],
        "backends.terms": b["terms"],
        "backends.hits": b["hits"],
        "backends.pairs": pairs,
        "backends.join_candidates": candidates,
        "backends.hit_ratio": b["hits"] / candidates if candidates else 0.0,
        "backends.bigint_calls": counters.engines["python"],
        "exactnum.is_probable_prime.calls": calls("exactnum.is_probable_prime"),
        "exactnum.is_probable_prime.self_s": self_s("exactnum.is_probable_prime"),
        "backends.engine.numpy.kernel_ms": engines["numpy"],
        "backends.engine.python.kernel_ms": engines["python"],
    }
    # Layers a workload may not touch: reported, but kept out of the result line.
    report = {f"{name}.self_s": s["self_s"] for name, s in summary.items()}
    report.update({f"{name}.calls": s["calls"] for name, s in summary.items()})
    report.update({f"cli.exit_codes.{code}": n for code, n in sorted(counters.exit_codes.items())})
    report["survey.subsets"] = counters.subsets
    report["relsearch.relations"] = counters.relations
    report.update(tracer.errors)
    if "numba" in engines:
        report["backends.engine.numba.kernel_ms"] = engines["numba"]

    Path(TRACE_DIR).mkdir(exist_ok=True)
    tracer.save(Path(TRACE_DIR) / f"spans-{workload}-seed{seed}.npz")
    return {
        "metrics": metrics,
        "report": report,
        "engines": dict(counters.engines),
        "ops": total(traced, "attempted"),
        "spans": len(tracer.span_start),
        "attempted": total(base + traced, "attempted"),
        "failed": total(base + traced, "failed"),
        "problems": [p for t in base + traced for p in t["problems"]][:20],
    }
