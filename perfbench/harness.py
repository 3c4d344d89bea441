"""Run one benchmark workload in this process; started by run.py.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

The process imports unitcycle, makes one warm-up call and prints READY; the
parent times that as set-up.  Only unitcycle and the standard-library
modules the warm-ups need are imported before READY; the benchmark's own
modules (workloads, catalogue, layers) are imported after it, so setup_s
is unitcycle's own cost.  With --probe the process exits at READY.

Otherwise it runs the workload's ops in a closed loop (one op at a time, the
next one starts when the previous returns) and prints one JSON line with the
raw measurements.

Untraced (--trace 0): passes of ops run until S seconds have passed.
Traced (--trace 1): a fixed number of passes runs twice, once untraced and
once with every public function wrapped by tracer.Tracer, the two runs of a
pass back to back in alternating order.  Per-layer numbers are totals over
the traced runs; trace.overhead_s is their busy time (time inside ops) minus
that of the untraced runs.
"""

from __future__ import annotations

import contextlib
import io
import sys

from unitcycle import relsearch, sring


def warm_search():
    relsearch.find_relations(sring.InversionSet.of(2, 3), relsearch.SearchConfig.general(2))


def warm_bigint():
    # 2**70 exceeds the int64 limit, so this runs the big-int engine.
    relsearch.find_relations(sring.InversionSet.of(2), relsearch.SearchConfig.general(70))


def warm_cli():
    from unitcycle import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["admits", "3"])


WARM_UPS = {
    "enumerate": warm_search,
    "bigint": warm_bigint,
    "cli-mix": warm_cli,
}


def parse_args(argv: list[str]) -> dict:
    """The options run.py passes, all of them always; argparse is not imported before READY."""
    probe = "--probe" in argv
    rest = [a for a in argv if a != "--probe"]
    opts = dict(zip(rest[::2], rest[1::2]))
    if len(rest) != 8 or set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
        raise SystemExit("usage: harness.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]")
    if opts["--workload"] not in WARM_UPS or opts["--trace"] not in ("0", "1"):
        raise SystemExit(f"bad --workload or --trace: {argv}")
    return {"workload": opts["--workload"], "seed": int(opts["--seed"]),
            "seconds": float(opts["--seconds"]), "trace": opts["--trace"] == "1", "probe": probe}


def main() -> int:
    args = parse_args(sys.argv[1:])
    WARM_UPS[args["workload"]]()
    print("READY", flush=True)
    if args["probe"]:
        return 0

    import json

    import catalogue as cat
    import layers
    import workloads

    name, seed, seconds = args["workload"], args["seed"], args["seconds"]
    factory, trace_rate = workloads.WORKLOADS[name]
    wl = factory(cat.load_golden(), seed)
    out: dict = {"workload": name, "seed": seed, "env": layers.environment()}
    if args["trace"]:
        passes = [wl.make_pass() for _ in range(max(1, round(seconds * trace_rate)))]
        out.update(layers.traced_run(passes, workloads.run_ops, name, seed))
    else:
        tally = workloads.measure_untraced(wl, seconds)
        out["metrics"] = workloads.end_to_end(tally)
        out["metrics"]["peak_rss_mb"] = tally["peak_rss_mb"]
        out["metrics"]["wall_s"] = tally["wall_s"]
        # The engines are read off one more pass, run traced after the timed loop.
        engines, extra_tally = layers.engines_seen(wl.make_pass(), workloads.run_ops)
        out["engines"] = engines
        for key in ("attempted", "failed", "problems"):
            out[key] = tally[key] + extra_tally[key]
    extra = wl.extra_checks()
    out["attempted"] += len(extra)
    out["failed"] += sum(p is not None for p in extra)
    out["problems"] = (out["problems"] + [p for p in extra if p])[:20]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
