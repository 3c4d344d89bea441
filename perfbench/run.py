"""unitcycle benchmark: one workload, end-to-end metrics or (with --trace 1) per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Workloads: enumerate, bigint, cli-mix (see perfbench/README.md).
Each run starts fresh single-threaded Python processes one after another.
Each does the set-up (interpreter start, `import unitcycle`, one warm-up
call) and is timed up to that point.  A discarded cold probe comes first;
then half of the SETUP_SAMPLES - 1 set-up probes, the process that goes on
to run the workload, and the other half of the probes.  Splitting the
probes around the workload spreads them over the whole run, so a slow spell
of the host weighs less on their median, which is setup_s.

The last line of stdout is the result as JSON; the lines before it give
the environment, sample counts and the full layer report.  Exit status
is 0 when a result was produced, whether or not every output was correct
(`correct`, `failed` and `attempted` say that).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 17
CHILD_TIMEOUT_S = 150


def child_env(root: Path) -> dict[str, str]:
    """The parent's environment with the engine and ceiling pinned to their defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("UNITCYCLE_")}
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMBA_NUM_THREADS": "1",
    })
    return env


def start_child(argv: list[str], env: dict[str, str]) -> tuple[subprocess.Popen, float]:
    """Start a harness process and wait for READY; returns it with its set-up seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), *argv],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"harness did not become ready: {line!r}")
    return proc, elapsed


def finish(proc: subprocess.Popen) -> str | None:
    """Wait for a harness process; kill it and return None if it overruns or fails."""
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: harness did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: harness exited with {proc.returncode}", file=sys.stderr)
        return None
    return stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("enumerate", "bigint", "cli-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "unitcycle" / "__init__.py").is_file():
        print("error: run from the repository root; src/unitcycle is missing", file=sys.stderr)
        return 2
    env = child_env(root)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]

    def probe(count: int) -> bool:
        for _ in range(count):
            proc, elapsed = start_child([*argv, "--probe"], env)
            if finish(proc) is None:
                return False
            setups.append(elapsed)
        return True

    setups: list[float] = []
    if not probe(1):
        return 1
    del setups[0]  # the cold probe
    if not probe(SETUP_SAMPLES // 2):
        return 1
    proc, elapsed = start_child(argv, env)
    setups.append(elapsed)
    stdout = finish(proc)
    if stdout is None or not probe(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2):
        return 1
    raw = json.loads(stdout.strip().splitlines()[-1])

    measured = dict(raw["metrics"])
    measured["setup_s"] = statistics.median(setups)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = raw["attempted"], raw["failed"]
    print(f"env: {json.dumps(raw['env'], sort_keys=True)} "
          f"engines (kernel calls per resolved engine): {json.dumps(raw['engines'], sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"setup samples={len(setups)} failed_ratio={failed / attempted:.6f} ({failed}/{attempted})")
    if args.trace:
        print(f"traced ops={raw['ops']} spans={raw['spans']} "
              "(backends.pairs and backends.join_candidates are computed from the kernel inputs)")
        for name, value in sorted(raw["report"].items()):
            print(f"  {name} = {value}")
    else:
        m = raw["metrics"]
        print(f"op latency samples={m['samples']} relations={m['relations']} "
              f"busy_s={m['busy_s']:.3f} wall_s={m['wall_s']:.3f} op_p90_ms={m['op_p90_ms']:.6g}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for problem in raw["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
