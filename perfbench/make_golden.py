"""Regenerate golden.json: run every catalogue input once and record its output digest.

Run from the repository root on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_golden.py

Search strata keep only the prime sets whose relation count falls in the
stratum's band.  The golden file changes only when the catalogue does; a
program change that alters any output shows as a failed op in the benchmark.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from pathlib import Path

for var in ("UNITCYCLE_BACKEND", "UNITCYCLE_CEILING"):
    os.environ.pop(var, None)

import catalogue as cat  # noqa: E402
from unitcycle import cli  # noqa: E402
from unitcycle.backends import INT64_VALUE_LIMIT  # noqa: E402
from unitcycle.relsearch import SearchConfig, find_relations  # noqa: E402
from unitcycle.sring import InversionSet  # noqa: E402


def search_stratum(spec: dict) -> list[dict]:
    lo, hi = spec["band"]
    out = []
    for primes in itertools.combinations(spec["pool"], spec["k"]):
        largest = 1
        for p in primes:
            largest *= p ** spec["bound"]
        if (largest > INT64_VALUE_LIMIT) != spec["bigint"]:
            continue
        rels = find_relations(InversionSet(primes), SearchConfig.general(spec["bound"]))
        count, digest = cat.relation_digest(rels)
        if lo <= count <= hi:
            out.append({"primes": list(primes), "bound": spec["bound"],
                        "count": count, "sha256": digest})
    return out


def cli_golden() -> dict:
    Path(cat.OUT_DIR).mkdir(exist_ok=True)
    out = {}
    for slot, variants in cat.CLI_SLOTS.items():
        for argv in variants:
            code, stdout, stderr = cat.run_cli(cli.main, argv)
            want = {"exit2": (2,), "exit3": (3,)}.get(slot, (0, 1))
            if code not in want:
                sys.exit(f"{argv}: exit {code}, slot {slot} expects {want}")
            problem = cat.verify_cli_payload(argv, stdout)
            if problem:
                sys.exit(f"{argv}: {problem}")
            if slot == "admits_pos" and code != 0 or slot == "admits_neg" and code != 1:
                sys.exit(f"{argv}: exit {code} does not fit slot {slot}")
            out[cat.argv_key(argv)] = {"code": code, "stdout_sha256": cat.sha256(stdout),
                                       "stderr_sha256": cat.sha256(stderr),
                                       "files": cat.file_digests(argv)}
    return out


def main() -> None:
    golden = {"search": {}}
    for name, spec in cat.SEARCH_STRATA.items():
        golden["search"][name] = search_stratum(spec)
        print(f"{name}: {len(golden['search'][name])} sets in band {spec['band']}", flush=True)
    golden["cli"] = cli_golden()
    cat.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {cat.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
