"""Benchmark inputs, their golden outputs, and the checks that compare them.

Every input a workload can run comes from a catalogue fixed here: prime sets
for the searches and argv lists for the CLI mix (its survey requests write
CSV and SVG files under OUT_DIR).  `make_golden.py` runs each catalogue
entry once on a reference commit and stores its output digest in
`golden.json`; the workloads draw entries by seed and compare each output
with that digest.

The catalogue is stratified: each stratum holds inputs of one shape whose
relation counts fall in a narrow band, so a run's cost does not depend on
which members its seed drew.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

from unitcycle.avoidance import AbcPairReport, AvoidanceCertificate
from unitcycle.cycles import CycleWitness, verify_cycle
from unitcycle.lenstra import CliqueWitness
from unitcycle.relsearch import Relation

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# Files the benchmark writes, relative to the repository root it runs in.
OUT_DIR = ".bench_out"

# Search strata: (pool of primes, primes per set, exponent bound, relation-count band).
# "dense": 81 terms, materialising Relation objects dominates.
# "wide": 256 terms, a larger pair table and join per relation returned.
# "bigint": 125 terms, the largest above 2**61, so the big-int engine runs;
#           few relations, the kernel dominates.
SEARCH_STRATA = {
    "dense": {
        "pool": (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37),
        "k": 4, "bound": 2, "band": (1100, 1300), "bigint": False,
    },
    "wide": {
        "pool": (7, 11, 13, 17, 19, 23, 29, 31, 37),
        "k": 4, "bound": 3, "band": (600, 760), "bigint": False,
    },
    "bigint": {
        "pool": (23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89),
        "k": 3, "bound": 4, "band": (64, 100), "bigint": True,
    },
}

_REL_3_JSON = json.dumps(
    {
        "inversion_set": [3],
        "terms": [
            {"sign": 1, "exponents": [1], "value": "3"},
            {"sign": -1, "exponents": [0], "value": "-1"},
            {"sign": -1, "exponents": [0], "value": "-1"},
            {"sign": -1, "exponents": [0], "value": "-1"},
        ],
    }
)
_REL_57_JSON = json.dumps(
    {
        "inversion_set": [5, 7],
        "terms": [
            {"sign": 1, "exponents": [0, 1], "value": "7"},
            {"sign": -1, "exponents": [1, 0], "value": "-5"},
            {"sign": -1, "exponents": [0, 0], "value": "-1"},
            {"sign": -1, "exponents": [0, 0], "value": "-1"},
        ],
    }
)
_H_POLY = "7/11,-39/5,-146/55,-2/11"
_H_POINTS = "-10,-5,-4,1"
_SURVEY = ["survey", "--pool", "10", "--size", "4", "--mode", "linear", "--sample", "5", "--seed"]
_SURVEY_FILES = ["--csv", f"{OUT_DIR}/survey.csv", "--svg", f"{OUT_DIR}/survey.svg"]

# CLI mix: each slot lists interchangeable requests of similar cost and the same
# outcome class (admits_pos all find a witness, admits_neg none).
CLI_SLOTS: dict[str, list[list[str]]] = {
    "admits_pos": [
        ["admits", "5,7"],
        ["admits", "3"],
        ["admits", "2,3", "--mode", "general:2"],
        ["admits", "2,5", "--json"],
        ["admits", "3,5", "--mode", "npower:2", "--json"],
        ["admits", "5,7", "--json"],
    ],
    "admits_neg": [
        ["admits", "5", "--mode", "general:10"],
        ["admits", "7", "--mode", "general:9"],
        ["admits", "11", "--mode", "general:8", "--json"],
        ["admits", "13", "--mode", "general:8"],
        ["admits", "7,11", "--mode", "general:2", "--json"],
    ],
    "zieve": [
        ["zieve", "--ring", "2", "--bound", "2"],
        ["zieve", "--ring", "3", "--bound", "2", "--json"],
        ["zieve", "--ring", "5", "--bound", "6"],
        ["zieve", "--ring", "7", "--bound", "5", "--json"],
    ],
    "lenstra": [
        ["lenstra", "--ring", "2", "--k", "3", "--bound", "4"],
        ["lenstra", "--ring", "2", "--k", "4", "--bound", "6"],
        ["lenstra", "--ring", "3", "--k", "3", "--bound", "3", "--json"],
        ["lenstra", "--ring", "2,3", "--k", "4", "--bound", "1", "--json"],
    ],
    "certify": [
        ["certify-avoid", "5,17,257", "--mode", "linear", "--json"],
        ["certify-avoid", "5,7"],
        ["certify-avoid", "7,29", "--mode", "linear", "--json"],
    ],
    "build": [
        ["build-avoiding", "--k", "3", "--n", "1"],
        ["build-avoiding", "--k", "2", "--n", "2", "--json"],
    ],
    "interpolate": [
        ["interpolate", "1,2,3,4", "--ring", "3"],
        ["interpolate", "1,2,3,4", "--ring", "2"],
        ["interpolate", "1,2,3,4", "--ring", "3", "--json"],
        ["interpolate", "-10,-5,-4,1", "--ring", "5,11", "--json"],
    ],
    "verify": [
        ["verify-cycle", "--poly", _H_POLY, "--points", _H_POINTS, "--ring", "5,11"],
        ["verify-cycle", "--poly", _H_POLY, "--points", "1,2,3,4", "--ring", "5,11"],
        ["verify-cycle", "--poly", "5,-19/3,4,-2/3", "--points", "1,2,3,4", "--ring", "3"],
    ],
    "orbit": [
        ["orbit", "--poly", "5,-19/3,4,-2/3", "--start", "1", "--max", "10"],
        ["orbit", "--poly", "1,1", "--start", "0", "--max", "50"],
        ["orbit", "--poly", "1,0,1", "--start", "1", "--json"],
    ],
    "abc": [
        ["abc-pair", "--C", "1", "--m", "9"],
        ["abc-pair", "--C", "1", "--m", "9", "--json"],
    ],
    "bb": [
        ["bb-check", "--relation", _REL_3_JSON, "--C", "1", "--eps", "1"],
        ["bb-check", "--relation", _REL_3_JSON, "--C", "1/28", "--eps", "0"],
        ["bb-check", "--relation", _REL_57_JSON, "--C", "1", "--eps", "1/2", "--json"],
    ],
    "exit2": [
        ["admits", "4"],
        ["abc-pair", "--C", "1", "--m", "8"],
        ["interpolate", "1,2,2,4", "--ring", "3"],
        ["bb-check", "--relation", "not json", "--C", "1", "--eps", "0"],
    ],
    "survey": [
        [*_SURVEY, "2"],
        [*_SURVEY, "4", "--json"],
        [*_SURVEY, "5", *_SURVEY_FILES],
        [*_SURVEY, "6", "--json", *_SURVEY_FILES],
    ],
    "exit3": [
        ["zieve", "--ring", "2,3,5", "--bound", "30", "--ceiling", "100"],
        ["survey", "--pool", "50", "--size", "5"],
        ["admits", "5,7", "--ceiling", "3"],
    ],
}

# One round of the CLI mix: 21 requests, 2 of them expected to exit 2 or 3.
CLI_ROUND = (
    ["admits_pos"] * 3 + ["admits_neg"] * 2 + ["zieve"] * 2 + ["lenstra"] * 2
    + ["certify", "build"] + ["interpolate"] * 2 + ["verify"] * 2
    + ["orbit", "abc", "bb", "survey", "exit2", "exit3"]
)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def argv_key(argv: list[str]) -> str:
    return json.dumps(argv)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def relation_digest(rels) -> tuple[int, str]:
    """Count and sha256 of the canonical rows: values, then (sign, exponents) per term."""
    h = hashlib.sha256()
    for r in rels:
        h.update(repr((r.values, [(t.sign, t.exponents) for t in r.terms])).encode())
        h.update(b"\n")
    return len(rels), h.hexdigest()


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Call cli.main(argv) in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def verify_cli_payload(argv: list[str], stdout: str) -> str | None:
    """Re-parse a --json payload and re-verify the witness or certificate it carries."""
    if "--json" not in argv:
        return None
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as e:
        return f"stdout is not JSON: {e}"
    cmd = argv[0]
    if cmd == "admits" and payload["witness"] is not None:
        rel = Relation.from_json_dict(payload["witness"])
        if sum(rel.values) != 0:
            return "admits witness does not vanish"
    elif cmd == "bb-check":
        Relation.from_json_dict(payload["relation"])
    elif cmd == "interpolate" and "coefficients" in payload:
        if not verify_cycle(CycleWitness.from_json_dict(payload)):
            return "interpolated cycle does not verify"
    elif cmd == "lenstra" and payload.get("elements") is not None:
        if not CliqueWitness.from_json_dict(payload).verify():
            return "clique witness does not verify"
    elif cmd == "certify-avoid" and "checks" in payload:
        if not AvoidanceCertificate.from_json_dict(payload).verify():
            return "avoidance certificate does not verify"
    elif cmd == "abc-pair":
        if not AbcPairReport.from_json_dict(payload).verify():
            return "abc-pair report does not verify"
    elif cmd == "survey":
        if sum(n for _, _, n in payload["points"]) != payload["rows"]:
            return "survey points do not add up to its rows"
    elif cmd == "zieve" and payload["u"] is not None:
        u, v = Fraction(payload["u"]), Fraction(payload["v"])
        if u + v == 0 or u + 1 == 0 or 1 + u + v == 0:
            return "zieve witness degenerates"
    return None


def written_files(argv: list[str]) -> list[str]:
    """Paths a survey request writes (the values of --csv and --svg)."""
    return [argv[i + 1] for i, a in enumerate(argv) if a in ("--csv", "--svg")]


def file_digests(argv: list[str]) -> dict[str, str]:
    return {path: sha256(Path(path).read_bytes()) for path in written_files(argv)}
