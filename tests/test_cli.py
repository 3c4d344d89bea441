import importlib.metadata
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from unitcycle import cli, cycles, lenstra
from unitcycle.avoidance import AbcPairReport, AvoidanceCertificate
from unitcycle.cli import dispatch, main
from unitcycle.cycles import CycleWitness, verify_cycle
from unitcycle.relsearch import Relation
from unitcycle.sring import InversionSet

H_POLY = "7/11,-39/5,-146/55,-2/11"
H_POINTS = "-10,-5,-4,1"

REL_3_JSON = json.dumps(
    Relation.from_signed_values(InversionSet.of(3), (3, -1, -1, -1)).to_json_dict()
)

# (argv, expected exit code, substring expected in the output text)
EXIT_MATRIX = [
    (["admits", "3"], 0, "3 = 1 + 1 + 1"),
    (["admits", "5", "--mode", "general:10"], 1, "avoids within bound 10"),
    (["admits", "5,7"], 0, "admits a 4-cycle"),
    (["admits", "4"], 2, "not prime"),
    (["admits", "5", "--mode", "bogus"], 2, "cannot parse"),
    (["admits", ""], 2, "nonempty"),
    (["interpolate", "1,2,3,4", "--ring", "3"], 0, "-2/3x^3 + 4x^2 - 19/3x + 5"),
    (["interpolate", "1,2,3,4", "--ring", "2"], 1, "leaves the ring"),
    (["interpolate", "1,2,2,4", "--ring", "3"], 2, "distinct"),
    (["interpolate", "1,2,3", "--ring", "3"], 2, "expected 4 comma-separated values, got 3"),
    (["interpolate", "--ring", "3"], 2, "four cycle points are required"),
    (["interpolate", "1/1000000000000000009,2,3,4", "--ring", "3"], 1, "prime factor 1000000000000000009"),
    # The denominator is 1000000000039 * 1000000000061: no small factor.
    (["interpolate", "1/1000000000100000000002379,2,3,4", "--ring", "3"], 1, "prime factor 1000000000039"),
    (["verify-cycle", "--poly", H_POLY, "--points", H_POINTS, "--ring", "5,11"], 0, "cycle verified"),
    (["verify-cycle", "--poly", H_POLY, "--points", "1,2,3,4", "--ring", "5,11"], 1, "not a 4-cycle"),
    (["orbit", "--poly", "5,-19/3,4,-2/3", "--start", "1", "--max", "10"], 0, "preperiod 0, period 4"),
    (["orbit", "--poly", "1,1", "--start", "0", "--max", "5"], 1, "no cycle"),
    (["orbit", "--poly", "1,0,1", "--start", "1"], 1, "escaping"),
    (["zieve", "--ring", "2", "--bound", "2"], 0, "u = 2, v = 1"),
    (["zieve", "--ring", "5", "--bound", "6"], 1, "no witness"),
    (["certify-avoid", "5,17,257", "--mode", "linear"], 0, "3-separation holds"),
    (["certify-avoid", "5,7"], 1, "3-separation fails"),
    (["build-avoiding", "--k", "3", "--n", "1"], 0, "5, 17, 257"),
    (["abc-pair", "--C", "1", "--m", "9"], 0, "all 27 checks pass"),
    (["abc-pair", "--C", "1", "--m", "8"], 2, "m >= 9"),
    # Text output builds no JSON body, whose ordering-window operands pass
    # str()'s 4,300-digit limit from m = 16.
    (
        ["abc-pair", "--C", "1", "--m", "16"],
        0,
        "p1 = 121439531096594251873, p2 = 364318593289782755623: all 48 checks pass",
    ),
    (["bb-check", "--relation", REL_3_JSON, "--C", "1", "--eps", "1"], 0, "holds"),
    (["bb-check", "--relation", REL_3_JSON, "--C", "1/28", "--eps", "0"], 1, "fails"),
    (["bb-check", "--relation", "not json", "--C", "1", "--eps", "0"], 2, "malformed"),
    (
        ["bb-check", "--relation", REL_3_JSON.replace("[3]", '"3"'), "--C", "1", "--eps", "0"],
        2,
        "malformed relation JSON: inversion_set must be a JSON array, got str",
    ),
    (["lenstra", "--ring", "2", "--k", "3", "--bound", "4"], 0, "clique of size 3"),
    (["lenstra", "--ring", "2", "--k", "4", "--bound", "20"], 1, "no clique of size 4"),
    (["survey", "--pool", "6", "--size", "5"], 0, "6 subsets"),
    (["survey", "--pool", "50", "--size", "5"], 3, "subsets exceed"),
    (["zieve", "--ring", "2,3,5", "--bound", "30", "--ceiling", "100"], 3, "exceed"),
]


@pytest.mark.parametrize("argv,code,fragment", EXIT_MATRIX, ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_exit_code_matrix(argv, code, fragment):
    res = dispatch(argv)
    assert res.exit_code == code, res.text
    assert fragment in res.text


def test_ceiling_env_variable(monkeypatch):
    monkeypatch.setenv("UNITCYCLE_CEILING", "3")
    assert dispatch(["admits", "5,7"]).exit_code == 3
    monkeypatch.delenv("UNITCYCLE_CEILING")
    assert dispatch(["admits", "5,7"]).exit_code == 0


# Exact stderr of exit-3 requests.  The first three are the requests whose
# bytes the benchmark's golden digests pin.
EXIT_3_STDERR = [
    (
        ["admits", "5,7", "--ceiling", "3"],
        "search too large: 4 candidate terms exceed the ceiling 3\n",
    ),
    (
        ["zieve", "--ring", "2,3,5", "--bound", "30", "--ceiling", "100"],
        "search too large: 453962^2 candidate pairs exceed the configured ceiling\n",
    ),
    (
        ["survey", "--pool", "50", "--size", "5"],
        "search too large: 2118760 subsets exceed the ceiling 20000; "
        "rerun with full=True (--full) or sampling (--sample N, fixed seed)\n",
    ),
    # The ceiling bounds the pair sums too: 3,125 terms fit, their
    # 4,884,375 pair sums do not; 4 terms fit a ceiling of 5, their 10 do not.
    (
        ["admits", "2,3,5,7,11", "--mode", "general:4", "--ceiling", "1000000"],
        "search too large: 4884375 pair sums exceed the ceiling 1000000\n",
    ),
    (["admits", "5,7", "--ceiling", "5"], "search too large: 10 pair sums exceed the ceiling 5\n"),
]


@pytest.mark.parametrize("argv,stderr", EXIT_3_STDERR, ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_exit_3_stderr(monkeypatch, capsys, argv, stderr):
    monkeypatch.delenv("UNITCYCLE_CEILING", raising=False)
    assert main(argv) == 3
    assert capsys.readouterr() == ("", stderr)


def test_unit_searches_refuse_before_building_units(monkeypatch):
    # Both unit searches know their scan size in advance, so a search far
    # above the ceiling (16.2M units here) ends at once with exit 3.
    def no_scan(*args):
        raise AssertionError("units built before the ceiling check")

    monkeypatch.setattr(cycles, "scaled_unit_scan", no_scan)
    monkeypatch.setattr(lenstra, "scaled_unit_scan", no_scan)
    for cmd in ("zieve", "lenstra --k 4"):
        argv = cmd.split() + ["--ring", "2,3,5", "--bound", "100", "--ceiling", "100"]
        assert dispatch(argv).exit_code == 3


# A ceiling that is not a nonnegative integer is a usage error that names
# where it came from, not a search too large.
BAD_CEILINGS = [
    ({"UNITCYCLE_CEILING": "abc"}, ["admits", "5,7"],
     "error: UNITCYCLE_CEILING must be a nonnegative integer, got 'abc'\n"),
    ({"UNITCYCLE_CEILING": "-5"}, ["admits", "5,7"],
     "error: UNITCYCLE_CEILING must be a nonnegative integer, got '-5'\n"),
    ({}, ["admits", "5,7", "--ceiling", "-1"],
     "error: --ceiling must be a nonnegative integer, got -1\n"),
    ({}, ["zieve", "--ring", "2", "--ceiling", "-1"],
     "error: --ceiling must be a nonnegative integer, got -1\n"),
]


@pytest.mark.parametrize("env,argv,stderr", BAD_CEILINGS, ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_bad_ceiling_is_a_usage_error(monkeypatch, capsys, env, argv, stderr):
    monkeypatch.delenv("UNITCYCLE_CEILING", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", stderr)


@pytest.mark.parametrize("name", ["numba", "cython"])
def test_unknown_backend_env_variable(monkeypatch, capsys, name):
    # An engine name the package does not offer is a usage error (exit 2),
    # not a crash and not a negative finding (exit 1).
    monkeypatch.setenv("UNITCYCLE_BACKEND", name)
    assert main(["admits", "5,7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unrecognized UNITCYCLE_BACKEND value '{name}'\n"


class TestJsonPayloads:
    def test_admits_witness_round_trips(self):
        res = dispatch(["admits", "5,7", "--json"])
        rel = Relation.from_json_dict(res.payload["witness"])
        assert rel.values == (7, -5, -1, -1)

    def test_admits_negative_payload(self):
        res = dispatch(["admits", "5", "--mode", "general:8", "--json"])
        assert res.payload["admits"] is False
        assert res.payload["witness"] is None

    def test_interpolate_witness_round_trips(self):
        res = dispatch(["interpolate", "-10,-3,-4,-9", "--ring", "5,7", "--json"])
        w = CycleWitness.from_json_dict(res.payload)
        assert verify_cycle(w)

    def test_certificate_round_trips(self):
        res = dispatch(["certify-avoid", "5,79", "--mode", "npower:2", "--json"])
        cert = AvoidanceCertificate.from_json_dict(res.payload)
        assert cert.verify()

    def test_abc_report_round_trips(self):
        res = dispatch(["abc-pair", "--C", "1", "--m", "9", "--json"])
        rep = AbcPairReport.from_json_dict(res.payload)
        assert rep.all_pass and rep.verify()

    def test_interpolate_large_bad_prime(self):
        big = 1000000000000000009
        res = dispatch(["interpolate", f"1/{big},2,3,4", "--ring", "3", "--json"])
        assert res.exit_code == 1
        assert res.payload["in_ring"] is False
        assert res.payload["bad_prime"] == big
        assert res.payload["offending_value"] == f"1/{big}"

    def test_verify_cycle_reports_differences(self):
        res = dispatch(
            ["verify-cycle", "--poly", H_POLY, "--points", H_POINTS, "--ring", "5,11", "--json"]
        )
        assert res.payload["differences"] == ["5", "1", "5", "-11"]

    def test_survey_payload(self):
        res = dispatch(["survey", "--pool", "6", "--size", "5", "--json"])
        assert res.payload["rows"] == 6
        assert sum(p[2] for p in res.payload["points"]) == 6


class TestMain:
    def test_stdout_for_success(self, capsys):
        assert main(["admits", "3"]) == 0
        out, err = capsys.readouterr()
        assert "3 = 1 + 1 + 1" in out and err == ""

    def test_stdout_for_negative(self, capsys):
        assert main(["admits", "5"]) == 1
        out, err = capsys.readouterr()
        assert "avoids" in out and err == ""

    def test_stderr_for_errors(self, capsys):
        assert main(["admits", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "not prime" in err

    def test_stderr_for_ceiling(self, capsys):
        assert main(["survey", "--pool", "50", "--size", "5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "exceed" in err

    def test_json_flag_prints_json(self, capsys):
        assert main(["admits", "3", "--json"]) == 0
        out, _ = capsys.readouterr()
        assert json.loads(out)["admits"] is True

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 2
        assert main([]) == 2

    def test_help_exit_code(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestSurveyFiles:
    def test_writes_csv_and_svg(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        svg_path = tmp_path / "plot.svg"
        res = dispatch(
            ["survey", "--pool", "6", "--size", "5",
             "--csv", str(csv_path), "--svg", str(svg_path)]
        )
        assert res.exit_code == 0
        assert csv_path.read_bytes().startswith(b"primes;min_gap;relation_count\n")
        assert svg_path.read_bytes().startswith(b"<svg ")

    def test_sampled_survey(self, tmp_path):
        res = dispatch(["survey", "--pool", "12", "--size", "5", "--sample", "10"])
        assert res.exit_code == 0
        assert "10 subsets" in res.text


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


# The console script exists only once the package is installed
# (`pip install -e . --no-build-isolation`, which needs `wheel` and
# setuptools >= 68).  An installed distribution without the script on PATH
# still fails test_entry_point_installed.
needs_script = pytest.mark.skipif(
    shutil.which("unitcycle") is None,
    reason="the `unitcycle` console script is not on PATH",
)


class TestConsoleScript:
    @pytest.mark.skipif(
        not _distribution_installed("unitcycle"),
        reason="the `unitcycle` distribution is not installed",
    )
    def test_entry_point_installed(self):
        assert shutil.which("unitcycle") is not None

    @needs_script
    def test_subprocess_end_to_end(self):
        exe = shutil.which("unitcycle")
        proc = subprocess.run(
            [exe, "admits", "3"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert "3 = 1 + 1 + 1" in proc.stdout

    @needs_script
    def test_subprocess_negative_exit(self):
        exe = shutil.which("unitcycle")
        proc = subprocess.run(
            [exe, "admits", "5", "--mode", "general:8"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unitcycle.cli", "zieve", "--ring", "3", "--bound", "2"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "u = 1, v = 1" in proc.stdout


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["admits", "5,7", "--json"], ["admits", "5", "--mode", "general:10"]],
    ids=" ".join,
)
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    # The read end is closed before the child starts, so its first write fails:
    # in print when unbuffered, else when main flushes.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "unitcycle.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


def _readme_examples() -> list[tuple[list[str], int]]:
    """(argv, exit code) for each `unitcycle ...` line of the README's
    "Command line" block; the code is the comment's `exit N`, else 0."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("unitcycle "):
            code = re.search(r"#.*\bexit (\d+)", line)
            argv = shlex.split(line, comments=True)[1:]
            examples.append((argv, int(code.group(1)) if code else 0))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_examples_found():
    assert len(README_EXAMPLES) == 12


@pytest.mark.parametrize("argv,code", README_EXAMPLES, ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_readme_example_exit_code(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code, capsys.readouterr()


# -- one parser per process ---------------------------------------------------


def _run(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_readme_examples_repeat_in_one_process(tmp_path, monkeypatch, capsys):
    # Forward, then backward: each example follows a different one the second
    # time, and must print the same bytes with the same exit code.
    monkeypatch.chdir(tmp_path)
    argvs = [argv for argv, _ in README_EXAMPLES]
    first = {i: _run(capsys, argv) for i, argv in enumerate(argvs)}
    second = {i: _run(capsys, argvs[i]) for i in reversed(range(len(argvs)))}
    assert second == first
    assert [first[i][0] for i in range(len(argvs))] == [code for _, code in README_EXAMPLES]


def test_usage_error_leaves_no_trace(capsys):
    valid = ["admits", "5,7"]
    cli.build_parser.cache_clear()
    alone = _run(capsys, valid)
    # argparse has read --mode and --json before it refuses --ceiling.
    code, out, err = _run(capsys, ["admits", "5,7", "--mode", "general:2", "--json", "--ceiling", "x"])
    assert (code, out) == (2, "") and "argument --ceiling: invalid int value" in err
    assert _run(capsys, valid) == alone


def test_survey_default_seed_after_explicit_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    survey = ["survey", "--pool", "10", "--size", "4", "--sample", "5", "--json"]
    cli.build_parser.cache_clear()
    default = _run(capsys, survey)
    seeded = _run(capsys, [*survey, "--seed", "2"])
    assert seeded[0] == 0 and seeded != default  # the seed picks other subsets
    assert _run(capsys, survey) == default
