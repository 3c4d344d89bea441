"""Mutation gate for the numpy join and the checks at the package's trust
boundaries.

Each mutant below breaks one rule: of the numpy engine's join, its segment
tags and segment counts, its input check and pair-sum ceiling
(`src/unitcycle/backends.py`); of the term table's and the survey's
ceilings (`relsearch.py`, `survey.py`); of the term and row checks that
every `Relation` passes, the cyclic collector's restore after
`find_relations` and the relation JSON reader (`relsearch.py`); of
the prime and sign checks and the JSON readers' array, integer-or-string
and string rules (`exactnum.py`, `sring.py`); of the certificate
checks (`avoidance.py`, `cycles.py`, `lenstra.py`); or of the CLI's error
mapping (`cli.py`).  For each one this script copies the package to a
temporary directory, applies the mutation to the named file of the copy,
and runs the mutant's test files against the copy.  Every mutant must make
those tests fail; a mutant that passes means the tests no longer pin that
rule.  The unmutated copy must pass first.

Not covered: `exactnum._RANDOM_ROUNDS`, the Miller-Rabin rounds above the
deterministic bound.  Cutting it from 64 to 1 changes no answer that a test
can see, because a composite that fools one random round is too rare to
find, so it has no mutant here.

Run:

    python3 tools/kernel_mutants.py

Exits 0 when every mutant is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "unitcycle"
KERNEL_TESTS = ("tests/test_backends.py", "tests/test_relsearch.py")
RELSEARCH_TESTS = ("tests/test_relsearch.py",)
BACKEND_TESTS = ("tests/test_backends.py",)
AVOIDANCE_TESTS = ("tests/test_avoidance.py",)
CYCLES_TESTS = ("tests/test_cycles.py",)
SRING_TESTS = ("tests/test_sring.py",)
CLI_TESTS = ("tests/test_cli.py",)
SURVEY_TESTS = ("tests/test_survey.py",)
COUNT_TESTS = ("tests/test_backends.py", "tests/test_survey.py")

# (name, file in the package, text in that file, replacement, test files):
# each text occurs exactly once in its file.
MUTANTS = [
    # The numpy join.
    (
        "c < d for c <= d",
        "backends.py",
        "rows = rows[:, rows[2] <= rows[3]]",
        "rows = rows[:, rows[2] < rows[3]]",
        KERNEL_TESTS,
    ),
    (
        "positive side flipped (the inner pair made positive)",
        "backends.py",
        "rows = np.array([b[outer], b[inner], c[inner], c[outer]])",
        "rows = np.array([b[inner], b[outer], c[outer], c[inner]])",
        KERNEL_TESTS,
    ),
    (
        "+P wrap of the differences dropped",
        "backends.py",
        "np.add(diffs, RESIDUE_PRIME, out=diffs, where=diffs < 0)",
        "pass",
        KERNEL_TESTS,
    ),
    (
        "exact-sum mask dropped",
        "backends.py",
        "quads[:, quads.sum(axis=0) == 0]",
        "quads",
        KERNEL_TESTS,
    ),
    (
        "3-1 equality test dropped",
        "backends.py",
        '(table.take(first, mode="clip") == probes).nonzero()[0]',
        "np.arange(len(probes))",
        KERNEL_TESTS,
    ),
    (
        "differences hashed unlike the sums (presence filter)",
        "backends.py",
        "present[_slots(probes, bits)]",
        "present[_slots(probes, bits - 1)]",
        KERNEL_TESTS,
    ),
    (
        "3-1 hits not mapped through the candidate index",
        "backends.py",
        "hit = maybe[found]",
        "hit = found",
        KERNEL_TESTS,
    ),
    (
        "every segment given the same tag",
        "backends.py",
        "tags = [s * _TAG_STEP % RESIDUE_PRIME for s in range(len(sizes))]",
        "tags = [0 for s in range(len(sizes))]",
        SURVEY_TESTS,
    ),
    (
        "segment counts keep rows whose exact sum is not 0",
        "backends.py",
        "segment[head[total == 0]]",
        "segment[head]",
        COUNT_TESTS,
    ),
    (
        "segment counts drop 3-1 rows with c = v",
        "backends.py",
        "keep = (low <= tail).nonzero()[0]",
        "keep = (low < tail).nonzero()[0]",
        COUNT_TESTS,
    ),
    # The search's input check and ceilings.
    (
        "zero_quadruples input check dropped",
        "backends.py",
        "if min(vs) <= 0 or len(set(vs)) != len(vs):",
        "if False:",
        BACKEND_TESTS,
    ),
    (
        "pair-sum ceiling off by one",
        "backends.py",
        "if npairs > limit:",
        "if npairs > limit + 1:",
        BACKEND_TESTS,
    ),
    (
        "term-table ceiling off by one",
        "relsearch.py",
        "if count > limit:",
        "if count > limit + 1:",
        CLI_TESTS,
    ),
    (
        "survey subset ceiling off by one",
        "survey.py",
        "total > SUBSET_CEILING:",
        "total > SUBSET_CEILING + 1:",
        SURVEY_TESTS,
    ),
    # The term and row checks that every Relation passes.
    (
        "term product comparison dropped",
        "relsearch.py",
        "if t.sign * product != v:",
        "if False:",
        RELSEARCH_TESTS,
    ),
    (
        "term nonnegative-exponent test dropped",
        "relsearch.py",
        "if exps and min(exps) < 0:",
        "if False:",
        RELSEARCH_TESTS,
    ),
    (
        "term exponent-count test dropped",
        "relsearch.py",
        "if len(exps) != len(primes):",
        "if False:",
        RELSEARCH_TESTS,
    ),
    (
        "positive sign reused for the negative value",
        "relsearch.py",
        "set_sign(t, 1 if v > 0 else -1)",
        "set_sign(t, 1)",
        RELSEARCH_TESTS,
    ),
    (
        "collector left paused",
        "relsearch.py",
        "gc.enable()",
        "pass",
        RELSEARCH_TESTS,
    ),
    (
        "row vanishing-pair test dropped",
        "relsearch.py",
        "if a + b == 0 or a + c == 0 or a + d == 0:",
        "if False:",
        RELSEARCH_TESTS,
    ),
    (
        "row canonical-order test dropped",
        "relsearch.py",
        "isinstance(values, tuple) and a >= abs(b) >= abs(c) >= abs(d)",
        "isinstance(values, tuple)",
        RELSEARCH_TESTS,
    ),
    (
        "row int test dropped",
        "relsearch.py",
        "isinstance(a, int) and isinstance(b, int) and isinstance(c, int) and isinstance(d, int)",
        "True",
        RELSEARCH_TESTS,
    ),
    (
        "relation JSON value check dropped",
        "relsearch.py",
        """if "value" in t and str(t["value"]) != str(v):""",
        "if False:",
        RELSEARCH_TESTS,
    ),
    # Rings, terms and JSON input.
    (
        "require_prime test dropped",
        "exactnum.py",
        "if not is_probable_prime(p):",
        "if False:",
        SRING_TESTS,
    ),
    (
        "json_array array check dropped",
        "sring.py",
        "if not isinstance(value, list):",
        "if False:",
        SRING_TESTS,
    ),
    (
        "JSON integer-or-string rule dropped",
        "sring.py",
        "if isinstance(value, bool) or not isinstance(value, (int, str)):",
        "if False:",
        SRING_TESTS,
    ),
    (
        "JSON string rule dropped",
        "sring.py",
        "if not isinstance(value, str):",
        "if False:",
        SRING_TESTS,
    ),
    (
        "UnitTerm sign check dropped",
        "sring.py",
        "if self.sign not in (-1, 1):",
        "if False:",
        SRING_TESTS,
    ),
    # Certificates.
    (
        "InequalityCheck comparison reversed",
        "avoidance.py",
        'passed = lhs < rhs if relation == "<" else lhs > rhs',
        'passed = lhs > rhs if relation == "<" else lhs < rhs',
        AVOIDANCE_TESTS,
    ),
    (
        "InequalityCheck.verify compares nothing",
        "avoidance.py",
        "return InequalityCheck.of(self.name, self.lhs, self.relation, self.rhs) == self",
        "return True",
        AVOIDANCE_TESTS,
    ),
    (
        "InequalityCheck JSON bool check dropped",
        "avoidance.py",
        "if not isinstance(passed, bool):",
        "if False:",
        AVOIDANCE_TESTS,
    ),
    (
        "AvoidanceCertificate size check dropped",
        "avoidance.py",
        "if n != (self.mode.bound + 1) ** len(self.inversion_set):",
        "if False:",
        AVOIDANCE_TESTS,
    ),
    (
        "AbcPairReport rebuild dropped",
        "avoidance.py",
        "return abc_pair(self.c, self.m, self.p1 - 1) == self",
        "return True",
        AVOIDANCE_TESTS,
    ),
    (
        "four-point distinctness test dropped",
        "cycles.py",
        "if len(set(xs)) != 4:",
        "if False:",
        CYCLES_TESTS,
    ),
    (
        "verify_cycle repeated-point test dropped",
        "cycles.py",
        "if len(set(w.points)) != 4:",
        "if False:",
        CYCLES_TESTS,
    ),
    (
        "verify_cycle coefficient-membership test dropped",
        "cycles.py",
        "if not is_member(c, w.inversion_set):",
        "if False:",
        CYCLES_TESTS,
    ),
    (
        "CliqueWitness distinctness test dropped",
        "lenstra.py",
        "if len(set(self.elements)) != len(self.elements):",
        "if False:",
        ("tests/test_lenstra.py",),
    ),
    # The CLI's error mapping.
    (
        "dispatch OSError mapping dropped",
        "cli.py",
        "except (ValueError, ZeroDivisionError, OSError) as e:",
        "except (ValueError, ZeroDivisionError) as e:",
        CLI_TESTS,
    ),
]


def run_tests(workdir: Path, tests: Sequence[str], file: str = "", source: str = "") -> int:
    """Run `tests` against a copy of the package, the copy's `file` (when
    given) replaced by `source`."""
    shutil.rmtree(workdir / "unitcycle", ignore_errors=True)
    shutil.copytree(PACKAGE, workdir / "unitcycle", ignore=shutil.ignore_patterns("__pycache__"))
    if file:
        (workdir / "unitcycle" / file).write_text(source)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=copy_env(workdir), capture_output=True).returncode


def copy_env(workdir: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(workdir), PYTHONDONTWRITEBYTECODE="1")


def main() -> int:
    start = time.perf_counter()
    all_tests = sorted({t for *_, tests in MUTANTS for t in tests})
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        code = run_tests(workdir, all_tests)
        # An installed copy of the package must not shadow the mutated one.
        where = subprocess.run(
            [sys.executable, "-c", "import unitcycle; print(unitcycle.__file__)"],
            cwd=ROOT, env=copy_env(workdir), capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(workdir)):
            print(f"the tests import unitcycle from {where or '(nowhere)'}, not the copy")
            return 1
        if code != 0:
            print(f"unmutated copy: tests exit {code}, expected 0")
            return 1
        print("unmutated copy: tests pass")
        survivors = 0
        for name, file, old, new, tests in MUTANTS:
            original = (PACKAGE / file).read_text()
            if original.count(old) != 1:
                print(f"{name}: mutation site not found exactly once in {file}")
                survivors += 1
                continue
            code = run_tests(workdir, tests, file, original.replace(old, new))
            # pytest exits 1 when tests ran and some failed; anything else
            # (0 passed, 2+ usage or collection errors) does not count.
            caught = code == 1
            survivors += not caught
            print(f"{name}: {'caught' if caught else f'NOT caught (pytest exit {code})'}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
