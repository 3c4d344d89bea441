"""Mutation gate for the numpy join and the checks at the package's trust
boundaries.

Each mutant below breaks one rule: of the numpy engine's join (the
two-bit window of its 3-1 probes, b <= c and c <= d in its rows, its keys'
reduction mod P and their packing with the table index), its segment tags
and segment counts, its input check and pair-sum ceiling
(`src/unitcycle/backends.py`); of the term table's and the survey's
ceilings (`relsearch.py`, `survey.py`); of the term and row checks that
every `Relation` passes, the cyclic collector's restore after
`find_relations` and the relation JSON reader (`relsearch.py`); of
the prime and sign checks and the JSON readers' array, integer-or-string
and string rules (`exactnum.py`, `sring.py`); of the certificate
checks (`avoidance.py`, `cycles.py`, `lenstra.py`); of the int-numerator
evaluation and orbits (`cycles.py`); or of the CLI's error mapping (exit
2 for an input error, 4 for an unexpected exception) and its hand-over of
unrecognized arguments to the full parser (`cli.py`).  For
each one this script copies the package to a temporary directory, applies
the mutation to the named file of the copy, and runs the mutant's test
files against the copy.  Every mutant must make
those tests fail; a mutant that passes means the tests no longer pin that
rule.  The unmutated copy must pass first.

Not covered: whether the ranked rows and the segment counts take a row
with t0 = t3 for a 2-2 row (`rows[0] <= rows[3]`) or a 3-1 row (`<`).  No
relation gives such a row: a 2-2 row's outer pair (t0, t3) comes first in
table order, and a pair (t, t) that came before (b, c) would have
2 v_t > v_b + v_c.  So the two tests are equivalent and have no mutant.

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
        "3-1 window slack 2 -> 1",
        "backends.py",
        'level.searchsorted(level + 2, side="right")',
        'level.searchsorted(level + 1, side="right")',
        KERNEL_TESTS,
    ),
    (
        "b <= c made strict (3-1 rows with b = c dropped)",
        "backends.py",
        "rows.compress(rows[1] <= rows[2], axis=1)",
        "rows.compress((rows[1] <= rows[2]) & (rows[0] < rows[1]), axis=1)",
        KERNEL_TESTS,
    ),
    (
        "c < d for c <= d (inner pairs (c, c) dropped)",
        "backends.py",
        "rows.compress(rows[1] <= rows[2], axis=1)",
        "rows.compress(rows[1] < rows[2], axis=1)",
        KERNEL_TESTS,
    ),
    (
        "positive side flipped (the inner pair made positive)",
        "backends.py",
        "[row.take(outer), row.take(inner), partner.take(inner), partner.take(outer)]",
        "[row.take(inner), row.take(outer), partner.take(outer), partner.take(inner)]",
        KERNEL_TESTS,
    ),
    (
        "mod-P reduction of the keys dropped",
        "backends.py",
        "np.minimum(words, spare, out=words)",
        "pass",
        KERNEL_TESTS,
    ),
    (
        "differences keyed as sums",
        "backends.py",
        "np.subtract(_PRIME, key, out=words[0::2])",
        "np.add(_PRIME, key, out=words[0::2])",
        KERNEL_TESTS,
    ),
    (
        "pair-index mask dropped",
        "backends.py",
        "inner &= mask",
        "pass",
        KERNEL_TESTS,
    ),
    (
        "hash bits left under the index",
        "backends.py",
        "words &= ~mask",
        "pass",
        KERNEL_TESTS,
    ),
    (
        "exact-sum mask dropped",
        "backends.py",
        "quads.compress(quads[0] + quads[1] + quads[2] + quads[3] == 0, axis=1)",
        "quads",
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
        "segment[rows[0][total == 0]]",
        "segment[rows[0]]",
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
    # Evaluation and orbits on int numerators.
    (
        "orbit's pair left unreduced",
        "cycles.py",
        "g = gcd(n, d)",
        "g = 1",
        CYCLES_TESTS,
    ),
    (
        "Horner's power of d taken one step late",
        "cycles.py",
        "power *= d\n            acc = acc * n + a * power",
        "acc = acc * n + a * power\n            power *= d",
        CYCLES_TESTS,
    ),
    (
        "CliqueWitness distinctness test dropped",
        "lenstra.py",
        "if len(set(self.elements)) != len(self.elements):",
        "if False:",
        ("tests/test_lenstra.py",),
    ),
    # The CLI's error mapping and its one parse per request.
    (
        "dispatch OSError mapping dropped",
        "cli.py",
        "except (ValueError, ZeroDivisionError, OSError) as e:",
        "except (ValueError, ZeroDivisionError) as e:",
        CLI_TESTS,
    ),
    (
        "unexpected exception reported as a negative finding",
        "cli.py",
        "        return 4\n",
        "        return 1\n",
        CLI_TESTS,
    ),
    (
        "unrecognized arguments not sent to the full parser",
        "cli.py",
        "if extra:",
        "if False:",
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
