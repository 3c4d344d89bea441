"""Mutation gate for the numpy engine's join and the relation search's term checks.

Each mutant below breaks one rule of the numpy engine (`_ranked_rows` and
`_zero_quads_numpy` in `src/unitcycle/backends.py`) or of the term checks
that `find_relations` runs (`src/unitcycle/relsearch.py`).  For each one this
script copies the package to a temporary directory, applies the mutation to
the named file of the copy, and runs the mutant's test files against the
copy.  Every mutant must make those tests fail; a mutant that passes means
the tests no longer pin that rule.  The unmutated copy must pass first.

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

# (name, file in the package, text in that file, replacement, test files):
# each text occurs exactly once in its file.
MUTANTS = [
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
        "term product comparison dropped",
        "relsearch.py",
        "if t.sign * product != v:",
        "if False:",
        RELSEARCH_TESTS,
    ),
    (
        "term nonnegative-exponent test dropped",
        "relsearch.py",
        "exps = table[m]\n        if exps and min(exps) < 0:",
        "exps = table[m]\n        if False:",
        RELSEARCH_TESTS,
    ),
    (
        "positive sign reused for the negative value",
        "relsearch.py",
        'set_field(t, "sign", 1 if v > 0 else -1)',
        'set_field(t, "sign", 1)',
        RELSEARCH_TESTS,
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
