"""Mutation gate for the numpy engine's join.

Each mutant below breaks one rule of the numpy engine (`_ranked_rows` and
`_zero_quads_numpy` in `src/unitcycle/backends.py`).  For each one this
script copies the package to a temporary directory, applies the mutation to
the copy's `backends.py`, and runs the backend and relation-search tests
against the copy.  Every mutant must make those tests fail; a mutant that
passes means the tests no longer pin that rule.  The unmutated copy must
pass first.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "unitcycle"
TESTS = ["tests/test_backends.py", "tests/test_relsearch.py"]

# (name, text in backends.py, replacement): each text occurs exactly once.
MUTANTS = [
    (
        "c < d for c <= d",
        "rows = rows[:, rows[2] <= rows[3]]",
        "rows = rows[:, rows[2] < rows[3]]",
    ),
    (
        "positive side flipped (the inner pair made positive)",
        "rows = np.array([b[outer], b[inner], c[inner], c[outer]])",
        "rows = np.array([b[inner], b[outer], c[outer], c[inner]])",
    ),
    (
        "+P wrap of the differences dropped",
        "np.add(diffs, RESIDUE_PRIME, out=diffs, where=diffs < 0)",
        "pass",
    ),
    (
        "exact-sum mask dropped",
        "quads[:, quads.sum(axis=0) == 0]",
        "quads",
    ),
    (
        "3-1 equality test dropped",
        '(table.take(first, mode="clip") == probes).nonzero()[0]',
        "np.arange(len(probes))",
    ),
    (
        "differences hashed unlike the sums (presence filter)",
        "present[_slots(probes, bits)]",
        "present[_slots(probes, bits - 1)]",
    ),
    (
        "3-1 hits not mapped through the candidate index",
        "hit = maybe[found]",
        "hit = found",
    ),
]


def run_tests(source: str, workdir: Path) -> int:
    """Run TESTS against a copy of the package whose backends.py is `source`."""
    shutil.rmtree(workdir / "unitcycle", ignore_errors=True)
    shutil.copytree(PACKAGE, workdir / "unitcycle", ignore=shutil.ignore_patterns("__pycache__"))
    (workdir / "unitcycle" / "backends.py").write_text(source)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
    return subprocess.run(cmd, cwd=ROOT, env=copy_env(workdir), capture_output=True).returncode


def copy_env(workdir: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(workdir), PYTHONDONTWRITEBYTECODE="1")


def main() -> int:
    original = (PACKAGE / "backends.py").read_text()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        code = run_tests(original, workdir)
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
        for name, old, new in MUTANTS:
            if original.count(old) != 1:
                print(f"{name}: mutation site not found exactly once")
                survivors += 1
                continue
            code = run_tests(original.replace(old, new), workdir)
            # pytest exits 1 when tests ran and some failed; anything else
            # (0 passed, 2+ usage or collection errors) does not count.
            caught = code == 1
            survivors += not caught
            print(f"{name}: {'caught' if caught else f'NOT caught (pytest exit {code})'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
