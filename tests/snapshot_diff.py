"""Compare the CLI outputs of a git revision with those of the working tree.

Usage:  python tests/snapshot_diff.py [REV]        (REV defaults to HEAD)

Extracts REV's src/ with `git archive` into a temporary directory, runs this
tree's tests/cli_snapshot.py, and so its command list, once on that source
and once on the working tree's src/, and compares the two snapshots with
`diff -r`, which prints each differing file as before/NAME and after/NAME.
The directory is removed and the exit status is diff's: 0 when every output
is byte-identical, 1 when some differ, 2 on trouble.  Nothing is fetched.
pytest does not collect this file (its name lacks test_).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def snapshot(src: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, str(TESTS / "cli_snapshot.py"), str(out)],
        env=env, capture_output=True, text=True,
    )
    if run.returncode:
        sys.stderr.write(run.stderr)
        sys.exit(f"snapshot of {src} failed")


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        archive = subprocess.Popen(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
            stdout=subprocess.PIPE,
        )
        untar = subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() or untar.returncode:
            sys.exit(f"cannot extract src/ at {rev}")
        snapshot(base / "src", base / "before")
        snapshot(ROOT / "src", base / "after")
        return subprocess.run(["diff", "-r", "before", "after"], cwd=tmp).returncode


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: python tests/snapshot_diff.py [REV]")
    sys.exit(main(sys.argv[1] if len(sys.argv) == 2 else "HEAD"))
