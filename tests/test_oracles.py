import os
import subprocess
import sys
from pathlib import Path

import pushgraph

# The overrun lands in `spin`, whose loop jumps back from inside an `if`:
# that jump has no line number, and it is where CPython runs the signal
# handler.  A TimeoutError raised in the handler made pytest stop the whole
# session with INTERNALERROR while rendering the traceback.
OVERRUNNING_FILE = '''
from oracles import time_limit


def spin():
    best = None
    while True:
        for v in range(1000):
            if best is None or v < best:
                best = v


def test_overruns():
    with time_limit(0.2):
        spin()


def test_runs_after_the_overrun():
    pass
'''


def test_time_limit_overrun_is_an_ordinary_failure(tmp_path):
    (tmp_path / "test_overrun.py").write_text(OVERRUNNING_FILE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent), str(Path(pushgraph.__file__).parents[1])]
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_overrun.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR>" not in run.stdout + run.stderr
    assert "FAILED test_overrun.py::test_overruns - TimeoutError" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
