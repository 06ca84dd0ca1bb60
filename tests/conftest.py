import multiprocessing
import os
import signal
import subprocess
import sys

import pytest


@pytest.fixture(autouse=True)
def no_process_left():
    """Fail a test after which a child process is still running; the
    children are stopped first so that later tests start clean."""
    yield
    left = multiprocessing.active_children()
    if left:
        message = f"the test left {len(left)} child process(es) running: {left}"
        for proc in left:
            proc.terminate()
            proc.join()
        pytest.fail(message)


def _run_bounded(script, timeout):
    """Run script in a fresh interpreter with tests/ on its path, in a
    session of its own; past timeout seconds the whole session, workers
    included, is killed and the test fails."""
    proc = subprocess.Popen(
        [sys.executable, "-c", script, os.path.dirname(__file__)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"still running after {timeout} s")
    assert proc.returncode == 0, err
    return out


@pytest.fixture
def run_bounded():
    """_run_bounded(script, timeout): the script's standard output."""
    return _run_bounded
