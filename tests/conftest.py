import multiprocessing

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
