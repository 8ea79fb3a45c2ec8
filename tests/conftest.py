"""A time limit for every test, so that a runaway loop fails its test instead
of hanging the run while its memory grows.

The limit sits far above the slowest test (a few seconds).  It uses SIGALRM,
so it is a no-op on platforms without that signal.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 30


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        # pytest.fail raises a BaseException, which `except Exception` in the
        # code under test cannot swallow
        pytest.fail(f"{request.node.nodeid} ran longer than {TEST_TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
