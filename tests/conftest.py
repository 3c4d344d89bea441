import faulthandler
import signal

import pytest

from unitcycle import backends

# Each test's wall-clock limit: more than ten times the slowest test
# (about 3.4 s), so that a test that hangs fails instead of holding the run
# until the CI job's own limit.
TEST_TIME_LIMIT_S = 60
# Past the limit by this much, faulthandler prints every thread's stack and
# ends the process: the backstop for a hang the alarm cannot interrupt, in
# code that does not return to the interpreter to run its signal handler.
BACKSTOP_S = 30


def _time_out(signum, frame):
    pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TEST_TIME_LIMIT_S (wall clock)."""
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S + BACKSTOP_S, exit=True)
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(params=["numpy", "python"])
def each_backend(request, monkeypatch):
    monkeypatch.setenv(backends.BACKEND_ENV, request.param)
    return request.param
