import pytest

from unitcycle import backends


@pytest.fixture(scope="session", autouse=True)
def warm_backend():
    # Compile (or load from cache) the jit kernel once, so timed tests
    # measure the search itself and not compilation.  Without numba there is
    # nothing to compile; a session with UNITCYCLE_BACKEND=numba then still
    # gets the documented RuntimeError, but only in the tests that search.
    if backends.HAVE_NUMBA:
        backends.warmup()


@pytest.fixture(params=["numba", "numpy", "python"])
def each_backend(request, monkeypatch):
    monkeypatch.setenv(backends.BACKEND_ENV, request.param)
    return request.param
