import pytest

from unitcycle import backends


@pytest.fixture(params=["numpy", "python"])
def each_backend(request, monkeypatch):
    monkeypatch.setenv(backends.BACKEND_ENV, request.param)
    return request.param
