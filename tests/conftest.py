import functools
import os
import subprocess
import sys
import tracemalloc

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def record_builds(monkeypatch):
    """record_builds(cls, name, record) wraps the cached property cls.name so
    that each build calls record(obj) first; a cached read calls nothing."""

    def wrap(cls, name, record):
        build = vars(cls)[name].func
        prop = functools.cached_property(lambda obj: record(obj) or build(obj))
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)

    return wrap


@pytest.fixture
def python():
    """python(code) runs `code` in a fresh interpreter that imports qmcnet
    from the checkout's src/, and returns the completed process."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=120,
        )

    return run


@pytest.fixture
def peak_bytes():
    """peak_bytes(fn, *args) calls fn(*args) under tracemalloc and returns the
    peak of the memory traced meanwhile, in bytes."""

    def run(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
