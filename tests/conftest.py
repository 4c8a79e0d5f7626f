import functools
import os
import sys

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
