"""Shared fixtures for the test suite."""

import pytest
import yaml

from btt import textio
from util import needs_libyaml

LOADERS = [
    pytest.param("CSafeLoader", id="libyaml", marks=needs_libyaml),
    pytest.param("SafeLoader", id="pure"),
]


@pytest.fixture(params=LOADERS)
def yaml_loader(request, monkeypatch):
    """Run the test once with each YAML parser the front end can use."""
    loader = getattr(yaml, request.param)
    monkeypatch.setattr(textio, "_LOADER", loader)
    return loader
