"""Every test runs at the default enumeration budget, whatever the calling shell sets.

A test that needs another budget sets PRPD_ENUM_LIMIT itself, through monkeypatch.
"""

import pytest


@pytest.fixture(autouse=True)
def default_enum_limit(monkeypatch):
    monkeypatch.delenv("PRPD_ENUM_LIMIT", raising=False)
