"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def default_recursion_limit():
    """Run the test under the interpreter's default recursion limit of
    1000, whatever limit the test runner set, and restore it after."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)
