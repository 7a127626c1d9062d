"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from translatable import batch


@pytest.fixture
def fresh_memo():
    # batch memoises row spaces and whole-space verdicts at module level, so
    # a test that patches a mask, or counts what a sweep computes, must start
    # from an empty memo and leave none of its verdicts behind.
    batch.clear_memo()
    yield
    batch.clear_memo()
