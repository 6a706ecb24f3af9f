"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def empty_memos():
    """empty_memos(*memos) empties each lattice.Memo for the rest of the
    test, so that the test sees every entry it causes; the entries from
    before come back after it."""
    saved = []

    def empty(*memos):
        for memo in memos:
            saved.append((memo, dict(memo)))
            memo.clear()

    yield empty
    for memo, entries in reversed(saved):
        memo.clear()
        memo.update(entries)
