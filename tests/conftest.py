"""Shared fixtures."""

import pytest

from entpoly import polygon


@pytest.fixture(autouse=True)
def _cold_chunk_memo():
    """Each test starts and ends with an empty audit chunk memo.

    A test that replaces `trial_rng`, a sampler's helpers or `reduced_spectra`
    would otherwise be served the rows and spectra an earlier test memoized.
    """
    polygon._chunk.cache_clear()
    yield
    polygon._chunk.cache_clear()
