"""Fixtures shared by the test modules."""

import pytest

from spinforge import gates

# The gate library's process-wide maps: pulse-program segments, ideal
# targets and segment diagonals.
GATE_CACHES = (gates._program_segments, gates.ideal_component, gates._diagonal_of)


@pytest.fixture
def cold_caches():
    """Empty the gate library's process-wide maps before and after the test,
    so what it sees does not depend on which tests ran before it."""
    for cache in GATE_CACHES:
        cache.cache_clear()
    yield GATE_CACHES
    for cache in GATE_CACHES:
        cache.cache_clear()
