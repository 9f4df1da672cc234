import tracemalloc

import pytest


def _traced_peak_bytes(fn, *args):
    """Peak bytes that fn(*args) allocates, as tracemalloc sees them.

    numpy reports its array buffers to tracemalloc, so this counts them.
    """
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak_bytes():
    return _traced_peak_bytes
