import os
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


@pytest.fixture
def read_calls(monkeypatch):
    """Record ("pread" or "preadv", offset, bytes read) of every os.pread and
    os.preadv call, in call order, from here to the end of the test.

    The OMCF reader reads headers by pread and payloads by preadv.
    """
    calls = []
    pread, preadv = os.pread, os.preadv

    def recording_pread(fd, n, offset):
        data = pread(fd, n, offset)
        calls.append(("pread", offset, len(data)))
        return data

    def recording_preadv(fd, buffers, offset):
        n = preadv(fd, buffers, offset)
        calls.append(("preadv", offset, n))
        return n

    monkeypatch.setattr(os, "pread", recording_pread)
    monkeypatch.setattr(os, "preadv", recording_preadv)
    return calls
