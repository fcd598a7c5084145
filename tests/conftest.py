import tracemalloc

import pytest

from jlkit import kmeans


@pytest.fixture
def oracle_calls(monkeypatch):
    """Empty the exact oracle's memo and count its enumerations.

    Returns a one-element list holding the number of calls made to
    ``kmeans.brute_force_optimum_sq_dists`` so far; the test may reset it.
    """
    kmeans._optima.clear()
    real = kmeans.brute_force_optimum_sq_dists
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(kmeans, "brute_force_optimum_sq_dists", counted)
    return calls


@pytest.fixture
def traced_peak():
    """Return a function that calls ``fn()`` under ``tracemalloc``.

    It returns ``(result, peak)``, the peak being the most bytes traced at
    once during the call.
    """
    def run(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
