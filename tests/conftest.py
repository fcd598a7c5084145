import pytest

from jlkit import kmeans


@pytest.fixture
def oracle_calls(monkeypatch):
    """Empty the exact oracle's memo and count its enumerations.

    Returns a one-element list holding the number of calls made to
    ``kmeans.brute_force_optimum_sq_dists`` so far; the test may reset it.
    """
    kmeans._optimum_labels.cache_clear()
    real = kmeans.brute_force_optimum_sq_dists
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(kmeans, "brute_force_optimum_sq_dists", counted)
    return calls
