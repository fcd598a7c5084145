import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jlkit.cli import main
from jlkit.dimension import (
    denominator,
    dg_n_prime,
    dg_repetitions,
    domain_edge,
    explicit_dimension,
    gap_delta_bound,
    implicit_dimension,
    pair_failure_bound,
)
from jlkit.errors import DomainError, InfeasibleError
from jlkit.projection import Dataset, save_dataset
from jlkit.reproduce import reproduce
from tests.reference import mp_pair_bound


def mp_beta_cdf(x, a, b):
    """I_x(a, b), the regularised incomplete beta function, at 50 digits.

    Lentz's continued fraction (as in Numerical Recipes' betacf) where it
    converges fast, x < (a+1)/(a+b+2), else 1 - I_{1-x}(b, a).  Not
    ``mpmath.betainc``: its upper tail gave 1.1e-44 at n' = 2500, n = 5000,
    delta = 0.45, where the exact value is about e^-286.
    """
    from mpmath import exp, log, log1p, loggamma, mp, mpf

    with mp.workdps(50):
        x, a, b = mpf(x), mpf(a), mpf(b)
        if x <= 0:
            return mpf(0)
        if x > (a + 1) / (a + b + 2):
            return 1 - mp_beta_cdf(1 - x, b, a)
        tiny, tol = mpf(10) ** -300, mpf(10) ** -45
        c, d = mpf(1), 1 - (a + b) * x / (a + 1)
        d = 1 / (d if abs(d) > tiny else tiny)
        h = d
        for i in range(1, 10_000):
            for aa in (i * (b - i) * x / ((a + 2 * i - 1) * (a + 2 * i)),
                       -(a + i) * (a + b + i) * x / ((a + 2 * i) * (a + 2 * i + 1))):
                d, c = 1 + aa * d, 1 + aa / c
                d, c = 1 / (d if abs(d) > tiny else tiny), (c if abs(c) > tiny else tiny)
                h *= d * c
            if abs(d * c - 1) < tol:
                break
        else:
            raise AssertionError(f"continued fraction did not converge at x={x}, a={a}, b={b}")
        return exp(a * log(x) + b * log1p(-x) + loggamma(a + b) - loggamma(a) - loggamma(b)) / a * h


def mp_band_exit(n_prime, n, delta):
    """Exact probability that an orthogonal projection to n' of n dimensions
    moves a pair's adjusted squared distance out of [1-delta, 1+delta]: the
    squared-length ratio is Beta(n'/2, (n-n')/2), so a lower tail at
    (1-delta) n'/n and, by reflection, an upper one at (1+delta) n'/n."""
    from mpmath import mp, mpf

    with mp.workdps(50):
        a, b, d = mpf(n_prime) / 2, mpf(n - n_prime) / 2, mpf(delta)
        return mp_beta_cdf((1 - d) * n_prime / n, a, b) + mp_beta_cdf(1 - (1 + d) * n_prime / n, b, a)


class TestDenominator:
    def test_reference_value_at_005(self):
        # 0.05 - ln(1.05); reproduces the m=10 explicit entry 15226 below
        assert denominator(0.05) == pytest.approx(0.0012098358305679, rel=1e-12)

    def test_reference_value_at_02(self):
        assert denominator(0.2) == pytest.approx(0.2 - math.log(1.2), rel=1e-15)
        assert denominator(0.2) == pytest.approx(0.0176784432060454, rel=1e-12)

    def test_small_delta_taylor_limit(self):
        # D(d) / (d^2/2) -> 1 as d -> 0
        for d in (1e-3, 1e-4, 1e-5):
            assert denominator(d) / (d * d / 2.0) == pytest.approx(1.0, abs=3 * d)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            denominator(bad)


class TestExplicit:
    @pytest.mark.parametrize(
        "m,eps,delta,expected",
        [
            (10, 0.01, 0.05, 15226),
            (2_000_000, 0.01, 0.05, 55582),
            (5000, 0.1, 0.2, 2188),
        ],
    )
    def test_published_anchors(self, m, eps, delta, expected):
        assert explicit_dimension(m, eps, delta) == expected

    @given(
        m=st.integers(min_value=2, max_value=10**8),
        eps=st.floats(min_value=1e-6, max_value=0.999),
        delta=st.floats(min_value=1e-3, max_value=0.499),
    )
    @settings(max_examples=200)
    def test_monotonicity(self, m, eps, delta):
        base = explicit_dimension(m, eps, delta)
        assert explicit_dimension(m + 1, eps, delta) >= base          # non-decreasing in m
        assert explicit_dimension(m, min(0.999, eps * 1.5), delta) <= base  # non-increasing in eps
        assert explicit_dimension(m, eps, min(0.499, delta * 1.1)) <= base  # non-increasing in delta

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 200, 1000, 5000])
    def test_unit_row_terms_are_below_chi_square_in_convex_order(self, n):
        # n B, B ~ Beta(1/2, (n-1)/2) the squared first coordinate of a uniform
        # unit vector, has generating function 1F1(1/2, n/2, t n): at most
        # chi^2_1's (1 - 2t)^(-1/2) on both Chernoff sides, t < 0 and 0 < t < 1/2.
        from mpmath import hyp1f1, mp, mpf

        with mp.workdps(50):
            for t in map(mpf, ("-20", "-2", "-0.5", "-0.05", "0.001", "0.05", "0.2", "0.35", "0.45", "0.499")):
                assert hyp1f1(mpf(1) / 2, mpf(n) / 2, t * n) <= (1 - 2 * t) ** mpf("-0.5")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=1, epsilon=0.1, delta=0.1),
            dict(m=10, epsilon=0.0, delta=0.1),
            dict(m=10, epsilon=1.0, delta=0.1),
            dict(m=10, epsilon=0.1, delta=0.5),
            dict(m=10, epsilon=0.1, delta=0.0),
            dict(m=10, epsilon=0.1, delta=0.1, n=1),
        ],
    )
    def test_request_domain(self, kwargs, tmp_path, capsys):
        # Every CLI route to n' exits 2: dim, and project on an m x n dataset
        # with and without --implicit.
        m, n = kwargs["m"], kwargs.get("n", 5)
        values = ["--epsilon", str(kwargs["epsilon"]), "--delta", str(kwargs["delta"])]
        data_path, out_path = str(tmp_path / "data.bin"), str(tmp_path / "p.bin")
        save_dataset(Dataset(points=np.random.default_rng(0).standard_normal((m, n))), data_path)
        assert main(["dim", "--m", str(m), *values, *(["--n", str(n)] if "n" in kwargs else [])]) == 2
        for flags in ([], ["--implicit"]):
            assert main(["project", "--input", data_path, "--out", out_path, *values, *flags]) == 2
        assert capsys.readouterr().err.count("error: ") == 3


class TestPairFailureBound:
    def test_delta_zero_gives_two(self):
        assert pair_failure_bound(100, 1000, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_log_domain_matches_high_precision(self):
        for n_prime, n, delta in [(100, 1000, 0.1), (14205, 500_000, 0.05), (2188, 5000, 0.2)]:
            assert pair_failure_bound(n_prime, n, delta) == pytest.approx(
                mp_pair_bound(n_prime, n, delta), rel=1e-10
            )

    def test_published_boundary_row(self):
        # Around the published m=2e6 entry 49099: the exact boundary is
        # 49098, verified at 60 digits (the published implicit column is
        # off its boundary by up to +-5).
        pairs = 2_000_000 * 1_999_999 / 2
        assert pairs * pair_failure_bound(49098, 500_000, 0.05) <= 0.01
        assert pairs * pair_failure_bound(49097, 500_000, 0.05) > 0.01

    def test_domain_edge_rejected(self):
        with pytest.raises(DomainError):
            pair_failure_bound(999, 1000, 0.05)  # n' delta / (n - n') >= 1

    def test_result_in_range(self):
        for n_prime in (2, 50, 400):
            b = pair_failure_bound(n_prime, 1000, 0.3)
            assert 0.0 <= b <= 2.0

    def test_decreasing_in_n_prime(self):
        vals = [pair_failure_bound(v, 10_000, 0.1) for v in (10, 50, 200, 1000, 5000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bounds_the_exact_beta_tails(self):
        # 294 cases: n from 50 to 1e5, delta from 0.01 to 0.45 and n' from
        # 4% to 60% of n.  The largest exact / bound ratio is 0.50, at
        # n' = 2, n = 50, delta = 0.01; a bound with one tail dropped fails.
        for n in (50, 200, 1000, 5000, 20_000, 100_000):
            for delta in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45):
                for share in (0.04, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
                    n_prime = max(2, round(share * n))
                    exact = float(mp_band_exit(n_prime, n, delta))
                    assert exact <= pair_failure_bound(n_prime, n, delta), (n_prime, n, delta)


class TestImplicit:
    # Exact minimal integers, frozen from a 60-digit bisection oracle.
    @pytest.mark.parametrize(
        "m,eps,delta,n,exact",
        [
            (10, 0.01, 0.05, 500_000, 14205),
            (100, 0.01, 0.05, 500_000, 21270),
            (2_000_000, 0.01, 0.05, 500_000, 49098),
            (2_000_000, 0.01, 0.05, 1_000_000, 51701),
            (5000, 0.01, 0.05, 500_000, 32645),
            (2, 0.9, 0.99, 1000, 2),  # the bracket's low end already satisfies the bound
        ],
    )
    def test_exact_boundaries(self, m, eps, delta, n, exact):
        got = implicit_dimension(m, eps, delta, n)
        assert got == exact

    @pytest.mark.parametrize(
        "m,eps,delta,n,published",
        [
            (2_000_000, 0.01, 0.05, 500_000, 49099),
            (100, 0.01, 0.05, 500_000, 21269),
            (2_000_000, 0.01, 0.05, 1_000_000, 51703),
        ],
    )
    def test_near_published_values(self, m, eps, delta, n, published):
        # The published tables carry root-finder noise of a few units.
        got = implicit_dimension(m, eps, delta, n)
        assert abs(got - published) <= 5

    def test_minimality(self):
        got = implicit_dimension(100, 0.01, 0.05, 500_000)
        pairs = 100 * 99 / 2
        assert pairs * mp_pair_bound(got, 500_000, 0.05) <= 0.01
        assert pairs * mp_pair_bound(got - 1, 500_000, 0.05) > 0.01

    def test_never_above_explicit_cap(self):
        for m in (10, 1000, 2_000_000):
            assert implicit_dimension(m, 0.01, 0.05, 500_000) <= explicit_dimension(m, 0.01, 0.05) + 1

    def test_capped_when_bound_domain_exhausted(self):
        # delta = 0.01 at n = 5e5: the explicit cap exceeds n/(1+delta), and
        # the published table prints the cap; that convention lives in the
        # table builder, not in the solver.
        _, rows = reproduce("table3")
        assert rows[-1] == [0.01, 1_353_858, 1_353_859, "1"]

    def test_domain_edge_is_the_largest_n_prime_inside(self):
        # The largest n' passing both float tests of the bound's domain, also
        # at n the floor or ceiling of K (1 + delta), where the tests are tightest.
        def inside(n_prime, n, delta):
            return n_prime * (1.0 + delta) < n and n_prime * delta / (n - n_prime) < 1.0

        rng = np.random.default_rng(33)
        for _ in range(2000):
            delta = 2.0 ** rng.uniform(-60, 0) if rng.random() < 0.7 else 1.0 - 10.0 ** rng.uniform(-9, -1)
            k = int(2 ** rng.uniform(1, 50))
            scaled = Fraction(k) * (1 + Fraction(delta))
            for n in (math.floor(scaled), math.ceil(scaled), int(rng.integers(2, 2**52))):
                edge = domain_edge(n, delta)
                assert max(c for c in range(edge - 2, edge + 3) if inside(c, n, delta)) == edge

    def test_strict_mode_solves_in_domain(self):
        strict = implicit_dimension(2_000_000, 0.01, 0.01, 500_000)
        assert strict < 500_000 / 1.01
        pairs = 2_000_000 * 1_999_999 / 2
        assert pairs * mp_pair_bound(strict, 500_000, 0.01) <= 0.01

    @given(
        m=st.integers(min_value=2, max_value=10**7),
        eps=st.floats(min_value=1e-6, max_value=0.5),
        delta=st.floats(min_value=1e-3, max_value=0.499),
        n=st.integers(min_value=3, max_value=10**7),
    )
    # n'(1 + delta) < n holds at n' = 255000, but n' delta / (n - n') rounds to 1.
    @example(m=2, eps=0.5, delta=0.001, n=255255)
    @settings(max_examples=300, deadline=None)
    def test_bisection_returns_the_boundary(self, m, eps, delta, n):
        # The bound falls in n' (see the implicit_dimension docstring), so
        # bisection lands on the boundary: n' lies in the bound's domain,
        # satisfies the log-domain bound and n'-1 does not, unless n' = 2.
        # Where nothing in the domain below the explicit cap does, the
        # solver refuses; that can happen only on capped draws.
        threshold = math.log(eps) - (math.log(m) + math.log(m - 1) - math.log(2.0))

        def satisfied(n_prime):
            return math.log(pair_failure_bound(n_prime, n, delta)) <= threshold

        explicit = explicit_dimension(m, eps, delta)
        try:
            got = implicit_dimension(m, eps, delta, n)
        except InfeasibleError:
            # A refusal is allowed only where the explicit cap lies outside
            # the bound's domain, and only if the bracket end really fails.
            assert (explicit + 1) * (1.0 + delta) >= n
            assert not satisfied(min(explicit + 1, domain_edge(n, delta)))
            return
        assert got * (1.0 + delta) < n
        assert satisfied(got)
        assert got == 2 or not satisfied(got - 1)

    def test_implicit_grows_toward_explicit_with_n(self):
        vals = [
            implicit_dimension(2_000_000, 0.01, 0.05, n)
            for n in (400_000, 600_000, 1_000_000)
        ]
        assert vals == sorted(vals)
        assert vals[-1] <= explicit_dimension(2_000_000, 0.01, 0.05)


class TestDasguptaGupta:
    @pytest.mark.parametrize(
        "m,delta,expected",
        [(10, 0.05, 3879), (2_000_000, 0.05, 24436), (2_000_000, 0.5, 465)],
    )
    def test_published_anchors(self, m, delta, expected):
        assert dg_n_prime(m, delta) == expected

    @pytest.mark.parametrize(
        "m,eps,expected", [(10, 0.01, 44), (1000, 0.05, 2995), (2, 0.5, 1)]
    )
    def test_repetitions_anchors(self, m, eps, expected):
        assert dg_repetitions(m, eps) == expected

    @pytest.mark.parametrize("m", [100, 1000, 10**6])
    def test_repetitions_bracket(self, m):
        # ln(1 - 1/m) is between -1/(m-1) and -1/m, so the count is
        # bracketed by ln(1/eps) (m-1) - 1 and ln(1/eps) m + 1.
        eps = 0.01
        r = dg_repetitions(m, eps)
        assert math.log(1 / eps) * (m - 1) - 1 <= r <= math.log(1 / eps) * m + 1


class TestGapDeltaBound:
    def test_closed_forms(self):
        assert gap_delta_bound(2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=0)
        assert gap_delta_bound(1.0, 1.0) == pytest.approx(3.0 / 13.0, rel=1e-15)

    def test_vanishing_gap(self):
        assert gap_delta_bound(1e-9, 0.5) < 1e-8

    @given(
        g=st.floats(min_value=0.01, max_value=1.99),
        p=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_monotone(self, g, p):
        v = gap_delta_bound(g, p)
        assert 0.0 < v < 1.0
        assert gap_delta_bound(min(2.0, g + 0.01), p) > v
        assert gap_delta_bound(g, p + 0.1) < v

    def test_domain(self):
        with pytest.raises(DomainError):
            gap_delta_bound(0.0, 1.0)
        with pytest.raises(DomainError):
            gap_delta_bound(2.1, 1.0)
        with pytest.raises(DomainError):
            gap_delta_bound(1.0, -0.5)
