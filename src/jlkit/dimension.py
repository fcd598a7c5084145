"""Target-dimension calculators for one-shot Gaussian random projection.

Two routes to the reduced dimension n' are provided for a point count m,
failure probability epsilon and relative squared-distance error delta:

* ``explicit_dimension`` -- closed form, independent of the original
  dimension n.  Sufficient: one projection preserves every pairwise
  squared distance within a factor 1 +/- delta with probability >= 1-eps.
* ``implicit_dimension`` -- the n-dependent refinement obtained by
  solving the per-pair tail bound ``pair_failure_bound`` times the number
  of pairs against epsilon.

For comparison, the classical repeat-until-success recipe is costed by
``dg_n_prime`` (per-trial dimension) and ``dg_repetitions`` (number of
trials needed to reach failure probability epsilon when a single trial
succeeds with probability only 1/m).

Not implemented (noted for reference): the discrete-entry projection
variant controls a single point's excursion probability with
n' >= (4 + 2 gamma) ln m / (delta^2 - delta^3) for a tunable gamma > 0;
it bounds per-point moments rather than the all-pairs event this package
is about.
"""

from __future__ import annotations

import math

from .errors import DomainError, InfeasibleError

__all__ = [
    "denominator",
    "explicit_dimension",
    "pair_failure_bound",
    "domain_edge",
    "implicit_dimension",
    "dg_n_prime",
    "dg_repetitions",
    "gap_delta_bound",
]


def denominator(delta: float) -> float:
    """The denominator D(delta) = delta - ln(1 + delta) of the explicit bound.

    This is the exact value of -(ln(1 - d*) + d*) at d* = -delta, the
    smaller of the two log-tail coefficients, hence a valid lower bound
    for both tails.  Behaves like delta^2/2 for small delta.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return delta - math.log1p(delta)


def explicit_dimension(m: int, epsilon: float, delta: float) -> int:
    """Sufficient n' = ceil(2 (-ln eps + 2 ln m) / D(delta)), independent of n.

    The Chernoff step bounds chi^2_1 terms, yet unit-norm rows hold it: for B
    a uniform unit vector's squared first coordinate, chi^2_1 = (n B)(chi^2_n / n),
    independent factors, so n B is below chi^2_1 in convex order, MGF included.

    The guarantee is stated for delta < 1/2 (what the CLI checks); delta
    in (0, 1) is accepted so the published sweeps, which touch delta = 0.5,
    can be regenerated.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.ceil(2.0 * (-math.log(epsilon) + 2.0 * math.log(m)) / denominator(delta))


def _log_pair_failure_bound(n_prime: float, n: float, delta: float) -> float:
    # Log of B(n') = (1-d)^{n'/2} (1 + n'd/(n-n'))^{(n-n')/2}
    #             + (1+d)^{n'/2} (1 - n'd/(n-n'))^{(n-n')/2}
    # evaluated entirely in the log domain; the raw powers underflow for
    # n' in the tens of thousands.
    r = n_prime * delta / (n - n_prime)
    t_low = 0.5 * n_prime * math.log1p(-delta) + 0.5 * (n - n_prime) * math.log1p(r)
    t_high = 0.5 * n_prime * math.log1p(delta) + 0.5 * (n - n_prime) * math.log1p(-r)
    hi, lo = max(t_low, t_high), min(t_low, t_high)
    return hi + math.log1p(math.exp(lo - hi))


def pair_failure_bound(n_prime: int, n: int, delta: float) -> float:
    """Upper bound on the probability that one pair leaves the distortion band.

    Both chi-square-style tails of the squared-length ratio are summed.
    Defined only for 0 < n' < n with n' * delta / (n - n') < 1; the result
    lies in [0, 2] (it is a bound, not a probability; at delta = 0 both
    tails degenerate to 1 and the bound is the vacuous 2).
    """
    if not 0.0 <= delta < 1.0:
        raise DomainError(f"delta must lie in [0, 1), got {delta}")
    if not 0 < n_prime < n:
        raise DomainError(f"need 0 < n' < n, got n'={n_prime}, n={n}")
    if n_prime * delta / (n - n_prime) >= 1.0:
        raise DomainError(
            f"bound undefined: n'*delta/(n-n') >= 1 for n'={n_prime}, n={n}, "
            f"delta={delta}; shrink n' or raise n"
        )
    return math.exp(_log_pair_failure_bound(float(n_prime), float(n), delta))


def domain_edge(n: int, delta: float) -> int:
    """Largest n' with n' (1 + delta) < n whose float n' delta / (n - n') is also below 1."""
    edge = int(n / (1.0 + delta))
    while edge * (1.0 + delta) >= n or edge * delta / (n - edge) >= 1.0:
        edge -= 1
    while (edge + 1) * (1.0 + delta) < n and (edge + 1) * delta / (n - edge - 1) < 1.0:
        edge += 1
    return edge


def implicit_dimension(m: int, epsilon: float, delta: float, n: int) -> int:
    """Smallest n' whose union tail bound over all point pairs is <= epsilon.

    Solves C(m,2) * pair_failure_bound(n', n, delta) <= epsilon by
    bisection in the log domain over [2, min(explicit_dimension + 1, edge)],
    edge being the largest n' with n' (1 + delta) < n, where the tail bound
    is defined.  The explicit bound is provably sufficient, so it caps the
    search; the refinement is therefore never worse than the closed form.
    Raises ``InfeasibleError`` when nothing in that range satisfies the bound.

    Bisection is sound: the left side falls strictly in n' over the whole
    domain.  With y = 1 -/+ n' delta / (n - n'), each tail's log has slope
    (ln(1 +/- delta) + 1 - (1 +/- delta) / y - ln y) / 2 in n', which is at
    most (ln(1 +/- delta) -/+ delta) / 2 < 0, its value at n' = 0.
    """
    explicit = explicit_dimension(m, epsilon, delta)  # checks m, epsilon and delta
    log_pairs = math.log(m) + math.log(m - 1) - math.log(2.0)
    threshold = math.log(epsilon) - log_pairs

    def satisfied(n_prime: int) -> bool:
        return _log_pair_failure_bound(float(n_prime), float(n), delta) <= threshold

    edge = domain_edge(n, delta)
    if edge < 2:
        raise DomainError(f"no valid target dimension below n={n} at delta={delta}")
    hi = min(explicit + 1, edge)
    if not satisfied(hi):
        boundary = math.exp(log_pairs + _log_pair_failure_bound(float(hi), float(n), delta))
        raise InfeasibleError(
            f"no n' <= {hi} satisfies the pair bound at n={n}, delta={delta}; "
            f"left side at the bracket end is {boundary:.3e} > epsilon={epsilon}"
        )
    lo = 2
    if satisfied(lo):
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def dg_n_prime(m: int, delta: float) -> int:
    """Per-trial target dimension of the classical repeat-until-success scheme.

    Uses ceil(4 ln m / (delta^2 - delta^3)) as published in the reference
    tables.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(4.0 * math.log(m) / (delta * delta - delta ** 3))


def dg_repetitions(m: int, epsilon: float) -> int:
    """Trials needed to push overall failure below epsilon at 1/m per-trial success.

    Smallest r with (1 - 1/m)^r <= epsilon, i.e. ceil(ln eps / ln(1 - 1/m)).
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    # Plain log, not log1p: reproduces the published repetition counts
    # bit-for-bit (they differ by a few trials at m >= 5e7).
    return math.ceil(math.log(epsilon) / math.log(1.0 - 1.0 / m))


def gap_delta_bound(g: float, p: float) -> float:
    """Largest admissible delta that keeps borderline points on their side.

    For a relative inter-cluster gap g in (0, 2] and balance quotient
    p >= 0, returns (1 - a^2) / ((1 + 2p) + a^2) with a = 1 - g/2.
    Increasing in g, decreasing in p.
    """
    if not 0.0 < g <= 2.0:
        raise DomainError(f"gap g must lie in (0, 2], got {g}")
    if p < 0.0:
        raise DomainError(f"balance quotient p must be >= 0, got {p}")
    alpha = 1.0 - g / 2.0
    return (1.0 - alpha * alpha) / ((1.0 + 2.0 * p) + alpha * alpha)
