"""Feature helpers that only the tests use, beside the package's own: one
coordinate of a packed feature, the Hamming semimetric and a user's exact
capture law on packed features, the ball-overlap predicate that the
reference adversaries apply trial by trial, and the per-query charge of a
chunk's oracle."""

import numpy as np

from btpeval.errors import ConfigError, DimensionError


def bit(x: int, i: int) -> int:
    """Coordinate i of the packed feature x."""
    return (int(x) >> i) & 1


def hamming_distance(a: int, b: int) -> int:
    """Number of differing coordinates; the semimetric of the space."""
    return (int(a) ^ int(b)).bit_count()


def feature_probability(pop, u: int, x: int) -> float:
    """P(X_u = x) = p^d * (1-p)^(n-d) with d = d(x, c_u)."""
    if int(x) >> pop.n:
        raise DimensionError(f"feature has more than {pop.n} bits")
    d = hamming_distance(x, pop.centers[u])
    p = pop.flip_prob
    return (p ** d) * ((1.0 - p) ** (pop.n - d))


def neighborhood_overlap(x0: int, x1: int, tau: int) -> bool:
    """Whether the radius-tau balls around x0 and x1 intersect.

    On the Hamming cube two balls of radius tau intersect exactly when
    d(x0, x1) <= 2*tau (walk from x0 toward x1 and stop at a midpoint).
    """
    if tau < 0:
        raise ConfigError(f"tau must be >= 0, got {tau}")
    return hamming_distance(x0, x1) <= 2 * tau


def per_query_sample(oracle, trials, users) -> np.ndarray:
    """`oracle.sample(trials, users)` as one query per entry: each trial
    repeated once per user of its row, beside the raveled users."""
    users = np.asarray(users)
    per_trial = users.size // len(trials)
    return oracle.sample(np.repeat(trials, per_trial),
                         users.ravel()).reshape(users.shape)
