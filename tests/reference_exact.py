"""Scalar closed-form references: the per-feature match rate, and the
`sampler` adversary's al-irr win rate.

`exact.mr_of` tabulates the ball probabilities once per (n, p, tau) and
sums them user by user; `closed_form_mr` is the per-feature loop it
replaced, kept as the reference it must equal bit for bit.
"""

import math

import numpy as np

from btpeval import exact
from btpeval.population import FeatureElement


def closed_form_mr(pop, x, tau: int) -> float:
    """MR(x) from per-user binomial ball sums.

    d(x, X_u) = (h - A) + B with A ~ Bin(h, p), B ~ Bin(n - h, p) and
    h = d(x, c_u), so the distance pmf is a convolution of two binomials.
    """
    p = pop.flip_prob
    total = 0.0
    for u in range(pop.num_users):
        h = (x.value ^ pop.center(u).value).bit_count()
        pmf_a = np.array([math.comb(h, a) * p**a * (1 - p) ** (h - a)
                          for a in range(h + 1)])
        nb = pop.n - h
        pmf_b = np.array([math.comb(nb, b) * p**b * (1 - p) ** (nb - b)
                          for b in range(nb + 1)])
        # distance = (h - A) + B; accumulate Pr[distance <= tau]
        acc = 0.0
        for a in range(h + 1):
            room = tau - (h - a)
            if room >= 0:
                acc += pmf_a[a] * pmf_b[: min(room, nb) + 1].sum()
        total += acc
    return total / pop.num_users


def sampler_al_irr_win_rate(pop, tau: int, q: int) -> float:
    """The `sampler`'s exact al-irr win rate with q queries.

    Its guess never reads the view, so it wins with probability MR(guess):
    the best of q i.i.d. scores MR(X) of captures X from a uniformly random
    user.  Over the distinct scores s, with F the scores' distribution
    function, that is sum_s (F(<= s)^q - F(< s)^q) * s.
    """
    n, users = pop.n, range(pop.num_users)
    pmf = np.array([np.mean([pop.feature_probability(u, FeatureElement(n, x))
                             for u in users]) for x in range(1 << n)])
    scores, inverse = np.unique(exact.mr_vector(pop, tau), return_inverse=True)
    mass = np.bincount(inverse, weights=pmf)
    at_most = np.cumsum(mass)
    below = at_most - mass
    return float(scores @ (at_most ** q - below ** q))
