"""Scalar closed-form reference for the per-feature match rate.

`exact.mr_of` tabulates the ball probabilities once per (n, p, tau) and
sums them user by user; this is the per-feature loop it replaced, kept as
the reference it must equal bit for bit.
"""

import math

import numpy as np


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
