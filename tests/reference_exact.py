"""Scalar closed-form references: the per-feature match rate, and the
`sampler` adversary's al-irr win rate; and the table gathers of `schemes`
and `exact` indexed by the packed words and distances themselves.

`exact.mr_of` tabulates the ball probabilities once per (n, p, tau) and
sums them user by user; `closed_form_mr` is the per-feature loop it
replaced, kept as the reference it must equal bit for bit.
"""

import math

import numpy as np

from btpeval import exact
from btpeval.schemes import REJECT_CODE
from reference_population import feature_probability


def closed_form_mr(pop, x, tau: int) -> float:
    """MR(x) of the packed x from per-user binomial ball sums.

    d(x, X_u) = (h - A) + B with A ~ Bin(h, p), B ~ Bin(n - h, p) and
    h = d(x, c_u), so the distance pmf is a convolution of two binomials.
    """
    p = pop.flip_prob
    total = 0.0
    for u in range(pop.num_users):
        h = (int(x) ^ int(pop.centers[u])).bit_count()
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
    pmf = np.array([np.mean([feature_probability(pop, u, x)
                             for u in users]) for x in range(1 << n)])
    scores, inverse = np.unique(exact.mr_vector(pop, tau), return_inverse=True)
    mass = np.bincount(inverse, weights=pmf)
    at_most = np.cumsum(mass)
    below = at_most - mass
    return float(scores @ (at_most ** q - below ** q))


# Table gathers indexed by the packed words or the distances themselves
# (uint64, uint8), as numpy casts them on every call: the references the
# native-index lookups of `schemes` and `exact` must equal bit for bit.


def decode_codes_by_word(code, ys) -> np.ndarray:
    """fc identifier codes: the codeword scan over every word, tabled and
    indexed by the uint64 words."""
    words = np.arange(1 << code.n_code, dtype=np.uint64)
    table = np.full(len(words), REJECT_CODE, dtype=np.uint64)
    for m, w in enumerate(code.codewords):
        table[np.bitwise_count(words ^ w) <= code.t] = m
    return table[np.asarray(ys, dtype=np.uint64)]


def fc_pie_by_word(scheme, xs, rng) -> tuple:
    """fc `pie_batch` with the codeword index drawn and gathered as uint64."""
    xs = np.asarray(xs, dtype=np.uint64)
    m = rng.integers(1 << scheme.code.k_code,
                     size=xs.shape or None).astype(np.uint64)
    return m, xs ^ scheme.code.codewords[m]


def mr_scores_by_word(pop, values, tau: int) -> np.ndarray:
    """`exact.mr_scores`: the cached vector indexed by the uint64 values up
    to the cap, `exact.mr_of` over the distinct values past it."""
    values = np.asarray(values, dtype=np.uint64)
    if pop.n <= exact.EXACT_N_CAP:
        return exact.mr_vector(pop, tau)[values]
    uniq, inverse = np.unique(values, return_inverse=True)
    return exact.mr_of(pop, uniq, tau)[inverse.reshape(values.shape)]


def pair_rates_per_center(pop, radius: int, images=None) -> np.ndarray:
    """`exact._pair_rates`, each row gathered by the uint8 distances."""
    p = pop.flip_prob
    pair = exact._ball_table(pop.n, 2.0 * p * (1.0 - p), radius)
    c = pop.centers
    if images is None:
        images = c[:, None]
    return np.stack([pair[np.bitwise_count(images ^ ct)].mean(axis=1)
                     for ct in c])
