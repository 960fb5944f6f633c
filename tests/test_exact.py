"""The closed-form oracles: ball tables, match laws and `LawOracle`.

`LawOracle` serves every scheme that declares a `match_radius()`; it is
held here to the scheme contract it summarises (property tests), its
isometries to the reference ones of the built-in schemes, and it to
`SchemeEnumerator`, its differential twin at n <= 10, table by table and
rate by rate.  `exact.mr_of` is held bit for bit to the scalar closed form
it replaced, and the cached `mr_vector` and `mr_scores` bit for bit to
`mr_of`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btpeval import exact
from btpeval.errors import DimensionError, ModeError
from btpeval.population import Population, generate_population
from btpeval.rng import substream
from btpeval.schemes import (
    BrokenScheme,
    FuzzyCommitmentScheme,
    LinearCode,
    PlaintextScheme,
    RotationScheme,
    build_scheme,
    hamming_7_4,
)
from reference_exact import (
    closed_form_mr,
    decode_codes_by_word,
    fc_pie_by_word,
    mr_scores_by_word,
    pair_rates_per_center,
)
from reference_schemes import reference_isometries
from toy_schemes import (AlwaysMatchScheme, LotteryScheme, NeverMatchScheme,
                         RejectingRotation)

# Agreement of two exact engines that sum in different orders.
TOL = 1e-12

LAW_SCHEMES = {
    "fc[7,4]": lambda: FuzzyCommitmentScheme(hamming_7_4(t=1)),
    # not perfect: a capture can fall outside every decoding ball
    "fc[10,4]": lambda: FuzzyCommitmentScheme(LinearCode.from_bitstrings(
        ["1000111000", "0100100110", "0010010101", "0001001011"], t=1)),
    "fc[5,2]": lambda: FuzzyCommitmentScheme(LinearCode.from_bitstrings(
        ["10110", "01011"], t=1)),
    "rot": lambda: RotationScheme(8, tau=2),
    "plain": lambda: PlaintextScheme(6, tau=1),
}


class TestClosedForm:
    @pytest.mark.parametrize("n", [7, 10, 12, 20])
    def test_mr_of_bitwise_equals_scalar_closed_form(self, n):
        pop = generate_population(n, 16, 0.03, seed=n)
        rng = substream(n, "mr-of-features")
        values = rng.integers(1 << n, size=300).astype(np.uint64)
        for tau in (0, 1, 3):
            got = exact.mr_of(pop, values, tau)
            want = [closed_form_mr(pop, v, tau)
                    for v in values]
            assert got.tolist() == want

    @pytest.mark.parametrize("n", [1, 7, 10])
    def test_mr_vector_bitwise_equals_mr_of(self, n):
        pop = generate_population(n, 16, 0.03, seed=n)
        for tau in (0, 1, 2):
            want = [exact.mr_of(pop, [x], tau)[0] for x in range(1 << n)]
            assert exact.mr_vector(pop, tau).tolist() == want

    @pytest.mark.parametrize("n", [7, exact.EXACT_N_CAP + 1])
    def test_mr_scores_bitwise_equals_mr_of(self, n):
        # a lookup up to the cap, the closed form over distinct values past it
        pop = generate_population(n, 16, 0.03, seed=n)
        rng = substream(n, "mr-scores")
        values = pop.sample_batch(rng.integers(16, size=(40, 8)), rng)
        for tau in (0, 1, 2):
            got = exact.mr_scores(pop, values, tau)
            assert got.shape == values.shape
            assert got.tolist() == exact.mr_of(pop, values.ravel(), tau
                                               ).reshape(values.shape).tolist()

    @pytest.mark.parametrize("n, value", [(7, 300), (22, 1 << 30)])
    def test_mr_scores_refuse_a_value_past_n_bits(self, n, value):
        # the lookup (n = 7) and the closed form (n = 22) refuse alike
        pop = generate_population(n, 16, 0.03, seed=n)
        with pytest.raises(DimensionError, match=f"more than {n} bits"):
            exact.mr_scores(pop, [1, value], 1)

    def test_mr_scores_take_every_value_at_n_64(self):
        pop = generate_population(64, 4, 0.03, seed=1)
        values = [0, 2**64 - 1]
        assert exact.mr_scores(pop, values, 1).tolist() \
            == exact.mr_of(pop, values, 1).tolist()

    def test_mr_vector_cached_and_read_only(self, default_pop):
        vec = exact.mr_vector(default_pop, 2)
        assert exact.mr_vector(default_pop, 2) is vec
        law = exact.enumerator(RotationScheme(7, tau=2), default_pop)
        assert law.rmr_vector() is vec
        with pytest.raises(ValueError):
            vec[0] = 1.0
        with pytest.raises(ValueError):
            default_pop.centers[0] = 0

    def test_baseline_is_the_pair_table(self):
        # with p = 0 the rates count center pairs within tau
        pop = generate_population(8, 6, 0.0, seed=4)
        c = pop.centers.tolist()
        close = [[(a ^ b).bit_count() <= 2 for b in c] for a in c]
        raw = exact.LawOracle(PlaintextScheme(8, 2), pop)
        fnmr, fmr = raw.fnmr(), raw.fmr_bp()
        assert fnmr == 0.0
        assert fmr == pytest.approx(
            (np.sum(close) - len(c)) / (len(c) * (len(c) - 1)), abs=TOL)


def _tied_images(scheme, xs):
    """The images g(x) of the law's isometries along a new last axis: the
    outcomes of the tied part, the scheme's one feature field."""
    _, pis, alphas = scheme.pie_support_batch(xs)
    return pis if scheme.feature_fields == ("pi",) else alphas


def _law_accepts(radius, x_tied, images):
    """d(x_tied, g(x')) <= radius for each image g(x')."""
    return np.bitwise_count(images ^ np.uint64(x_tied)) <= radius


class TestNativeIndexLookups:
    """Each table gather of `schemes` and `exact` indexes with intp, and
    equals with no tolerance the same gather indexed by the packed words
    or the distances themselves."""

    @pytest.mark.parametrize("code", [
        hamming_7_4(), LinearCode.from_bitstrings(["10110", "01011"], t=1),
    ], ids=["hamming", "[5,2]"])
    def test_decode_codes_over_every_word(self, code):
        ys = np.arange(1 << code.n_code, dtype=np.uint64)
        got = code.decode_codes(ys)
        assert got.dtype == np.uint64
        assert np.array_equal(got, decode_codes_by_word(code, ys))
        for y in ys[:4]:   # a lone word, as the scalar `pir` passes it
            assert code.decode_codes(y) == decode_codes_by_word(code, y)

    @pytest.mark.parametrize("word,lone", [
        (1 << 7, False), (1 << 63, False), (1 << 7, True), (1 << 63, True),
        (2**64 - 1, True), (2**64 - 1, False),
    ])
    def test_decode_codes_refuses_a_word_of_more_than_n_bits(self, word,
                                                              lone):
        ys = np.uint64(word) if lone else np.array([0, word], dtype=np.uint64)
        with pytest.raises((IndexError, OverflowError)):
            hamming_7_4().decode_codes(ys)

    def test_fc_pie_batch_on_one_stream(self):
        fc = FuzzyCommitmentScheme(hamming_7_4())
        xs = np.arange(128, dtype=np.uint64).reshape(16, 8)
        for x in (xs, xs[0, 3]):   # a chunk's captures, one capture
            got_rng, want_rng = substream(4, "pie"), substream(4, "pie")
            got, want = fc.pie_batch(x, got_rng), fc_pie_by_word(fc, x, want_rng)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.uint64
                assert np.array_equal(g, w)
            assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("n", [7, exact.EXACT_N_CAP + 2])
    def test_mr_scores(self, n):
        # the cached vector up to the cap, the closed form past it
        pop = generate_population(n, 16, 0.03, seed=n)
        rng = substream(n, "native-scores")
        values = pop.sample_batch(rng.integers(16, size=(30, 8)), rng)
        for tau in (0, 2):
            assert np.array_equal(exact.mr_scores(pop, values, tau),
                                  mr_scores_by_word(pop, values, tau))

    @pytest.mark.parametrize("law", ["identity", "fc", "rot"])
    def test_pair_rates(self, law):
        pop = generate_population(7, 300, 0.03, seed=3)
        schemes = {"fc": FuzzyCommitmentScheme(hamming_7_4()),
                   "rot": RotationScheme(7, tau=1)}
        images = (_tied_images(schemes[law], pop.centers) if law in schemes
                  else None)
        for radius in (1, 2):
            assert np.array_equal(exact._pair_rates(pop, radius, images),
                                  pair_rates_per_center(pop, radius, images))


class TestMatchLaw:
    """The ball law's decision, at the declared radius on the isometries
    `pie_support_batch` gives, equals the scheme contract's; those
    isometries are the reference ones, with no tolerance."""

    @pytest.mark.parametrize("name", [*LAW_SCHEMES, "rot n=7", "rot n=20",
                                      "plain n=7", "plain n=20"])
    def test_isometries_are_the_reference_ones(self, name):
        scheme = {**LAW_SCHEMES,
                  "rot n=7": lambda: RotationScheme(7, tau=1),
                  "rot n=20": lambda: RotationScheme(20, tau=1),
                  "plain n=7": lambda: PlaintextScheme(7, tau=1),
                  "plain n=20": lambda: PlaintextScheme(20, tau=1)}[name]()
        n = scheme.feature_dim
        # every feature, or a (6, 5) block of them at n = 20
        xs = (np.arange(1 << n, dtype=np.uint64) if n <= 10 else substream(
            n, "isometries").integers(1 << n, size=(6, 5)).astype(np.uint64))
        got = _tied_images(scheme, xs)
        assert got.dtype == np.uint64
        assert np.array_equal(got, reference_isometries(scheme, xs))

    @pytest.mark.parametrize("name", list(LAW_SCHEMES))
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_same_enrollment(self, name, seed, data):
        scheme = LAW_SCHEMES[name]()
        n = scheme.feature_dim
        x = data.draw(st.integers(0, (1 << n) - 1))
        probes = np.array(data.draw(st.lists(
            st.integers(0, (1 << n) - 1), min_size=1, max_size=16)),
            dtype=np.uint64)
        pi, alpha = scheme.pie_batch(np.full(len(probes), x, dtype=np.uint64),
                                     substream(seed, "law"))
        got = scheme.pic_batch(pi, scheme.pir_batch(alpha, probes))
        assert got.tolist() == _law_accepts(scheme.match_radius(), x,
                                            probes).tolist()

    @pytest.mark.parametrize("name", list(LAW_SCHEMES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_cross_enrollment(self, name, data):
        # pi of an enrollment of x_pi, alpha of one of x_ad: over all
        # encoder outcomes, the share that accepts x' is the share of
        # isometries g with d(x_tied, g(x')) <= radius
        scheme = LAW_SCHEMES[name]()
        n = scheme.feature_dim
        draw = lambda: data.draw(st.integers(0, (1 << n) - 1))  # noqa: E731
        x_pi, x_ad, probe = draw(), draw(), draw()
        w_pi, pis, _ = scheme.pie_support_batch(np.uint64(x_pi))
        w_ad, _, alphas = scheme.pie_support_batch(np.uint64(x_ad))
        vids = scheme.pir_batch(alphas, np.uint64(probe))
        accept = scheme.pic_batch(pis[:, None], vids[None, :])
        share = float(w_pi @ accept @ w_ad)
        x_tied = x_pi if scheme.feature_fields == ("pi",) else x_ad
        want = _law_accepts(scheme.match_radius(), x_tied,
                            _tied_images(scheme, np.uint64(probe))).mean()
        assert share == pytest.approx(want, abs=TOL)


# (scheme, users, p); every n <= ENUM_N_CAP, so the enumerator can answer
DIFFERENTIAL = [
    ("fc[7,4]", 16, 0.03), ("fc[7,4]", 8, 0.0), ("fc[7,4]", 6, 0.2),
    ("fc[10,4]", 8, 0.05), ("fc[5,2]", 4, 0.1),
    ("rot", 12, 0.04), ("rot", 5, 0.0),
    ("plain", 10, 0.1), ("plain", 3, 0.0),
]


@pytest.mark.parametrize("name,users,p", DIFFERENTIAL)
def test_law_oracle_matches_enumerator(name, users, p):
    scheme = LAW_SCHEMES[name]()
    pop = generate_population(scheme.feature_dim, users, p, seed=users)
    law = exact.LawOracle(scheme, pop)
    en = exact.SchemeEnumerator(scheme, pop)
    # entry by entry: the rates are means, blind to a transposed or
    # permuted off-diagonal
    assert np.abs(law.same - en.same).max() <= TOL
    for own in ("ad", "pi"):
        assert np.abs(law.mixed(own) - en.mixed(own)).max() <= TOL, own
    for method in ("fnmr", "fmr_bp", "fmr_div"):
        assert getattr(law, method)() == pytest.approx(
            getattr(en, method)(), abs=TOL), method
    for factor in ("ad", "pi"):
        assert law.fmr_tp(factor) == pytest.approx(en.fmr_tp(factor), abs=TOL)
    assert np.abs(law.rmr_vector() - en.rmr_vector()).max() <= TOL
    assert law.pt_match_stats() == pytest.approx(en.pt_match_stats(), abs=TOL)
    assert law.hypothesis_own_match() == en.hypothesis_own_match()


class TestEnumeratorFnmr:
    @pytest.mark.parametrize("scheme", [
        AlwaysMatchScheme(5), NeverMatchScheme(5), LotteryScheme(5, 0.3),
        BrokenScheme(5)], ids=lambda s: s.name)
    def test_per_template_loop(self, scheme):
        pop = generate_population(5, 4, 0.1, seed=2)
        en = exact.SchemeEnumerator(scheme, pop)
        hit = 0.0
        for u in range(en.U):
            for k in range(en.W.shape[1]):
                hit += en.W[u, k] * (en.M_pt[k] @ en.P[u])
        assert en.fnmr() == pytest.approx(1.0 - hit / en.U, abs=TOL)


class TestOracleChoice:
    def test_law_schemes_skip_the_enumerator(self):
        for make in LAW_SCHEMES.values():
            scheme = make()
            pop = generate_population(scheme.feature_dim, 4, 0.03, seed=1)
            assert isinstance(exact.enumerator(scheme, pop), exact.LawOracle)

    def test_toy_scheme_is_enumerated(self, default_pop, monkeypatch):
        assert isinstance(exact.enumerator(AlwaysMatchScheme(7), default_pop),
                          exact.SchemeEnumerator)

        def refuse(self, scheme, pop):
            raise AssertionError("SchemeEnumerator built")
        monkeypatch.setattr(exact.SchemeEnumerator, "__init__", refuse)
        with pytest.raises(AssertionError, match="built"):
            exact.enumerator(LotteryScheme(7, 0.3), default_pop)

    def test_law_oracle_cap(self):
        # past the feature scan the ball-law oracle builds and gives its
        # pair-table rates; only the scans refuse
        pop = generate_population(exact.EXACT_N_CAP + 1, 2, 0.03, seed=1)
        law = exact.enumerator(RotationScheme(pop.n, tau=1), pop)
        assert isinstance(law, exact.LawOracle)
        assert 0.0 < law.fnmr() < 1.0
        assert 0.0 < law.mean_match_rate() < 1.0
        assert law.hypothesis_own_match()
        scan = f"feature scan supports n <= {exact.EXACT_N_CAP}, got n = {pop.n}"
        for call in (lambda: law.pmf_mix, law.rmr_vector, law.pt_match_stats):
            with pytest.raises(ModeError, match=scan):
                call()
        pop = generate_population(exact.ENUM_N_CAP + 1, 2, 0.03, seed=1)
        with pytest.raises(ModeError, match="scheme enumeration supports "
                           f"n <= {exact.ENUM_N_CAP}, got n = {pop.n}"):
            exact.SchemeEnumerator(RotationScheme(pop.n, tau=1), pop)


class TestTemplateMeanAndCells:
    """The mean template match rate is the mean of every cell of `same`, and
    a rate over cells is summed cell by cell."""

    @pytest.mark.parametrize("name,n", [("fc[7,4]", 7), ("rot", 10),
                                        ("plain", 16), ("broken", 7)])
    def test_mean_of_same_is_the_template_mean(self, name, n):
        scheme = (LAW_SCHEMES[name]() if name == "fc[7,4]"
                  else build_scheme({"scheme": name}, n))
        oracle = exact.enumerator(scheme, Population.from_config({"n": n}))
        w, r = oracle.templates()
        assert oracle.mean_match_rate() == pytest.approx(float(w @ r),
                                                         abs=1e-15)
        assert oracle.pt_match_stats()[0] == oracle.mean_match_rate()

    @pytest.mark.parametrize("name", ["rot", "plain"])
    def test_every_positive_rate_reads_positive_at_n64(self, name):
        # each rate is a ball-law probability of captures with flip
        # probability 0 < p < 1/2, so its closed form is positive
        pop = Population.from_config({"n": 64})
        law = exact.enumerator(build_scheme({"scheme": name}, 64), pop)
        raw = exact.LawOracle(PlaintextScheme(64, 1), pop)
        rates = {"fnmr": law.fnmr(), "fmr_bp": law.fmr_bp(),
                 "fmr_tp_ad": law.fmr_tp("ad"), "fmr_tp_pi": law.fmr_tp("pi"),
                 "fmr_div": law.fmr_div(), "mean": law.mean_match_rate(),
                 "fnmr_d<=1": raw.fnmr(), "fmr_d<=1": raw.fmr_bp()}
        assert all(rate > 0.0 for rate in rates.values()), rates
        assert rates["fmr_bp"] == pytest.approx(1.5404050635e-30, rel=1e-10,
                                                abs=0.0)

    @pytest.mark.parametrize("n", [10, 32, 64])
    def test_off_diagonal_rates_equal_an_exact_sum(self, n):
        pop = Population.from_config({"n": n})
        law = exact.enumerator(RotationScheme(n, tau=1), pop)
        for table, rate in ((law.same, law.fmr_bp()),
                            (law.mixed("ad"), law.fmr_tp("ad"))):
            off = table[~np.eye(len(table), dtype=bool)]
            assert rate == pytest.approx(math.fsum(off) / off.size, rel=1e-13,
                                         abs=0.0)


class TestOwnMatchHypothesis:
    """Both engines probe the outcomes of `pie_support_batch` through the
    scheme's own `pir_batch` and `pic_batch`."""

    @pytest.mark.parametrize("n", [7, 22, 64])
    def test_built_in_laws_accept_their_own_features(self, n):
        pop = Population.from_config({"n": n})
        for name in ("rot", "plain"):
            law = exact.enumerator(build_scheme({"scheme": name}, n), pop)
            assert isinstance(law, exact.LawOracle)
            assert law.hypothesis_own_match(), name

    @pytest.mark.parametrize("n", [7, 22])
    def test_a_rejecting_comparator_fails_it_under_a_law(self, n):
        pop = Population.from_config({"n": n})
        law = exact.enumerator(RejectingRotation(n, tau=1), pop)
        assert isinstance(law, exact.LawOracle)
        assert not law.hypothesis_own_match()
        if n <= exact.ENUM_N_CAP:
            assert not exact.SchemeEnumerator(RejectingRotation(n, tau=1),
                                              pop).hypothesis_own_match()
