"""Scheme contracts: leak projection, linear codes, the three references."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btpeval.adversaries import ReadViewAdversary
from btpeval.errors import ConfigError, ContractError, DimensionError
from btpeval.games import run_al_irr_game
from btpeval.metrics import RunSettings
from btpeval.population import parse_bits
from btpeval.rng import substream
from btpeval.schemes import (
    LEAK_AD,
    LEAK_BOTH,
    LEAK_PI,
    REJECT_CODE,
    BrokenScheme,
    BtpScheme,
    FuzzyCommitmentScheme,
    LeakSet,
    LinearCode,
    PlaintextScheme,
    ProtectedTemplate,
    RotationScheme,
    _rotate,
    build_scheme,
    hamming_7_4,
    leak_view,
)
from reference_schemes import (
    RefBrokenScheme,
    RefFuzzyCommitmentScheme,
    RefPlaintextScheme,
    RefRotationScheme,
    bounded_distance_decode,
    decisions_and_ball,
    decode_int,
    reference_codewords,
    rotate,
)
from reference_population import hamming_distance
from toy_schemes import AlwaysMatchScheme


fe = parse_bits


# n = 20 > 16: decoded by scanning codewords, not through a table
UNTABLED_CODE = LinearCode.from_bitstrings(
    ["11111111110000000000", "00000000001111111111"], t=4)


class TestLeakProjection:
    def setup_method(self):
        self.pt = ProtectedTemplate(pi=np.uint64(3), alpha=np.uint64(26))

    def test_both_parts(self):
        v = leak_view(self.pt, LEAK_BOTH)
        assert v == self.pt

    def test_pi_only(self):
        v = leak_view(self.pt, LEAK_PI)
        assert v.pi == self.pt.pi
        assert v.alpha is None

    def test_ad_only(self):
        v = leak_view(self.pt, LEAK_AD)
        assert v.alpha == self.pt.alpha
        assert v.pi is None

    def test_empty_forbidden(self):
        with pytest.raises(ContractError):
            LeakSet(pi=False, ad=False)

    def test_idempotent(self):
        for leak in (LEAK_PI, LEAK_AD, LEAK_BOTH):
            once = leak_view(self.pt, leak)
            twice = leak_view(once, leak)
            assert once == twice

    def test_widening_a_view_reveals_nothing_hidden(self):
        narrow = leak_view(self.pt, LEAK_PI)
        assert leak_view(narrow, LEAK_BOTH) == narrow

    def test_parse(self):
        assert LeakSet.parse("pi+ad") == LEAK_BOTH
        assert LeakSet.parse("PI") == LEAK_PI
        assert LeakSet.parse("ad") == LEAK_AD
        with pytest.raises(ConfigError):
            LeakSet.parse("px")
        assert str(LEAK_BOTH) == "pi+ad"


class TestLinearCode:
    def test_hamming_code_parameters(self):
        code = hamming_7_4()
        assert code.min_distance == 3
        assert len(set(code.codewords)) == 16

    @pytest.mark.parametrize("code", [
        hamming_7_4(), UNTABLED_CODE,
        LinearCode.from_bitstrings(["10110", "01011"], t=1),
        LinearCode(20, 16, tuple(1 << i for i in range(16)), 0),
    ], ids=["hamming", "untabled", "[5,2]", "k=16"])
    def test_codewords_are_one_read_only_array(self, code):
        # codeword m is the XOR of the generator rows the bits of m select
        words = code.codewords
        assert words.dtype == np.uint64 and words.shape == (1 << code.k_code,)
        assert words.tolist() == list(reference_codewords(code))
        with pytest.raises(ValueError):
            words[0] = 1
        scheme = FuzzyCommitmentScheme(code)
        assert not hasattr(scheme, "_cw")
        assert scheme.pie_support_batch(np.uint64(0))[2].tolist() == words.tolist()

    def test_radius_bound_enforced(self):
        with pytest.raises(ConfigError):
            LinearCode.from_bitstrings(
                ["1000110", "0100101", "0010011", "0001111"], t=2
            )

    def test_codeword_decodes_to_itself(self):
        code = hamming_7_4()
        for w in code.codewords:
            assert bounded_distance_decode(code, w) == w

    def test_single_errors_corrected(self):
        # exhaustive: all 16 codewords x 7 single-bit flips
        code = hamming_7_4()
        for w in code.codewords:
            for i in range(7):
                assert bounded_distance_decode(code, w ^ (1 << i)) == w

    def test_weight_two_errors_miscorrect_never_reject(self):
        # perfect code: every word decodes somewhere, but past the radius
        # it lands on a wrong codeword
        code = hamming_7_4()
        for w in code.codewords:
            for i, j in itertools.combinations(range(7), 2):
                decoded = bounded_distance_decode(code, w ^ (1 << i) ^ (1 << j))
                assert decoded is not None
                assert decoded != w

    def test_non_perfect_code_rejects(self):
        code = LinearCode.from_bitstrings(["1111"], t=1)
        assert bounded_distance_decode(code, fe("1100")) is None

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            bounded_distance_decode(hamming_7_4(), 1 << 7)

    @pytest.mark.parametrize("code", [
        hamming_7_4(), LinearCode.from_bitstrings(["1111"], t=1), UNTABLED_CODE,
    ], ids=["hamming", "repetition", "untabled"])
    def test_decode_codes_match_scalar_decoder(self, code):
        rng = substream(9, "decode")
        ys = (np.arange(1 << code.n_code, dtype=np.uint64) if code.n_code <= 8
              else rng.integers(1 << code.n_code, size=2000).astype(np.uint64))
        codes = code.decode_codes(ys)
        assert codes.dtype == np.uint64
        for y, m in zip(ys.tolist(), codes.tolist()):
            w = decode_int(code, y)
            assert (m == REJECT_CODE) == (w is None)
            assert w is None or code.codewords[m] == w

    def test_degenerate_generator_rejected(self):
        with pytest.raises(ConfigError):
            LinearCode.from_bitstrings(["1010", "1010"], t=0)


def one(x):
    """One packed capture, as the batch methods take it."""
    return np.uint64(x)


ALL7 = np.arange(128, dtype=np.uint64)


class TestFuzzyCommitment:
    def test_own_feature_always_matches(self, fc_scheme):
        _, pis, alphas = fc_scheme.pie_support_batch(ALL7)
        assert fc_scheme.pic_batch(
            pis, fc_scheme.pir_batch(alphas, ALL7[:, None])).all()

    def test_alpha_is_codeword_offset(self, fc_scheme):
        codewords = set(fc_scheme.code.codewords)
        rng = substream(0, "fc")
        for v in (0, 35, 127):
            _, alpha = fc_scheme.pie_batch(one(v), rng)
            assert int(alpha) ^ v in codewords

    def test_match_iff_within_radius_spotcheck(self, fc_scheme):
        # full 2^7 x 2^7 x 16 sweep lives in the acceptance suite
        rng = substream(1, "fc2")
        for _ in range(300):
            x, xp = int(rng.integers(128)), int(rng.integers(128))
            pi, alpha = fc_scheme.pie_batch(one(x), rng)
            matched = fc_scheme.pic_batch(pi, fc_scheme.pir_batch(alpha, one(xp)))
            assert matched == (hamming_distance(x, xp) <= 1)

    def test_reject_identifier_never_matches(self):
        scheme = build_scheme(
            {"scheme": "fc", "code": {"generator": ["1111"], "t": 1}}, 4
        )
        # offset distance 2 from both codewords
        vid = scheme.pir_batch(one(fe("0110")), one(fe("1010")))
        assert vid == REJECT_CODE
        _, pis, _ = scheme.pie_support_batch(one(fe("0000")))
        assert not scheme.pic_batch(pis, vid).any()

    def test_foreign_identifier_never_matches(self, fc_scheme):
        # a pi code that indexes no codeword, like REJECT_CODE, matches no
        # probe, while the enrolled one matches its own capture
        x = 0b1011001
        pi, alpha = fc_scheme.pie_batch(one(x), substream(3, "foreign"))
        assert fc_scheme.pic_batch(pi, fc_scheme.pir_batch(alpha, one(x)))
        vids = fc_scheme.pir_batch(alpha, ALL7)
        for foreign in (16, 2**63, REJECT_CODE):
            assert not fc_scheme.pic_batch(np.uint64(foreign), vids).any()

    def test_pir_pic_deterministic(self, fc_scheme):
        rng = substream(2, "det")
        pi, alpha = fc_scheme.pie_batch(one(77), rng)
        probe = one(12)
        first_vid = fc_scheme.pir_batch(alpha, probe)
        first_pic = fc_scheme.pic_batch(pi, first_vid)
        for _ in range(10_000):
            assert fc_scheme.pir_batch(alpha, probe) == first_vid
        for _ in range(10_000):
            assert fc_scheme.pic_batch(pi, first_vid) == first_pic

    def test_threshold_compatibility(self, fc_scheme):
        assert fc_scheme.threshold_compatible(0)
        assert fc_scheme.threshold_compatible(1)
        assert not fc_scheme.threshold_compatible(2)

    def test_pie_support_is_uniform_over_codewords(self, fc_scheme):
        probs, pis, alphas = fc_scheme.pie_support_batch(one(9))
        assert probs.shape == (16,)
        assert probs.tolist() == pytest.approx([1 / 16] * 16)
        assert sorted(pis.tolist()) == list(range(16))
        assert len(set(alphas.tolist())) == 16


class TestRotationScheme:
    def test_isometry(self):
        scheme = RotationScheme(7, tau=1)
        rng = substream(3, "rot")
        for _ in range(100):
            x, y = int(rng.integers(128)), int(rng.integers(128))
            r = int(rng.integers(7))
            assert hamming_distance(rotate(7, x, r),
                                    rotate(7, y, r)) == hamming_distance(x, y)

    def test_mated_pair_matches(self):
        scheme = RotationScheme(7, tau=1)
        rng = substream(4, "rot2")
        pi, alpha = scheme.pie_batch(one(99), rng)
        assert scheme.pic_batch(pi, scheme.pir_batch(alpha, one(99)))

    def test_full_template_inverts_exactly(self):
        scheme = RotationScheme(7, tau=1)
        rng = substream(5, "rot3")
        for v in (0, 1, 64, 127):
            pi, alpha = scheme.pie_batch(one(v), rng)
            assert rotate(7, int(pi), -int(alpha)) == v

    def test_support_enumerates_offsets(self):
        scheme = RotationScheme(7, tau=1)
        probs, _, alphas = scheme.pie_support_batch(one(3))
        assert probs.shape == (7,)
        assert set(alphas.tolist()) == set(range(7))

    @pytest.mark.parametrize("n", [1, 7, 10, 63, 64])
    def test_packed_rotate_is_feature_rotate(self, n):
        # every r in [0, n), the precondition of `_rotate`; at n = 64, r = 0
        # shifts right by 64
        rng = substream(n, "rotate")
        xs = (rng.integers(0, 2**64, size=6, dtype=np.uint64)
              & np.uint64((1 << n) - 1)).tolist() + [0, (1 << n) - 1]
        got = _rotate(np.array(xs, dtype=np.uint64)[:, None],
                      np.arange(n, dtype=np.uint64), n)
        assert got.tolist() == [[rotate(n, x, r)
                                 for r in range(n)] for x in xs]
        assert _rotate(np.uint64(xs[0]), 0, n) == xs[0]

    @pytest.mark.parametrize("n", [7, 64])
    def test_pir_batch_reduces_alpha_mod_n(self, n):
        scheme = RotationScheme(n, tau=1)
        xs = substream(n, "pir-alpha").integers(0, 2**64, size=5, dtype=np.uint64) \
            & np.uint64((1 << n) - 1)
        alphas = np.array([*range(n, 3 * n), 2**64 - 1], dtype=np.uint64)[:, None]
        assert np.array_equal(scheme.pir_batch(alphas, xs),
                              scheme.pir_batch(alphas % np.uint64(n), xs))


class TestPlaintextScheme:
    def test_mated_pair_matches(self):
        scheme = PlaintextScheme(7, tau=1)
        rng = substream(6, "pl")
        pi, alpha = scheme.pie_batch(one(42), rng)
        assert scheme.pic_batch(pi, scheme.pir_batch(alpha, one(42)))

    def test_template_reveals_feature(self):
        scheme = PlaintextScheme(7, tau=0)
        rng = substream(7, "pl2")
        pi, alpha = scheme.pie_batch(one(42), rng)
        assert (pi, alpha) == (42, 0)

    @given(st.integers(0, 127), st.integers(0, 127), st.integers(0, 3))
    @settings(max_examples=40)
    def test_match_is_distance_test(self, a, b, tau):
        scheme = PlaintextScheme(7, tau=tau)
        pi, alpha = scheme.pie_batch(one(a), substream(8, "pl3"))
        assert scheme.pic_batch(pi, scheme.pir_batch(alpha, one(b))) == (
            hamming_distance(a, b) <= tau
        )


class TestThresholdCompatibility:
    """d(x, x') <= tau must force acceptance of a template of x."""

    def test_rotation_exhaustive(self):
        scheme = RotationScheme(7, tau=1)
        assert scheme.threshold_compatible(1)
        accepts, within = decisions_and_ball(scheme, 1)
        assert accepts.shape == (128, 7, 128)
        assert accepts[within].all()

    def test_plaintext_exhaustive(self):
        scheme = PlaintextScheme(7, tau=1)
        accepts, within = decisions_and_ball(scheme, 1)
        assert accepts.shape == (128, 1, 128)
        assert accepts[within].all()


class TestRegistry:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            build_scheme({"scheme": "nope"}, 7)

    def test_generator_from_config(self):
        scheme = build_scheme(
            {"scheme": "fc",
             "code": {"generator": ["1000110", "0100101", "0010011", "0001111"],
                      "t": 1}},
            7,
        )
        assert scheme.code.min_distance == 3

    def test_code_length_must_match_dimension(self):
        with pytest.raises(ConfigError):
            build_scheme({"scheme": "fc", "code": {"n": 7, "k": 4}}, 8)


# The library schemes as their scalar reference twins: the batch methods
# are the library's, the scalar ones independent of them
BATCH_SCHEMES = {
    "fc": lambda: RefFuzzyCommitmentScheme(hamming_7_4()),
    "fc-untabled": lambda: RefFuzzyCommitmentScheme(UNTABLED_CODE),
    "fc-rejecting": lambda: RefFuzzyCommitmentScheme(
        LinearCode.from_bitstrings(["1111"], t=1)),
    "rot": lambda: RefRotationScheme(9, tau=2),
    "plain": lambda: RefPlaintextScheme(8, tau=1),
    "broken": lambda: RefBrokenScheme(7),
}


def _packed(data, n, shape):
    size = shape[0] * shape[1]
    values = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size,
                                max_size=size))
    return np.array(values, dtype=np.uint64).reshape(shape)


class TestBatchContract:
    """Batch pie/pir/pic/pie_support against the scalar methods of the
    reference twins, on codes."""

    @pytest.mark.parametrize("name", list(BATCH_SCHEMES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_methods(self, name, data):
        scheme = BATCH_SCHEMES[name]()
        n = scheme.feature_dim
        shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 3)))
        xs, probes = _packed(data, n, shape), _packed(data, n, shape)
        seed = data.draw(st.integers(0, 2**32))
        batch_rng, scalar_rng = substream(seed, "pie"), substream(seed, "pie")

        pis, alphas = scheme.pie_batch(xs, batch_rng)
        pts = [scheme.pie(x, scalar_rng) for x in xs.ravel().tolist()]
        # the same draws, in C order, and nothing more
        assert pts == list(zip(pis.ravel().tolist(), alphas.ravel().tolist()))
        assert batch_rng.random() == scalar_rng.random()

        vids = scheme.pir_batch(alphas, probes)
        accepts = scheme.pic_batch(pis, vids)
        assert vids.shape == accepts.shape == shape
        for (pi, alpha), p, vid, ok in zip(pts, probes.ravel().tolist(),
                                           vids.ravel().tolist(),
                                           accepts.ravel().tolist()):
            # pi and identifier codes share one space: pic compares them
            assert scheme.pir(alpha, p) == vid
            assert ok == scheme.pic(pi, vid)
            assert scheme.pic(vid, pi) == scheme.pic_batch(np.uint64(vid),
                                                           np.uint64(pi))

    @pytest.mark.parametrize("name", list(BATCH_SCHEMES))
    def test_one_capture_matches_scalar_methods(self, name):
        # 0-d captures, one at a time as a per-trial driver passes them:
        # pie_batch takes its scalar draw there
        scheme = BATCH_SCHEMES[name]()
        draw = substream(3, "one-capture")
        batch_rng, scalar_rng = substream(4, "pie"), substream(4, "pie")
        rejects = 0
        for _ in range(200):
            x, probe = draw.integers(1 << scheme.feature_dim, size=2).tolist()
            pi, alpha = scheme.pie_batch(one(x), batch_rng)
            assert np.shape(pi) == np.shape(alpha) == ()
            assert (int(pi), int(alpha)) == scheme.pie(x, scalar_rng)
            vid = scheme.pir_batch(alpha, one(probe))
            assert int(vid) == scheme.pir(int(alpha), probe)
            rejects += bool(vid == REJECT_CODE)
            assert bool(scheme.pic_batch(pi, vid)) == scheme.pic(int(pi), int(vid))
            assert bool(scheme.pic_batch(vid, pi)) == scheme.pic(int(vid), int(pi))
            probs, pis, alphas = scheme.pie_support_batch(one(x))
            assert scheme.pie_support(x) == list(zip(
                probs.tolist(), pis.tolist(), alphas.tolist()))
        # the same draws, and nothing more
        assert batch_rng.random() == scalar_rng.random()
        assert (rejects > 0) == (name.startswith("fc-") or name == "broken")

    @pytest.mark.parametrize("name", list(BATCH_SCHEMES))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_support_matches_scalar(self, name, data):
        scheme = BATCH_SCHEMES[name]()
        xs = _packed(data, scheme.feature_dim, (3, 1))[:, 0]
        probs, pis, alphas = scheme.pie_support_batch(xs)
        for i, x in enumerate(xs.tolist()):
            assert scheme.pie_support(x) == list(zip(
                probs[i].tolist(), pis[i].tolist(), alphas[i].tolist()))

    @pytest.mark.parametrize("name", ["fc-untabled", "fc-rejecting", "broken"])
    def test_reject_codes_are_drawn(self, name):
        # the schemes that reject do give REJECT_CODE on some probes, and
        # never match it against itself
        scheme = BATCH_SCHEMES[name]()
        rng = substream(3, "reject")
        xs = rng.integers(1 << scheme.feature_dim, size=200).astype(np.uint64)
        pis, alphas = scheme.pie_batch(xs, rng)
        vids = scheme.pir_batch(alphas, np.roll(xs, 1))
        assert (vids == REJECT_CODE).any()
        assert not scheme.pic_batch(REJECT_CODE, np.array([REJECT_CODE])).any()

    def test_fc_reject_code_never_matches(self, fc_scheme):
        far = np.array([0b0000011], dtype=np.uint64)   # two flips: miscorrects
        pi, alpha = fc_scheme.pie_batch(one(0), substream(2, "pie"))
        vid = fc_scheme.pir_batch(alpha, far)
        assert not fc_scheme.pic_batch(pi, vid).any()
        assert not fc_scheme.pic_batch(REJECT_CODE, np.array([REJECT_CODE])).any()


class _XorKeyScheme(BtpScheme):
    """A scheme written in the batch contract alone: pi = x ^ k for a key
    k drawn from {0, ~0}, alpha = 1 when k = ~0; match within tau."""

    name = "xor-key"

    def __init__(self, n, tau):
        self.feature_dim, self.tau = n, tau
        self._ones = np.uint64((1 << n) - 1)

    def pie_batch(self, xs, rng):
        xs = np.asarray(xs, dtype=np.uint64)
        alpha = rng.integers(2, size=xs.shape).astype(np.uint64)
        return self.pir_batch(alpha, xs), alpha

    def pir_batch(self, alpha, xs):
        return np.asarray(xs, dtype=np.uint64) ^ (alpha * self._ones)

    def pic_batch(self, pi, vid):
        return np.bitwise_count(pi ^ vid) <= self.tau

    def pie_support_batch(self, xs):
        xs = np.asarray(xs, dtype=np.uint64)[..., None]
        alpha = np.broadcast_to(np.arange(2, dtype=np.uint64),
                                xs.shape[:-1] + (2,))
        return np.full(alpha.shape, 0.5), self.pir_batch(alpha, xs), alpha


class TestMethodSets:
    def test_the_batch_set_is_the_whole_contract(self):
        """A scheme implements exactly the four batch methods: a class
        without all four, scalar methods or not, is refused by name."""
        assert BtpScheme.__abstractmethods__ == {
            "pie_batch", "pir_batch", "pic_batch", "pie_support_batch"}

        class Nothing(BtpScheme):
            name = "nothing"

        class HalfBatch(_XorKeyScheme):
            pie_support_batch = BtpScheme.pie_support_batch

        class ScalarOnly(BtpScheme):
            name = "scalar-only"

            def pie(self, x, rng):
                return ProtectedTemplate(pi=0, alpha=0)

            def pir(self, alpha, x_prime):
                return 0

            def pic(self, pi, pi_prime):
                return True

        for make, missing in (
                (BtpScheme, "pie_batch"), (Nothing, "pic_batch"),
                (lambda: HalfBatch(7, 1), "pie_support_batch"),
                (ScalarOnly, "pie_support_batch")):
            with pytest.raises(TypeError, match="abstract class") as info:
                make()
            assert missing in str(info.value)
        _XorKeyScheme(7, 1)
        BrokenScheme(7)
        AlwaysMatchScheme(7)

    def test_feature_fields(self):
        assert {name: build_scheme({"scheme": name}, 7).feature_fields
                for name in ("fc", "rot", "plain", "broken")} == {
            "fc": ("alpha",), "rot": ("pi",), "plain": ("pi",), "broken": ()}
        assert _XorKeyScheme(7, 1).feature_fields == ()

    def test_batch_only_scheme_runs_everywhere(self, default_pop):
        from btpeval import exact, metrics
        from btpeval.verify import PASS, check_thm_unlink_unachievable

        scheme = _XorKeyScheme(7, tau=1)
        x = one(0b1010101)
        pi, alpha = scheme.pie_batch(x, substream(0, "pie"))
        assert scheme.pic_batch(pi, scheme.pir_batch(alpha, x))
        assert not scheme.pic_batch(pi, scheme.pir_batch(1 - alpha, x))
        assert scheme.pie_support_batch(x)[0].tolist() == [0.5, 0.5]

        en = exact.SchemeEnumerator(scheme, default_pop)
        fnmr = exact.LawOracle(PlaintextScheme(7, tau=1), default_pop).fnmr()
        assert en.fnmr() == pytest.approx(fnmr, abs=1e-12)
        est = metrics.est_scheme_fnmr(scheme, default_pop,
                                      RunSettings(trials=4000, seed=3, level=0.99))
        assert est.ci_low <= en.fnmr() <= est.ci_high
        stats = metrics.pt_match_stats(scheme, default_pop,
                                       RunSettings(stats_outer=200, stats_inner=100,
                                                   seed=3, level=0.99))
        mean, _ = en.pt_match_stats()
        assert stats.mean_ci[0] <= mean <= stats.mean_ci[1]
        assert check_thm_unlink_unachievable(
            scheme, default_pop, RunSettings(trials=4000, seed=3)
        ).status == PASS

    def test_a_declared_feature_field_is_read(self, default_pop):
        """A custom scheme's field is read by its view reader once the
        scheme lists it in `feature_fields`, and refused until then."""
        class ReadableXorKey(_XorKeyScheme):
            feature_fields = ("pi",)

        settings = RunSettings(trials=300, seed=4)
        with pytest.raises(ContractError, match="^leaked pi is not a feature element$"):
            run_al_irr_game(_XorKeyScheme(7, 1), default_pop, LEAK_PI, 1,
                            ReadViewAdversary("pi"), settings)
        # pi = x or its complement, each half the time: a guess within tau
        # of the capture wins about half the trials
        result = run_al_irr_game(ReadableXorKey(7, 1), default_pop, LEAK_PI,
                                 1, ReadViewAdversary("pi"), settings)
        assert 0.35 < result.win_rate.point < 0.65
