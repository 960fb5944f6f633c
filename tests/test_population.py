"""Feature space, population model, and sampling oracle."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btpeval import cli, population
from btpeval.errors import ConfigError, DimensionError
from btpeval.population import (
    WORD_BITS,
    Population,
    SamplingOracle,
    _alias_table,
    bitstring,
    generate_population,
    parse_bits,
)
from btpeval.rng import substream
from reference_population import (
    bit,
    feature_probability,
    hamming_distance,
    neighborhood_overlap,
    per_query_sample,
)
from reference_schemes import rotate
from reference_trials import BudgetExhausted, TrialOracle


fe = parse_bits


def str_distance(a, b):
    return sum(ca != cb for ca, cb in zip(a, b))


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance(fe("0000000"), fe("0000000")) == 0

    def test_full_complement(self):
        assert hamming_distance(fe("1111111"), fe("0000000")) == 7

    def test_single_position(self):
        assert hamming_distance(fe("0101100"), fe("0111100")) == 1

    @given(st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1))
    def test_matches_string_count(self, a, b):
        assert hamming_distance(a, b) == str_distance(bitstring(9, a),
                                                      bitstring(9, b))

    @given(st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1))
    def test_semimetric_axioms(self, a, b):
        d = hamming_distance(a, b)
        assert d >= 0
        assert (d == 0) == (a == b)
        assert d == hamming_distance(b, a)


class TestBitstrings:
    """`parse_bits` and `bitstring`, the config and report boundary."""

    def test_string_roundtrip(self):
        assert bitstring(7, fe("0101100")) == "0101100"

    def test_coordinate_0_is_leftmost(self):
        assert parse_bits("1010000") == 5
        assert bitstring(7, 5) == "1010000"

    @pytest.mark.parametrize("n", range(1, 65))
    def test_roundtrip_at_every_n(self, n):
        for value in {0, 1, 1 << (n - 1), (1 << n) - 1, 0b101 % (1 << n),
                      (0b101 << max(n - 3, 0)) % (1 << n)}:
            s = bitstring(n, value)
            assert len(s) == n and parse_bits(s) == value
        for s in ("0" * n, "1" + "0" * (n - 1), "0" * (n - 1) + "1"):
            assert bitstring(n, parse_bits(s)) == s

    @given(st.integers(1, 64), st.data())
    def test_bits_roundtrip(self, n, data):
        v = data.draw(st.integers(0, 2**n - 1))
        assert sum(bit(v, i) << i for i in range(n)) == v
        assert [int(c) for c in bitstring(n, v)] == [bit(v, i) for i in range(n)]

    @pytest.mark.parametrize("s", ["", "012", "1 0", "10a"])
    def test_not_a_bitstring(self, s):
        with pytest.raises(ConfigError, match="not a bitstring"):
            parse_bits(s)

    def test_rotation_is_isometry(self):
        rng = substream(0, "rot-test")
        for _ in range(50):
            a, b = int(rng.integers(512)), int(rng.integers(512))
            r = int(rng.integers(9))
            assert hamming_distance(rotate(9, a, r),
                                    rotate(9, b, r)) == hamming_distance(a, b)
            assert rotate(9, rotate(9, a, r), -r) == a


class TestGeneratePopulation:
    def test_reproducible(self):
        a = generate_population(7, 16, 0.03, seed=1)
        b = generate_population(7, 16, 0.03, seed=1)
        assert a == b and hash(a) == hash(b)
        assert a.centers.tolist() == b.centers.tolist()
        assert a.centers.dtype == np.uint64 and not a.centers.flags.writeable
        assert all(int(c) < 1 << 7 for c in a.centers)
        assert a.num_users == 16

    def test_seed_changes_centers(self):
        a = generate_population(7, 16, 0.03, seed=1)
        b = generate_population(7, 16, 0.03, seed=2)
        assert a != b and a.centers.tolist() != b.centers.tolist()

    def test_empty_user_set_forbidden(self):
        with pytest.raises(ConfigError):
            generate_population(7, 0, 0.03, seed=1)
        with pytest.raises(ConfigError):
            generate_population(7, 1, 0.03, seed=1)

    def test_noise_bound(self):
        with pytest.raises(ConfigError):
            generate_population(7, 16, 0.6, seed=1)
        with pytest.raises(ConfigError):
            generate_population(7, 16, 0.5, seed=1)

    def test_dimension_over_64_rejected(self):
        with pytest.raises(ConfigError, match="64"):
            generate_population(70, 4, 0.03, seed=1)

    def test_dimension_64_packs_every_bit(self):
        pop = generate_population(64, 16, 0.0, seed=1)
        assert any(bit(c, 63) for c in pop.centers)
        draws = pop.sample_batch(np.arange(16), substream(0, "n64"))
        assert draws.tolist() == pop.centers.tolist()

    def test_config_roundtrip(self):
        pop = generate_population(7, 16, 0.03, seed=1)
        again = Population.from_config(pop.to_config())
        assert again == pop
        assert again.centers.tolist() == pop.centers.tolist()
        assert again.flip_prob == pop.flip_prob

    def test_config_centers_are_parsed_and_echoed(self):
        cfg = {"n": 7, "U": 3, "p": 0.05, "seed": 0,
               "centers": ["1010000", "0110011", "1111111"]}
        pop = Population.from_config(cfg)
        assert pop.centers.tolist() == [5, 0b1100110, 127]
        assert pop.to_config() == cfg

    def test_population_over_64_bits_rejected(self):
        with pytest.raises(ConfigError, match="64"):
            Population(n=70, flip_prob=0.03, seed=0, centers=(1 << 69, 3))

    def test_equal_populations_share_their_hash(self):
        pop = generate_population(7, 16, 0.03, seed=1)
        twin = Population(7, 0.03, 1, pop.centers.tolist())
        assert twin == pop and hash(twin) == hash(pop)
        assert {pop: 1}[twin] == 1
        assert pop != pop.replace(seed=2) and pop != pop.replace(flip_prob=0.1)
        assert pop != Population(7, 0.03, 1, [*pop.centers.tolist()[:-1], 0])

    def test_hash_is_the_same_in_every_process(self):
        # a worker that rebuilds a population must find it in the caches
        # its parent keyed on the same population
        code = ("from btpeval.population import generate_population; "
                "print(hash(generate_population(7, 16, 0.03, 1)))")
        hashes = {subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True,
                                 env={**os.environ,
                                      "PYTHONHASHSEED": seed}).stdout
                  for seed in ("0", "1")}
        assert len(hashes) == 1
        assert hashes == {f"{hash(generate_population(7, 16, 0.03, 1))}\n"}

    def test_default_verify_hashes_the_centers_once_per_population(
            self, monkeypatch, capsys):
        # the caches keyed on a population read the hash it made once
        hashed, built = [], []
        validate = Population._validate
        monkeypatch.setattr(population, "hash",
                            lambda key: hashed.append(key) or hash(key),
                            raising=False)
        monkeypatch.setattr(Population, "_validate",
                            lambda pop: built.append(pop) or validate(pop))
        assert cli.main(["verify", "--theorem", "all"]) == 0
        assert len(built) == 1
        pop = built[0]
        assert hashed == [(pop.n, pop.flip_prob, pop.seed,
                           tuple(pop.centers.tolist()))]

    def test_config_user_count_mismatch(self):
        pop = generate_population(7, 4, 0.03, seed=1)
        cfg = pop.to_config()
        cfg["U"] = 5
        with pytest.raises(ConfigError):
            Population.from_config(cfg)


def loop_captures(pop, us, uniforms):
    """Captures packed word by word in Python, from the same uniforms: the
    53 bits k of each uniform pick cell k >> (53 - w) of the alias table,
    kept where k is below the cell's cut, and word j lands at bit 10 j."""
    w = min(pop.n, WORD_BITS)
    cut, alias = _alias_table(w, pop.flip_prob)
    out = []
    for u, row in zip(us, uniforms):
        flips = 0
        for j, r in enumerate(row):
            k = int(r * 2**53)
            cell = k >> (53 - w)
            mask = cell if k < int(cut[cell] * 2**53) else int(alias[cell])
            flips |= mask << (WORD_BITS * j)
        out.append(int(pop.centers[int(u)]) ^ (flips & ((1 << pop.n) - 1)))
    return out


class TestCapturePacker:
    """`sample_batch` against a per-word Python lookup."""

    @pytest.mark.parametrize("n", [1, 7, 33, 64])
    def test_batch_equals_per_word_lookup(self, n):
        pop = generate_population(n, 8, 0.3, seed=2)
        us = substream(1, "us").integers(8, size=200)
        batch = pop.sample_batch(us, substream(n, "pack"))
        uniforms = substream(n, "pack").random((200, math.ceil(n / 10)))
        expected = loop_captures(pop, us, uniforms)
        assert [int(v) for v in batch] == expected
        if n == 64:
            assert any((v ^ int(pop.centers[int(u)])) >> 63
                       for u, v in zip(us, expected))

    def test_captures_keep_the_users_shape(self):
        pop = generate_population(33, 8, 0.3, seed=2)
        us = substream(2, "us").integers(8, size=(4, 5))
        uniforms = substream(2, "u").random((4, 5, 4))
        out = pop.sample_batch(us, substream(2, "u"))
        assert out.shape == (4, 5) and out.dtype == np.uint64
        assert [int(v) for v in out.ravel()] == loop_captures(
            pop, us.ravel(), uniforms.reshape(20, 4))

    @pytest.mark.parametrize("n", [1, 7, 10, 11, 33, 64])
    def test_a_capture_draws_one_double_per_word(self, n):
        pop = generate_population(n, 8, 0.3, seed=2)
        assert pop.words == math.ceil(n / 10)
        us = substream(3, "us").integers(8, size=(30, 7))
        rng, ref = substream(n, "words"), substream(n, "words")
        pop.sample_batch(us, rng)
        pop.sample_batch(np.array([5]), rng)
        ref.random(211 * pop.words)
        assert rng.random() == ref.random()


def exact_word_pmf(w, p):
    """Pr[mask] of every w-bit mask of Bernoulli(p) bits, as fractions."""
    p = Fraction(p)
    return [p ** m.bit_count() * (1 - p) ** (w - m.bit_count())
            for m in range(1 << w)]


def table_pmf(w, p):
    """Pr[mask] that the alias table gives each w-bit mask, as fractions:
    cell i keeps itself on cut[i] - i / 2^w and yields the rest of its
    1 / 2^w to alias[i]."""
    cut, alias = _alias_table(w, p)
    size = 1 << w
    assert all(c * 2**53 == int(c * 2**53) for c in cut)
    mass = [Fraction(0)] * size
    for i in range(size):
        keep = Fraction(cut[i]) - Fraction(i, size)
        assert 0 <= keep <= Fraction(1, size)
        mass[i] += keep
        mass[int(alias[i])] += Fraction(1, size) - keep
    assert sum(mass) == 1
    return mass


class TestAliasTable:
    """The alias table of a word rebuilds the word's exact law."""

    @pytest.mark.parametrize("p", [0.0, 0.03, 0.3, 0.49])
    @pytest.mark.parametrize("w", [1, 3, 7, 10])
    def test_table_rebuilds_the_exact_word_pmf(self, w, p):
        for got, want in zip(table_pmf(w, p), exact_word_pmf(w, p)):
            assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("n", [33, 64])
    @pytest.mark.parametrize("p", [0.03, 0.3, 0.49])
    def test_cut_last_word_keeps_the_law_of_its_bits(self, n, p):
        # the last word of an n-bit capture keeps its n mod 10 low bits;
        # each kept mask sums 2^(10 - bits) masks, each within 2^-53
        bits = n % WORD_BITS
        kept = [Fraction(0)] * (1 << bits)
        for mask, mass in enumerate(table_pmf(WORD_BITS, p)):
            kept[mask & ((1 << bits) - 1)] += mass
        for got, want in zip(kept, exact_word_pmf(bits, p)):
            assert abs(got - want) < Fraction(1 << (WORD_BITS - bits), 2**53)

    def test_capture_law_chi_square(self):
        # 400,000 captures of one user at n = 12 (a word of 10 bits and
        # one cut to 2) against its exact pmf; outcomes expected fewer
        # than 5 times share one cell.  The bound is the Wilson-Hilferty
        # approximation of the chi-square 99.9% point.
        pop = generate_population(12, 4, 0.2, seed=3)
        draws = 400_000
        vals = pop.sample_batch(np.full(draws, 1), substream(4, "chi2"))
        counts = np.bincount(vals.astype(np.int64), minlength=1 << 12)
        d = np.bitwise_count(np.arange(1 << 12, dtype=np.uint64) ^ pop.centers[1])
        expected = draws * 0.2 ** d * 0.8 ** (12 - d)
        big = expected >= 5
        obs = np.append(counts[big], counts[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        stat = float(((obs - exp) ** 2 / exp).sum())
        df = len(obs) - 1
        z = NormalDist().inv_cdf(0.999)
        critical = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
        assert stat < critical, (stat, df)


class TestSampling:
    def test_noiseless_returns_center(self, noiseless_pop):
        us = np.arange(noiseless_pop.num_users)
        draws = noiseless_pop.sample_batch(us, substream(0, "t"))
        assert draws.tolist() == noiseless_pop.centers.tolist()

    def test_deterministic_given_seed(self, default_pop):
        def draws():
            return [int(default_pop.sample_batch(np.array([3]),
                                                 substream(9, "d", i))[0])
                    for i in range(20)]
        assert draws() == draws()

    def test_batch_agrees_with_distribution(self, default_pop):
        # same per-bit law, checked through flip frequencies
        rng = substream(1, "batch")
        us = np.zeros(100_000, dtype=np.int64)
        vals = default_pop.sample_batch(us, rng)
        flips = np.bitwise_count(vals ^ default_pop.centers[0])
        freq = flips.mean() / default_pop.n
        assert abs(freq - 0.03) < 0.005

    def test_per_bit_flip_frequency(self, default_pop):
        rng = substream(2, "freq")
        n = default_pop.n
        c = default_pop.centers[5]
        counts = np.zeros(n)
        draws = 100_000
        vals = default_pop.sample_batch(np.full(draws, 5), rng)
        for i in range(n):
            counts[i] = ((vals ^ c) >> np.uint64(i) & np.uint64(1)).sum()
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.03) < 0.005)

    def test_empirical_matches_feature_probability(self, default_pop):
        # 10^6 draws against the exact pmf, 4 standard errors per outcome
        # in the normal regime, Poisson-style slack for the rare tail
        rng = substream(3, "exact-freq")
        draws = 1_000_000
        vals = default_pop.sample_batch(np.full(draws, 2), rng)
        counts = np.bincount(vals.astype(np.int64), minlength=128)
        tail_expected = 0.0
        tail_count = 0
        for v in range(128):
            p = feature_probability(default_pop, 2, v)
            expected = draws * p
            if expected >= 10:
                slack = 4 * math.sqrt(draws * p * (1 - p))
                assert abs(counts[v] - expected) <= slack, f"outcome {v}"
            else:
                tail_expected += expected
                tail_count += counts[v]
        assert tail_count <= tail_expected + 4 * math.sqrt(tail_expected) + 3


class TestFeatureProbability:
    def test_noiseless_center(self, noiseless_pop):
        assert feature_probability(noiseless_pop, 0, noiseless_pop.centers[0]) == 1.0

    def test_center_mass_value(self, default_pop):
        expected = 1.0
        for _ in range(7):
            expected *= 0.97
        got = feature_probability(default_pop, 0, default_pop.centers[0])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.807983, abs=5e-7)

    def test_normalization(self, default_pop):
        total = sum(
            feature_probability(default_pop, 4, v)
            for v in range(128)
        )
        assert abs(total - 1.0) < 1e-12

    def test_dimension_mismatch(self, default_pop):
        with pytest.raises(DimensionError):
            feature_probability(default_pop, 0, 1 << 7)


class TestSamplingOracle:
    """A trial's budget, on the chunk's oracle and on the per-trial oracle
    of the reference driver, which charges and draws through it."""

    def test_budget_enforced(self, default_pop):
        chunk = SamplingOracle(default_pop, substream(0, "o"), 3, 1)
        oracle = TrialOracle(chunk, 0)
        for _ in range(3):
            oracle.sample(0)
        assert oracle.query_count == 3 and not chunk.cut[0]
        with pytest.raises(BudgetExhausted):
            oracle.sample(0)
        assert oracle.query_count == 3 and chunk.cut[0]

    def test_unknown_user(self, default_pop):
        oracle = TrialOracle(
            SamplingOracle(default_pop, substream(0, "o"), 10**6, 1), 0)
        with pytest.raises(IndexError):
            oracle.sample(99)

    def test_count_monotone(self, default_pop):
        oracle = SamplingOracle(default_pop, substream(0, "o"), 10, 1)
        seen = []
        for _ in range(5):
            oracle.sample([0], [1])
            seen.append(int(oracle.counts[0]))
        assert seen == sorted(seen) == [1, 2, 3, 4, 5]

    def test_trial_oracle_draws_through_the_chunk(self, default_pop):
        one, chunk = (SamplingOracle(default_pop, substream(0, "o"), 10,
                                     4).subset([1, 3]) for _ in range(2))
        trial = TrialOracle(one, 1)
        assert trial.row == 3
        x = trial.sample(5)
        assert x == int(chunk.sample([1], [5])[0])
        assert one.counts.tolist() == chunk.counts.tolist() == [0, 1]
        assert one.rng.random() == chunk.rng.random()


# (budget, trials, rows kept by `subset` or None, calls as (trials, users
# shape)); in "cut", trial 2 runs out of budget partway through its row
CHARGE_CASES = {
    "rows": (10, 8, None, [(np.arange(2, 6), (4, 3))]),
    "flat": (10, 8, None, [([0, 1, 1, 3], (4,))]),
    "duplicates": (10, 8, None, [([1, 1, 2], (3, 2)), ([2, 2], (2, 3))]),
    "subset": (10, 8, [1, 3, 4, 6], [(np.arange(4), (4, 2)),
                                     ([0, 3], (2, 3))]),
    "cut": (5, 4, None, [([0, 1], (2, 3)), ([1, 0, 2], (3, 2)),
                         ([2], (1, 4))]),
}


class TestBatchOracleCharge:
    """`SamplingOracle.sample` charges each trial one query per user of
    its row: bit for bit the per-query charge of `per_query_sample`."""

    @pytest.mark.parametrize("case", CHARGE_CASES)
    def test_row_charge_equals_per_query_charge(self, default_pop, case):
        budget, trials, sel, calls = CHARGE_CASES[case]
        user_rng = substream(6, "charge-users")
        chunks = [SamplingOracle(default_pop, substream(6, "charge"),
                                 budget, trials) for _ in range(2)]
        by_row, by_query = (c if sel is None else c.subset(sel)
                            for c in chunks)
        for rows, shape in calls:
            users = user_rng.integers(default_pop.num_users, size=shape)
            got = by_row.sample(np.asarray(rows), users)
            assert got.shape == users.shape
            assert np.array_equal(got, per_query_sample(by_query, rows, users))
        assert np.array_equal(chunks[0].counts, chunks[1].counts)
        assert np.array_equal(chunks[0].cut, chunks[1].cut)
        assert chunks[0].cut.any() == (case == "cut")
        assert chunks[0].rng.random() == chunks[1].rng.random()

    def test_each_row_is_charged_its_width(self, default_pop):
        oracle = SamplingOracle(default_pop, substream(6, "w"), 10, 4)
        oracle.sample(np.array([3, 1, 3]), np.zeros((3, 2), dtype=np.int64))
        assert oracle.counts.tolist() == [0, 2, 0, 4]

    def test_a_trial_outside_the_oracle_is_refused_uncharged(
            self, default_pop):
        # numpy would wrap a negative trial round to charge another one
        oracle = SamplingOracle(default_pop, substream(6, "t"), 10, 4)
        for sub in (oracle, oracle.subset([0, 1])):
            for trials in ([-1], [0, -2], [1, sub.trials]):
                with pytest.raises(IndexError, match="unknown trial"):
                    sub.sample(np.array(trials), np.zeros(len(trials),
                                                          dtype=np.int64))
        assert oracle.counts.tolist() == [0, 0, 0, 0]
        assert oracle.rng.random() == substream(6, "t").random()

    def test_a_lone_user_is_the_row_of_one_trial(self, default_pop):
        # sample(2, 5): a 0-d trial and a 0-d user are one trial's query
        lone, twin = (SamplingOracle(default_pop, substream(6, "lone"), 10, 4)
                      for _ in range(2))
        got = lone.sample(2, 5)
        assert got.shape == () and got == twin.sample([2], [5])[0]
        assert lone.counts.tolist() == twin.counts.tolist() == [0, 0, 1, 0]
        with pytest.raises(IndexError, match="unknown trial"):
            lone.sample(7, 5)
        assert lone.counts.tolist() == [0, 0, 1, 0]


def brute_force_overlap(x0, x1, tau):
    """Independent oracle: scan every midpoint in the 7-cube."""
    for z in range(1 << 7):
        if hamming_distance(x0, z) <= tau and hamming_distance(z, x1) <= tau:
            return True
    return False


class TestNeighborhoodOverlap:
    def test_zero_radius_distinct(self):
        assert neighborhood_overlap(fe("0000000"), fe("0000001"), 0) is False

    def test_distance_4_tau_2(self):
        x0, x1 = fe("0000000"), fe("1111000")
        assert brute_force_overlap(x0, x1, 2) is True
        assert neighborhood_overlap(x0, x1, 2) is True

    def test_distance_5_tau_2(self):
        x0, x1 = fe("0000000"), fe("1111100")
        assert brute_force_overlap(x0, x1, 2) is False
        assert neighborhood_overlap(x0, x1, 2) is False

    @pytest.mark.parametrize("n", [5, 6])
    def test_exhaustive_equivalence_small(self, n):
        size = 1 << n
        xs = np.arange(size, dtype=np.uint64)
        d = np.bitwise_count(xs[:, None] ^ xs[None, :])
        for tau in range(0, n // 2 + 2):
            balls = d <= tau
            midpoint = (balls.astype(np.uint8) @ balls.astype(np.uint8)) > 0
            assert np.array_equal(midpoint, d <= 2 * tau), f"tau={tau}"

    @given(st.integers(0, 127), st.integers(0, 127), st.integers(0, 4))
    @settings(max_examples=60)
    def test_matches_brute_force(self, a, b, tau):
        assert neighborhood_overlap(a, b, tau) == brute_force_overlap(a, b, tau)
