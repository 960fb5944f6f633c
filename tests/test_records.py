"""Record semantics of every value record in the package: pickling,
immutability, value equality and hashing (identity for the results that
hold an array, a list or a dict), `replace` and `repr`."""

import pickle

import numpy as np
import pytest

from btpeval import exact, games, metrics, population, schemes, verify
from btpeval.adversaries import BlindArgmaxAdversary, PalSamplerConfig
from btpeval.errors import ConfigError, ContractError
from btpeval.metrics import AdvantageEstimate, MatchRateStats, RunSettings
from btpeval.population import generate_population
from btpeval.records import Record
from btpeval.schemes import LEAK_BOTH, ProtectedTemplate, build_scheme

FC = build_scheme({"scheme": "fc"}, 7)
ADV = BlindArgmaxAdversary(0)
EST = AdvantageEstimate(0.5, 10, 0.2, 0.8, queries_used=3)


def _pop():
    return generate_population(7, 16, 0.03, seed=1)


def _spec_fields():
    return (FC, _pop(), LEAK_BOTH, ADV, RunSettings(trials=5), "label")


# A fresh instance of each record per call; a field that compares by
# identity (a scheme, an adversary) is shared between calls.
VALUE_RECORDS = {
    population.Population: _pop,
    schemes.ProtectedTemplate: lambda: ProtectedTemplate(b"\x01" * 16, 3),
    schemes.LeakSet: lambda: schemes.LeakSet(True, False),
    schemes.LinearCode: lambda: schemes.LinearCode.from_bitstrings(
        ["1000110", "0100101", "0010011", "0001111"], t=1),
    metrics.AdvantageEstimate: lambda: AdvantageEstimate(0.5, 10, 0.2, 0.8),
    metrics.RunSettings: lambda: RunSettings(trials=7, seed=3),
    metrics._AcceptKernel: lambda: metrics._AcceptKernel(
        _pop(), FC, owners=("u", "v"), pi_from=1),
    metrics._PtStatsKernel: lambda: metrics._PtStatsKernel(FC, _pop(), 4),
    metrics.MValue: lambda: metrics.MValue(0.25, 9, "exact"),
    metrics.OverlapRates: lambda: metrics.OverlapRates(0.4, 0.1, 1, 2),
    metrics.MatchRateStats: lambda: MatchRateStats(0.5, 0.1),
    games.GameParams: lambda: games.GameParams(FC, _pop()),
    games._GameSpec: lambda: games._GameSpec(*_spec_fields()),
    games._IrrSpec: lambda: games._IrrSpec(*_spec_fields(), tau=1,
                                           score_pic=False),
    games._UnlinkSpec: lambda: games._UnlinkSpec(*_spec_fields(), force_b=1),
    PalSamplerConfig: lambda: PalSamplerConfig(0.5, 0.1, 0.16, 0.5, 0.25, 3),
    verify.TheoremVerdict: lambda: verify.TheoremVerdict(
        "T3", verify.PASS, "~~", 0.5, 0.5, 0.01, leak="pi+ad",
        details={"trials": 10}),
    games.CrossMatchResult: lambda: games.CrossMatchResult(
        EST, EST, 0.0, EST, 0.0),
    metrics.PtMatchStatsResult: lambda: metrics.PtMatchStatsResult(
        MatchRateStats(0.5, 0.1), 3, 4, (0.4, 0.6), (0.0, 0.2)),
}

IDENTITY_RECORDS = {
    games.GameResult: lambda: games.GameResult(
        "al-irr", "pi", 10, 5, EST, EST, 0.1, "exact", 0, {"challenger": 10},
        "blind"),
    games.CoupledIrrResult: lambda: games.CoupledIrrResult(
        1, 3, np.array([True, False, False]), np.array([True, True, False]),
        np.array([True, True, True]), 0),
}

RECORDS = {**VALUE_RECORDS, **IDENTITY_RECORDS}
# not hashable: a field holds a dict
UNHASHABLE = {verify.TheoremVerdict}


def _same(x, y) -> bool:
    """Equal values: an array by its elements, an object that compares by
    identity (a scheme, an adversary) by its type."""
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    if type(x).__eq__ is object.__eq__:
        return type(x) is type(y)
    return x == y


def _same_fields(a, b) -> bool:
    return all(_same(getattr(a, f), getattr(b, f)) for f in type(a)._fields)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_every_record_is_covered():
    assert set(RECORDS) == set(_all_subclasses(Record))
    assert len(RECORDS) == 21


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    x = RECORDS[cls]()
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is cls and _same_fields(x, y)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_assignment_raises(cls):
    x = RECORDS[cls]()
    field = cls._fields[0]
    with pytest.raises(AttributeError, match="frozen"):
        setattr(x, field, getattr(x, field))
    with pytest.raises(AttributeError, match="frozen"):
        delattr(x, field)
    with pytest.raises(AttributeError, match="frozen"):
        x.unknown = 1


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda c: c.__name__)
def test_equal_values_equal_hashes(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert a is not b and a == b and not a != b
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("pop", [
    _pop(),
    population.Population(7, 0.05, 2, [5, 1 << 6, 0]),
], ids=["generated", "listed"])
def test_pickled_population_is_rebuilt(pop):
    # read-only centers and a hash of the rebuilt fields, not a copied one
    assert b"_hash" not in pickle.dumps(pop)
    copy = pickle.loads(pickle.dumps(pop))
    assert copy == pop and hash(copy) == hash(pop)
    assert copy.centers.dtype == np.uint64
    assert not copy.centers.flags.writeable
    with pytest.raises(ValueError):
        copy.centers[0] = 1
    assert pickle.loads(pickle.dumps(copy)) == pop


def test_pickled_code_is_rebuilt():
    # the codewords and the decode table stay read-only in a worker's copy
    data = pickle.dumps(schemes.FuzzyCommitmentScheme(schemes.hamming_7_4()))
    assert b"_decode_table" not in data and b"codewords" not in data
    copy = pickle.loads(data).code
    assert copy == schemes.hamming_7_4()
    for table in (copy.codewords, copy._decode_table):
        with pytest.raises(ValueError):
            table[0] = 1


def test_equal_populations_share_a_cache_entry():
    a, b = _pop(), _pop()
    first = exact.mr_vector(a, 1)
    assert exact.mr_vector(b, 1) is first
    assert exact.mr_vector.cache_info().currsize == 1


def test_a_changed_field_is_unequal():
    x = MatchRateStats(0.5, 0.1)
    assert x != MatchRateStats(0.5, 0.2) and x != MatchRateStats(0.4, 0.1)
    assert RunSettings() != RunSettings(seed=2)
    assert (x == (0.5, 0.1)) is False


@pytest.mark.parametrize("cls", IDENTITY_RECORDS, ids=lambda c: c.__name__)
def test_identity_equality(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert a == a and a != b and _same_fields(a, b)
    assert len({a, b}) == 2


def test_replace_validates_again():
    s = RunSettings(trials=5)
    assert s.replace(seed=9) == RunSettings(trials=5, seed=9)
    assert s == RunSettings(trials=5)
    with pytest.raises(ConfigError, match="trials must be >= 1, got 0"):
        s.replace(trials=0)
    with pytest.raises(TypeError, match="unknown"):
        s.replace(trial=5)
    leak = schemes.LeakSet(True, False)
    assert leak.replace(ad=True) == LEAK_BOTH
    with pytest.raises(ContractError, match="leak set must be nonempty"):
        leak.replace(pi=False)


def test_constructor_signatures():
    assert RunSettings(3).tau == 3
    assert RunSettings.from_config({"seed": 4}, jobs=2).replace(jobs=1) == \
        RunSettings(seed=4)
    with pytest.raises(TypeError, match="needs the field 'details'"):
        verify.TheoremVerdict("T1", verify.PASS, "<=", 0, 0, 0)
    with pytest.raises(TypeError, match="needs the field 'tau'"):
        games._IrrSpec(*_spec_fields(), score_pic=True)
    with pytest.raises(TypeError, match="takes 2 fields, got 3"):
        metrics.MatchRateStats(0.5, 0.1, 0.2)
    with pytest.raises(TypeError, match="repeated"):
        metrics.MatchRateStats(0.5, 0.1, mean=0.5)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_lists_the_fields(cls):
    x = RECORDS[cls]()
    assert repr(x) == f"{cls.__qualname__}(" + ", ".join(
        f"{f}={getattr(x, f)!r}" for f in cls._fields) + ")"
