"""Hamming feature space, user population model, and the sampling oracle.

The feature space is the n-cube {0,1}^n with the Hamming distance (a
semimetric: non-negative, zero exactly on equal points, symmetric).  Each
user u owns a center template c_u; a fresh capture from u flips every bit
of c_u independently with probability p, and is packed into one uint64,
as the centers are in `Population.centers`: bit i is coordinate i.
Bitstrings appear only at the config and report boundary, through
`parse_bits` and `bitstring`.  `SamplingOracle` wraps the population
behind a query-counted interface for a chunk of trials, so games can
charge adversary queries against a budget: `sample(trials, users)`
charges trial `trials[i]` one query per user in row `users[i]`.

A capture draws one uniform per word of up to `WORD_BITS` bits: the
word's flip mask is read from an alias table of its Bernoulli(p)^w law
(Walker 1977, in the layout of Vose 1991).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (ConfigError, ContractError, DimensionError, require_keys,
                     require_type)
from .records import Record
from .rng import substream

MAX_N = 64  # captures are packed into one uint64 word
WORD_BITS = 10  # flip-mask bits drawn per uniform


def check_dimension(n: int):
    """Refuse, with `ConfigError`, a feature dimension n (of a population,
    a scheme or a code) that is not an integer in [1, MAX_N]."""
    require_type("n", n, whole=True)
    if not 1 <= n <= MAX_N:
        raise ConfigError(f"n must be in [1, {MAX_N}], got {n}")


def check_p(p):
    """Refuse, with `ConfigError`, a noise p that is not a number 0 <= p < 1/2."""
    require_type("p", p, whole=False)
    if not 0.0 <= p < 0.5:
        raise ConfigError(f"p must be in [0, 0.5), got {p}")


def check_width(what: str, values, n: int):
    """Refuse, with `DimensionError`, packed `values` (one or an array) of
    which one has more than n bits; `what` names them in the message."""
    values = np.asarray(values)
    if values.size and int(values.max()) >> int(n):
        raise DimensionError(f"{what} has more than {n} bits")


def parse_bits(s: str) -> int:
    """The packed value of bitstring `s`, coordinate 0 leftmost:
    "1010000" -> 0b0000101.  Config centers and generator rows are read
    through it."""
    if not (isinstance(s, str) and s) or set(s) - {"0", "1"}:
        raise ConfigError(f"not a bitstring: {s!r}")
    return int(s[::-1], 2)


def parse_rows(name: str, rows) -> list:
    """The packed values of `rows`, the config's non-empty list of
    bitstrings `name`; row lengths are the caller's to check."""
    if not (isinstance(rows, list) and rows):
        raise ConfigError(f"{name} must be a non-empty list of bitstrings, "
                          f"got {rows!r}")
    try:
        return [parse_bits(s) for s in rows]
    except ConfigError as e:
        raise ConfigError(f"{name}: {e}") from None


def bitstring(n: int, value) -> str:
    """The n-bit rendering of a packed feature, the inverse of
    `parse_bits`; reports and configs write features through it."""
    return format(int(value), f"0{n}b")[::-1]


def _word_masses(w: int, p: float) -> np.ndarray:
    """Pr[mask] of each w-bit flip mask in integer units of 2^-53, summing
    to 2^53: the exact p^h (1 - p)^(w - h) of a mask of weight h rounded
    down, plus one unit for the masks of the largest remainders (ties to
    the lower weight, then the lower mask), so every mask is within one
    unit of its exact probability."""
    num, den = p.as_integer_ratio()
    floor_rem = [divmod(num**h * (den - num)**(w - h) << 53, den**w)
                 for h in range(w + 1)]
    weight = np.bitwise_count(np.arange(1 << w, dtype=np.uint64))
    mass = np.array([q for q, _ in floor_rem], dtype=np.int64)[weight]
    short = (1 << 53) - int(mass.sum())
    for h in sorted(range(w + 1), key=lambda h: -floor_rem[h][1]):
        lifted = np.flatnonzero(weight == h)[:short]
        mass[lifted] += 1
        short -= len(lifted)
    return mass


@lru_cache(maxsize=64)
def _alias_table(w: int, p: float) -> tuple:
    """(cut, alias) of the alias table of a w-bit flip mask, read-only.

    A uniform u = k / 2^53 picks cell floor(u 2^w) and keeps it where
    u < cut[cell], else takes alias[cell]; each cell holds 2^(53 - w) of
    the 2^53 values of k, so every mask gets exactly its `_word_masses`.
    The table is built without a loop: small cells (mass below a cell)
    lay their deficits end to end, large ones their surpluses, and a
    deficit goes to the large cell whose surplus holds its start.  A
    large cell that gives more than its surplus takes the overflow from
    the next large cell, as in Vose's sequential pairing.
    """
    mass = _word_masses(w, p)
    cell = 1 << (53 - w)
    small, large = np.flatnonzero(mass < cell), np.flatnonzero(mass > cell)
    deficit = cell - mass[small]
    deficit_end = np.cumsum(deficit)
    surplus_end = np.cumsum(mass[large] - cell)
    keep = np.full(len(mass), cell, dtype=np.int64)
    alias = np.arange(len(mass))
    keep[small] = mass[small]
    alias[small] = large[np.searchsorted(surplus_end, deficit_end - deficit,
                                         side="right")]
    overflow = deficit_end[np.searchsorted(deficit_end, surplus_end)] - surplus_end
    keep[large] = cell - overflow
    alias[large[:-1]] = large[1:]
    cut = (np.arange(len(mass)) * cell + keep) / 2.0**53   # exact: <= 2^53
    cut.flags.writeable = alias.flags.writeable = False
    return cut, alias


class Population(Record):
    """The user set with its per-user capture distributions.

    `centers` holds one packed center per user, given as integers, as a
    read-only uint64 array; `flip_prob` is the per-bit capture noise p.
    Immutable after construction and safe to share across workers; all
    sampling goes through caller-supplied Generators.
    """

    n: int
    flip_prob: float
    seed: int
    centers: object

    def _validate(self):
        check_dimension(self.n)
        check_p(self.flip_prob)
        require_type("seed", self.seed, whole=True)
        centers = self.centers
        if not (isinstance(centers, np.ndarray) and centers.dtype.kind in "iu"):
            centers = np.array(centers, dtype=object)   # keeps every int exact
            for c in centers.flat:
                require_type("a center", c, whole=True)
        if centers.ndim != 1:
            raise ConfigError("centers must be one packed value per user")
        require_type("U", len(centers), whole=True, least=2)
        if (centers < 0).any():
            raise DimensionError(f"a center is negative: {centers.min()}")
        check_width("a center", centers, self.n)
        centers = np.array(centers, dtype=np.uint64)
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        # hashed once, for the caches keyed on a population; the fields
        # hash as ints and a float, so the hash is the same in every process
        object.__setattr__(self, "_hash", hash(
            (self.n, self.flip_prob, self.seed, tuple(centers.tolist()))))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.n == other.n
                and self.flip_prob == other.flip_prob and self.seed == other.seed
                and np.array_equal(self.centers, other.centers))

    def __hash__(self):
        return self._hash

    @property
    def num_users(self) -> int:
        return len(self.centers)

    @property
    def words(self) -> int:
        """Uniforms per capture: one per word of min(n, WORD_BITS) bits."""
        return -(-self.n // WORD_BITS)

    def sample_batch(self, us, rng: np.random.Generator) -> np.ndarray:
        """Packed captures (uint64) of the users in array `us`, in its
        shape, from `words` uniforms of `rng` per capture.

        Word j of the flip mask, bits 10 j onward, is read from uniform j
        through the alias table of min(n, WORD_BITS) independent
        Bernoulli(p) bits; the last word is cut to the bits it has left,
        which keeps their law.  Each mask of a word is within 2^-53 of its
        exact probability, so a word's law is within total variation
        2^(w - 54) <= 2^-44 of the exact one.
        """
        us = np.asarray(us)
        uniforms = rng.random(us.shape + (self.words,))
        cut, alias = _alias_table(min(self.n, WORD_BITS), self.flip_prob)
        cells = (uniforms * len(cut)).astype(np.intp)
        masks = np.where(uniforms < cut[cells], cells, alias[cells]).view(np.uint64)
        flips = masks[..., -1]
        if self.words > 1:
            for j in range(self.words - 2, -1, -1):
                flips = (flips << np.uint64(WORD_BITS)) | masks[..., j]
            flips &= np.uint64((1 << self.n) - 1)
        return self.centers[us] ^ flips

    def to_config(self) -> dict:
        return {
            "n": self.n,
            "U": self.num_users,
            "p": self.flip_prob,
            "seed": self.seed,
            "centers": [bitstring(self.n, c) for c in self.centers],
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "Population":
        """The population of a config block, whose keys, defaults and
        refusals it owns: listed `centers` fix `n` and `U`, where given
        they must agree; else `U` (16) centers of `n` (7) bits are drawn."""
        require_keys(cfg, ("n", "U", "p", "seed", "centers"))
        p, seed = cfg.get("p", 0.03), cfg.get("seed", 1)
        check_p(p)   # before float() can coerce it
        if "centers" not in cfg:
            return generate_population(cfg.get("n", 7), cfg.get("U", 16),
                                       float(p), seed)
        rows = cfg["centers"]
        centers = parse_rows("centers", rows)
        n, users = cfg.get("n", len(rows[0])), cfg.get("U", len(rows))
        require_type("n", n, whole=True)    # before the lengths and the count
        require_type("U", users, whole=True)
        for s in rows:
            if len(s) != n:
                raise DimensionError(f"center has {len(s)} bits, expected {n}")
        pop = cls(n=n, flip_prob=float(p), seed=seed, centers=centers)
        if users != pop.num_users:
            raise ConfigError(f"config says U={users!r} but "
                              f"{pop.num_users} centers listed")
        return pop


def generate_population(
    n: int, num_users: int, flip_prob: float, seed: int
) -> Population:
    """Draw `num_users` centers independently and uniformly from {0,1}^n.

    Deterministic given `seed`; the centers come from a stream derived
    from (seed, "population") so later consumers of the same seed do not
    disturb them.
    """
    check_dimension(n)
    require_type("U", num_users, whole=True, least=2)
    check_p(flip_prob)
    require_type("seed", seed, whole=True)
    bits = substream(seed, "gen").integers(0, 2, size=(num_users, n))
    centers = (bits.astype(np.uint64) << np.arange(n, dtype=np.uint64)).sum(
        axis=1, dtype=np.uint64)
    return Population(n=n, flip_prob=flip_prob, seed=seed, centers=centers)


class SamplingOracle:
    """Query-counted access to the population's capture distributions, for
    a chunk of trials, counted per trial.

    `sample(trials, users)` draws one capture per user and charges each
    to the trial of its row.  A trial whose demand passes `query_budget`
    is `cut`, and its count stops at the budget; the oracle still draws
    every capture asked of it, and the game scores the trial as cut.
    `subset` gives an oracle over some of the trials that charges this
    one.
    """

    def __init__(self, population: Population, rng: np.random.Generator,
                 query_budget: int, trials: int):
        self.population = population
        self.rng = rng
        self.query_budget = int(query_budget)
        self._counts = np.zeros(trials, dtype=np.int64)
        self._cut = np.zeros(trials, dtype=bool)
        self._index = np.arange(trials)

    @property
    def trials(self) -> int:
        return len(self._index)

    @property
    def rows(self) -> np.ndarray:
        """Each trial's row in the chunk, kept by `subset`."""
        return self._index

    @property
    def counts(self) -> np.ndarray:
        """Queries charged to each trial, at most the budget."""
        return self._counts[self._index]

    @property
    def cut(self) -> np.ndarray:
        """Whether each trial asked for more than the budget."""
        return self._cut[self._index]

    def subset(self, sel) -> "SamplingOracle":
        sub = object.__new__(type(self))
        sub.__dict__.update(vars(self), _index=self._index[sel])
        return sub

    def sample(self, trials, users) -> np.ndarray:
        """Packed captures of `users`, in its shape.  Row `users[i]` is
        charged to trial `trials[i]`, one query per capture, so `users`
        has one row per entry of `trials` (flat parallel arrays charge one
        query per entry, and a lone user is the row of one trial); any
        other shape is refused, as is a trial outside [0, trials)."""
        trials, users = np.asarray(trials), np.asarray(users)
        rows = trials.size
        if (users.shape[:1] or (1,)) != (rows,):
            raise ContractError(f"users of shape {users.shape} do not give "
                                f"one row to each of {rows} trials")
        if rows and not (0 <= trials.min() and trials.max() < self.trials):
            raise IndexError("unknown trial in batch query")
        per_trial = users.size // rows if rows else 0
        if users.size and not (0 <= users.min()
                               and users.max() < self.population.num_users):
            raise IndexError("unknown user in batch query")
        self._counts += per_trial * np.bincount(self._index[trials].ravel(),
                                                minlength=len(self._counts))
        self._cut |= self._counts > self.query_budget
        np.minimum(self._counts, self.query_budget, out=self._counts)
        return self.population.sample_batch(users, self.rng)
