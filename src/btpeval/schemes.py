"""Template-protection schemes and the leak-set machinery.

A scheme is four algorithms: `gen` (handled by scheme construction from a
config), `pie` (randomized encoder: feature element -> protected template
(pi, alpha)), `pir` (deterministic: auxiliary data + fresh capture ->
verification identifier), and `pic` (deterministic: reference identifier +
verification identifier -> match / non-match).

Three reference schemes are provided:

* fuzzy commitment over a linear code: pi is the index of a random
  codeword w, which stands for H(w) (H a bijection of it), and
  alpha = x XOR w; verification decodes x' XOR alpha and matches exactly
  when the probe lies within the decoding radius of the enrolled feature.
* cyclic rotation: a cancelable transform that is a Hamming isometry and
  is trivially invertible from the full template (a deliberately weak
  baseline for irreversibility experiments).
* plaintext: stores the feature verbatim; the worst case.

A scheme implements the algorithms once, as an integer-coded batch
contract (`pie_batch`, `pir_batch`, `pic_batch`, `pie_support_batch`):
captures are packed uint64 values, and pi, alpha and verification
identifiers are uint64 codes.  The three reference schemes implement it
with array arithmetic.  They also declare a `match_radius()`: their
comparator accepts a Hamming ball, which the exact oracles turn into
closed forms.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ContractError, require_keys, require_type
from .population import check_dimension, parse_rows
from .records import Record


# The identifier code of a failed decode (fc) and of every broken template;
# packed-feature codes (rot, plain) span all of uint64 and never reject.
REJECT_CODE = np.uint64(np.iinfo(np.uint64).max)


class ProtectedTemplate(Record):
    """The stored pair: reference identifier `pi` and auxiliary data
    `alpha`, as the scheme's codes (arrays of them for many templates)."""

    pi: object
    alpha: object


class LeakSet(Record):
    """Nonempty subset of {PI, AD}: which template parts the adversary sees."""

    pi: bool
    ad: bool

    def _validate(self):
        if not (self.pi or self.ad):
            raise ContractError("leak set must be nonempty")

    @classmethod
    def parse(cls, s: str) -> "LeakSet":
        if not isinstance(s, str):
            raise ConfigError(f"a leak set must be a string such as 'pi+ad', got {s!r}")
        parts = {p.strip().lower() for p in s.replace(",", "+").split("+") if p.strip()}
        unknown = parts - {"pi", "ad"}
        if unknown or not parts:
            raise ConfigError(f"cannot parse leak set {s!r} (use pi, ad, or pi+ad)")
        return cls(pi="pi" in parts, ad="ad" in parts)

    def __str__(self) -> str:
        return "+".join(p for p, on in (("pi", self.pi), ("ad", self.ad)) if on)


LEAK_PI = LeakSet(pi=True, ad=False)
LEAK_AD = LeakSet(pi=False, ad=True)
LEAK_BOTH = LeakSet(pi=True, ad=True)


def leak_view(pt: ProtectedTemplate, leak: LeakSet) -> ProtectedTemplate:
    """What an adversary receives of `pt`: its parts outside `leak` None."""
    return ProtectedTemplate(pt.pi if leak.pi else None,
                             pt.alpha if leak.ad else None)


class LinearCode(Record):
    """Binary linear [n, k] code with an exhaustive bounded-distance decoder.

    `codewords` holds all 2^k codewords as a read-only uint64 array, packed
    (coordinate i = bit i): codeword m is the XOR of the generator rows the
    bits of m select.  Construction measures the true minimum distance and
    refuses decoding radii t < 0 or with 2t + 1 > d_min.
    """

    n_code: int
    k_code: int
    generator_rows: tuple
    t: int

    def _validate(self):
        check_dimension(self.n_code)
        require_type("k_code", self.k_code, whole=True, least=1)
        require_type("t", self.t, whole=True, least=0)
        if self.k_code > 16:
            raise ConfigError("codeword enumeration is capped at k <= 16")
        if len(self.generator_rows) != self.k_code:
            raise ConfigError("generator must have k rows")
        for row in self.generator_rows:
            require_type("generator row", row, whole=True)
            if not 0 <= row < (1 << self.n_code):
                raise ConfigError("generator row out of range")
        bits = np.arange(1 << self.k_code)[:, None] >> np.arange(self.k_code) & 1
        rows = np.array(self.generator_rows, dtype=np.uint64)
        codewords = np.bitwise_xor.reduce(np.where(bits, rows, 0), axis=1)
        codewords.flags.writeable = False
        object.__setattr__(self, "codewords", codewords)
        dmin = int(np.bitwise_count(codewords[1:]).min())
        object.__setattr__(self, "min_distance", dmin)
        if 2 * self.t + 1 > dmin:
            raise ConfigError(
                f"decoding radius t={self.t} too large for minimum distance {dmin}"
            )
        object.__setattr__(self, "_decode_table", None)
        if self.n_code <= 16:
            object.__setattr__(self, "_decode_table", self.decode_codes(
                np.arange(1 << self.n_code, dtype=np.uint64)))
            self._decode_table.flags.writeable = False

    def decode_codes(self, ys: np.ndarray) -> np.ndarray:
        """Index of the codeword within distance t of each packed word, or
        REJECT_CODE: the fc scheme's identifier codes."""
        if self._decode_table is not None:
            ys = np.asarray(ys, dtype=np.uint64)
            # an array of words of at most n bits indexes as its int64 view,
            # the cast numpy would make; a lone word keeps numpy's own check
            if ys.ndim and ys.size and int(ys.max()) >> self.n_code:
                raise IndexError(f"a word has more than {self.n_code} bits")
            return self._decode_table[ys.view(np.int64) if ys.ndim else ys]
        codes = np.full(np.shape(ys), REJECT_CODE, dtype=np.uint64)
        for m, w in enumerate(self.codewords):
            codes[np.bitwise_count(ys ^ w) <= self.t] = m
        return codes

    @classmethod
    def from_bitstrings(cls, rows, t: int) -> "LinearCode":
        packed = parse_rows("code.generator", rows)
        n_code = len(rows[0])
        if any(len(row) != n_code for row in rows):
            raise ConfigError("generator rows have unequal length")
        return cls(n_code=n_code, k_code=len(rows), generator_rows=tuple(packed), t=t)


@lru_cache(maxsize=None, typed=True)
def hamming_7_4(t: int = 1) -> LinearCode:
    """The perfect [7,4,3] code used by the default fuzzy commitment."""
    return LinearCode.from_bitstrings(
        ["1000110", "0100101", "0010011", "0001111"], t=t
    )


def _rotate(xs, r, n: int) -> np.ndarray:
    """Packed cyclic shift of every x by its r, coordinate i to (i + r)
    mod n, for r in [0, n): at r = 0 the right shift by n clears x."""
    xs = np.asarray(xs, dtype=np.uint64)
    r = np.asarray(r, dtype=np.uint64)
    mask = np.uint64((1 << n) - 1)
    return ((xs << r) & mask) | (xs >> (np.uint64(n) - r))


class BtpScheme(ABC):
    """Contract shared by all schemes; `pir` and `pic` are deterministic.

    A subclass implements the four integer-coded batch methods.  Captures
    are packed uint64 arrays; pi, alpha and verification identifiers are
    uint64 codes, and arguments broadcast like numpy operands.
    `feature_fields` names the template fields ("pi", "alpha") whose code
    is a packed feature, which the view readers may return as a guess.
    """

    name: str
    feature_dim: int
    feature_fields: tuple = ()

    def __init__(self, n: int):
        check_dimension(n)
        self.feature_dim = n

    @abstractmethod
    def pie_batch(self, xs: np.ndarray, rng: np.random.Generator) -> tuple:
        """`pie` on every capture in C order (the same draws as one call per
        capture): (pi codes, alpha codes), each of xs's shape."""

    @abstractmethod
    def pir_batch(self, alpha: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Verification identifier codes of (alpha, capture) pairs."""

    @abstractmethod
    def pic_batch(self, pi: np.ndarray, vid: np.ndarray) -> np.ndarray:
        """Comparator decisions of (pi, identifier) code pairs, as bools."""

    @abstractmethod
    def pie_support_batch(self, xs: np.ndarray) -> tuple:
        """Every outcome of `pie_batch` on each capture: (probability, pi,
        alpha) arrays of shape xs.shape + (K,); every capture must have K
        outcomes."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "match_law" in vars(cls):
            raise ContractError(f"{cls.__name__}.match_law is retired: "
                                "declare match_radius")

    def match_radius(self) -> int | None:
        """The radius r of the scheme's ball law, or None without one.

        Under the law an enrollment of x accepts a capture x' iff
        d(x, x') <= r, and the one field of `feature_fields`, the tied
        part, has code g(x) for an isometry g (an XOR by a constant or a
        coordinate permutation, so bit-flip noise stays bit-flip noise)
        the encoder draws uniformly: the tied part of one enrollment of x
        and the other part of another accept x' iff d(x, g(x')) <= r.
        """
        return None

    def guaranteed_match_radius(self):
        """Largest tau with: d(x, x') <= tau implies pic accepts a template
        of x; None without such a guarantee, by default `match_radius()`."""
        return self.match_radius()

    def threshold_compatible(self, tau: int) -> bool:
        r = self.guaranteed_match_radius()
        return r is not None and tau <= r

    def describe(self) -> dict:
        return {"scheme": self.name, "n": self.feature_dim}


def require_same_n(scheme: BtpScheme, pop) -> None:
    """Refuse, with `ConfigError`, a scheme whose features are not the
    population's: every estimator, game and exact oracle checks this."""
    if scheme.feature_dim != pop.n:
        raise ConfigError("scheme and population disagree on n")


class FuzzyCommitmentScheme(BtpScheme):
    """Code-offset construction: pi = H(w), alpha = x XOR w for random w.

    pi is coded as the index of w, which stands for any bijection H of the
    codeword; alpha is the packed offset, and a failed decode is
    REJECT_CODE.  With the perfect [7,4] default, verification matches
    exactly when d(x, x') <= t, independent of the codeword draw.
    """

    name = "fc"
    feature_fields = ("alpha",)

    def __init__(self, code: LinearCode):
        self.code = code
        self.feature_dim = code.n_code

    def pie_batch(self, xs, rng):
        xs = np.asarray(xs, dtype=np.uint64)
        # a 0-d capture draws a scalar, the same draw at a third of the cost
        m = rng.integers(1 << self.code.k_code, size=xs.shape or None)
        return m.astype(np.uint64), xs ^ self.code.codewords[m]

    def pir_batch(self, alpha, xs):
        return self.code.decode_codes(np.asarray(xs, dtype=np.uint64) ^ alpha)

    def pic_batch(self, pi, vid):
        return (pi == vid) & (pi != REJECT_CODE)

    def pie_support_batch(self, xs):
        alphas = np.asarray(xs, dtype=np.uint64)[..., None] ^ self.code.codewords
        k = alphas.shape[-1]
        m = np.broadcast_to(np.arange(k, dtype=np.uint64), alphas.shape)
        return np.full(alphas.shape, 1.0 / k), m, alphas

    def match_radius(self):
        # pi of codeword w, alpha = x ^ w' decodes x' to w iff x' lies within
        # t of x ^ w ^ w' (unique since 2t + 1 <= d_min); w ^ w' is uniform
        return self.code.t

    def describe(self):
        return {
            "scheme": self.name,
            "n": self.feature_dim,
            "code": {"n": self.code.n_code, "k": self.code.k_code, "t": self.code.t},
        }


class _ThresholdScheme(BtpScheme):
    """A scheme whose comparator accepts the identifiers within Hamming
    distance `tau` of the reference identifier."""

    def __init__(self, n: int, tau: int):
        super().__init__(n)
        require_type("tau", tau, whole=True, least=0)
        self.tau = tau

    def pic_batch(self, pi, vid):
        return np.bitwise_count(pi ^ vid) <= self.tau

    def match_radius(self):
        return self.tau

    def describe(self):
        return {"scheme": self.name, "n": self.feature_dim, "tau": self.tau}


class RotationScheme(_ThresholdScheme):
    """Cancelable transform: pi = rotate(x, r), alpha = r, match on distance.

    Rotations are Hamming isometries, so recognition survives the
    transform; the full template inverts trivially via rotate(pi, -alpha).
    """

    name = "rot"
    feature_fields = ("pi",)

    # Codes: pi is the packed rotated feature, alpha the offset r.

    def pie_batch(self, xs, rng):
        xs = np.asarray(xs, dtype=np.uint64)
        r = rng.integers(self.feature_dim, size=xs.shape or None).astype(np.uint64)
        return _rotate(xs, r, self.feature_dim), r

    def pir_batch(self, alpha, xs):
        return _rotate(xs, np.asarray(alpha, dtype=np.uint64)
                       % np.uint64(self.feature_dim), self.feature_dim)

    def pie_support_batch(self, xs):
        xs = np.asarray(xs, dtype=np.uint64)[..., None]
        r = np.broadcast_to(np.arange(self.feature_dim, dtype=np.uint64),
                            xs.shape[:-1] + (self.feature_dim,))
        return (np.full(r.shape, 1.0 / self.feature_dim),
                _rotate(xs, r, self.feature_dim), r)



class PlaintextScheme(_ThresholdScheme):
    """No protection at all: pi is the feature, alpha an empty sentinel."""

    name = "plain"
    feature_fields = ("pi",)

    # Codes: pi and the identifier are the packed feature, alpha is 0.

    def pie_batch(self, xs, rng):
        xs = np.asarray(xs, dtype=np.uint64)
        return xs, np.zeros_like(xs)

    def pir_batch(self, alpha, xs):
        xs = np.asarray(xs, dtype=np.uint64)
        return np.broadcast_to(xs, np.broadcast_shapes(np.shape(alpha), xs.shape))

    def pie_support_batch(self, xs):
        xs = np.asarray(xs, dtype=np.uint64)[..., None]
        return np.ones(xs.shape), xs, np.zeros_like(xs)


class BrokenScheme(BtpScheme):
    """Negative control: the comparator rejects everything, so even the
    enrolled feature fails verification.  Exists to exercise the
    hypothesis gates of the theorem checkers."""

    name = "broken"

    # Codes: every template is (REJECT_CODE, 0) and every identifier
    # REJECT_CODE.  pie draws nothing.

    def pie_batch(self, xs, rng):
        shape = np.shape(xs)
        return (np.full(shape, REJECT_CODE, dtype=np.uint64),
                np.zeros(shape, dtype=np.uint64))

    def pir_batch(self, alpha, xs):
        return np.full(np.broadcast_shapes(np.shape(alpha), np.shape(xs)),
                       REJECT_CODE)

    def pic_batch(self, pi, vid):
        return np.zeros(np.broadcast_shapes(np.shape(pi), np.shape(vid)),
                        dtype=bool)

    def pie_support_batch(self, xs):
        pis, alphas = self.pie_batch(np.expand_dims(xs, -1), None)
        return np.ones(pis.shape), pis, alphas

def build_scheme(cfg: dict, n: int) -> BtpScheme:
    """The scheme of a config block, whose keys, defaults and refusals it
    owns: `scheme` (fc), `tau` (1) and fc's `code` (`t` 1; the [7,4] code
    without a `generator`), each checked for every scheme."""
    require_keys(cfg, ("scheme", "tau", "code"))
    code_cfg = cfg.get("code", {})
    require_keys(code_cfg, ("n", "k", "t", "generator"), "code")
    require_type("tau", cfg.get("tau", 1), whole=True)
    for key in ("n", "k", "t"):
        if key in code_cfg:
            require_type(f"code.{key}", code_cfg[key], whole=True)
    name = cfg.get("scheme", "fc")
    if name != "fc" and "generator" in code_cfg:   # fc's code parses its own
        parse_rows("code.generator", code_cfg["generator"])
    if name == "fc":
        t = code_cfg.get("t", 1)
        if "generator" in code_cfg:
            code = LinearCode.from_bitstrings(code_cfg["generator"], t)
            for key, value in (("n", code.n_code), ("k", code.k_code)):
                if key in code_cfg and code_cfg[key] != value:
                    raise ConfigError(f"code says {key}={code_cfg[key]!r} but "
                                      f"the generator gives {key}={value}")
        elif code_cfg.get("n", 7) == 7 and code_cfg.get("k", 4) == 4:
            code = hamming_7_4(t)
        else:
            raise ConfigError(
                "fc needs an explicit generator matrix for codes other than [7,4]"
            )
        if code.n_code != n:
            raise ConfigError(
                f"code length {code.n_code} must equal feature dimension {n}"
            )
        return FuzzyCommitmentScheme(code)
    if name == "rot":
        return RotationScheme(n=n, tau=cfg.get("tau", 1))
    if name == "plain":
        return PlaintextScheme(n=n, tau=cfg.get("tau", 1))
    if name == "broken":
        return BrokenScheme(n=n)
    raise ConfigError(f"unknown scheme {name!r} (choose fc, rot, plain, or broken)")
