"""Exception types shared across the package, and the key, type and
lower-bound checks that every config reader and constructor shares."""

import numpy as np


class BtpEvalError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BtpEvalError):
    """A configuration value violates its documented range or shape."""


class DimensionError(BtpEvalError):
    """Two bit vectors (or a vector and its space) disagree on length."""


class ContractError(BtpEvalError):
    """A protocol-level precondition was violated (empty leak set,
    adversary used with an incompatible leak set, and so on)."""


class VariationTooHighError(ContractError):
    """The per-template match rates fail the repeated-sampling inverter's
    hypothesis: a zero mean, or a variation coefficient with C^2 >= delta."""


class ModeError(BtpEvalError):
    """An exact oracle was requested at a scale where it is not
    supported; callers should fall back to the Monte Carlo variant."""


class ProtocolError(BtpEvalError):
    """An adversary returned a value outside the game's alphabet."""


def require_keys(block, keys, name: str = "the block"):
    """Refuse, with `ConfigError`, a config block `name` that is not a JSON
    object or has a key outside `keys`."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {name}; "
                          f"allowed: {sorted(keys)}")


def require_type(name: str, value, whole: bool, least=None):
    """Refuse, with `ConfigError`, a bool, and a value of the field `name`
    that is not an integer (`whole`) or a number, or is below `least`."""
    kinds = (int, np.integer) + (() if whole else (float, np.floating))
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if whole else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
