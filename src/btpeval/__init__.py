"""Security-game evaluation framework for biometric template protection.

The package models a Hamming feature space with noisy per-user capture
distributions, three reference protection schemes (fuzzy commitment,
cancelable rotation, plaintext), the irreversibility and unlinkability
games with their constructive adversaries, exact oracles (closed forms
and full enumeration) for every metric at desk scale, and empirical checkers for the four relation
theorems connecting the notions.

A capture is a packed uint64 from `Population.sample_batch`, and a game
hands its adversary a `SamplingOracle` that charges each to a trial.
"""

from .errors import (
    BtpEvalError,
    ConfigError,
    ContractError,
    DimensionError,
    ModeError,
    ProtocolError,
    VariationTooHighError,
)
from .population import (
    FeatureElement,
    Population,
    SamplingOracle,
    generate_population,
)
from .schemes import (
    LEAK_AD,
    LEAK_BOTH,
    LEAK_PI,
    BtpScheme,
    FuzzyCommitmentScheme,
    LeakSet,
    LinearCode,
    PlaintextScheme,
    ProtectedTemplate,
    PtView,
    RotationScheme,
    build_scheme,
    hamming_7_4,
    leak_view,
)

__version__ = "0.1.0"
