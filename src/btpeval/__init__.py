"""Security-game evaluation framework for biometric template protection.

The package models a Hamming feature space with noisy per-user capture
distributions, three reference protection schemes (fuzzy commitment,
cancelable rotation, plaintext), the irreversibility and unlinkability
games with their constructive adversaries, exact oracles (closed forms
and full enumeration) for every metric at desk scale, and empirical checkers for the four relation
theorems connecting the notions.

A feature is a packed uint64, bit i its coordinate i: the centers in
`Population.centers`, each capture from `Population.sample_batch`, and
every guess and witness.  Bitstrings appear only at the config and report
boundary, through `parse_bits` and `bitstring`.  A game hands its
adversary a `SamplingOracle` that charges each capture to a trial, and a
view, the challenge `ProtectedTemplate` with the parts outside the leak
set None.
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
    Population,
    SamplingOracle,
    bitstring,
    generate_population,
    parse_bits,
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
    RotationScheme,
    build_scheme,
    hamming_7_4,
    leak_view,
)

__version__ = "0.1.0"
