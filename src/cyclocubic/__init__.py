"""Cyclic cubic number fields and the one-level density of their L-function zeros.

Submodules:

* eisenstein  -- exact arithmetic in Z[omega], the prime registry, cubic symbols
* fields      -- field labels, conductors, defining cubics, family enumeration
* lfunctions  -- splitting data and log-derivative coefficients of L_D
* density     -- test functions, Katz-Sarnak kernels, explicit-formula statistics
* verify      -- independent oracles, audits, and cancellation experiments
* cli         -- the `cyclocubic` command
"""

from .eisenstein import (
    EisensteinInteger,
    PrimeAbove,
    cubic_residue_symbol,
    euclidean_gcd,
    omega_mod,
    primary_associate,
    prime_above,
)
from .fields import (
    Family,
    FieldLabel,
    FieldRecord,
    canonicalize,
    conductor_discriminant,
    defining_polynomial,
    enumerate_family,
    parse_label,
    partner,
    three_split_factorization,
)
from .lfunctions import (
    INERT,
    KUMMER,
    PAPER_LITERAL,
    RAMIFIED,
    SPLIT,
    character_symbol,
    lambda_coefficient,
    splitting_type,
)
from .density import (
    TestFunctionPair,
    classify_symmetry,
    digamma,
    family_average,
    fejer_pair,
    gamma_term,
    kernel_integral,
    kernel_value,
    prime_sum,
    reference_statistics,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
