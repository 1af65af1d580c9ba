"""Cyclic cubic number fields and the one-level density of their L-function zeros.

Submodules:

* eisenstein  -- exact arithmetic in Z[omega], the prime registry, cubic symbols
* fields      -- field labels, conductors, defining cubics, family enumeration
* lfunctions  -- splitting data and log-derivative coefficients of L_D
* density     -- test functions, Katz-Sarnak kernels, explicit-formula statistics
* verify      -- independent oracles, audits, and cancellation experiments
* cli         -- the `cyclocubic` command

Every name is imported at its first read (PEP 562): `import cyclocubic` compiles nothing.
"""

import importlib

_EXPORTS = {
    "eisenstein": ("EisensteinInteger", "PrimeAbove", "cubic_residue_symbol", "euclidean_gcd",
                   "omega_mod", "primary_associate", "prime_above"),
    "fields": ("Family", "FieldLabel", "FieldRecord", "canonicalize", "conductor_discriminant",
               "defining_polynomial", "enumerate_family", "parse_label", "partner",
               "three_split_factorization"),
    "lfunctions": ("INERT", "KUMMER", "PAPER_LITERAL", "RAMIFIED", "SPLIT", "character_symbol",
                   "lambda_coefficient", "splitting_type"),
    "density": ("FejerPair", "classify_symmetry", "digamma", "family_average",
                "fejer_pair", "gamma_term", "kernel_integral", "kernel_value", "prime_sum",
                "reference_statistics"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
