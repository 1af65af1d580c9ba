"""Cyclic cubic number fields and the one-level density of their L-function zeros.

Submodules:

* eisenstein  -- exact arithmetic in Z[omega], the prime registry, cubic symbols
* fields      -- field labels, conductors, defining cubics, family enumeration
* lfunctions  -- splitting data and log-derivative coefficients of L_D
* density     -- test functions, Katz-Sarnak kernels, explicit-formula statistics
* verify      -- independent oracles, audits, and cancellation experiments
* cli         -- the `cyclocubic` command

`import cyclocubic` compiles nothing.  It lists each submodule but cli in
sys.modules, bound on the package, as a lazy module (importlib.util.LazyLoader)
that runs at the first read of one of its names; the names below are read off
their submodule at their own first read (PEP 562).  cli is left out because
`python -m cyclocubic.cli` runs it as __main__, which must not find it listed.
"""

import importlib.util
import sys

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

for _name in ("_primes", *_EXPORTS, "verify"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(globals()[_SOURCE[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
