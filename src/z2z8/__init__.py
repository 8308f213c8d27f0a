"""Exact enumeration of additive codes over Z2^alpha x Z8^beta by type.

The package computes the number of distinct additive codes of a given type
(alpha, beta; k0, k1, k2, k3) -- the Mixed Generalized Gaussian Numbers --
together with the Z8, Z2Z4 and binary specializations, and validates the
formulas against an exhaustive subgroup-enumeration oracle at desk scale.
"""

import importlib.util
import sys

from .counting import (
    CountBreakdown,
    DeltaExponents,
    TypeProfile,
    binary_binomial_identity,
    count,
    count_closed_form,
    count_dual,
    count_product,
    count_z2z4,
    count_z8,
    delta_exponents,
    dual_type,
    lemma_swap_k_l,
    self_dual_count_condition,
)
from .errors import AmbientTooLargeError, NotASubgroupError, SelfCheckError
from .qnum import q_binomial, q_factorial, q_integer, q_multinomial


def _lazy(name: str):
    """Put submodule `name` in sys.modules with its body not yet run.

    The body runs on the first attribute read.  Registering the module up
    front also keeps the import system from binding it onto the package, so
    `z2z8.census` stays the function when `z2z8.census` the module loads.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# count, sequence and check-identities need neither of these
codes = _lazy("codes")
_census = _lazy("census")
# and only check-identities needs this one
identities = _lazy("identities")

# re-exported name -> the lazy module that defines it
_LAZY_NAMES = {
    **dict.fromkeys(["IdentityReport", "check_identities"], identities),
    **dict.fromkeys(["TypeCensus", "census", "enumerate_subgroups", "formula_census",
                     "verify_formula"], _census),
    **dict.fromkeys(["Code", "MixedWord", "ParityCheckMatrix", "StandardFormMatrix",
                     "assemble", "classify_type", "dual_bruteforce", "inner_product",
                     "parity_check", "phi_reduce", "random_standard_form", "span"], codes),
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES})


__version__ = "0.1.0"

__all__ = [
    "TypeProfile",
    "CountBreakdown",
    "DeltaExponents",
    "IdentityReport",
    "count",
    "count_product",
    "count_closed_form",
    "count_z8",
    "count_z2z4",
    "binary_binomial_identity",
    "delta_exponents",
    "dual_type",
    "count_dual",
    "self_dual_count_condition",
    "lemma_swap_k_l",
    "check_identities",
    "q_integer",
    "q_factorial",
    "q_binomial",
    "q_multinomial",
    "MixedWord",
    "Code",
    "StandardFormMatrix",
    "ParityCheckMatrix",
    "inner_product",
    "assemble",
    "span",
    "classify_type",
    "parity_check",
    "dual_bruteforce",
    "phi_reduce",
    "random_standard_form",
    "TypeCensus",
    "census",
    "formula_census",
    "enumerate_subgroups",
    "verify_formula",
    "SelfCheckError",
    "NotASubgroupError",
    "AmbientTooLargeError",
]
