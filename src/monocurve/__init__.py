"""Exact Betti tables and complete-intersection scans for shifted
numerical semigroup families.

Each exported name is imported from its module on first use (PEP 562), so
``import monocurve`` loads no numpy until a name is read.
"""

import importlib

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "betti": "GradedBettiTable betti_tables default_bound graded_betti",
    "binomials": "Binomial binomial_from_vector critical_exponent full_critical_set "
                 "generates kernel_member minimal_generators",
    "errors": "HypothesisNotMetError InvalidInputError MonocurveError OutOfRangeError",
    "family": "FamilyScanReport FamilySpec PeriodInfo ScanRow TableCheck TheoremReport "
              "ci_check_3gen detect_period hs3_agree hs3_sweep is_complete_intersection "
              "reproduce_table scan verify_theorem_a verify_theorem_b",
    "semigroup": "Factorization MembershipTable SemigroupSpec apery contains frobenius "
                 "normalize",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
