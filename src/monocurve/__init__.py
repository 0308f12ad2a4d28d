"""Exact Betti tables and complete-intersection scans for shifted
numerical semigroup families."""

from .betti import GradedBettiTable, betti_tables, default_bound, graded_betti
from .binomials import (Binomial, binomial_from_vector, critical_exponent,
                        full_critical_set, generates, kernel_member,
                        minimal_generators)
from .errors import (HypothesisNotMetError, InvalidInputError, MonocurveError,
                     OutOfRangeError)
from .family import (FamilyScanReport, FamilySpec, PeriodInfo, ScanRow,
                     TableCheck, TheoremReport, ci_check_3gen, detect_period,
                     hs3_agree, hs3_sweep, is_complete_intersection,
                     reproduce_table, scan, verify_theorem_a, verify_theorem_b)
from .semigroup import (Factorization, MembershipTable, SemigroupSpec, apery,
                        contains, frobenius, normalize)

__version__ = "0.1.0"
