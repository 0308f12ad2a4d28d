import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocurve import binomials, semigroup
from monocurve.binomials import (Binomial, binomial_from_vector,
                                 critical_exponent, full_critical_set,
                                 generates, kernel_member, minimal_generators)
from monocurve.errors import InvalidInputError, MonocurveError
from monocurve.semigroup import Factorization, normalize

from oracles import (brute_factorizations, brute_generator_degrees, brute_mu,
                     enumerate_generators, ideal_equivalent, reduces_to_zero,
                     shifted_kernel_member, verify_generates)


def test_kernel_member_examples():
    S = normalize((30, 32, 35, 40))
    assert kernel_member(S, (-1, 0, 2, -1))
    assert kernel_member(S, (0, 0, 0, 0))
    assert kernel_member(S, (4, 0, 0, -3))
    assert not kernel_member(S, (1, 0, 0, 0))
    with pytest.raises(InvalidInputError):
        kernel_member(S, (1, 0, 0))


def test_kernel_member_shifted_form():
    # (30,32,35,40) is the (2,3,5) family at true shift 30
    S = normalize((30, 32, 35, 40))
    shifted = (2, 3, 5, 30)
    assert shifted_kernel_member(S, (-1, 0, 2, -1), shifted)
    assert not shifted_kernel_member(S, (1, 1, 0, -1), shifted)
    with pytest.raises(InvalidInputError):
        shifted_kernel_member(S, (0, 0, 0, 0), (2, 3, 5, 29))


def test_binomial_from_vector():
    gens = (30, 32, 35, 40)
    g = binomial_from_vector((-1, 0, 2, -1), gens)
    assert g.plus.exponents == (0, 0, 2, 0)
    assert g.minus.exponents == (1, 0, 0, 1)
    assert g.plus.degree == g.minus.degree == 70
    assert str(g) == "x3^2 - x1*x4"

    g = binomial_from_vector((4, 0, 0, -3), gens)
    assert str(g) == "x1^4 - x4^3"
    assert g.vector() == (4, 0, 0, -3)

    g = binomial_from_vector((1, -1, 0, 0), gens)
    assert g.plus.exponents == (1, 0, 0, 0)
    assert g.minus.exponents == (0, 1, 0, 0)
    assert str(g) == "x1 - x2"

    with pytest.raises(InvalidInputError):
        binomial_from_vector((0, 0, 0, 0), gens)


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=6))
@settings(max_examples=80)
def test_binomial_vector_round_trip(v):
    gens = tuple(range(5, 5 + len(v)))
    if not any(v):
        return
    g = binomial_from_vector(v, gens)
    assert g.vector() == tuple(v)
    assert not (g.plus.support() & g.minus.support())


def test_critical_exponent_paper_family():
    S = normalize((30, 32, 35, 40))
    w = critical_exponent(S, 3)
    assert (w.plus.exponents[2], w.minus.exponents) == (2, (1, 0, 0, 1))
    w = critical_exponent(S, 1)
    assert (w.plus.exponents[0], w.minus.exponents) == (4, (0, 0, 0, 3))
    w = critical_exponent(S, 2)
    assert (w.plus.exponents[1], w.minus.exponents) == (5, (3, 0, 2, 0))
    w = critical_exponent(S, 4)
    assert (w.plus.exponents[3], w.minus.exponents) == (3, (4, 0, 0, 0))


def test_critical_exponent_small_cases():
    S = normalize((2, 3))
    assert critical_exponent(S, 1).plus.exponents[0] == 3
    assert critical_exponent(S, 2).plus.exponents[1] == 2
    # redundant generator: 2*1 = 2 lands in <2,3,4> immediately
    S = normalize((1, 2, 3, 4))
    w = critical_exponent(S, 1)
    assert w.plus.exponents[0] == 2
    assert w.minus.degree == 2
    with pytest.raises(InvalidInputError):
        critical_exponent(S, 0)
    with pytest.raises(InvalidInputError):
        critical_exponent(S, 5)


def test_full_critical_set_paper_family():
    S = normalize((30, 32, 35, 40))
    texts = [str(g) for g in full_critical_set(S)]
    assert texts == ["x1^4 - x4^3", "x2^5 - x1^3*x3^2", "x3^2 - x1*x4", "x4^3 - x1^4"]
    for g in full_critical_set(S):
        assert kernel_member(S, g.vector())
        assert len(brute_factorizations(S.generators, g.plus.degree)) >= 2


def test_full_critical_set_two_generators():
    S = normalize((2, 3))
    texts = [str(g) for g in full_critical_set(S)]
    assert texts == ["x1^3 - x2^2", "x2^2 - x1^3"]


@given(st.sets(st.integers(min_value=2, max_value=40), min_size=2, max_size=5))
@settings(max_examples=30, deadline=None)
def test_critical_set_properties_random(gens):
    try:
        S = normalize(tuple(gens))
    except Exception:
        return
    for g in full_critical_set(S):
        assert g.is_homogeneous()
        assert kernel_member(S, g.vector())
        assert len(brute_factorizations(S.generators, g.plus.degree)) >= 2


def test_minimal_generators_paper_family():
    S = normalize((30, 32, 35, 40))
    gens, mu = minimal_generators(S)
    assert mu == 3
    # x1^4 - x4^3, x3^2 - x1*x4, x2^5 - x1^3*x3^2 as signed vectors
    expected = [binomial_from_vector(v, S.generators)
                for v in [(4, 0, 0, -3), (-1, 0, 2, -1), (-3, 5, -2, 0)]]
    assert ideal_equivalent(S, gens, expected)
    assert generates(S, expected)
    assert not generates(S, expected[:-1])


def test_minimal_generators_polynomial_ring_image():
    gens, mu = minimal_generators(normalize((1, 2, 3, 4)))
    assert mu == 3
    assert sorted(g.plus.degree for g in gens) == [2, 3, 4]


def test_minimal_generators_table_row():
    assert minimal_generators(normalize((23, 25, 28, 33)))[1] == 6


def test_methods_agree():
    for gens in [(30, 32, 35, 40), (23, 25, 28, 33), (1, 2, 3, 4), (2, 3),
                 (7, 11, 13), (24, 36, 39, 40), (6, 10, 15)]:
        S = normalize(gens)
        a = minimal_generators(S)
        b = enumerate_generators(S)
        assert a == b, gens


def test_mu_matches_brute_oracle():
    for gens in [(30, 32, 35, 40), (23, 25, 28, 33), (5, 7, 9), (10, 13, 19, 21),
                 (8, 9, 10, 11, 12)]:
        S = normalize(gens)
        assert minimal_generators(S)[1] == brute_mu(gens), gens


def test_generator_degrees_match_brute_oracle():
    gens = (10, 13, 19, 21)
    S = normalize(gens)
    got = {}
    for g in minimal_generators(S)[0]:
        got[g.plus.degree] = got.get(g.plus.degree, 1) + 1
    assert got == brute_generator_degrees(gens)


def test_emitted_sets_generate():
    for gens in [(30, 32, 35, 40), (23, 25, 28, 33), (1, 2, 3, 4), (7, 11, 13)]:
        S = normalize(gens)
        bs, _ = minimal_generators(S)
        assert verify_generates(S, bs), gens


def test_dropping_a_generator_breaks_completeness():
    S = normalize((30, 32, 35, 40))
    bs, mu = minimal_generators(S)
    assert mu == 3
    assert not verify_generates(S, bs[:-1])


def test_reduces_to_zero():
    S = normalize((30, 32, 35, 40))
    bs, _ = minimal_generators(S)
    # x2^5 - x4^4 is in the ideal (both monomials have degree 160)
    other = binomial_from_vector((0, 5, 0, -4), S.generators)
    assert kernel_member(S, other.vector())
    assert reduces_to_zero(S, bs, other)
    with pytest.raises(InvalidInputError):
        reduces_to_zero(S, bs, binomial_from_vector((1, 0, 0, 0), S.generators))


def test_ideal_equivalence_detects_difference():
    S = normalize((30, 32, 35, 40))
    bs, _ = minimal_generators(S)
    assert not ideal_equivalent(S, bs[:-1], bs)


def _times_x(S, g, i):
    """x_i * g, a kernel binomial whose two sides share the variable x_i."""
    def lift(f):
        exps = tuple(e + (k == i) for k, e in enumerate(f.exponents))
        return Factorization(exps, f.degree + S.generators[i])
    return Binomial(plus=lift(g.plus), minus=lift(g.minus))


@given(st.sets(st.integers(min_value=2, max_value=29), min_size=2, max_size=5), st.data())
@settings(max_examples=40, deadline=None)
def test_generates_matches_the_fiber_walk(raw, data):
    S = normalize(tuple(raw))
    gens, _ = minimal_generators(S)
    k = data.draw(st.integers(0, len(gens) - 1), label="member")
    i = data.draw(st.integers(0, S.n - 1), label="variable")
    g, lifted = gens[k], _times_x(S, gens[k], i)
    rest = gens[:k] + gens[k + 1:]
    cases = [
        ("minimal", gens, True),
        ("dropped", rest, False),
        ("lifted", rest + [lifted], False),
        ("swapped", rest + [Binomial(plus=g.minus, minus=g.plus)], True),
        ("extra", gens + [lifted], True),
    ]
    for name, B, expected in cases:
        assert generates(S, B) == ideal_equivalent(S, gens, B) == expected, (S, name)


def test_generates_refuses_binomials_outside_the_kernel():
    S = normalize((30, 32, 35, 40))
    gens, _ = minimal_generators(S)
    uneven = binomial_from_vector((1, 0, 0, -1), S.generators)  # degrees 30 and 40
    with pytest.raises(InvalidInputError, match=re.escape(f"binomial {uneven} is not homogeneous")):
        generates(S, gens + [uneven])
    # x3^2 - x1*x4 has degree 70 on both sides in S, and lies outside the kernel of T
    T = normalize((30, 32, 35, 41))
    foreign = binomial_from_vector((-1, 0, 2, -1), S.generators)
    assert foreign.is_homogeneous() and not kernel_member(T, foreign.vector())
    with pytest.raises(InvalidInputError, match=re.escape(f"binomial {foreign} is not in the kernel")):
        generates(T, minimal_generators(T)[0] + [foreign])


def test_three_generated_ci_criterion_cross_check():
    # mu = 2 iff (a+b) | q on the Herzog-Srinivasan staircase families
    for q, a, b in [(12, 1, 2), (13, 1, 2), (30, 2, 3), (31, 2, 3), (30, 1, 5), (28, 3, 4)]:
        assert math.gcd(a, b) == 1
        assert q >= max(a * b + b * b, a * b + a * a)
        S = normalize((q, q + a, q + a + b))
        assert (minimal_generators(S)[1] == 2) == (q % (a + b) == 0), (q, a, b)


@given(st.tuples(st.integers(2, 40), st.integers(2, 40), st.integers(2, 40),
                 st.integers(2, 40)))
@settings(max_examples=25, deadline=None)
def test_emitted_generators_are_kernel_homogeneous(raw):
    try:
        S = normalize(raw)
    except Exception:
        return
    bs, mu = minimal_generators(S)
    assert mu == len(bs)
    for g in bs:
        assert g.is_homogeneous()
        assert kernel_member(S, g.vector())
        assert not (g.plus.support() & g.minus.support())


def _without_factorizations(mp):
    mp.setattr(binomials, "canonical_factorization", lambda S, m, allowed=None: None)


def _off_degree_factorizations(mp):
    original = binomials.canonical_factorization
    mp.setattr(binomials, "canonical_factorization",
               lambda S, m, allowed=None: original(S, m, allowed)._replace(degree=m + 1))


# each fault makes one internal check fire on <30, 32, 35, 40>, whose critical
# binomial for x3 and first minimal generator are x3^2 - x1*x4 in degree 70
_BINOMIAL_FAULTS = {
    "critical-no-factorization": (
        _without_factorizations, lambda S: critical_exponent(S, 3),
        "generators (30, 32, 35, 40), x3, degree 70: "
        "membership certificate has no factorization"),
    "critical-not-homogeneous": (
        _off_degree_factorizations, lambda S: critical_exponent(S, 3),
        "generators (30, 32, 35, 40), x3, degree 70: critical binomial is not homogeneous"),
    # the cap is min over j != 3 of a_j / gcd(a_j, 35): 30 / 5
    "critical-cap": (
        lambda mp: mp.setattr(semigroup.MembershipTable, "contains", lambda self, m: False),
        lambda S: critical_exponent(S, 3),
        "generators (30, 32, 35, 40), x3: critical exponent search exceeded 6"),
    "component-no-factorization": (
        _without_factorizations, minimal_generators,
        "generators (30, 32, 35, 40), degree 70: a component has no factorization"),
    "generator-not-in-kernel": (
        lambda mp: mp.setattr(binomials, "kernel_member", lambda S, v: False),
        minimal_generators,
        "generators (30, 32, 35, 40), degree 70: "
        "emitted generator x3^2 - x1*x4 is not in the kernel"),
    # every component searched over all the variables: both sides of each
    # binomial are the same canonical factorization, a kernel member
    "generator-overlapping-supports": (
        lambda mp: mp.setattr(binomials, "_mask_indices", lambda mask: [0, 1, 2, 3]),
        minimal_generators,
        "generators (30, 32, 35, 40), degree 70: "
        "emitted generator x3^2 - x3^2 has overlapping supports"),
}


@pytest.mark.parametrize("case", _BINOMIAL_FAULTS)
def test_binomial_check_errors_name_what_failed(monkeypatch, case):
    fault, call, message = _BINOMIAL_FAULTS[case]
    fault(monkeypatch)
    with pytest.raises(MonocurveError, match=f"^{re.escape(message)}$"):
        call(normalize((30, 32, 35, 40)))
