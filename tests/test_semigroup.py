import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monocurve import semigroup
from monocurve.betti import graded_betti
from monocurve.binomials import (binomial_from_vector, critical_exponent,
                                 kernel_member, minimal_generators)
from monocurve.errors import InvalidInputError, OutOfRangeError
from monocurve.family import (FamilySpec, ci_check_3gen, scan,
                              verify_theorem_a, verify_theorem_b)
from monocurve.semigroup import (MAX_CELLS, MAX_GENERATORS, MembershipTable,
                                 SemigroupSpec, apery, canonical_factorization,
                                 canonical_key, contains, frobenius, normalize)

from oracles import (brute_apery, brute_factorizations, brute_frobenius,
                     brute_members, member_array)


def test_normalize_already_reduced():
    S = normalize((30, 32, 35, 40))
    assert S.generators == (30, 32, 35, 40)
    assert S.content == 1


def test_normalize_extracts_gcd():
    S = normalize((4, 6, 10))
    assert S.generators == (2, 3, 5)
    assert S.content == 2


def test_normalize_sorts():
    assert normalize((35, 30, 40, 32)).generators == (30, 32, 35, 40)


def test_normalize_records_duplicates():
    S = normalize((6, 4, 6, 10))
    assert S.generators == (2, 3, 5)


def test_normalize_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        normalize(())
    with pytest.raises(InvalidInputError):
        normalize((5,))
    with pytest.raises(InvalidInputError):
        normalize((0, 3))
    with pytest.raises(InvalidInputError):
        normalize((-2, 3))
    with pytest.raises(InvalidInputError):
        normalize((4, 4))  # single distinct generator after dedup
    with pytest.raises(InvalidInputError):
        normalize(tuple(range(10, 19)))  # nine distinct generators


@pytest.mark.parametrize("generators, reason", [
    ((0, 5), "must be positive"),
    ((3,), "at least 2"),
    (tuple(range(10, 19)), "more than 8"),
    ((8, 8), "fewer than 2"),
])
def test_semigroup_spec_refusals_name_the_generators(generators, reason):
    with pytest.raises(InvalidInputError) as info:
        SemigroupSpec(generators)
    message = str(info.value)
    assert message.startswith(f"generators {generators}: ") and reason in message


@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=10),
       st.integers(min_value=1, max_value=12))
@example([35, 30, 40, 32, 30], 2)
@example([7], 5)
@example([9, 3, 6, 3, 9, 12, 15, 18, 21, 24], 1)
@settings(max_examples=300, deadline=None)
def test_semigroup_spec_matches_a_plain_model(base, factor):
    assert normalize is SemigroupSpec
    # unsorted, with repeats and a common factor, as the family rows and the CLI pass them
    raw = [factor * x for x in base]
    d = math.gcd(*raw)
    reduced = sorted(x // d for x in raw)
    kept = sorted(set(reduced))
    if len(raw) < 2 or not 2 <= len(kept) <= MAX_GENERATORS:
        with pytest.raises(InvalidInputError) as info:
            SemigroupSpec(raw)
        assert str(info.value).startswith(f"generators {tuple(raw)}: ")
        return
    S = SemigroupSpec(raw)
    assert S.generators == tuple(kept) and S.content == d
    assert math.gcd(*S.generators) == 1


@given(st.lists(st.integers(min_value=2, max_value=25), min_size=2, max_size=4, unique=True),
       st.integers(min_value=1, max_value=9), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_graded_betti_ignores_scale_order_and_repeats(base, factor, rnd):
    raw = [factor * x for x in base + rnd.choices(base, k=rnd.randint(0, 3))]
    rnd.shuffle(raw)
    d = math.gcd(*base)
    reduced = tuple(sorted(x // d for x in base))
    assert graded_betti(SemigroupSpec(raw)) == graded_betti(SemigroupSpec(reduced))


S35 = normalize((3, 5))


@pytest.mark.parametrize("call, bad", [
    pytest.param(lambda: normalize((3.7, 5.2)), "3.7", id="normalize"),
    pytest.param(lambda: normalize((3, "5")), "'5'", id="normalize-str"),
    pytest.param(lambda: contains(S35, 7.9), "7.9", id="contains"),
    pytest.param(lambda: contains(S35, Fraction(8)), "Fraction(8, 1)", id="contains-fraction"),
    pytest.param(lambda: apery(S35, 5.0), "5.0", id="apery"),
    pytest.param(lambda: canonical_factorization(S35, 8.5), "8.5",
                 id="canonical_factorization"),
    pytest.param(lambda: graded_betti(S35, 40.5), "40.5", id="graded_betti"),
    pytest.param(lambda: (graded_betti(S35, 40), graded_betti(S35, 40.0)), "40.0",
                 id="graded_betti-cached"),
    pytest.param(lambda: minimal_generators(S35, 15.5), "15.5", id="minimal_generators"),
    pytest.param(lambda: kernel_member(S35, (5, -3.0)), "-3.0", id="kernel_member"),
    pytest.param(lambda: binomial_from_vector((5.5, -3), (3, 5)), "5.5",
                 id="binomial_from_vector"),
    pytest.param(lambda: ci_check_3gen(20.5, 1, 3), "20.5", id="ci_check_3gen"),
    pytest.param(lambda: FamilySpec(2.5, 3, 5), "2.5", id="FamilySpec"),
    pytest.param(lambda: FamilySpec(2, 3, 5, offset=1.0), "1.0", id="FamilySpec-offset"),
    pytest.param(lambda: FamilySpec(2, 3, 5)._replace(c=5.0), "5.0", id="FamilySpec-replace"),
    pytest.param(lambda: scan(FamilySpec(2, 3, 5), 22.5, 24), "22.5", id="scan"),
    pytest.param(lambda: verify_theorem_b(FamilySpec(1, 1, 2), 64, 64.5), "64.5",
                 id="verify_theorem_b"),
    pytest.param(lambda: verify_theorem_a(FamilySpec(2, 3, 5), 1.5), "1.5", id="verify_theorem_a"),
    pytest.param(lambda: critical_exponent(S35, 1.5), "1.5", id="critical_exponent"),
    pytest.param(lambda: critical_exponent(S35, "1"), "'1'", id="critical_exponent-str"),
    pytest.param(lambda: MembershipTable((3.5, 5)), "3.5", id="MembershipTable"),
])
def test_non_integral_input_is_refused_not_truncated(call, bad):
    with pytest.raises(InvalidInputError, match=f"must be an integer, got {re.escape(bad)}$"):
        call()


def test_numpy_integers_are_read_as_ints():
    S = normalize(np.array([12, 20, 30]))
    assert S.generators == (6, 10, 15) and S.content == 2
    assert all(type(a) is int for a in S.generators)
    assert contains(S, np.int64(30)) and not contains(S, np.uint16(29))
    assert graded_betti(S, np.int64(40)) == graded_betti(S, 40)
    F = FamilySpec(np.int64(2), np.int8(3), 5)
    assert F == (2, 3, 5, 1) and all(type(v) is int for v in F)
    assert ci_check_3gen(np.int64(20), 1, 3) == ci_check_3gen(20, 1, 3)


def test_contains_small_cases():
    assert not contains(normalize((2, 3)), 1)
    S = normalize((30, 32, 35, 40))
    assert contains(S, 70)
    assert not contains(S, 38)
    assert contains(S, 0)
    with pytest.raises(InvalidInputError):
        contains(S, -1)


def test_contains_matches_oracle():
    for gens in [(30, 32, 35, 40), (2, 3), (7, 11, 13), (5, 9, 21, 22)]:
        S = normalize(gens)
        member = brute_members(gens, 300)
        for m in range(301):
            assert contains(S, m) == member[m], (gens, m)


def test_frobenius_sylvester():
    assert frobenius(normalize((2, 3))) == 1
    assert frobenius(normalize((3, 5))) == 7


def test_frobenius_matches_oracle():
    for gens in [(30, 32, 35, 40), (7, 11, 13), (6, 10, 15), (23, 25, 28, 33)]:
        assert frobenius(normalize(gens)) == brute_frobenius(gens)


def test_frobenius_whole_line():
    assert frobenius(normalize((1, 2))) == -1


def test_frobenius_of_a_non_coprime_input():
    S = SemigroupSpec((2, 4))
    assert (S.generators, S.content, frobenius(S)) == ((1, 2), 2, -1)


def test_frobenius_gap_plus_one_is_member():
    S = normalize((30, 32, 35, 40))
    f = frobenius(S)
    assert not contains(S, f)
    for k in range(1, 200):
        assert contains(S, f + k)


def test_apery_examples():
    assert apery(normalize((2, 3)), 2) == {0, 3}
    assert apery(normalize((2, 3)), 3) == {0, 2, 4}
    assert apery(normalize((3, 5)), 3) == {0, 5, 10}


def test_apery_matches_oracle():
    for gens, x in [((30, 32, 35, 40), 30), ((7, 11, 13), 7), ((3, 5), 5)]:
        assert apery(normalize(gens), x) == brute_apery(gens, x)


def test_apery_properties():
    S = normalize((7, 11, 13))
    ap = apery(S, 11)
    assert len(ap) == 11
    assert 0 in ap
    assert sorted(a % 11 for a in ap) == list(range(11))
    for a in ap:
        assert a - 11 < 0 or not contains(S, a - 11)


def test_apery_invalid_pivot():
    with pytest.raises(InvalidInputError):
        apery(normalize((30, 32, 35, 40)), 31)
    with pytest.raises(InvalidInputError):
        apery(normalize((2, 3)), 0)


def test_membership_table_is_apery_set():
    gens = (30, 32, 35, 40)
    t = MembershipTable(gens)
    assert (t.content, t.modulus) == (1, 30)
    assert len(t.ap) == 30
    assert set(t.ap.tolist()) == brute_apery(gens, 30)
    assert all(w % 30 == r for r, w in enumerate(t.ap.tolist()))
    assert t.frobenius == brute_frobenius(gens)
    # gcd 2 is divided out: <4, 6> = 2<2, 3>
    t = MembershipTable((6, 4))
    assert (t.content, t.modulus, t.ap.tolist()) == (2, 2, [0, 3])
    assert [m for m in range(13) if t.contains(m)] == [0, 4, 6, 8, 10, 12]
    # the empty set generates {0}
    t = MembershipTable(())
    assert [m for m in range(5) if t.contains(m)] == [0]
    assert member_array(t, 3).tolist() == [True, False, False, False]


def test_contains_far_beyond_table_uses_frobenius():
    S = normalize((30, 32, 35, 40))
    assert contains(S, 10 ** 12)
    assert S.membership.ap.size == 30  # storage is a1 entries, whatever m is


def test_apery_size_cap_refuses_up_front(monkeypatch):
    small = normalize((2, 3))
    assert contains(small, MAX_CELLS + 1)  # builds the small table first

    def boom(*args, **kwargs):
        raise AssertionError("allocated an Apery table above the cap")

    monkeypatch.setattr(semigroup.np, "full", boom)
    big = normalize((MAX_CELLS + 1, MAX_CELLS + 2))
    with pytest.raises(OutOfRangeError, match=str(MAX_CELLS + 1)):
        contains(big, 5)
    with pytest.raises(OutOfRangeError, match="64-bit"):
        contains(normalize((3, 2 ** 60)), 5)
    with pytest.raises(OutOfRangeError):
        apery(small, MAX_CELLS + 1)


def test_table_as_bool_array():
    t = MembershipTable((2, 3))
    arr = member_array(t, 10)
    assert list(arr) == [True, False, True, True, True, True, True, True, True, True, True]


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=5),
       st.integers(min_value=0, max_value=200))
@settings(max_examples=60, deadline=None)
def test_contains_permutation_and_scaling_invariant(gens, m):
    try:
        S = normalize(gens)
    except InvalidInputError:
        return
    S_perm = normalize(tuple(reversed(gens)))
    assert contains(S, m) == contains(S_perm, m)
    S_scaled = normalize(tuple(3 * g for g in gens))
    assert S_scaled.generators == S.generators


def test_canonical_factorization_minimizes_key():
    S = normalize((30, 32, 35, 40))
    for m in [60, 70, 120, 160, 190, 230]:
        facts = brute_factorizations(S.generators, m)
        best = canonical_factorization(S, m)
        assert best.exponents == min(facts, key=canonical_key)
    assert canonical_factorization(S, 38) is None


def test_canonical_factorization_respects_allowed():
    S = normalize((30, 32, 35, 40))
    # degree 160 restricted to x2 only: the 5*32 factorization
    got = canonical_factorization(S, 160, allowed=[1])
    assert got.exponents == (0, 5, 0, 0)
    assert canonical_factorization(S, 160, allowed=[2]) is None


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_membership_matches_oracle_on_raw_input(raw, factor):
    """Any generator list: duplicates and a common factor are allowed."""
    raw = [factor * a for a in raw]
    t = MembershipTable(raw)
    member = brute_members(raw, 250)
    assert [t.contains(m) for m in range(251)] == member
    assert member_array(t, 250).tolist() == member
    assert not t.contains(-1)
    try:
        S = normalize(raw)
    except InvalidInputError:
        return
    reduced = brute_members(S.generators, 250)
    assert [contains(S, m) for m in range(251)] == reduced


@given(st.lists(st.integers(min_value=2, max_value=40), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_frobenius_matches_oracle_random(raw):
    try:
        S = normalize(raw)
    except InvalidInputError:
        return
    assert frobenius(S) == brute_frobenius(S.generators)


@given(st.lists(st.integers(min_value=2, max_value=30), min_size=2, max_size=5),
       st.data())
@settings(max_examples=60, deadline=None)
def test_apery_matches_oracle_random(raw, data):
    """Pivots are any positive members, not only generators."""
    try:
        S = normalize(raw)
    except InvalidInputError:
        return
    members = [m for m in range(1, 90) if contains(S, m)]
    x = data.draw(st.sampled_from(members))
    assert apery(S, x) == brute_apery(S.generators, x)


def _oracle_canonical(gens, m, allowed):
    facts = [f for f in brute_factorizations(gens, m)
             if all(e == 0 for i, e in enumerate(f) if i not in allowed)]
    return min(facts, key=canonical_key) if facts else None


def test_canonical_factorization_special_subsets():
    gens = (6, 9, 10, 15)
    S = normalize(gens)
    subsets = [(0, 1, 3), (0, 2), (1, 3), (2, 3), (1,), (3,), ()]  # gcd 3, 2, 3, 5
    for allowed in subsets:
        for m in range(0, 80):
            got = canonical_factorization(S, m, allowed=allowed)
            want = _oracle_canonical(gens, m, set(allowed))
            assert (got and got.exponents) == want, (allowed, m)
    assert canonical_factorization(S, 0, allowed=()).exponents == (0, 0, 0, 0)
    assert canonical_factorization(S, 9, allowed=()) is None
    assert canonical_factorization(S, 45, allowed=[1]).exponents == (0, 5, 0, 0)


@given(st.lists(st.integers(min_value=5, max_value=30), min_size=2, max_size=4),
       st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_factorization_matches_oracle(raw, data):
    try:
        S = normalize(raw)
    except InvalidInputError:
        return
    allowed = data.draw(st.sets(st.integers(min_value=0, max_value=S.n - 1)))
    m = data.draw(st.integers(min_value=0, max_value=120))
    got = canonical_factorization(S, m, allowed=allowed)
    assert (got and got.exponents) == _oracle_canonical(S.generators, m, allowed)
