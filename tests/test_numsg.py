import math
import time
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from hermquot.gfield import CheckError, ParameterError
from hermquot import numsg


def gaps_bruteforce(gens, cap=3000):
    # plain reachability with a fixed large cap, independent of the
    # early-stop logic in numsg.gap_set
    reach = [False] * (cap + 1)
    reach[0] = True
    for n in range(1, cap + 1):
        reach[n] = any(g <= n and reach[n - g] for g in gens)
    assert all(reach[cap - max(gens) :]), "cap too small for this generator set"
    return [n for n in range(cap) if not reach[n]]


def test_two_generator_frobenius_formula():
    # for coprime a < b the largest gap is ab - a - b and genus (a-1)(b-1)/2
    for a, b in [(2, 9), (3, 28), (2, 33), (8, 33), (5, 6)]:
        assert math.gcd(a, b) == 1
        gaps = numsg.gap_set([a, b])
        assert gaps[-1] == a * b - a - b
        assert len(gaps) == (a - 1) * (b - 1) // 2


@given(st.lists(st.integers(2, 40), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_gap_set_matches_bruteforce(gens):
    if reduce(math.gcd, gens) != 1:
        with pytest.raises(ParameterError):
            numsg.gap_set(gens)
        return
    assert numsg.gap_set(gens) == gaps_bruteforce(gens)


def test_gap_set_rejects_nonpositive():
    with pytest.raises(ParameterError):
        numsg.gap_set([0, 3])
    with pytest.raises(ParameterError):
        numsg.gap_set([])


def test_gap_set_bounds_the_sieve():
    # the sieve has max^2 + 2 max entries: 1023 is the largest max allowed
    assert len(numsg.gap_set([1022, 1023])) == 1021 * 1022 // 2
    with pytest.raises(ParameterError, match="exceeds the bound"):
        numsg.gap_set([1023, 1024])
    with pytest.raises(ParameterError, match="exceeds the bound"):
        numsg.gap_set([1000003, 1000033])
    with pytest.raises(ParameterError, match="exceeds the bound"):
        numsg.semigroup_at_infinity("family_II", 3, 7)


def test_full_semigroup_has_no_gaps():
    assert numsg.gap_set([1]) == []
    assert numsg.gap_set([1, 9]) == []


FROZEN = [
    # generators, largest gap, genus: the semigroups attached to the
    # curve families at the parameters the acceptance run uses
    ([2, 9], 7, 4),
    ([3, 28], 53, 27),
    ([3, 4, 10], 5, 3),
    ([9, 12, 28], 71, 36),
    ([5, 6, 26], 19, 10),
    ([8, 33], 223, 112),
]


@pytest.mark.parametrize("gens,lg,g", FROZEN)
def test_frozen_semigroup_values(gens, lg, g):
    gaps = numsg.gap_set(gens)
    assert gaps[-1] == lg
    assert len(gaps) == g


@pytest.mark.parametrize("gens,lg,g", FROZEN)
def test_frozen_sets_are_telescopic(gens, lg, g):
    assert numsg.is_telescopic(gens)
    assert numsg.telescopic_largest_gap(gens) == lg
    assert numsg.telescopic_genus(gens) == g


def test_telescopic_depends_on_order():
    # (4, 6, 9) is the classic telescopic example; the order (9, 4, 6)
    # breaks the chain because 6 is not in <9, 4>
    assert numsg.is_telescopic([4, 6, 9])
    assert not numsg.is_telescopic([9, 4, 6])
    assert numsg.telescopic_largest_gap([4, 6, 9]) == numsg.gap_set([4, 6, 9])[-1] == 11


def test_non_telescopic_example():
    # 5, 6, 7 generate a non-symmetric semigroup: 6 gaps but largest gap 9
    assert not numsg.is_telescopic([5, 6, 7])
    gaps = numsg.gap_set([5, 6, 7])
    assert gaps == [1, 2, 3, 4, 8, 9]
    assert len(gaps) != (gaps[-1] + 1) // 2


@given(st.integers(2, 20), st.integers(2, 20))
@settings(max_examples=60, deadline=None)
def test_two_coprime_generators_always_telescopic(a, b):
    if math.gcd(a, b) != 1:
        return
    assert numsg.is_telescopic([a, b])
    assert numsg.telescopic_largest_gap([a, b]) == a * b - a - b
    assert numsg.telescopic_genus([a, b]) == (a - 1) * (b - 1) // 2


@given(st.lists(st.integers(2, 30), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_telescopic_formula_agrees_with_sieve_whenever_it_applies(gens):
    if reduce(math.gcd, gens) != 1 or not numsg.is_telescopic(gens):
        return
    gaps = numsg.gap_set(gens)
    lg = numsg.telescopic_largest_gap(gens)
    assert lg == (gaps[-1] if gaps else -1)
    if lg % 2:
        assert numsg.telescopic_genus(gens) == len(gaps)


def test_hermitian_semigroup_tower():
    # the semigroup at the unique infinite place of y^q + y = x^(q+1)
    for q in (2, 3, 4, 8):
        assert len(numsg.gap_set([q, q + 1])) == q * (q - 1) // 2


def test_summary_shape():
    s = numsg.summary([3, 4, 10])
    assert s["genus"] == 3
    assert s["gaps"] == [1, 2, 5]
    assert s["largest_gap"] == 5
    assert s["telescopic"] is True
    assert s["telescopic_genus"] == 3
    s2 = numsg.summary([5, 6, 7])
    assert "telescopic_genus" not in s2


def test_telescopic_formula_needs_gcd_one():
    with pytest.raises(ParameterError):
        numsg.telescopic_largest_gap([4, 6])


def test_from_generators_record():
    s = numsg.from_generators([2, 9])
    assert s.generators == (2, 9)
    assert s.gap_set == (1, 3, 5, 7)
    assert s.genus == 4
    assert s.conductor == 8
    assert 0 in s and 2 in s and 9 in s and 100 in s
    assert 7 not in s and -1 not in s


def test_from_generators_whole_line():
    s = numsg.from_generators([1, 5])
    assert s.genus == 0 and s.conductor == 0
    assert all(n in s for n in range(10))


@given(st.lists(st.integers(2, 25), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_membership_closed_under_addition(gens):
    if reduce(math.gcd, gens) != 1:
        return
    s = numsg.from_generators(gens)
    small = [n for n in range(40) if n in s]
    for a in small[:8]:
        for b in small[:8]:
            assert a + b in s


def test_telescopic_trace_steps():
    t = numsg.telescopic_trace([3, 4, 10])
    assert t["telescopic"] is True and t["final_gcd"] == 1
    assert [s["d"] for s in t["steps"]] == [3, 1, 1]
    assert t["steps"][2]["scaled_prev"] == [3, 4]
    t2 = numsg.telescopic_trace([9, 4, 6])
    assert t2["telescopic"] is False


def test_telescopic_is_order_sensitive():
    assert numsg.is_telescopic([4, 6, 9])
    assert not numsg.is_telescopic([9, 4, 6])


def test_telescopic_trace_bounds_the_membership_sieve():
    # a_2/d_2 = 10^13 would need a 10^13-entry sieve
    t0 = time.perf_counter()
    with pytest.raises(ParameterError, match="exceeds the bound"):
        numsg.is_telescopic([3, 10**13])
    assert time.perf_counter() - t0 < 1.0


def test_telescopic_trace_records_each_quotient():
    # the third step scales the prefix by d = 2 and tests 4/2 = 2 in <3, 5>
    assert numsg.telescopic_trace([6, 10, 4])["steps"][2] == {
        "a": 4, "d": 2, "scaled_prev": [3, 5], "quotient": 2, "member": False}


def test_membership_sieve_admits_exactly_SIEVE_BOUND_entries():
    # 2^21 / gcd(2, 2^21) = 2^20, a sieve of SIEVE_BOUND + 1 entries
    t = numsg.telescopic_trace([2, 2**21])
    assert t["steps"][1]["quotient"] == numsg.SIEVE_BOUND
    assert t["steps"][1]["member"] is True


def test_summary_refuses_a_telescopic_genus_the_sieve_disagrees_with(monkeypatch):
    # the largest gap agrees, so only the genus clause can catch it
    monkeypatch.setattr(numsg, "telescopic_genus", lambda gens: 4)
    with pytest.raises(CheckError, match="disagrees with the gap sieve"):
        numsg.summary([3, 4, 10])


def test_gap_sieve_stops_before_its_cap():
    # Schur's bound puts the conductor c at or below (m - 1)(M - 1), for m
    # and M the least and largest generator, so the sieve returns at
    # n = c + m - 1 <= (m - 1) M, below cap - 1 = M^2 + 2M - 1: the sieve
    # never reads or writes its last two slots
    for M in range(2, 40):
        for m in range(2, M + 1):
            for mid in (None, (m + M) // 2):
                gens = [m, M] if mid is None else [m, mid, M]
                if reduce(math.gcd, gens) != 1:
                    continue
                gaps = numsg.gap_set(gens)
                assert (gaps[-1] + 1 if gaps else 0) + m - 1 <= (m - 1) * M < M * M + 2 * M - 1


def test_semigroup_at_infinity_family_I():
    s = numsg.semigroup_at_infinity("family_I", 2, 3)
    assert s.generators == (2, 9) and s.genus == 4
    s = numsg.semigroup_at_infinity("family_I", 3, 3)
    assert s.generators == (3, 28) and s.genus == 27
    # degenerate rational case
    assert numsg.semigroup_at_infinity("family_I", 2, 2).genus == 0


def test_semigroup_at_infinity_family_II():
    s = numsg.semigroup_at_infinity("family_II", 3, 2)
    assert s.generators == (3, 4, 10) and s.genus == 3
    s = numsg.semigroup_at_infinity("family_II", 5, 2)
    assert s.generators == (5, 6, 26) and s.genus == 10


def test_semigroup_at_infinity_family_III_refused():
    with pytest.raises(ParameterError):
        numsg.semigroup_at_infinity("family_III", 2, 2)


def test_semigroup_at_infinity_bad_params():
    with pytest.raises(ParameterError):
        numsg.semigroup_at_infinity("family_I", 2, 1)
    with pytest.raises(ParameterError):
        numsg.semigroup_at_infinity("family_II", 2, 3)
    with pytest.raises(ParameterError):
        numsg.semigroup_at_infinity("hermitian", 2, 3)
    with pytest.raises(ParameterError, match="not prime"):
        numsg.semigroup_at_infinity("family_I", 4, 3)


def test_semigroup_at_infinity_matches_genus_formula():
    from hermquot.models import genus_formula

    for fam, p, h in [("family_I", 2, 3), ("family_I", 2, 4), ("family_I", 3, 3),
                      ("family_II", 3, 2), ("family_II", 5, 2), ("family_II", 3, 3)]:
        assert numsg.semigroup_at_infinity(fam, p, h).genus == genus_formula(fam, p, h)
