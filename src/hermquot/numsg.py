"""Numerical semigroup utilities: gap sets, genus, telescopic towers."""

from __future__ import annotations

import math
from functools import reduce

from .gfield import CheckError, ParameterError, _Record

SIEVE_BOUND = 1 << 20


def _clean(gens) -> list[int]:
    out = [int(g) for g in gens]
    if not out or any(g < 1 for g in out):
        raise ParameterError("generators must be positive integers")
    return out


def gap_set(gens) -> list[int]:
    """Gaps of the numerical semigroup generated by gens.

    Needs gcd(gens) = 1.  The sieve stops once min(gens) consecutive
    integers are reachable; everything past that point is one of them
    plus a multiple of min(gens).  The sieve has max(gens)^2 + 2 max(gens)
    entries, at most SIEVE_BOUND.
    """
    gens = sorted(set(_clean(gens)))
    if reduce(math.gcd, gens) != 1:
        raise ParameterError(f"gcd of {gens} is not 1")
    m = gens[0]
    if m == 1:
        return []
    cap = gens[-1] ** 2 + 2 * gens[-1]
    if cap > SIEVE_BOUND:
        raise ParameterError(f"gap sieve of {cap} entries exceeds the bound {SIEVE_BOUND}")
    reach = bytearray(cap + 1)
    reach[0] = 1
    run = 0
    for n in range(1, cap + 1):
        for g in gens:
            if g > n:
                break
            if reach[n - g]:
                reach[n] = 1
                break
        run = run + 1 if reach[n] else 0
        if run == m:
            return [k for k in range(n) if not reach[k]]
    raise CheckError("gap sieve cap too small")  # unreachable when gcd is 1


def _member(n: int, gens) -> bool:
    if n > SIEVE_BOUND:
        raise ParameterError(f"membership sieve of {n} entries exceeds the bound {SIEVE_BOUND}")
    reach = bytearray(n + 1)
    reach[0] = 1
    for k in range(1, n + 1):
        for g in gens:
            if g <= k and reach[k - g]:
                reach[k] = 1
                break
    return bool(reach[n])


class NumSemigroup(_Record):
    """A numerical semigroup pinned by its gap data: tuples of generators
    and gaps, the genus and the conductor."""

    __slots__ = ("generators", "gap_set", "genus", "conductor")

    def __contains__(self, n) -> bool:
        n = int(n)
        if n < 0:
            return False
        return n >= self.conductor or n not in set(self.gap_set)


def from_generators(gens) -> NumSemigroup:
    gens = tuple(sorted(set(_clean(gens))))
    gaps = tuple(gap_set(gens))
    return NumSemigroup(
        generators=gens,
        gap_set=gaps,
        genus=len(gaps),
        conductor=gaps[-1] + 1 if gaps else 0,
    )


def telescopic_trace(gens) -> dict:
    """Step-by-step telescopic test, sensitive to the generator order.

    Each step records d_i = gcd(a_1..a_i), the scaled prefix A_{i-1}/d_i,
    and whether a_i/d_i lands in the semigroup of that prefix.  Each
    membership sieve has a_i/d_i + 1 entries, at most SIEVE_BOUND.
    """
    gens = _clean(gens)
    d = gens[0]
    steps = [{"a": gens[0], "d": d, "member": True}]
    ok = True
    for i in range(1, len(gens)):
        scaled_prev = [a // d for a in gens[:i]]
        d_new = math.gcd(d, gens[i])
        member = _member(gens[i] // d_new, scaled_prev)
        steps.append(
            {
                "a": gens[i],
                "d": d_new,
                "scaled_prev": scaled_prev,
                "quotient": gens[i] // d_new,
                "member": member,
            }
        )
        ok = ok and member
        d = d_new
    return {"telescopic": ok and d == 1, "final_gcd": d, "steps": steps}


def is_telescopic(gens) -> bool:
    """Telescopic test, sensitive to the given generator order."""
    return telescopic_trace(gens)["telescopic"]


def telescopic_largest_gap(gens) -> int:
    """Largest gap from the gcd tower; valid when is_telescopic holds.

    With d_0 = 0 and d_i = gcd(a_1..a_i) the sum of (d_{i-1}/d_i - 1)*a_i
    starts at -a_1 and each later term counts the index jump of a_i.
    """
    gens = _clean(gens)
    d = 0
    total = 0
    for a in gens:
        d_new = math.gcd(d, a)
        total += (d // d_new - 1) * a
        d = d_new
    if d != 1:
        raise ParameterError(f"gcd of {gens} is not 1")
    return total


def telescopic_genus(gens) -> int:
    """(largest gap + 1) / 2; telescopic semigroups are symmetric."""
    lg = telescopic_largest_gap(gens)
    if lg % 2 == 0:
        raise CheckError(f"largest gap {lg} is even, semigroup not symmetric")
    return (lg + 1) // 2


def semigroup_at_infinity(family: str, p: int, h: int) -> NumSemigroup:
    """Weierstrass semigroup at the place at infinity, from the generators
    models.semigroup_gens states.

    Where none are stated (family III, family II at h = 1) the request is
    refused rather than guessed at.
    """
    from .models import genus_formula, semigroup_gens

    expect = genus_formula(family, p, h)  # checks p and h first
    gens = semigroup_gens(family, p, h)
    if gens is None:
        raise ParameterError(
            f"no semigroup generators are stated for {family} at p = {p}, h = {h}"
        )
    sg = from_generators(gens)
    if sg.genus != expect:
        raise CheckError(
            f"semigroup genus {sg.genus} != curve genus {expect} for {family}"
        )
    return sg


def summary(gens) -> dict:
    """Gap data plus the telescopic cross-check, for the CLI and reports."""
    gens = _clean(gens)
    gaps = gap_set(gens)
    trace = telescopic_trace(gens)
    out = {
        "generators": list(gens),
        "gaps": gaps,
        "genus": len(gaps),
        "largest_gap": gaps[-1] if gaps else None,
        "telescopic": trace["telescopic"],
        "telescopic_trace": trace["steps"],
    }
    if out["telescopic"]:
        lg = telescopic_largest_gap(gens)
        out["telescopic_largest_gap"] = lg
        out["telescopic_genus"] = telescopic_genus(gens)
        if lg != (gaps[-1] if gaps else -1) or out["telescopic_genus"] != len(gaps):
            raise CheckError("telescopic formula disagrees with the gap sieve")
    return out
