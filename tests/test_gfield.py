import math
import random
from itertools import islice, pairwise

import pytest
from hypothesis import given, settings, strategies as st

from hermquot import gfield, models
from hermquot.gfield import (
    TABLE_ORDER_BOUND,
    CheckError,
    FieldCtx,
    LinearizedSolver,
    ParameterError,
    _ascending_span,
    _span,
    _span_indicator,
    _find_modulus,
    _first_of_order,
    find_omega,
    make_field,
)
from hermquot.polyring import additive_split


# ---------------------------------------------------------------- oracles

def int_digits(n, p):
    # base-p digits of n, least significant first
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return tuple(out)


def poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def poly_divides(d, f, p):
    f = [c % p for c in f]
    dd = len(d) - 1
    inv = pow(d[-1], -1, p)
    for i in range(len(f) - 1, dd - 1, -1):
        c = f[i]
        if c:
            s = (c * inv) % p
            for j in range(dd + 1):
                f[i - dd + j] = (f[i - dd + j] - s * d[j]) % p
    return not any(f[:dd])


def monic_polys(deg, p):
    for m in range(p ** deg):
        yield int_digits(m, p) + (0,) * (deg - len(int_digits(m, p))) + (1,)


def irreducible_by_trial_division(f, p):
    # independent of the Frobenius tests in gfield
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for cand in monic_polys(d, p):
            if poly_divides(cand, f, p):
                return False
    return True


def first_irreducible_bruteforce(p, deg):
    n = p ** deg
    for m in range(n + 1, 2 * n):
        digs = int_digits(m, p)
        if irreducible_by_trial_division(digs, p):
            return m
    raise AssertionError


def eval_linearized(ctx, coeffs, y):
    acc = 0
    for i, c in enumerate(coeffs):
        acc = ctx.add(acc, ctx.mul(c, ctx.frob(y, i)))
    return acc


# ---------------------------------------------------------------- modulus

@pytest.mark.parametrize("p,deg", [(2, 4), (2, 8), (2, 12), (3, 4), (3, 8), (5, 4)])
def test_modulus_matches_bruteforce(p, deg):
    assert _find_modulus(p, deg) == first_irreducible_bruteforce(p, deg)


def test_modulus_frozen_values():
    # X^4 + X + 1 over F_2 and X^4 + X + 2 over F_3, checked offline
    assert _find_modulus(2, 4) == 0b10011 == 19
    assert _find_modulus(3, 4) == 81 + 3 + 2 == 86


# the modulus of every field (p, h) the suite and the benchmark build,
# frozen; the trial-division oracle above reaches only deg <= 12
_MODULI = {
    (2, 1): 19, (2, 2): 283, (2, 3): 4105, (2, 4): 65579, (2, 5): 1048585,
    (2, 6): 16777243, (2, 7): 268435459, (3, 1): 86, (3, 2): 6572,
    (3, 3): 531452, (3, 4): 43046758, (5, 1): 627, (5, 2): 390627,
    (5, 3): 244140634, (7, 1): 2409, (7, 2): 5764811, (11, 1): 14654,
    (11, 2): 214358896, (13, 1): 28563, (13, 2): 815730723,
}


@pytest.mark.parametrize("p, h", sorted(_MODULI))
def test_modulus_frozen_at_every_field(p, h):
    assert make_field(p, h).modulus == _find_modulus(p, 4 * h) == _MODULI[(p, h)]


def irreducible_by_power_and_berlekamp(p, deg, n):
    # the modulus search's former predicate, all on the digit kernel's
    # multiply: X^(p^deg) = X by square-and-multiply, and Berlekamp's count
    # on Frobenius rows from one power and successive multiplies
    ctx = FieldCtx(p, deg // 4, n)
    row1 = ctx._pow_digits(p, p)
    imgs = [1]
    for _ in range(1, deg):
        imgs.append(ctx._mul_digits(imgs[-1], row1))
    ctx._frows[1] = imgs if p == 2 else [ctx._digits(x) for x in imgs]
    return ctx._pow_digits(p, p ** deg) == p and len(ctx._frobenius_kernel(1)) == 1


@pytest.mark.parametrize("p,deg", [(2, 4), (2, 8), (3, 4), (5, 4)])
def test_irreducible_matches_trial_division_on_every_candidate(p, deg):
    # the reducible candidates too, those divisible by X among them
    base = p ** deg
    verdicts = [gfield._irreducible(p, deg, n) for n in range(base, 2 * base)]
    assert verdicts == [irreducible_by_trial_division(f, p) for f in monic_polys(deg, p)]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("p,deg,n", [
    (2, 4, 21),                 # X^4 + X^2 + 1 = (X^2 + X + 1)^2
    (2, 8, 261),                # X^8 + X^2 + 1 = (X^4 + X + 1)^2
    (3, 4, 81 + 2 * 9 + 1),     # X^4 + 2X^2 + 1 = (X^2 + 1)^2
])
def test_irreducible_rejects_a_square_by_the_power_test(p, deg, n):
    # no root, and one distinct factor, so only X^(p^deg) != X rejects it
    ctx = FieldCtx(p, deg // 4, n)
    assert len(ctx._frobenius_kernel(1)) == 1
    x = p
    for _ in range(deg):
        x = ctx._frob_digits(x, 1)
    assert x != p
    assert not gfield._irreducible(p, deg, n)
    assert not irreducible_by_trial_division(int_digits(n, p), p)


@pytest.mark.parametrize("p, h", sorted(_MODULI))
def test_irreducible_matches_the_former_predicate_up_to_the_modulus(p, h):
    deg = 4 * h
    for n in range(p ** deg + 1, _MODULI[(p, h)] + 1):
        assert gfield._irreducible(p, deg, n) == irreducible_by_power_and_berlekamp(p, deg, n), n


def test_modulus_search_makes_no_kernel_multiply(monkeypatch):
    # the shift rows and the row-applied power test replace every multiply
    calls = []
    for name in ("_mul_digits", "_pow_digits"):
        monkeypatch.setattr(FieldCtx, name, lambda self, *args, name=name: calls.append(name))
    for p, h in [(2, 7), (3, 4), (5, 3), (7, 2), (11, 2), (13, 2)]:
        assert _find_modulus.__wrapped__(p, 4 * h) == _MODULI[(p, h)]
    assert calls == []
    # and the field it gives still builds every table lazily
    fresh = FieldCtx(3, 4, _find_modulus.__wrapped__(3, 16))
    assert fresh._log is None and fresh._sub is None and fresh._gens == {}


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        make_field(4, 1)
    with pytest.raises(ParameterError):
        make_field(2, 0)
    with pytest.raises(ParameterError):
        make_field(2, 9)  # 2^36 over the default bound


def test_make_field_is_cached():
    assert make_field(2, 3) is make_field(2, 3)


# ---------------------------------------------------------------- arithmetic

CTXS = [make_field(2, 1), make_field(2, 3), make_field(3, 1), make_field(3, 2)]


@pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"p{c.p}h{c.h}")
def test_field_axioms_exhaustive_small(ctx):
    els = range(ctx.order)
    for a in els:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
    if ctx.order <= 128:
        pairs = [(a, b) for a in els for b in els]
    else:
        rng = random.Random(ctx.order)
        pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(4096)]
    for a, b in pairs:
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms_random(data):
    ctx = data.draw(st.sampled_from(CTXS))
    a = data.draw(st.integers(0, ctx.order - 1))
    b = data.draw(st.integers(0, ctx.order - 1))
    c = data.draw(st.integers(0, ctx.order - 1))
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
    if b:
        assert ctx.mul(ctx.div(a, b), b) == a


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_frobenius_is_a_field_automorphism(data):
    ctx = data.draw(st.sampled_from(CTXS))
    a = data.draw(st.integers(0, ctx.order - 1))
    b = data.draw(st.integers(0, ctx.order - 1))
    k = data.draw(st.integers(0, ctx.deg))
    assert ctx.frob(a, k) == ctx.pow(a, ctx.p ** k)
    assert ctx.frob(ctx.add(a, b), k) == ctx.add(ctx.frob(a, k), ctx.frob(b, k))
    assert ctx.frob(ctx.mul(a, b), k) == ctx.mul(ctx.frob(a, k), ctx.frob(b, k))
    assert ctx.frob(a, ctx.deg) == a


def test_pow_matches_repeated_multiplication():
    ctx = make_field(3, 1)
    for a in range(ctx.order):
        acc = 1
        for e in range(1, 6):
            acc = ctx.mul(acc, a)
            assert ctx.pow(a, e) == acc


# ---------------------------------------------------------------- table kernels

# every table-kernel field the package builds; the digit methods are the oracle
TABLE_FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2),
                make_field(2, 3), make_field(3, 2)]
# fields above TABLE_ORDER_BOUND: F_{q^2} by table, every other operand by digits
SUBFIELD_FIELDS = [make_field(2, 4), make_field(2, 5), make_field(3, 3), make_field(3, 4),
                   make_field(5, 2), make_field(7, 2), make_field(13, 1)]


def _element(ctx):
    # biased to 0, 1, p - 1, order - 1 and gamma^(q^2 - 2), and drawn from
    # F_{q^2} as well as from the whole field, so that operands mix
    g_inv = ctx._pow_digits(ctx.subfield_generator(2 * ctx.h), ctx.q ** 2 - 2)
    return st.one_of(st.sampled_from([0, 1, ctx.p - 1, ctx.order - 1, g_inv]),
                     st.sampled_from(ctx.subfield_encodings(2 * ctx.h)),
                     st.integers(0, ctx.order - 1))


def digitwise(ctx, op, *operands):
    # sub, neg and scale are F_p-linear digit by digit: the oracle for the
    # three, which compose mul and add in gfield
    columns = zip(*(ctx._digits(x) for x in operands))
    return ctx._undigits([op(*col) % ctx.p for col in columns])


@given(data=st.data())
@settings(max_examples=700, deadline=None)
def test_table_kernel_matches_digit_kernel(data):
    ctx = data.draw(st.sampled_from(TABLE_FIELDS + SUBFIELD_FIELDS), label="ctx")
    a = data.draw(_element(ctx), label="a")
    b = data.draw(_element(ctx), label="b")
    s = data.draw(st.integers(0, ctx.p - 1), label="s")
    q2 = ctx.q ** 2
    e = data.draw(st.one_of(st.integers(-3, 3), st.integers(-3 * q2, 3 * q2),
                            st.integers(-3 * ctx.order, 3 * ctx.order)), label="e")
    k = data.draw(st.integers(-2 * ctx.deg, 3 * ctx.deg), label="k")
    assert ctx.mul(a, b) == ctx._mul_digits(a, b)
    assert ctx.add(a, b) == ctx._add_digits(a, b)
    assert ctx.sub(a, b) == digitwise(ctx, lambda x, y: x - y, a, b)
    assert ctx.neg(a) == digitwise(ctx, lambda x: -x, a)
    assert ctx.scale(a, s) == digitwise(ctx, lambda x: x * s, a)
    assert ctx.frob(a, k) == ctx._frob_digits(a, k)
    if a:
        assert ctx.pow(a, e) == ctx._pow_digits(a, e)
        assert ctx.inv(a) == ctx._pow_digits(a, ctx.order - 2)
    else:
        assert ctx.pow(0, abs(e)) == ctx._pow_digits(0, abs(e))
    # pow always answers from the tables: whole-field lists up to the bound,
    # the F_{q^2} record above it; every context keeps its record in _sub
    whole = ctx.order <= TABLE_ORDER_BOUND
    assert (ctx._log is not None) == whole and ctx._sub is not None


def _assert_nothing_installed(ctx):
    assert ctx._log is None and ctx._exp is None and ctx._zech is None and ctx._sub is None


@pytest.mark.parametrize("ctx", TABLE_FIELDS + SUBFIELD_FIELDS, ids=lambda c: f"p{c.p}h{c.h}")
def test_table_kernel_edge_cases(ctx):
    p = ctx.p
    m = ctx.deg if ctx.order <= TABLE_ORDER_BOUND else 2 * ctx.h
    n = p ** m
    assert ctx.pow(0, 0) == ctx._pow_digits(0, 0) == 1
    assert ctx.pow(0, 5) == ctx._pow_digits(0, 5) == 0
    for op in (ctx.inv, lambda x: ctx.div(1, x), lambda x: ctx.pow(x, -1),
               lambda x: ctx._pow_digits(x, -1)):
        with pytest.raises(ZeroDivisionError):
            op(0)
    assert ctx.neg(1) == p - 1 and ctx.sub(0, 1) == p - 1 and ctx.neg(0) == 0
    gamma = ctx.subfield_generator(m)
    g_inv = ctx._pow_digits(gamma, n - 2)
    assert ctx.inv(gamma) == g_inv and ctx.mul(gamma, g_inv) == 1
    # order - 1 lies outside F_{q^2} above the bound
    outside = ctx.order - 1
    assert (ctx.frob(outside, m) == outside) == (m == ctx.deg)
    # zero operands
    for a in (1, gamma, g_inv, outside):
        assert ctx.sub(a, 0) == a and ctx.sub(0, a) == ctx.neg(a)
        assert ctx.scale(a, 0) == 0
        with pytest.raises(ZeroDivisionError):
            ctx.div(a, 0)
    # sums that vanish take the Zech sentinel
    for a in (1, gamma, g_inv):
        assert ctx.add(a, ctx.neg(a)) == 0 == ctx.sub(a, a)
        assert ctx.add(ctx.scale(a, p - 1), a) == 0
    for a in (g_inv, outside):
        for k in (-1, -ctx.deg - 1, 2 * ctx.h, ctx.deg, ctx.deg + 1, 5 * ctx.deg + 2):
            assert ctx.frob(a, k) == ctx._frob_digits(a, k) == ctx.frob(a, k % ctx.deg)
    for a in (gamma, outside):
        for e in (-1, -2, -n, n - 1, n, 3 * n + 1, -ctx.order, ctx.order - 1):
            assert ctx.pow(a, e) == ctx._pow_digits(a, e)
    # the Zech table, for every p: exp[zech[d]] = 1 + gamma^d by the digit
    # kernel, zech's mark 2(n - 1) exactly where that sum is 0, and exp's
    # zero block reads 0 throughout
    n1, exp, zech, _ = ctx._logs([1])
    assert len(zech) == n1 and len(exp) == 3 * n1
    for d in range(n1):
        one_plus = ctx._add_digits(1, exp[d])
        assert exp[zech[d]] == one_plus, d
        assert (zech[d] == 2 * n1) == (one_plus == 0), d
    assert not any(exp[2 * n1:])


def _clmul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a, b = a << 1, b >> 1
    return r


def test_table_build_rejects_a_reducible_modulus():
    ctx = FieldCtx(2, 1, 0b10001)  # X^4 + 1 = (X + 1)^4 over F_2
    with pytest.raises(CheckError):
        ctx.mul(2, 3)
    _assert_nothing_installed(ctx)
    # x^4 = x only on F_2 there, so F_4 has no basis
    with pytest.raises(CheckError, match="does not have dimension 2"):
        ctx.subfield_basis(2)
    assert ctx._sbasis == {}


def test_table_build_and_subfield_basis_share_one_row_reduction(monkeypatch):
    # (2, 7) tables F_{q^2}, the Frobenius kernel of m = 14, which
    # subfield_basis(14) then reads without a second _rref
    ref = make_field(2, 7)
    want = ref.subfield_basis(14)
    calls = []
    real = gfield._rref
    monkeypatch.setattr(gfield, "_rref", lambda mat, p: calls.append(p) or real(mat, p))
    ctx = FieldCtx(2, 7, ref.modulus)
    ctx.mul(2, 3)
    assert ctx._sub is not None and len(calls) == 1
    assert ctx.subfield_basis(14) == want
    assert len(calls) == 1


@pytest.mark.parametrize("p,h,modulus", [
    (2, 4, (1 << 16) | 1),                     # X^16 + 1 = (X + 1)^16
    (2, 4, _clmul(0b100011011, 0b100011101)),  # two irreducible octics
    (3, 3, 3 ** 12 + 2),                       # X^12 - 1 = (X^4 - 1)^3
])
def test_subfield_build_rejects_a_reducible_modulus(p, h, modulus):
    ctx = FieldCtx(p, h, modulus)
    with pytest.raises(CheckError):
        ctx.mul(2, 3)
    _assert_nothing_installed(ctx)


def test_large_fields_build_no_tables():
    assert all(ctx.order <= TABLE_ORDER_BOUND for ctx in TABLE_FIELDS)
    for ctx in (make_field(2, 4), make_field(3, 3)):
        assert ctx.order > TABLE_ORDER_BOUND
        x, y = ctx.order - 3, ctx.p + 1
        for v in (ctx.mul(x, y), ctx.add(x, y), ctx.sub(x, y), ctx.neg(x),
                  ctx.scale(x, ctx.p - 1), ctx.pow(x, 7), ctx.inv(x), ctx.frob(x, 1)):
            assert 0 <= v < ctx.order
        assert ctx._exp is None and ctx._log is None and ctx._zech is None


# ---------------------------------------------------------------- subfield tables

@pytest.mark.parametrize("ctx", SUBFIELD_FIELDS, ids=lambda c: f"p{c.p}h{c.h}")
def test_subfield_operands_never_reach_the_digit_kernel(ctx, monkeypatch):
    box = ctx.subfield_encodings(2 * ctx.h)  # builds the tables first
    sample = list(box)[1::max(1, len(box) // 97)]

    def refuse(*args):
        raise AssertionError("an F_{q^2} operand reached the digit kernel")

    for name in ("_mul_digits", "_add_digits", "_pow_digits", "_frob_digits"):
        monkeypatch.setattr(FieldCtx, name, refuse)
    for a, b in zip(sample, reversed(sample)):
        ctx.mul(a, b)
        ctx.add(a, b)
        ctx.sub(a, b)
        ctx.sub(0, b)
        ctx.neg(a)
        ctx.scale(a, ctx.p - 1)
        ctx.pow(a, -5)
        ctx.inv(a)
        ctx.frob(a, 1)
        ctx.frob(a, -1)


@pytest.mark.parametrize("ctx", SUBFIELD_FIELDS, ids=lambda c: f"p{c.p}h{c.h}")
def test_subfield_tables_walk_F_q2(ctx):
    box = ctx.subfield_encodings(2 * ctx.h)
    tabs = ctx._sub
    q2 = tabs.n
    n1 = q2 - 1
    # the powers of gamma are the nonzero elements of F_{q^2}, each once
    assert sorted(tabs.exp[:n1]) == list(box)[1:]
    assert tabs.exp[1] == ctx.subfield_generator(2 * ctx.h)
    assert tabs.exp[:n1] == tabs.exp[n1:2 * n1]
    assert not any(tabs.exp[2 * n1:])
    # idx is a bijection from F_{q^2} onto [0, q^2)
    assert sorted(tabs.lo[x % q2] + tabs.hi[x // q2] for x in box) == list(range(q2))


@pytest.mark.parametrize("p,h", [(3, 3), (2, 4)])
def test_fresh_ctx_can_start_with_subfield_encodings(p, h, monkeypatch):
    # the span behind subfield_encodings adds and scales, which builds the
    # tables; the subfield itself is the Frobenius kernel, with no solver
    def refuse(*args):
        raise AssertionError("a subfield was computed by a LinearizedSolver")

    monkeypatch.setattr(LinearizedSolver, "__init__", refuse)
    fresh = FieldCtx(p, h, _find_modulus(p, 4 * h))
    assert fresh.subfield_encodings(2 * h) == make_field(p, h).subfield_encodings(2 * h)
    assert fresh._sub is not None


def test_subfield_build_rejects_a_bad_generator(monkeypatch):
    sub, whole = make_field(3, 3), make_field(2, 3)
    slot, out = "a log slot taken before", "does not map"
    cases = [
        (sub, sub._pow_digits(sub.subfield_generator(6), 2), slot),        # order (q^2 - 1)/2
        (sub, sub.subfield_generator(12), out),                           # generates F_{q^4}^*
        (whole, whole._pow_digits(whole.subfield_generator(12), 3), slot),  # order (q^4 - 1)/3
        (whole, whole.subfield_generator(6), slot),                       # generates F_{q^2}^* only
    ]
    for ref, bad, reason in cases:
        monkeypatch.setattr(FieldCtx, "subfield_generator", lambda self, m: bad)
        ctx = FieldCtx(ref.p, ref.h, ref.modulus)
        with pytest.raises(CheckError, match=reason):
            ctx.mul(2, 3)
        _assert_nothing_installed(ctx)


def test_whole_field_views_hold_one_int_per_value():
    # each value above the small-int cache is one object shared by the
    # exp, log and Zech views, not one per slot
    for ctx in (make_field(2, 3), make_field(3, 2)):
        ctx.mul(2, 3)
        big = [v for view in (ctx._exp, ctx._log, ctx._zech) for v in view if v > 256]
        assert len(big) > 2 * ctx.order
        assert len({id(v) for v in big}) == len(set(big))


# ---------------------------------------------------------------- the count walk

def _digit_walk(ctx, c, e, m):
    """c gamma^(e j), j = 0, 1, ..., by one digit-kernel multiply per step:
    the oracle for FieldCtx.walk."""
    step = ctx._pow_digits(ctx.subfield_generator(m), e)
    v = c
    while True:
        yield v
        v = ctx._mul_digits(v, step)


# (p, h, m): whole-field tables at m = 2h and 4h, F_{q^2} tables at m = 2h
@pytest.mark.parametrize("p,h,m", [(2, 2, 4), (2, 2, 8), (3, 2, 4), (3, 2, 8),
                                   (2, 4, 8), (3, 3, 6), (5, 2, 4)])
def test_walk_matches_one_multiply_per_step(p, h, m, monkeypatch):
    ctx = make_field(p, h)
    n = p ** m - 1
    calls = []
    real = FieldCtx.mul
    monkeypatch.setattr(FieldCtx, "mul", lambda self, a, b: calls.append(a) or real(self, a, b))
    whole = ctx.order <= TABLE_ORDER_BOUND
    exp = ctx._logs([1])[1]
    inside = ctx.subfield_encodings(m)[-1]
    # generates F_{q^4}^*: outside F_{q^2}, so no F_{q^2} table covers it
    outside = ctx.subfield_generator(4 * h)
    for c in (1, inside, outside):
        for e in (0, 1, ctx.q + 1, n - 1, n, 3 * n):
            # gamma^e = 1 when p^m - 1 divides e
            want = [c] * n if e % n == 0 else list(islice(_digit_walk(ctx, c, e, m), n))
            calls.clear()
            assert list(ctx.mul_walk({e: c}, m, n)) == want, (c, e)
            # one mul per step; a constant term (e = 0) is no walk
            assert len(calls) == (0 if e == 0 else n), (c, e)
            calls.clear()
            idx = ctx.walk({e: c}, m, n)
            # the tables cover c unless it lies outside them
            assert (idx is None) == (not whole and c == outside), (c, e)
            if idx is not None:
                assert list(map(exp.__getitem__, idx)) == want, (c, e)
            assert calls == [], (c, e)


def test_walk_off_the_tables_multiplies_and_checks_its_end():
    # F_{q^4} at (2, 4) has no table: walk gives no index, and the multiply
    # walk makes one mul per step, with its closing check when exhausted
    ctx = make_field(2, 4)
    n = ctx.order - 1
    assert ctx.walk({5: 3}, 4 * ctx.h, n) is None
    assert ctx.walk({}, 4 * ctx.h, n) is None
    walk = ctx.mul_walk({5: 3}, 4 * ctx.h, n)
    assert list(islice(walk, 500)) == list(islice(_digit_walk(ctx, 3, 5, 4 * ctx.h), 500))
    assert sum(1 for _ in walk) == n - 500
    # one period of gamma^5, n / 5 steps, closes; of gamma^3 it does not
    assert sum(1 for _ in ctx.mul_walk({5: 3}, 4 * ctx.h, n // 5)) == n // 5
    with pytest.raises(CheckError, match="did not close"):
        sum(1 for _ in ctx.mul_walk({3: 3}, 4 * ctx.h, n // 5))
    assert list(ctx.mul_walk({}, 4 * ctx.h, 3)) == [0, 0, 0]


def _orders_by_walks(ctx, units):
    # every order by repeated multiplication: one walk a, a^2, ..., a^k = 1
    # per cyclic subgroup met, and a^j has order k / gcd(j, k)
    order = {}
    for a in units:
        if a not in order:
            walk = [a]
            while walk[-1] != 1:
                walk.append(ctx.mul(walk[-1], a))
            k = len(walk)
            for j, x in enumerate(walk, 1):
                order[x] = k // math.gcd(j, k)
    return order


@pytest.mark.parametrize("p,h", [(3, 1), (2, 2), (3, 2)])
def test_first_of_order_matches_bruteforce_orders(p, h):
    ctx = make_field(p, h)
    for m in (2 * h, 4 * h):
        n = p ** m - 1
        units = list(ctx.subfield_encodings(m))[1:]
        order = _orders_by_walks(ctx, units)
        assert len(order) == n
        # the test alone, one candidate at a time, on the tables and on
        # about 300 elements through the digit kernel
        for pw, some in ((ctx.pow, units), (ctx._pow_digits, units[::n // 300 + 1])):
            assert [a for a in some if _first_of_order(pw, [a], n) == a] == \
                [a for a in some if order[a] == n]
        # the search, for every order an element of F_{p^m}^* can have
        for d in (d for d in range(1, n + 1) if n % d == 0):
            first = next(a for a in units if order[a] == d)
            assert _first_of_order(ctx.pow, units, d) == first
        assert _first_of_order(ctx.pow, [1], n) is None


# ---------------------------------------------------------------- subfields

@pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"p{c.p}h{c.h}")
def test_subfield_sizes_and_closure(ctx):
    for m in (1, ctx.h, 2 * ctx.h, ctx.deg):
        els = ctx.subfield_encodings(m)
        assert len(els) == ctx.p ** m
        assert list(els[: ctx.p]) == list(range(ctx.p))
    q2 = ctx.subfield_encodings(2 * ctx.h)
    sample = list(q2)[:20]
    for a in sample:
        for b in sample:
            assert ctx.in_subfield(ctx.mul(a, b), 2 * ctx.h)
            assert ctx.in_subfield(ctx.add(a, b), 2 * ctx.h)


def test_prime_subfield_is_the_digit_constants():
    ctx = make_field(3, 2)
    assert list(ctx.subfield_encodings(1)) == [0, 1, 2]


def _degrees(ctx):
    return [m for m in range(1, ctx.deg + 1) if ctx.deg % m == 0]


# the ten fields verify.run_all builds, then two past the table bound
_FROB_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2),
                (2, 7), (5, 3)]


@pytest.mark.parametrize("p,h", _FROB_FIELDS)
def test_frobenius_rows_match_per_row_powers(p, h):
    # the rows come from shifts for k = 1, else from one power and
    # successive multiplies; the oracle raises each basis monomial X^i to
    # the p^k by itself
    ctx = make_field(p, h)
    for k in sorted({0, 1, h, 2 * h, ctx.deg - 1}):
        want = [ctx._pow_digits(p ** i, p ** k) for i in range(ctx.deg)]
        rows = ctx._build_frow(k)
        assert (rows if p == 2 else [ctx._undigits(r) for r in rows]) == want, k


@pytest.mark.parametrize("ctx", TABLE_FIELDS, ids=lambda c: f"p{c.p}h{c.h}")
def test_subfield_encodings_match_a_frobenius_scan(ctx):
    for m in _degrees(ctx):
        fixed = [a for a in range(ctx.order) if ctx._frob_digits(a, m) == a]
        assert list(ctx.subfield_encodings(m)) == fixed


@pytest.mark.parametrize("p,h", [(2, 4), (3, 3), (5, 2), (2, 5), (3, 4)])
def test_subfields_match_the_solver_of_x_pm_minus_x(p, h):
    # the solver of x^(p^m) - x = 0 over the power basis of the whole field
    ctx = make_field(p, h)
    assert ctx.subfield_basis(ctx.deg) == [p ** i for i in range(ctx.deg)]
    for m in _degrees(ctx):
        solver = LinearizedSolver(ctx, [ctx.neg(1)] + [0] * (m - 1) + [1], ctx.deg)
        assert ctx.subfield_basis(m) == solver.kernel_basis
        if m < ctx.deg:
            assert ctx.subfield_encodings(m) == solver.kernel()
    assert ctx.subfield_encodings(ctx.deg) == range(ctx.order)


def test_every_subfield_call_rejects_a_bad_degree():
    ctx = make_field(2, 3)
    for m in (0, -1, 5, 24):
        for call in (ctx.subfield_generator, ctx.subfield_basis, ctx.subfield_encodings,
                     lambda m: ctx.in_subfield(1, m)):
            with pytest.raises(ParameterError, match="no subfield of degree"):
                call(m)


# ---------------------------------------------------------------- omega

@pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"p{c.p}h{c.h}")
def test_omega_defining_property(ctx):
    w = find_omega(ctx)
    assert ctx.pow(w, ctx.q - 1) == ctx.neg(1)
    assert ctx.in_subfield(w, 2 * ctx.h)
    if ctx.p == 2:
        assert w == 1


def test_omega_uses_first_primitive_element():
    ctx = make_field(3, 1)
    units = ctx.subfield_encodings(2)[1:]
    order = _orders_by_walks(ctx, units)
    g = next(n for n in units if order[n] == ctx.q ** 2 - 1)
    assert find_omega(ctx) == ctx.pow(g, (ctx.q + 1) // 2)


@pytest.mark.parametrize("ctx", CTXS + SUBFIELD_FIELDS, ids=lambda c: f"p{c.p}h{c.h}")
def test_ascending_span_lists_each_subfield_in_order(ctx):
    # the lazy span of the echelon basis against the sorted F_p-span
    for m in (1, ctx.h, 2 * ctx.h, 4 * ctx.h):
        if ctx.p ** m <= 1 << 13:
            got = list(_ascending_span(ctx, ctx.subfield_basis(m)))
            assert got == list(ctx.subfield_encodings(m)), m


def test_ascending_span_refuses_a_basis_out_of_echelon_form():
    # permuted; nonzero at another top digit; a top digit 2; a zero vector:
    # each would list the span out of ascending order, or not all of it
    ctx = make_field(3, 2)
    b = ctx.subfield_basis(4)
    for bad in (b[::-1], b[1:] + b[:1], [b[0], ctx.add(b[1], b[0])] + b[2:],
                [b[0], ctx.scale(b[1], 2)] + b[2:], b[:3] + [0]):
        with pytest.raises(CheckError, match="echelon"):
            _ascending_span(ctx, bad)


# captured from the sorted listing of F_{q^2} that the lazy scan replaced
_FROZEN_OMEGA = {(3, 1): 75, (3, 2): 171, (5, 1): 25, (5, 2): 15650, (3, 3): 7371,
                 (7, 2): 726586, (3, 4): 466353, (5, 3): 60638093, (11, 2): 5144502,
                 (13, 2): 38615486}


@pytest.mark.parametrize("p,h", sorted(_FROZEN_OMEGA))
def test_omega_is_frozen(p, h):
    assert find_omega(make_field(p, h)) == _FROZEN_OMEGA[p, h]


# gamma = subfield_generator(m) for each table's m: 4h up to
# TABLE_ORDER_BOUND, 2h above it.  The tables' logs and every walk depend on it.
_FROZEN_GAMMA = {(2, 1): 2, (3, 1): 3, (2, 2): 3, (2, 3): 3, (3, 2): 38, (5, 2): 101,
                 (3, 3): 18, (2, 4): 61715, (2, 5): 573958, (3, 4): 1576521}


@pytest.mark.parametrize("p,h", sorted(_FROZEN_GAMMA))
def test_table_generator_is_frozen(p, h):
    ctx = make_field(p, h)
    m = ctx.deg if ctx.order <= TABLE_ORDER_BOUND else 2 * h
    assert ctx.subfield_generator(m) == _FROZEN_GAMMA[p, h]


# ---------------------------------------------------------------- linearized solves

@pytest.mark.parametrize("p,h,m", [(2, 2, 2), (2, 2, 4), (3, 1, 2), (3, 2, 2)])
def test_solver_against_exhaustive_substitution(p, h, m):
    ctx = make_field(p, h)
    dom = list(ctx.subfield_encodings(m))
    pool = list(ctx.subfield_encodings(2 * h))
    cases = [
        [0, 1],                      # y^p
        [1, 1],                      # y + y^p
        [pool[-1], 0, 1],            # c*y + y^(p^2)
        [pool[2], pool[3]],
        [0, 0],                      # zero map
    ]
    for coeffs in cases:
        solver = LinearizedSolver(ctx, coeffs, m)
        rhs_values = {eval_linearized(ctx, coeffs, y) for y in dom}
        rhs_values.add(pool[1])
        rhs_values.add(pool[-1])
        for rhs in rhs_values:
            expect = sorted(y for y in dom if eval_linearized(ctx, coeffs, y) == rhs)
            assert solver.solve(rhs) == expect
            assert solver.count(rhs) == len(expect)


def test_solver_fiber_sizes_are_kernel_or_zero():
    ctx = make_field(2, 3)
    solver = LinearizedSolver(ctx, [1, 1], 2 * ctx.h)  # y + y^2
    sizes = {solver.count(r) for r in ctx.subfield_encodings(2 * ctx.h)}
    assert sizes == {0, solver.kernel_size}
    assert solver.kernel_size == 2  # kernel of y^2 + y is F_2


def _count_model_maps(ctx):
    """The linearized part L of every plane model the point counts walk."""
    ms = [models.hermitian_model(ctx, v) for v in ("plus", "minus_omega", "plus")]
    ms.append(models.subcover_center(ctx))
    ms.append(models.subcover_noncenter(ctx) if ctx.p > 2 else models.fpp_char2(ctx))
    if ctx.h >= 2:
        ms.append(models.family_I_model(ctx, models.default_b(ctx, "family_I")))
    if ctx.p > 2:
        ms.append(models.family_II_model(ctx, models.default_b(ctx, "family_II")))
    return [split[0] for split in map(additive_split, (m.F for m in ms)) if split]


@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (5, 2)])
def test_count_matches_solve_on_F_q2(p, h):
    # solve's zero-row test after the replayed reduction is the oracle
    ctx = make_field(p, h)
    for vec in _count_model_maps(ctx):
        solver = LinearizedSolver(ctx, vec, 2 * h)
        sizes = set()
        for rhs in ctx.subfield_encodings(2 * h):
            n = solver.count(rhs)
            assert n == solver.kernel_size * bool(solver.solve(rhs))
            sizes.add(n)
        onto = solver.rank == 2 * h
        assert sizes == ({solver.kernel_size} if onto else {0, solver.kernel_size})
        assert len(solver._image) == p ** solver.rank


# whole-field tables at (2,3) and (3,2), where m = 4h is covered too
@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (5, 2), (2, 7), (5, 3)])
def test_log_images_match_the_value_images(p, h, monkeypatch):
    # L(basis[j]) summed by Zech reads (xor for p = 2) against mul, frob
    # and add, which every solver takes when _logs covers nothing
    ctx = make_field(p, h)
    ms = (2 * h, ctx.deg) if ctx.order <= TABLE_ORDER_BOUND else (2 * h,)
    cases = [(vec, m) for m in ms for vec in _count_model_maps(ctx) + [[0, 0]]]
    by_logs = [LinearizedSolver(ctx, vec, m) for vec, m in cases]
    monkeypatch.setattr(FieldCtx, "_logs", lambda self, elems: None)
    for a, (vec, m) in zip(by_logs, cases):
        b = LinearizedSolver(ctx, vec, m)
        assert (a.pivots, a._image_basis, a.kernel_basis) == (b.pivots, b._image_basis, b.kernel_basis)


@pytest.mark.parametrize("p,h", [(3, 2), (2, 7), (5, 3)])
def test_count_matches_solve_on_sampled_whole_field_rhs(p, h):
    ctx = make_field(p, h)
    rng = random.Random(100 * p + h)
    dom = ctx.subfield_encodings(2 * h)
    for vec in _count_model_maps(ctx):
        solver = LinearizedSolver(ctx, vec, 2 * h)
        rhs = [rng.randrange(ctx.order) for _ in range(40)]
        rhs += [rng.choice(dom) for _ in range(40)]
        rhs += [eval_linearized(ctx, vec, rng.choice(dom)) for _ in range(40)]
        hits = 0
        for r in rhs:
            n = solver.count(r)
            assert n == solver.kernel_size * bool(solver.solve(r))
            hits += n > 0
        assert hits >= 40


def test_zero_map_image_is_zero():
    ctx = make_field(3, 2)
    solver = LinearizedSolver(ctx, [0, 0], 2 * ctx.h)
    assert solver.rank == 0
    assert solver.count(0) == solver.kernel_size == ctx.p ** (2 * ctx.h)
    assert solver._image == frozenset({0})
    assert not any(solver.count(r) for r in range(1, ctx.order))


def test_full_rank_count_builds_no_image():
    # family I's L over the whole of F_{q^4} at (3, 2), a k = 2 scan, is onto
    ctx = make_field(3, 2)
    vec, _ = additive_split(models.family_I_model(ctx, models.default_b(ctx, "family_I")).F)
    solver = LinearizedSolver(ctx, vec, ctx.deg)
    assert solver.rank == ctx.deg
    for rhs in range(0, ctx.order, 7):
        assert solver.count(rhs) == solver.kernel_size
    assert solver._image is None
    for rhs in range(0, ctx.order, 97):
        assert len(solver.solve(rhs)) == solver.kernel_size


def test_span_rejects_oversized_or_dependent_generators(monkeypatch):
    ctx = make_field(2, 3)
    solver = LinearizedSolver(ctx, [1, 1], 2 * ctx.h)  # y + y^2
    b = solver._image_basis[0]
    monkeypatch.setattr(solver, "_image_basis", [b, b])
    with pytest.raises(CheckError, match="dependent"):
        solver.count(1)
    monkeypatch.setattr(solver, "_image_basis", [b] * 21)
    with pytest.raises(CheckError, match="too large"):
        solver.count(1)
    assert solver._image is None
    monkeypatch.setattr(solver, "kernel_basis", [1, 1])
    with pytest.raises(CheckError, match="dependent"):
        solver.kernel()
    monkeypatch.setattr(solver, "kernel_basis", [1] * 21)
    with pytest.raises(CheckError, match="too large"):
        solver.kernel()
    assert solver._kernel is None


def _add_span(ctx, gens):
    """The oracle for _span and _span_indicator: one ctx.add per element
    in nested loops, then the same sort and distinctness check."""
    span = [0]
    for b in gens:
        layer = list(span)
        for t in range(1, ctx.p):
            tb = ctx.scale(b, t)
            span.extend(ctx.add(x, tb) for x in layer)
    span.sort()
    if any(a == b for a, b in pairwise(span)):
        raise CheckError(f"span has fewer than {ctx.p ** len(gens)} elements: "
                         f"its generators are dependent")
    return span


def _random_in_F_q2(ctx, rng):
    x = 0
    for b in ctx.subfield_basis(2 * ctx.h):
        x = ctx._add_digits(x, ctx._mul_digits(b, rng.randrange(ctx.p)))
    return x


# fields that table F_{q^2} only, so an F_{q^4} generator leaves the tables
@pytest.mark.parametrize("p,h", [(3, 3), (5, 2), (3, 4), (2, 4)])
def test_log_span_matches_the_add_span(p, h, monkeypatch):
    ctx = make_field(p, h)
    assert ctx.order > TABLE_ORDER_BOUND
    rng = random.Random(10 * p + h)
    calls = []
    real = FieldCtx.add
    monkeypatch.setattr(FieldCtx, "add", lambda self, a, b: calls.append(a) or real(self, a, b))

    def span_and_adds(gens):
        calls.clear()
        try:
            return _span(ctx, gens), len(calls)
        except CheckError as err:
            return str(err), len(calls)

    def oracle(gens):
        try:
            return _add_span(ctx, gens)
        except CheckError as err:
            return str(err)

    # independent generators in F_{q^2}
    independent = 0
    while independent < 6:
        gens = [_random_in_F_q2(ctx, rng) for _ in range(rng.randrange(1, 2 * h + 1))]
        want = oracle(gens)
        if isinstance(want, str):
            continue
        independent += 1
        assert span_and_adds(gens)[0] == want
    # dependent sets: some x + t b is 0, and later layers add to it
    a, b, c = (_random_in_F_q2(ctx, rng) for _ in range(3))
    for gens in ([a, ctx.neg(a)], [a, b, ctx.add(a, ctx.scale(b, p - 1)), c], [a, a, b]):
        want = oracle(gens)
        assert "dependent" in want
        assert span_and_adds(gens)[0] == want
    # 0, or a generator outside F_{q^2}, which no table covers
    outside = ctx.subfield_generator(4 * h)
    for gens in ([0, a], [a, outside, b]):
        got, adds = span_and_adds(gens)
        assert got == oracle(gens) and adds > 0


@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (3, 3)])
def test_count_build_on_a_fresh_context_builds_the_tables_once(p, h, monkeypatch):
    # the count's build may be the first to read the tables: _logs builds
    # the record then, and reads it after that
    ref = make_field(p, h)
    elems = [1, ref.subfield_generator(2 * h), ref.order - 1]
    want = ref._logs(elems[:2])
    calls = []
    real = FieldCtx._build_tables
    monkeypatch.setattr(FieldCtx, "_build_tables", lambda self: calls.append(1) or real(self))
    fresh = FieldCtx(p, h, ref.modulus)
    got = fresh._logs(elems[:2])
    assert (got[0], got[3]) == (want[0], want[3])
    assert (fresh._logs(elems) is None) == (ref.order > TABLE_ORDER_BOUND)
    assert len(calls) == 1 and fresh._sub is not None


@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (2, 4), (3, 3), (5, 2)])
def test_span_indicator_marks_the_listed_span(p, h):
    # the count's log-domain span against _add_span's values, read through
    # exp: byte i is 1 exactly where exp[i] lies in the span
    ctx = make_field(p, h)
    exp = ctx._logs([1])[1]
    rng = random.Random(20 * p + h)
    a, b = _random_in_F_q2(ctx, rng), _random_in_F_q2(ctx, rng)
    for gens in ([1], [a, b], ctx.subfield_basis(h), ctx.subfield_basis(2 * h)[:3]):
        try:
            span = set(_add_span(ctx, gens))
        except CheckError:
            with pytest.raises(CheckError, match="dependent"):
                _span_indicator(ctx, gens)
            continue
        assert _span_indicator(ctx, gens) == bytes(x in span for x in exp)
    with pytest.raises(CheckError, match="dependent"):
        _span_indicator(ctx, [a, ctx.neg(a)])
    # F_{q^4}'s generator lies outside an F_{q^2} record
    outside = _span_indicator(ctx, [ctx.subfield_generator(4 * h)])
    assert (outside is None) == (ctx.order > TABLE_ORDER_BOUND)


# whole-field tables at (2,3) and (3,2), F_{q^2} records above the bound
@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (2, 4), (3, 3), (5, 2)])
def test_listed_spans_read_no_logs(p, h, monkeypatch):
    # one rule: besides the primitives only the count's build reads the
    # tables, through _logs, so every listed span keeps its values with
    # _logs refused once the tables exist
    ref = make_field(p, h)
    fresh = FieldCtx(p, h, ref.modulus)
    fresh.mul(2, 3)  # builds the tables
    solvers = [LinearizedSolver(ctx, vec, 2 * h)
               for ctx in (ref, fresh) for vec in _count_model_maps(ctx)]
    rng = random.Random(100 * p + h)
    rhs = [_random_in_F_q2(ref, rng) for _ in range(30)]

    def refuse(self, elems):
        raise AssertionError("a listed span read the logs")

    monkeypatch.setattr(FieldCtx, "_logs", refuse)
    for ctx in (ref, fresh):
        basis = ctx.subfield_basis(2 * h)
        assert _span(ctx, basis) == _add_span(ctx, basis)
        assert _span(ctx, basis[1:]) == _add_span(ctx, basis[1:])
    for m in sorted({1, h, 2 * h}):
        got = fresh.subfield_encodings(m)
        assert got == _add_span(fresh, fresh.subfield_basis(m)) == ref.subfield_encodings(m)
        assert len(got) == p ** m and all(fresh._frob_digits(x, m) == x for x in got)
    for solver in solvers:
        ctx = solver.ctx
        assert solver.kernel() == _add_span(ctx, solver.kernel_basis)
        image = frozenset(_add_span(ctx, solver._image_basis))
        for r in rhs:
            n = solver.count(r)
            assert n == solver.kernel_size * (r in image)
            assert n == solver.kernel_size * bool(solver.solve(r))
    if p > 2:
        assert find_omega(fresh) == _FROZEN_OMEGA[p, h]


def test_checkerror_is_distinct_from_parametererror():
    assert issubclass(ParameterError, ValueError)
    assert issubclass(CheckError, ArithmeticError)
    assert not issubclass(CheckError, ParameterError)
