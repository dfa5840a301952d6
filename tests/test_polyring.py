import pytest
from hypothesis import given, settings, strategies as st

from hermquot.gfield import CheckError, ParameterError, make_field
from hermquot.polyring import BiPoly, p_power_exp


CTX = make_field(2, 2)
CTX3 = make_field(3, 1)


def randpoly(ctx, data, max_deg=4, max_terms=6):
    n = data.draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        i = data.draw(st.integers(0, max_deg))
        j = data.draw(st.integers(0, max_deg))
        c = data.draw(st.integers(0, ctx.order - 1))
        if c:
            terms[(i, j)] = c
    return BiPoly.make(ctx, terms)


def points(ctx, limit=8):
    els = list(ctx.subfield_encodings(ctx.deg))[:limit]
    return [(x, y) for x in els for y in els]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_ring_ops_agree_with_pointwise_evaluation(data):
    ctx = data.draw(st.sampled_from([CTX, CTX3]))
    f = randpoly(ctx, data)
    g = randpoly(ctx, data)
    for x, y in points(ctx, 5):
        assert (f + g).evaluate(x, y) == ctx.add(f.evaluate(x, y), g.evaluate(x, y))
        assert (f - g).evaluate(x, y) == ctx.sub(f.evaluate(x, y), g.evaluate(x, y))
        assert (f * g).evaluate(x, y) == ctx.mul(f.evaluate(x, y), g.evaluate(x, y))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pow_matches_repeated_multiplication(data):
    ctx = data.draw(st.sampled_from([CTX, CTX3]))
    f = randpoly(ctx, data, max_deg=2, max_terms=3)
    acc = BiPoly.const(ctx, 1)
    for e in range(7):
        assert f ** e == acc
        acc = acc * f


def test_char_p_power_is_termwise():
    ctx = CTX3
    x, y = BiPoly.variables(ctx)
    f = x * x + y.cmul(7)
    cube = f ** 3
    assert cube.terms == {(6, 0): 1, (0, 3): ctx.pow(7, 3)}


def test_zero_never_stored():
    ctx = CTX
    x, _ = BiPoly.variables(ctx)
    assert (x + x).terms == {}
    assert (x - x).is_zero()
    assert BiPoly.make(ctx, {(1, 1): 0}).terms == {}


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_substitute_matches_evaluation(data):
    ctx = data.draw(st.sampled_from([CTX, CTX3]))
    f = randpoly(ctx, data, max_deg=3, max_terms=4)
    gx = randpoly(ctx, data, max_deg=2, max_terms=3)
    gy = randpoly(ctx, data, max_deg=2, max_terms=3)
    comp = f.substitute(gx, gy)
    for x, y in points(ctx, 4):
        assert comp.evaluate(x, y) == f.evaluate(gx.evaluate(x, y), gy.evaluate(x, y))


def test_partial_deriv_product_rule():
    ctx = CTX3
    x, y = BiPoly.variables(ctx)
    f = x ** 2 * y + x.cmul(5)
    g = y ** 2 + x
    for k in (0, 1):
        lhs = (f * g).partial_deriv(k)
        rhs = f.partial_deriv(k) * g + f * g.partial_deriv(k)
        assert lhs == rhs


def test_partial_deriv_kills_p_powers():
    ctx = CTX
    x, y = BiPoly.variables(ctx)
    f = x ** 4 + y ** 2 + x * y
    assert f.partial_deriv(0) == y
    assert f.partial_deriv(1) == x


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_exact_div_recovers_factor(data):
    ctx = data.draw(st.sampled_from([CTX, CTX3]))
    a = randpoly(ctx, data, max_deg=5, max_terms=4)
    b = randpoly(ctx, data, max_deg=4, max_terms=3)
    a = BiPoly(ctx, {(i, 0): c for (i, j), c in a.terms.items()})
    b = BiPoly(ctx, {(i, 0): c for (i, j), c in b.terms.items()})
    if b.is_zero():
        return
    assert (a * b).exact_div(b, 0) == a


def test_exact_div_rejects_remainder_and_mixed_variables():
    ctx = CTX
    x, y = BiPoly.variables(ctx)
    with pytest.raises(CheckError):
        (x ** 2 + 1).exact_div(x ** 3 + x, 0)
    with pytest.raises(CheckError):
        (x * y).exact_div(x, 0)
    with pytest.raises(ZeroDivisionError):
        x.exact_div(BiPoly.zero(ctx), 0)


def test_exact_div_along_second_variable():
    ctx = CTX3
    _, y = BiPoly.variables(ctx)
    f = (y ** 3 + y.cmul(4)) * (y ** 2 + 2)
    assert f.exact_div(y ** 2 + 2, 1) == y ** 3 + y.cmul(4)


def test_pseudo_rem_divisibility():
    ctx = CTX3
    x, y = BiPoly.variables(ctx)
    g = y ** 2 + x ** 3 + x.cmul(2)
    q = y + x ** 2
    f = g * q
    assert f.pseudo_rem(g, 1).is_zero()
    assert not (f + 1).pseudo_rem(g, 1).is_zero()
    # along x as well
    assert (g * (x + 1)).pseudo_rem(g, 0).is_zero()


def test_pseudo_rem_against_plain_remainder_when_monic():
    # for g monic in y the pseudo-remainder is an honest remainder scaled
    # by a power of 1, so a hand division must agree
    ctx = CTX
    x, y = BiPoly.variables(ctx)
    g = y ** 2 + x
    f = y ** 5 + x * y + 1
    # y^5 = y*(y^2)^2 -> y*x^2 mod g, so f = x^2*y + x*y + 1 mod g
    assert f.pseudo_rem(g, 1) == x ** 2 * y + x * y + 1


def test_coerce_rules():
    ctx = CTX3
    x, y = BiPoly.variables(ctx)
    f = x + 2          # prime-field constant is fine
    assert f.coeff(0, 0) == 2
    assert x.cmul(11).coeff(1, 0) == 11
    with pytest.raises(TypeError):
        x + 5          # bare encodings are not accepted
    with pytest.raises(TypeError):
        x * 11
    other_x, _ = BiPoly.variables(make_field(2, 1))
    with pytest.raises(ParameterError):
        x + other_x


def test_degrees_and_coeff_access():
    ctx = CTX
    x, y = BiPoly.variables(ctx)
    f = x ** 3 * y + y ** 4 + 1
    assert f.degree(0) == 3
    assert f.degree(1) == 4
    assert f.total_degree() == 4
    assert BiPoly.zero(ctx).total_degree() == -1
    assert f.coeff(3, 1) == 1
    assert f.coeff(2, 2) == 0


def test_to_text_is_graded_descending():
    ctx = CTX3
    x, y = BiPoly.variables(ctx)
    f = x ** 2 + y ** 3 + x * y + 1 + x.cmul(5)
    assert f.to_text() == "Y^3 + X^2 + X*Y + 5*X + 1"
    assert BiPoly.zero(ctx).to_text() == "0"
    g = BiPoly(ctx, {(1, 0): 1, (0, 1): 2}, names=("U", "V"))
    assert g.to_text() == "U + 2*V"


def test_term_key_is_canonical():
    ctx = CTX
    x, y = BiPoly.variables(ctx)
    f = x + y
    g = y + x
    assert f == g


def test_equality_needs_one_context_and_the_same_terms():
    x, y = BiPoly.variables(CTX)
    assert x != y and x != BiPoly.variables(CTX3)[0]
    # an int is no polynomial: zero is asked of is_zero
    assert BiPoly.zero(CTX) != 0 and BiPoly.zero(CTX).is_zero()


def test_p_power_exp():
    assert [p_power_exp(n, 3) for n in (1, 3, 9, 81)] == [0, 1, 2, 4]
    assert p_power_exp(6, 3) is None and p_power_exp(8, 2) == 3
    # 0 is divisible by every power of p; it must end, not loop
    assert p_power_exp(0, 3) is None and p_power_exp(-9, 3) is None
