"""Sparse bivariate polynomials over one field context.

Coefficients are int encodings from gfield, the package's one element
type.  Terms map (i, j) -> coefficient where i is the X-degree and j the
Y-degree; zeros are never stored.

Exponentiation uses the characteristic-p shortcut (f^p is termwise), so
the q-th powers that dominate the curve formulas stay cheap.  exact_div
and pseudo_rem are the two division routines the rest of the package
leans on: exact_div drives the coefficient recursions, pseudo_rem is the
membership test behind every automorphism check.
"""

from __future__ import annotations

from .gfield import CheckError, FieldCtx, ParameterError, _as_encoding


def p_power_exp(n: int, p: int):
    """e with n = p^e, or None when n is not a power of p."""
    if n < 1:
        return None
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e if n == 1 else None


def additive_split(F: "BiPoly"):
    """(L, A) with F = A(X) + L(Y) and L additive, or None.

    L is the coefficient vector of sum_e L[e] Y^(p^e) and A the pure-X part
    as a BiPoly.  Usable when every Y-bearing term is c * Y^(p^e) with c
    free of X; the fiber over x is then L(y) = -A(x).
    """
    ctx = F.ctx
    coeffs: dict[int, int] = {}
    xterms: dict[tuple[int, int], int] = {}
    for (i, j), c in F.terms.items():
        if j == 0:
            xterms[(i, 0)] = c
            continue
        e = p_power_exp(j, ctx.p)
        if i != 0 or e is None:
            return None
        coeffs[e] = c
    if not coeffs:
        return None
    vec = [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]
    return vec, BiPoly(ctx, xterms, F.names)


class BiPoly:
    """Polynomial in two variables with dict-of-terms storage."""

    __slots__ = ("ctx", "terms", "names")

    def __init__(self, ctx: FieldCtx, terms=None, names=("X", "Y")):
        self.ctx = ctx
        self.terms = dict(terms) if terms else {}
        self.names = tuple(names)

    # construction

    @classmethod
    def zero(cls, ctx, names=("X", "Y")):
        return cls(ctx, {}, names)

    @classmethod
    def const(cls, ctx, c, names=("X", "Y")):
        n = _as_encoding(ctx, c)
        return cls(ctx, {(0, 0): n} if n else {}, names)

    @classmethod
    def variables(cls, ctx, names=("X", "Y")):
        return (cls(ctx, {(1, 0): 1}, names), cls(ctx, {(0, 1): 1}, names))

    @classmethod
    def make(cls, ctx, items, names=("X", "Y")):
        """Sanitizing constructor: validates encodings, drops zeros."""
        terms = {}
        for (i, j), c in dict(items).items():
            if i < 0 or j < 0:
                raise ParameterError(f"negative exponent in term ({i}, {j})")
            n = _as_encoding(ctx, c)
            if n:
                terms[(i, j)] = n
        return cls(ctx, terms, names)

    def _new(self, terms):
        return BiPoly(self.ctx, terms, self.names)

    # ring structure

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        t = dict(self.terms)
        for k, v in other.terms.items():
            s = ctx.add(t.get(k, 0), v)
            if s:
                t[k] = s
            elif k in t:
                del t[k]
        return self._new(t)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        if self.ctx.p == 2:
            return self
        ctx = self.ctx
        return self._new({k: ctx.neg(v) for k, v in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                s = ctx.add(out.get(k, 0), ctx.mul(c1, c2))
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return self._new(out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            if other.ctx is not self.ctx:
                raise ParameterError("polynomials from different field contexts")
            return other
        # a prime-field constant; other encodings must come via const() or cmul()
        if isinstance(other, int) and 0 <= other < self.ctx.p:
            return BiPoly.const(self.ctx, other, self.names)
        return None

    def cmul(self, c) -> "BiPoly":
        """Multiply by the scalar with encoding c."""
        n = _as_encoding(self.ctx, c)
        if n == 0:
            return self._new({})
        if n == 1:
            return self
        ctx = self.ctx
        return self._new({k: ctx.mul(v, n) for k, v in self.terms.items()})

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ParameterError("negative polynomial power")
        if e == 0:
            return self._new({(0, 0): 1})
        p = self.ctx.p
        if e % p == 0:
            # char p: raising to p is termwise
            base = self ** (e // p)
            ctx = self.ctx
            return self._new({(i * p, j * p): ctx.pow(c, p)
                              for (i, j), c in base.terms.items()})
        if e == 1:
            return self
        return self * (self ** (e - 1))

    # structure probes

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return other.ctx is self.ctx and other.terms == self.terms
        return NotImplemented

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, i: int, j: int) -> int:
        return self.terms.get((i, j), 0)

    def degree(self, k: int) -> int:
        """Degree in variable k; -1 for the zero polynomial."""
        return max((key[k] for key in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    # evaluation and substitution

    def evaluate(self, x, y) -> int:
        """Value at encodings x, y; returns an encoding."""
        ctx = self.ctx
        xe = _as_encoding(ctx, x)
        ye = _as_encoding(ctx, y)
        px = {i: ctx.pow(xe, i) for i in {i for i, _ in self.terms}}
        py = {j: ctx.pow(ye, j) for j in {j for _, j in self.terms}}
        acc = 0
        for (i, j), c in self.terms.items():
            acc = ctx.add(acc, ctx.mul(c, ctx.mul(px[i], py[j])))
        return acc

    def substitute(self, fx: "BiPoly", fy: "BiPoly") -> "BiPoly":
        """Composite with X = fx, Y = fy."""
        px = {i: fx ** i for i in {i for i, _ in self.terms}}
        py = {j: fy ** j for j in {j for _, j in self.terms}}
        acc = self._new({})
        for (i, j), c in self.terms.items():
            acc = acc + (px[i] * py[j]).cmul(c)
        return acc

    def partial_deriv(self, k: int) -> "BiPoly":
        ctx = self.ctx
        out = {}
        for (i, j), c in self.terms.items():
            e = i if k == 0 else j
            s = e % ctx.p
            if s:
                key = (i - 1, j) if k == 0 else (i, j - 1)
                out[key] = ctx.scale(c, s)
        return self._new(out)

    # division

    def exact_div(self, d: "BiPoly", k: int = 0) -> "BiPoly":
        """Exact division along variable k; both operands univariate in k.

        Raises CheckError when a remainder survives, which is how the
        coefficient recursions detect a broken invariant.
        """
        other = 1 - k
        if any(key[other] for key in self.terms) or any(key[other] for key in d.terms):
            raise CheckError("exact_div needs operands univariate in the same variable")
        if not d.terms:
            raise ZeroDivisionError("exact division by zero")
        ctx = self.ctx
        den = {key[k]: c for key, c in d.terms.items()}
        num = {key[k]: c for key, c in self.terms.items()}
        dd = max(den)
        lead_inv = ctx.inv(den[dd])
        out = {}
        while num:
            dn = max(num)
            if dn < dd:
                raise CheckError("exact division left a remainder")
            s = ctx.mul(num[dn], lead_inv)
            out[dn - dd] = s
            for e, c in den.items():
                key = dn - dd + e
                v = ctx.sub(num.get(key, 0), ctx.mul(s, c))
                if v:
                    num[key] = v
                elif key in num:
                    del num[key]
        return self._new({((e, 0) if k == 0 else (0, e)): c for e, c in out.items()})

    def _lead_coeff(self, k: int) -> "BiPoly":
        d = self.degree(k)
        out = {}
        for key, c in self.terms.items():
            if key[k] == d:
                out[(key[0], 0) if k == 1 else (0, key[1])] = c
        return self._new(out)

    def _shift(self, k: int, e: int) -> "BiPoly":
        return self._new({(i + e, j) if k == 0 else (i, j + e): c
                          for (i, j), c in self.terms.items()})

    def pseudo_rem(self, g: "BiPoly", k: int = 1) -> "BiPoly":
        """Classical pseudo-remainder of self by g along variable k.

        Treats coefficients as polynomials in the other variable; the
        remainder is zero exactly when g divides lc(g)^t * self, which
        is the divisibility notion the automorphism test relies on.
        """
        if not g.terms:
            raise ZeroDivisionError("pseudo-remainder by zero")
        dg = g.degree(k)
        lg = g._lead_coeff(k)
        f = self
        while f.terms and f.degree(k) >= dg:
            df = f.degree(k)
            lf = f._lead_coeff(k)
            f = f * lg - g._shift(k, df - dg) * lf
        return f

    # formatting

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        nx, ny = self.names
        parts = []
        for (i, j) in sorted(self.terms, key=lambda t: (-(t[0] + t[1]), -t[0])):
            c = self.terms[(i, j)]
            frag = []
            if c != 1 or (i == 0 and j == 0):
                frag.append(str(c))
            if i:
                frag.append(nx if i == 1 else f"{nx}^{i}")
            if j:
                frag.append(ny if j == 1 else f"{ny}^{j}")
            parts.append("*".join(frag))
        return " + ".join(parts)

    def __repr__(self):
        return f"BiPoly({self.to_text()})"
