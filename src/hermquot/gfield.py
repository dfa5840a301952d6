"""Arithmetic for the field tower F_p < F_q < F_{q^2} < F_{q^4}.

All four fields live inside one ambient field F_{p^(4h)}, q = p^h.  An
element is a plain int: its base-p digits, least significant first, are
the coefficients of the residue class in the power basis of the modulus.
The modulus is the first monic irreducible of degree 4h over F_p in
ascending integer encoding, so a context is pinned down by (p, h) alone
and encodings are stable across runs and machines.

Subfields are cut out by Frobenius, F_{p^m} = {x : x^(p^m) = x}; there
is no embedding bookkeeping anywhere downstream.

Hot loops work on raw encodings through FieldCtx methods.  Felt is a
thin wrapper for formula-heavy code where operator syntax reads better.

FieldCtx has two kernels behind the same methods and the same encodings.
Fields of order at most TABLE_ORDER_BOUND = 2^13 use log/antilog tables,
with Zech logarithms for addition when p is odd (Lidl-Niederreiter,
Finite Fields, ch. 10): in the suite that is (2,1), (3,1), (2,2), (2,3)
and (3,2).  Every larger field uses digit vectors, or carry-less
arithmetic when p = 2.  The bound sits where the work is: one acceptance
run makes about 3.4 M mul and 1.9 M add calls at (2,3) and 2.3 M and
1.5 M at (3,2), and only 0.2 M mul calls at the next busiest field
(2,5).  Tables at order 3^12 would take tens of MB and seconds to
build, for some 20 k calls.  The tables are built on the first
arithmetic call (about 0.1 s at 3^8), not in make_field, and the digit
kernel stays as the large-field path and as the test reference.
"""

from __future__ import annotations

import functools
import math

DEFAULT_SIZE_BOUND = 1 << 30
# largest ambient order served by the table kernel (see FieldCtx)
TABLE_ORDER_BOUND = 1 << 13


class ParameterError(ValueError):
    """Rejected input parameters.  The CLI maps this to exit code 2."""


class CheckError(ArithmeticError):
    """A verification or internal consistency check failed (exit code 1)."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division; n stays below 2^30 here."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _int_digits(n: int, p: int) -> tuple[int, ...]:
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return tuple(out)


# Dense univariate polynomials over F_p as little-endian tuples.  Only
# used to hunt for the modulus; field arithmetic proper never comes here.

def _pp_trim(f):
    k = len(f)
    while k and f[k - 1] == 0:
        k -= 1
    return tuple(f[:k])


def _pp_rem(f, g, p):
    f = [c % p for c in f]
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c:
            s = (c * inv_lead) % p
            for j in range(dg + 1):
                f[i - dg + j] = (f[i - dg + j] - s * g[j]) % p
    return _pp_trim(f[:dg])


def _pp_mulmod(f, g, m, p):
    prod = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] += a * b
    return _pp_rem([c % p for c in prod], m, p)


def _pp_powmod(f, e, m, p):
    r = (1,)
    base = _pp_rem(f, m, p)
    while e:
        if e & 1:
            r = _pp_mulmod(r, base, m, p)
        e >>= 1
        if e:
            base = _pp_mulmod(base, base, m, p)
    return r


def _pp_sub(f, g, p):
    n = max(len(f), len(g))
    f = tuple(f) + (0,) * (n - len(f))
    g = tuple(g) + (0,) * (n - len(g))
    return _pp_trim(tuple((a - b) % p for a, b in zip(f, g)))


def _pp_gcd(f, g, p):
    while g:
        f, g = g, _pp_rem(f, g, p)
    return f


def _pp_is_irreducible(f, p):
    """Rabin test for a monic polynomial over F_p."""
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    x = (0, 1)
    if _pp_powmod(x, p ** n, f, p) != _pp_rem(x, f, p):
        return False
    for ell, _ in _factorize(n):
        h = _pp_sub(_pp_powmod(x, p ** (n // ell), f, p), x, p)
        if len(_pp_gcd(f, h, p)) - 1 != 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _find_modulus(p: int, deg: int) -> int:
    """First monic irreducible of degree deg over F_p by integer encoding."""
    base = p ** deg
    for n in range(base + 1, 2 * base):
        if n % p == 0:
            continue  # divisible by X
        if _pp_is_irreducible(_int_digits(n, p), p):
            return n
    raise CheckError(f"no irreducible of degree {deg} over F_{p}")


def _rref(mat: list[list[int]], p: int):
    """Row-reduce mat over F_p in place.

    Returns (pivots, ops): pivots as (row, col) pairs in order, ops as a
    replayable log of the row operations, so the same elimination can be
    applied to many right-hand sides without redoing the pivot search.
    """
    ops = []
    pivots = []
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
            ops.append(("swap", r, pr))
        if mat[r][c] != 1:
            f = pow(mat[r][c], -1, p)
            mat[r] = [(x * f) % p for x in mat[r]]
            ops.append(("scale", r, f))
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = (-mat[i][c]) % p
                row_r = mat[r]
                mat[i] = [(x + f * y) % p for x, y in zip(mat[i], row_r)]
                ops.append(("axpy", i, r, f))
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots, ops


def _replay(v: list[int], ops, p: int) -> None:
    for op in ops:
        tag = op[0]
        if tag == "axpy":
            _, i, j, f = op
            v[i] = (v[i] + f * v[j]) % p
        elif tag == "scale":
            _, i, f = op
            v[i] = (v[i] * f) % p
        else:
            _, i, j = op
            v[i], v[j] = v[j], v[i]


class FieldCtx:
    """Arithmetic context for the ambient field F_{p^(4h)}.

    Methods take and return raw int encodings.  Two kernels sit behind
    them and give the same encodings:

    * the table kernel, when the order is at most TABLE_ORDER_BOUND: exp
      and log tables over a primitive element g, and for odd p a Zech
      table zech[d] = log(1 + g^d), so that every method is index
      arithmetic on logs.  The tables are built on the first arithmetic
      call, never in make_field;
    * the digit kernel for every larger field: base-p digit vectors
      reduced by the modulus, carry-less shift-and-xor when p = 2.  Its
      private methods (_mul_digits, _add_digits, ...) are also the
      reference the tests hold the table kernel to.

    Other caches (reduction rows, Frobenius rows, subfield enumerations,
    norm preimages) are built lazily as well.
    """

    __slots__ = ("p", "h", "q", "deg", "order", "modulus", "_tabled",
                 "_exp", "_log", "_zech", "_red", "_frows", "_sub", "_sbasis",
                 "_ofac", "_omega", "_norm")

    def __init__(self, p: int, h: int, modulus: int):
        self.p = p
        self.h = h
        self.q = p ** h
        self.deg = 4 * h
        self.order = p ** self.deg
        self.modulus = modulus
        self._tabled = self.order <= TABLE_ORDER_BOUND
        self._exp = None
        self._log = None
        self._zech = None
        self._red = None
        self._frows = {}
        self._sub = {}
        self._sbasis = {}
        self._ofac = None
        self._omega = None
        self._norm = None

    def __repr__(self):
        return f"FieldCtx(p={self.p}, h={self.h}, modulus={self.modulus})"

    # digit helpers

    def _digits(self, a: int) -> list[int]:
        p = self.p
        out = [0] * self.deg
        i = 0
        while a:
            a, out[i] = divmod(a, p)
            i += 1
        return out

    def _undigits(self, ds) -> int:
        n = 0
        for d in reversed(ds):
            n = n * self.p + d
        return n

    # ring operations on encodings.  Each method answers from the tables
    # once they exist; the first call on a small field builds them, and a
    # field above TABLE_ORDER_BOUND goes to the digit kernel.

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        log = self._log
        if log is None:
            if not self._tabled:
                return self._add_digits(a, b)
            log = self._build_tables()
        if a == 0:
            return b
        if b == 0:
            return a
        la = log[a]
        # a negative index wraps, so this is zech[(log b - log a) mod (order-1)]
        return self._exp[la + self._zech[log[b] - la]]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        log = self._log
        if log is None:
            if not self._tabled:
                return self._sub_digits(a, b)
            log = self._build_tables()
        if b == 0:
            return a
        n1 = self.order - 1
        lb = (log[b] + n1 // 2) % n1  # log of -b
        if a == 0:
            return self._exp[lb]
        la = log[a]
        return self._exp[la + self._zech[lb - la]]

    def neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        log = self._log
        if log is None:
            if not self._tabled:
                return self._neg_digits(a)
            log = self._build_tables()
        return self._exp[log[a] + (self.order - 1) // 2]

    def scale(self, a: int, s: int) -> int:
        """a times a prime-field constant s, 0 <= s < p."""
        if self.p == 2:
            return a if s else 0
        log = self._log
        if log is None:
            if not self._tabled:
                return self._scale_digits(a, s)
            log = self._build_tables()
        if a == 0 or s == 0:
            return 0
        return self._exp[log[a] + log[s]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log = self._log
        if log is None:
            if not self._tabled:
                return self._mul_digits(a, b)
            log = self._build_tables()
        return self._exp[log[a] + log[b]]

    def pow(self, a: int, e: int) -> int:
        log = self._log
        if log is None:
            if not self._tabled:
                return self._pow_digits(a, e)
            log = self._build_tables()
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("field inverse of 0")
            return 0 if e else 1
        return self._exp[log[a] * e % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of 0")
        log = self._log
        if log is None:
            if not self._tabled:
                return self._inv_digits(a)
            log = self._build_tables()
        return self._exp[self.order - 1 - log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def frob(self, a: int, k: int = 1) -> int:
        """k-fold p-power Frobenius x -> x^(p^k)."""
        k %= self.deg
        if k == 0 or a < self.p:
            return a
        log = self._log
        if log is None:
            if not self._tabled:
                return self._frob_digits(a, k)
            log = self._build_tables()
        return self._exp[log[a] * self.p ** k % (self.order - 1)]

    # the table kernel

    def _build_tables(self) -> list:
        """Fill exp, log and, for odd p, zech with the digit kernel alone.

        g is the first primitive element >= 2.  exp holds g^0 .. g^(order-2)
        twice, so a sum of two logs needs no reduction; for odd p it ends
        with order-1 zeros, where the sentinel zech entry for 1 + g^d = 0
        points.  Returns the log table, whose entry at 0 stays None.
        """
        p, n1 = self.p, self.order - 1
        if self._ofac is None:
            self._ofac = _factorize(n1)
        g = next((g for g in range(2, self.order)
                  if all(self._pow_digits(g, n1 // r) != 1 for r, _ in self._ofac)),
                 None)
        if g is None:
            raise CheckError("no primitive element; the modulus is not irreducible")
        cycle = [1]
        for _ in range(n1 - 1):
            cycle.append(self._mul_digits(cycle[-1], g))
        if self._mul_digits(cycle[-1], g) != 1:
            raise CheckError(f"g = {g} does not satisfy g^(order-1) = 1")
        # the powers must be the nonzero elements, each once; the logs then
        # reuse exp's int objects, which cuts the tables' memory by about 30%
        ints = [0] + sorted(cycle)
        if ints != list(range(self.order)):
            raise CheckError(f"powers of g = {g} repeat; log table not onto")
        log = [None] * self.order
        for i, x in enumerate(cycle):
            log[x] = ints[i]
        if p == 2:
            self._exp = cycle + cycle
        else:
            if cycle[n1 // 2] != p - 1:
                raise CheckError("g^((order-1)/2) is not -1")
            # 1 + x only changes the lowest base-p digit of x
            self._zech = [log[x + 1] if x % p != p - 1
                          else log[x - p + 1] if x != p - 1 else 2 * n1
                          for x in cycle]
            self._exp = cycle + cycle + [0] * n1
        self._log = log
        return log

    # the digit kernel: every field above TABLE_ORDER_BOUND, and the
    # reference for the table kernel

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        return self._undigits([(x + y) % p
                               for x, y in zip(self._digits(a), self._digits(b))])

    def _sub_digits(self, a: int, b: int) -> int:
        p = self.p
        return self._undigits([(x - y) % p
                               for x, y in zip(self._digits(a), self._digits(b))])

    def _neg_digits(self, a: int) -> int:
        p = self.p
        return self._undigits([(-x) % p for x in self._digits(a)])

    def _scale_digits(self, a: int, s: int) -> int:
        p = self.p
        return self._undigits([(x * s) % p for x in self._digits(a)])

    def _mul_digits(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.p == 2:
            # carryless shift-and-add; the modulus mask clears the top bit
            m = self.modulus
            top = 1 << self.deg
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= m
            return r
        p, deg = self.p, self.deg
        if self._red is None:
            self._build_red()
        prod = [0] * (2 * deg - 1)
        db = self._digits(b)
        for i, x in enumerate(self._digits(a)):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] += x * y
        red = self._red
        for t in range(2 * deg - 2, deg - 1, -1):
            c = prod[t] % p
            if c:
                row = red[t - deg]
                for u in range(deg):
                    prod[u] += c * row[u]
        return self._undigits([prod[u] % p for u in range(deg)])

    def _build_red(self):
        # row t holds the digits of X^(deg+t) reduced by the modulus
        p, deg = self.p, self.deg
        low = self._digits(self.modulus - p ** deg)
        rows = [[(-c) % p for c in low]]
        for _ in range(deg - 2):
            prev = rows[-1]
            nxt = [0] + prev[:-1]
            carry = prev[-1]
            if carry:
                first = rows[0]
                for u in range(deg):
                    nxt[u] = (nxt[u] + carry * first[u]) % p
            rows.append(nxt)
        self._red = rows

    def _pow_digits(self, a: int, e: int) -> int:
        if e < 0:
            return self._pow_digits(self._inv_digits(a), -e)
        r, base = 1, a
        while e:
            if e & 1:
                r = self._mul_digits(r, base)
            e >>= 1
            if e:
                base = self._mul_digits(base, base)
        return r

    def _inv_digits(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of 0")
        return self._pow_digits(a, self.order - 2)

    def _frob_digits(self, a: int, k: int) -> int:
        k %= self.deg
        if k == 0:
            return a
        rows = self._frows.get(k)
        if rows is None:
            rows = self._build_frow(k)
        if self.p == 2:
            r, i = 0, 0
            while a:
                if a & 1:
                    r ^= rows[i]
                a >>= 1
                i += 1
            return r
        p = self.p
        acc = [0] * self.deg
        for i, d in enumerate(self._digits(a)):
            if d:
                row = rows[i]
                for u in range(self.deg):
                    acc[u] += d * row[u]
        return self._undigits([x % p for x in acc])

    def _build_frow(self, k: int):
        # Frobenius is F_p-linear: rows[i] = image of the basis monomial X^i
        pk = self.p ** k
        imgs = [self._pow_digits(self.p ** i, pk) for i in range(self.deg)]
        rows = imgs if self.p == 2 else [self._digits(x) for x in imgs]
        self._frows[k] = rows
        return rows

    # subfields

    def in_subfield(self, a: int, m: int) -> bool:
        if m < 1 or self.deg % m:
            raise ParameterError(f"no subfield of degree {m} inside degree {self.deg}")
        return self.frob(a, m) == a

    def subfield_basis(self, m: int) -> list[int]:
        """F_p-basis of F_{p^m} inside the ambient field."""
        if m < 1 or self.deg % m:
            raise ParameterError(f"no subfield of degree {m} inside degree {self.deg}")
        got = self._sbasis.get(m)
        if got is not None:
            return got
        if m == self.deg:
            basis = [self.p ** i for i in range(self.deg)]
        else:
            # kernel of the F_p-linear map x -> x^(p^m) - x
            p = self.p
            cols = [self._digits(self.sub(self.frob(p ** j, m), p ** j))
                    for j in range(self.deg)]
            mat = [[cols[j][r] for j in range(self.deg)] for r in range(self.deg)]
            pivots, _ = _rref(mat, p)
            pivcols = {c for _, c in pivots}
            basis = []
            for f in range(self.deg):
                if f in pivcols:
                    continue
                vec = [0] * self.deg
                vec[f] = 1
                for r, c in pivots:
                    vec[c] = (-mat[r][f]) % p
                enc = 0
                for j, t in enumerate(vec):
                    if t:
                        enc = self.add(enc, self.scale(p ** j, t))
                basis.append(enc)
            if len(basis) != m:
                raise CheckError("subfield dimension mismatch")
        self._sbasis[m] = basis
        return basis

    def subfield_encodings(self, m: int):
        """All encodings of F_{p^m}, ascending.  Returns range() for m = 4h."""
        got = self._sub.get(m)
        if got is not None:
            return got
        if m == self.deg:
            out = range(self.order)
        else:
            span = [0]
            for b in self.subfield_basis(m):
                layer = list(span)
                for t in range(1, self.p):
                    tb = self.scale(b, t)
                    span.extend(self.add(x, tb) for x in layer)
            if len(span) != self.p ** m:
                raise CheckError("subfield enumeration mismatch")
            out = sorted(span)
        self._sub[m] = out
        return out

    def mult_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("multiplicative order of 0")
        if self._ofac is None:
            self._ofac = _factorize(self.order - 1)
        t = self.order - 1
        for prime, _ in self._ofac:
            while t % prime == 0 and self.pow(a, t // prime) == 1:
                t //= prime
        return t


class Felt:
    """A field element bound to its context.

    Mixed arithmetic accepts a plain int in [0, p), which embeds as a
    prime-field constant; anything else is rejected so that encodings
    never sneak into formulas unlabelled.
    """

    __slots__ = ("ctx", "n")

    def __init__(self, ctx: FieldCtx, n: int):
        if not isinstance(n, int) or not 0 <= n < ctx.order:
            raise ParameterError(f"encoding {n!r} outside [0, {ctx.order})")
        self.ctx = ctx
        self.n = n

    def _co(self, other):
        if isinstance(other, Felt):
            if other.ctx is not self.ctx:
                raise ParameterError("elements from different field contexts")
            return other.n
        if isinstance(other, int) and 0 <= other < self.ctx.p:
            return other
        return None

    def __add__(self, other):
        m = self._co(other)
        if m is None:
            return NotImplemented
        return Felt(self.ctx, self.ctx.add(self.n, m))

    __radd__ = __add__

    def __sub__(self, other):
        m = self._co(other)
        if m is None:
            return NotImplemented
        return Felt(self.ctx, self.ctx.sub(self.n, m))

    def __rsub__(self, other):
        m = self._co(other)
        if m is None:
            return NotImplemented
        return Felt(self.ctx, self.ctx.sub(m, self.n))

    def __mul__(self, other):
        m = self._co(other)
        if m is None:
            return NotImplemented
        return Felt(self.ctx, self.ctx.mul(self.n, m))

    __rmul__ = __mul__

    def __truediv__(self, other):
        m = self._co(other)
        if m is None:
            return NotImplemented
        return Felt(self.ctx, self.ctx.div(self.n, m))

    def __rtruediv__(self, other):
        m = self._co(other)
        if m is None:
            return NotImplemented
        return Felt(self.ctx, self.ctx.div(m, self.n))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return Felt(self.ctx, self.ctx.pow(self.n, e))

    def __neg__(self):
        return Felt(self.ctx, self.ctx.neg(self.n))

    def frob(self, k: int = 1) -> "Felt":
        return Felt(self.ctx, self.ctx.frob(self.n, k))

    def __eq__(self, other):
        if isinstance(other, Felt):
            return other.ctx is self.ctx and other.n == self.n
        if isinstance(other, int) and 0 <= other < self.ctx.p:
            return self.n == other
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.ctx.p, self.ctx.modulus))

    def __bool__(self):
        return self.n != 0

    def __int__(self):
        return self.n

    def __repr__(self):
        return f"Felt({self.n})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, h: int, size_bound: int = DEFAULT_SIZE_BOUND) -> FieldCtx:
    """Context for the tower over F_p with q = p^h, ambient degree 4h."""
    _checked_prime_power(p, h, 4, size_bound)
    return FieldCtx(p, h, _find_modulus(p, 4 * h))


def _checked_prime_power(p, h, k: int, bound: int) -> int:
    """p^(k h) for a prime p and a positive integer h, at most bound.

    The bound is checked before primality, and without forming p^(k h),
    so that a huge p or h is rejected at once."""
    if not isinstance(p, int) or p < 2:
        raise ParameterError(f"p = {p!r} is not prime")
    if not isinstance(h, int) or h < 1:
        raise ParameterError(f"h = {h!r} must be a positive integer")
    power = 1
    for _ in range(k * h):
        power *= p
        if power > bound:
            raise ParameterError(f"{p}^{k * h} exceeds the bound {bound}")
    if not _is_prime(p):
        raise ParameterError(f"p = {p!r} is not prime")
    return power


def _as_encoding(ctx: FieldCtx, x) -> int:
    if isinstance(x, Felt):
        if x.ctx is not ctx:
            raise ParameterError("element from a different field context")
        return x.n
    if isinstance(x, int):
        if 0 <= x < ctx.order:
            return x
        raise ParameterError(f"encoding {x} outside [0, {ctx.order})")
    raise ParameterError(f"not a field element: {x!r}")


def frobenius(ctx: FieldCtx, x, k: int = 1) -> Felt:
    return Felt(ctx, ctx.frob(_as_encoding(ctx, x), k))


def rel_trace(ctx: FieldCtx, x, m: int, n: int) -> Felt:
    """Trace from F_{p^n} down to F_{p^m}; needs m | n and n | 4h."""
    if m < 1 or n < 1 or n % m or ctx.deg % n:
        raise ParameterError(f"bad trace degrees m={m}, n={n}")
    a = _as_encoding(ctx, x)
    if ctx.frob(a, n) != a:
        raise ParameterError(f"encoding {a} does not lie in the degree {n} subfield")
    acc = 0
    for i in range(n // m):
        acc = ctx.add(acc, ctx.frob(a, m * i))
    if ctx.frob(acc, m) != acc:
        raise CheckError("trace image left the target subfield")
    return Felt(ctx, acc)


def find_omega(ctx: FieldCtx) -> Felt:
    """omega with omega^(q-1) = -1.

    1 in characteristic 2; otherwise g^((q+1)/2) for the first primitive
    element g of F_{q^2} in ascending encoding order.
    """
    if ctx._omega is None:
        if ctx.p == 2:
            w = 1
        else:
            target = ctx.q * ctx.q - 1
            w = None
            for g in ctx.subfield_encodings(2 * ctx.h):
                if g > 1 and ctx.mult_order(g) == target:
                    w = ctx.pow(g, (ctx.q + 1) // 2)
                    break
            if w is None:
                raise CheckError("no primitive element found")
        if ctx.pow(w, ctx.q - 1) != ctx.neg(1):
            raise CheckError("omega sanity check failed")
        ctx._omega = w
    return Felt(ctx, ctx._omega)


def subfield_elements(ctx: FieldCtx, m: int) -> list[Felt]:
    """Elements of F_{p^m} as Felts, ascending by encoding."""
    return [Felt(ctx, n) for n in ctx.subfield_encodings(m)]


class LinearizedSolver:
    """Repeated solves of L(y) = rhs with y ranging over F_{p^m}.

    L(y) = sum_i coeffs[i] * y^(p^i) is F_p-linear, so over digit
    coordinates it is a (4h x m) matrix on the subfield basis.  The row
    reduction is performed once and its operation log replayed per
    right-hand side, which keeps per-fiber work small.  count skips the
    replay: the zero rows of the reduced system are fixed F_p-combinations
    of the right-hand side's digits, kept as the solvability checks.
    """

    def __init__(self, ctx: FieldCtx, coeffs, m: int):
        self.ctx = ctx
        self.m = m
        basis = ctx.subfield_basis(m)
        self.basis = basis
        cols = []
        for bj in basis:
            img = 0
            for i, ci in enumerate(coeffs):
                if ci:
                    img = ctx.add(img, ctx.mul(ci, ctx.frob(bj, i)))
            cols.append(ctx._digits(img))
        deg = ctx.deg
        mat = [[cols[j][r] for j in range(m)] for r in range(deg)]
        self.pivots, self.ops = _rref(mat, ctx.p)
        self.rank = len(self.pivots)
        pivcols = {c for _, c in self.pivots}
        kb = []
        for f in range(m):
            if f in pivcols:
                continue
            vec = [0] * m
            vec[f] = 1
            for r, c in self.pivots:
                vec[c] = (-mat[r][f]) % ctx.p
            kb.append(self._combine(vec))
        self.kernel_basis = kb
        self.kernel_size = ctx.p ** len(kb)
        self._kernel = None
        # row r >= rank of the replayed rhs is sum_j units[j][r] * digit_j
        units = []
        for j in range(deg):
            e = [0] * deg
            e[j] = 1
            _replay(e, self.ops, ctx.p)
            units.append(e)
        checks = [[e[r] for e in units] for r in range(self.rank, deg)]
        checks = [w for w in checks if any(w)]
        if ctx.p == 2:
            # a check is a bit mask; it passes when rhs & mask has even parity
            checks = [sum(1 << j for j, t in enumerate(w) if t) for w in checks]
        self._checks = checks

    def _combine(self, vec) -> int:
        ctx = self.ctx
        enc = 0
        for j, t in enumerate(vec):
            if t:
                enc = ctx.add(enc, ctx.scale(self.basis[j], t))
        return enc

    def kernel(self) -> list[int]:
        """All kernel elements, enumerated once and cached."""
        if self._kernel is None:
            if self.kernel_size > (1 << 20):
                raise CheckError("kernel too large to enumerate")
            ctx = self.ctx
            span = [0]
            for b in self.kernel_basis:
                layer = list(span)
                for t in range(1, ctx.p):
                    tb = ctx.scale(b, t)
                    span.extend(ctx.add(x, tb) for x in layer)
            self._kernel = span
        return self._kernel

    def count(self, rhs: int) -> int:
        """Number of solutions: kernel_size, or 0 when inconsistent."""
        ctx = self.ctx
        if ctx.p == 2:
            for mask in self._checks:
                if (rhs & mask).bit_count() & 1:
                    return 0
            return self.kernel_size
        p = ctx.p
        v = ctx._digits(rhs)
        for w in self._checks:
            if sum(t * d for t, d in zip(w, v)) % p:
                return 0
        return self.kernel_size

    def solve(self, rhs: int) -> list[int]:
        """Sorted encodings of all solutions; empty when inconsistent."""
        v = self.ctx._digits(rhs)
        _replay(v, self.ops, self.ctx.p)
        for r in range(self.rank, self.ctx.deg):
            if v[r]:
                return []
        vec = [0] * self.m
        for r, c in self.pivots:
            vec[c] = v[r]
        part = self._combine(vec)
        ctx = self.ctx
        return sorted(ctx.add(part, k) for k in self.kernel())


def solve_linearized(ctx: FieldCtx, coeffs, rhs, m: int) -> list[Felt]:
    """All y in F_{p^m} with sum_i coeffs[i] * y^(p^i) = rhs, ascending."""
    if m < 1 or ctx.deg % m:
        raise ParameterError(f"no subfield of degree {m} inside degree {ctx.deg}")
    cs = [_as_encoding(ctx, c) for c in coeffs]
    if not cs:
        raise ParameterError("empty coefficient list")
    r = _as_encoding(ctx, rhs)
    return [Felt(ctx, n) for n in LinearizedSolver(ctx, cs, m).solve(r)]
