"""Arithmetic for the field tower F_p < F_q < F_{q^2} < F_{q^4}.

All four fields live inside one ambient field F_{p^(4h)}, q = p^h.  An
element is a plain int: its base-p digits, least significant first, are
the coefficients of the residue class in the power basis of the modulus.
The modulus is the first monic irreducible of degree 4h over F_p in
ascending integer encoding, so a context is pinned down by (p, h) alone
and encodings are stable across runs and machines.  Each candidate n is
tested cheapest first: a root in F_p, found by Horner on its digits,
rejects it; a survivor serves as the modulus of a trial context, whose
digit kernel builds the rows of x -> x^p by shifts alone, and is
irreducible iff X^(p^(4h)) = X mod n, by 4h applications of those rows,
and x -> x^p fixes a space of dimension 1 (Berlekamp's count of the
distinct factors of n).  No candidate costs a multiply, so make_field
takes at most a few ms at every field.

Subfields are cut out by Frobenius, F_{p^m} = {x : x^(p^m) = x}, as the
fixed space of the digit kernel's Frobenius rows, which gives each basis
and enumeration; there is no embedding bookkeeping anywhere downstream.

Every element the package computes or returns is such an int, and all
arithmetic on it goes through FieldCtx methods; there is no element class.

FieldCtx keeps four primitives, add, mul, pow and frob, and only they,
the point count's walk, the span enumerations _span and _span_indicator
and LinearizedSolver's images read its log/antilog tables over a
generator of F_{p^m}^*, with Zech logarithms for sums in every
characteristic (Lidl-Niederreiter, Finite Fields, ch. 10); sub, neg,
scale, inv and div compose the primitives by field identities.
One builder makes the tables on the first arithmetic call, never in
make_field, and the primitives read them two ways:

* fields of order at most TABLE_ORDER_BOUND = 2^13 table the whole field
  (m = 4h) and read it through plain lists indexed by the encoding: in
  the suite that is (2,1), (3,1), (2,2), (2,3) and (3,2), where one
  acceptance run makes about 154 k mul and 102 k add calls at (2,3) and
  61 k and 44 k at (3,2), of 298 k mul calls in all;
* every larger field tables F_{q^2} (m = 2h) and reads it through the
  index of an operand's free echelon digits, falling through to digit
  vectors (carry-less arithmetic when p = 2) for any operand outside
  F_{q^2}.  Whole-field tables at 3^12 would take tens of MB and seconds
  to build, but the paper's counts, group tables and isomorphism tests
  work in F_{q^2}: in maximality_check at II(7,2), I(3,4) and I(5,3),
  97-99% of the multiplications have both operands there, and one takes
  0.6-1 us by table against 3-32 us by digits.  make_field's cap gives
  q^2 <= 2^15, so every log fits in 16 bits, and the tables take 20 bytes
  per element of F_{q^2}: 0.56 MB at (13,2), built in about 0.1 s.

The digit kernel (one method per primitive) is also the reference the
tests hold the tables to.

Both read paths stay because each alternative made the acceptance run
slower: 0.61 s with both paths against 0.94 s with the F_{q^2}-style
index read on every field, and 1.27 s with F_{q^2} tables alone, which
send every operand outside F_{q^2} at the small fields to the digit
kernel (in two runs of scripts/run_acceptance.py, family III's check went
from 0.02 s to 0.08-0.09 s).  Array reads in place of the whole-field
lists (every array read boxes a fresh int) cost less, but were slower in
each of 5 paired runs: medians 0.67 s against 0.65 s.  Medians of 3 runs
(5 for the arrays) of perfbench's acceptance run_s on a 2-CPU Intel Xeon
Linux machine.
"""

from __future__ import annotations

import functools
from array import array
from collections import namedtuple
from itertools import cycle, islice, pairwise, product, repeat, starmap
from math import gcd
from operator import add as _int_add, mod, mul as _int_mul

DEFAULT_SIZE_BOUND = 1 << 30
# largest ambient order served by the table kernel (see FieldCtx)
TABLE_ORDER_BOUND = 1 << 13


class ParameterError(ValueError):
    """Rejected input parameters.  The CLI maps this to exit code 2."""


class CheckError(ArithmeticError):
    """A verification or internal consistency check failed (exit code 1)."""


class _Record:
    """Base of the package's value classes.  A subclass names its fields in
    __slots__ and gives the optional ones in _defaults, where a type such
    as dict is called for a fresh value per instance.  __init__ takes every
    field by keyword, and the fields are read-only after it.  Equality and
    hashing are by identity."""

    __slots__ = ()
    _defaults = {}

    def __init__(self, **fields):
        for name in self.__slots__:
            if name in fields:
                value = fields.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
                if isinstance(value, type):
                    value = value()
            else:
                raise TypeError(f"{type(self).__name__} needs {name}")
            object.__setattr__(self, name, value)
        if fields:
            raise TypeError(f"{type(self).__name__} has no field {min(fields)}")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


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


def _first_of_order(pow_, candidates, n: int):
    """The first g of candidates with multiplicative order exactly n, or
    None: g^(n/r) != 1 for every prime r | n and g^n = 1, with pow_(g, e)
    the field's power.  The cheap rejections come first: every candidate
    drawn from F_{p^m} has g^n = 1 when n = p^m - 1, so that test runs on
    the winner alone."""
    primes = [r for r, _ in _factorize(n)]
    return next((g for g in candidates
                 if all(pow_(g, n // r) != 1 for r in primes) and pow_(g, n) == 1), None)


@functools.lru_cache(maxsize=None)
def _find_modulus(p: int, deg: int) -> int:
    """First monic irreducible of degree deg over F_p by integer encoding:
    the first candidate, ascending, that _irreducible accepts.  deg is an
    ambient degree 4h."""
    base = p ** deg
    for n in range(base + 1, 2 * base):
        if _irreducible(p, deg, n):
            return n
    raise CheckError(f"no irreducible of degree {deg} over F_{p}")


def _irreducible(p: int, deg: int, n: int) -> bool:
    """Whether the monic n of degree deg = 4h over F_p is irreducible, by
    three tests, cheapest first (small factors first, the order of Ben-Or,
    "Probabilistic algorithms in finite fields", FOCS 1981):

    1. no root in F_p, by Horner on n's base-p digits in plain ints;
    2. X^(p^deg) = X mod n, so that n is squarefree with every factor of
       degree dividing deg, by deg applications of the Frobenius rows of
       FieldCtx(p, deg // 4, n), whose digit kernel computes mod n whether
       n is irreducible or not;
    3. the fixed space of x -> x^p has dimension 1: Berlekamp's count of
       the distinct factors of n (Lidl-Niederreiter, Finite Fields, ch. 4).

    Tests 2 and 3 decide alone, as X^(p^deg) = X and Berlekamp's count
    together hold exactly for irreducible n; test 1 only rejects early (a
    root is a linear factor, and deg > 1).  None multiplies in the digit
    kernel: the rows of x -> x^p are built by shifts (FieldCtx._build_frow),
    and the trial context builds no table."""
    digits = []
    m = n
    while m:
        m, d = divmod(m, p)
        digits.append(d)
    digits.reverse()
    for a in range(p):
        v = 0
        for d in digits:
            v = (v * a + d) % p
        if v == 0:
            return False
    ctx = FieldCtx(p, deg // 4, n)
    x = p
    for _ in range(deg):
        x = ctx._frob_digits(x, 1)
    return x == p and len(ctx._frobenius_kernel(1)) == 1


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


def _kernel_vectors(mat, pivots, p: int) -> list[tuple[int, list[int]]]:
    """(f, v) for each free column f of the row-reduced mat: v is the
    kernel vector with v[f] = 1 and 0 at every other free column."""
    ncols = len(mat[0])
    pivcols = {c for _, c in pivots}
    out = []
    for f in range(ncols):
        if f not in pivcols:
            vec = [0] * ncols
            vec[f] = 1
            for r, c in pivots:
                vec[c] = (-mat[r][f]) % p
            out.append((f, vec))
    return out


def _times_x(row: list[int], red: list[int], p: int) -> list[int]:
    """The base-p digits of X * row mod a modulus of degree len(row), where
    red holds the digits of X^len(row) mod that modulus."""
    c = row[-1]
    out = [0] + row[:-1]
    if c:
        out = [(x + c * y) % p for x, y in zip(out, red)]
    return out


def _digit_form(weights, p: int) -> array:
    """tab[n] = sum_k weights[k] * (base-p digit k of n), n < p^len(weights)."""
    tab = array("H", [0])
    for w in weights:
        block = tab[:]
        for t in range(1, p):
            tab.extend(v + t * w for v in block)
    return tab


# The log/Zech tables over a generator gamma of F_{p^m} (see FieldCtx):
#   n     p^m; idx(a) = lo[a % n] + hi[a // n]
#   log   log[idx(gamma^i)] = i, and log[0] = 0
#   exp   gamma^0 .. gamma^(n-2) twice, then n-1 zeros
#   zech  log(1 + gamma^d), or 2(n-1) where 1 + gamma^d = 0
_Tables = namedtuple("_Tables", "n lo hi log exp zech")


# a log slot the walk has not reached yet; every real log is below 2^15
_UNSET = 0xFFFF


class FieldCtx:
    """Arithmetic context for the ambient field F_{p^(4h)}.

    Methods take and return raw int encodings.  One builder, _build_tables,
    makes exp and log tables over a generator gamma of F_{p^m}^* and a
    Zech table zech[d] = log(1 + gamma^d), so that a product, a power, a
    Frobenius image or a sum is index arithmetic on logs.  m = 4h (the
    whole field) when the order is at most TABLE_ORDER_BOUND, m = 2h
    (F_{q^2}) above it.  The log is indexed by idx(a), the m digits of a at
    the free columns of F_{p^m}'s echelon basis, read off the low m and the
    high 4h - m base-p digits of a as lo[a % p^m] + hi[a // p^m]; the free
    columns are disjoint, so the sum never carries, and for m = 4h every
    column is free, so idx(a) = a.  A nonzero a lies in F_{p^m} exactly
    when exp[log[idx(a)]] == a.

    Four primitives read those tables, add, mul, pow and frob, each by two
    read paths (add for p = 2 is one xor of encodings and reads none):

    * a whole field is read through list views of exp, log and zech
      indexed by the encoding itself, held in _exp, _log and _zech;
    * a larger field reads the F_{q^2} record in _sub through idx when
      every operand lies in F_{q^2}, and sends any other operand to the
      digit kernel: base-p digit vectors reduced by the modulus,
      carry-less shift-and-xor when p = 2.  Its four private methods
      (_add_digits, _mul_digits, _pow_digits, _frob_digits) are also the
      reference the tests hold the tables to.

    sub, neg, scale, inv and div read no table: each is one call or two of
    the primitives, by a field identity.

    walk gives the exp indices of a whole pure-X part at x = gamma_m^j, j
    below a given step count, for the point count, which asks for one
    period of its x-powers and reads each index through
    LinearizedSolver.indicator, so the count forms no value at all.  The
    terms above the lowest are summed once per residue class by Zech
    reads, with no add and no multiply.  Where the tables miss gamma_m or a
    coefficient (the k = 2 walks over F_{q^4} above the bound) walk
    returns None, and mul_walk gives the values by one mul per term per
    step, summed by add: the only value path, and the reference the tests
    hold walk to.  _span, behind subfield_encodings and LinearizedSolver's
    image and kernel, and _span_indicator likewise build each layer
    x + t b by Zech reads on logs when the tables cover every generator.

    The tables are built on the first arithmetic call, never in
    make_field, with the digit kernel alone.  Other caches (reduction
    rows, Frobenius rows and kernels, subfield generators, bases and
    enumerations, norm preimages) are built lazily as well.
    """

    __slots__ = ("p", "h", "q", "deg", "order", "modulus",
                 "_exp", "_log", "_zech", "_sub", "_red", "_frows", "_fker",
                 "_sbasis", "_senc", "_gens", "_omega", "_norm")

    def __init__(self, p: int, h: int, modulus: int):
        self.p = p
        self.h = h
        self.q = p ** h
        self.deg = 4 * h
        self.order = p ** self.deg
        self.modulus = modulus
        self._exp = None
        self._log = None
        self._zech = None
        self._sub = None
        self._red = None
        self._frows = {}
        self._fker = {}
        self._sbasis = {}
        self._senc = {}
        self._gens = {}
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

    # the four primitives: add, mul, pow and frob.  Each reads the
    # whole-field list views once they exist, else the record of the
    # tables, which the first call builds.  An operand outside the tabled
    # field sends the call to the digit kernel.  0 is no power of gamma, so
    # each settles it before it reads a log.

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        log = self._log
        if log is not None:
            la = log[a]
            # a negative index wraps, so this is zech[(log b - log a) mod (order-1)]
            return self._exp[la + self._zech[log[b] - la]]
        n, lo, hi, slog, exp, zech = self._sub or self._build_tables()
        la = slog[lo[a % n] + hi[a // n]]
        lb = slog[lo[b % n] + hi[b // n]]
        if exp[la] == a and exp[lb] == b:
            return exp[la + zech[lb - la]]
        return self._add_digits(a, b)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]]
        n, lo, hi, slog, exp, _ = self._sub or self._build_tables()
        la = slog[lo[a % n] + hi[a // n]]
        lb = slog[lo[b % n] + hi[b // n]]
        if exp[la] == a and exp[lb] == b:
            return exp[la + lb]
        return self._mul_digits(a, b)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("field inverse of 0")
            return 0 if e else 1
        log = self._log
        if log is not None:
            return self._exp[log[a] * e % (self.order - 1)]
        n, lo, hi, slog, exp, _ = self._sub or self._build_tables()
        la = slog[lo[a % n] + hi[a // n]]
        if exp[la] == a:
            return exp[la * e % (n - 1)]
        return self._pow_digits(a, e)

    def frob(self, a: int, k: int = 1) -> int:
        """k-fold p-power Frobenius x -> x^(p^k)."""
        k %= self.deg
        if k == 0 or a < self.p:
            return a
        log = self._log
        if log is not None:
            return self._exp[log[a] * self.p ** k % (self.order - 1)]
        n, lo, hi, slog, exp, _ = self._sub or self._build_tables()
        la = slog[lo[a % n] + hi[a // n]]
        if exp[la] == a:
            return exp[la * self.p ** k % (n - 1)]
        return self._frob_digits(a, k)

    # built from the primitives: -a = (p - 1) a, a - b = a + (-b),
    # a^-1 = a^(-1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return a if self.p == 2 else self.mul(a, self.p - 1)

    def scale(self, a: int, s: int) -> int:
        """a times a prime-field constant s, 0 <= s < p."""
        return self.mul(a, s)

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # the walk of the point count

    def walk(self, terms, m: int, steps: int):
        """Iterator over the exp indices of the values of the pure-X part
        terms = {e: c_e}, the constant at e = 0, at x = gamma^j, j = 0 ..
        steps - 1, for the generator gamma = subfield_generator(m) of
        F_{p^m}^*, or None unless the tables cover gamma and every c_e (all
        of a whole field, F_{q^2} on a larger one).  The value at step j is
        exp[i] for the j-th index i, which lies below 3(n - 1): exp's zero
        block reads 0.  The point count asks for one period, (p^m - 1)/g
        steps with g = gcd(p^m - 1, every e); all p^m - 1 steps visit every
        nonzero x once.

        The sums stay in the log domain, with no add and no multiply.  With
        e_1 the lowest exponent, the value is c_1 x^(e_1) Q(x), Q(x) = 1 +
        sum (c_e / c_1) x^(e - e_1), and Q at gamma^j depends only on j mod
        r, r = (p^m - 1)/D, D = gcd(p^m - 1, every e - e_1), which divides
        the period.  Q's logs are summed once per residue class by Zech
        reads, and each index is (log c_1 + j e_1 log gamma) mod (n - 1) +
        log Q, where a zero Q has zech's mark 2(n - 1).  This raises
        CheckError at once unless (p^m - 1) log gamma = 0 mod n - 1."""
        gamma = self.subfield_generator(m)
        terms = sorted((e, c) for e, c in terms.items() if c)
        tables = self._logs([gamma] + [c for _, c in terms])
        if tables is None:
            return None
        n1, _, zech, (lg, *lcs) = tables
        nm = self.p ** m - 1
        if nm * lg % n1:
            raise CheckError(f"gamma^(p^{m} - 1) != 1; the walk would miss elements")
        if not terms:
            return repeat(2 * n1, steps)

        def logs(lc, e, count):
            # log(c gamma^(e j)), j < count, from lc = log c
            step = e * lg % n1
            if not step:
                return repeat(lc, count)
            return map(mod, range(lc, lc + count * step, step), repeat(n1))

        (e1, _), lc1 = terms[0], lcs[0]
        r = nm // gcd(nm, *(e - e1 for e, _ in terms[1:]))
        lq = [0] * r  # log Q(gamma^j), j < r, from Q = 1
        for (e, _), lc in zip(terms[1:], lcs[1:]):
            lq = _zech_sums(zech, n1, lq, logs((lc - lc1) % n1, e - e1, r))
        return map(_int_add, logs(lc1, e1, steps), cycle(lq))

    def mul_walk(self, terms, m: int, steps: int):
        """Iterator over the values of terms at the steps walk takes, on
        any field: each term is one mul per step by gamma^e, and the terms
        are summed by add.  It raises CheckError at its end unless each
        term closed: c (gamma^e)^steps = c.  The point count's value path
        wherever walk returns None, and the reference the tests hold walk
        to."""
        gamma = self.subfield_generator(m)
        terms = sorted((e, c) for e, c in terms.items() if c)
        const = terms[0][1] if terms and terms[0][0] == 0 else 0
        walks = [self._mul_walk(c, self.pow(gamma, e), steps) for e, c in terms if e]
        # with no constant term the first walk starts the sums: no add of 0 + v
        rhs = walks.pop(0) if walks and not const else repeat(const, steps)
        for w in walks:
            # strict: a walk that ran to its end makes its closing check
            rhs = starmap(self.add, zip(rhs, w, strict=True))
        return rhs

    def _mul_walk(self, c: int, step: int, steps: int):
        v = c
        for _ in range(steps):
            yield v
            v = self.mul(v, step)
        if v != c:
            raise CheckError(f"(gamma^e)^{steps} != 1; the walk did not close")

    def _logs(self, elems):
        """(n - 1, exp, zech, logs): the tables, built first if need be,
        and the log of each of elems, or None unless the tables cover every
        one.  a is covered when exp[log[idx(a)]] == a, which 0, no power of
        gamma, never is (exp[log 0] = 1)."""
        if self._log is None and self._sub is None:
            self._build_tables()
        if self._log is not None:
            n1, exp, zech = self.order - 1, self._exp, self._zech
            logs = list(map(self._log.__getitem__, elems))
        else:
            n, lo, hi, log, exp, zech = self._sub
            n1 = n - 1
            logs = [log[lo[a % n] + hi[a // n]] for a in elems]
        if any(exp[la] != a for a, la in zip(elems, logs)):
            return None
        return n1, exp, zech, logs

    # the tables

    def _build_tables(self) -> _Tables:
        """Table F_{p^m} with the digit kernel alone: the whole field
        (m = 4h) up to TABLE_ORDER_BOUND, F_{q^2} (m = 2h) above it.

        The public methods would come back here, and subfield_encodings
        goes through them, so F_{p^m} is taken as the kernel of
        x -> x^(p^m) - x row-reduced from the Frobenius rows.
        gamma = subfield_generator(m) is walked in the m coordinates of
        that kernel: the images of gamma times either half of the
        coordinates are tabled, so a step is one digit-wise sum.  Raises
        CheckError, with nothing installed, unless the kernel has dimension
        m, gamma times each basis vector stays in it, the walk meets every
        log slot once (gamma has order p^m - 1, its powers are the nonzero
        elements of F_{p^m}, and idx is injective on them), it ends at 1
        and, for odd p, gamma^((p^m - 1)/2) = -1.

        F_{q^2}'s record is kept in _sub.  A whole field keeps list views
        of exp, log and zech instead, which share one int object per value,
        and only the call that built the tables reads its record.
        """
        p, deg = self.p, self.deg
        whole = self.order <= TABLE_ORDER_BOUND
        m = deg if whole else 2 * self.h
        n = p ** m
        n1 = n - 1
        kernel = self._frobenius_kernel(m)
        if len(kernel) != m:
            raise CheckError(f"F_(p^{m}) does not have dimension {m}")
        # idx(a) = sum_j (digit f_j of a) p^j over the free columns f_j
        weight = [0] * deg
        for j, (f, _) in enumerate(kernel):
            weight[f] = p ** j
        lo, hi = _digit_form(weight[:m], p), _digit_form(weight[m:], p)
        gamma = self.subfield_generator(m)
        images = [self._mul_digits(gamma, self._undigits(v)) for _, v in kernel]
        if any(self._frob_digits(x, m) != x for x in images):
            raise CheckError(f"gamma = {gamma} does not map F_(p^{m}) into itself")

        def span(gens):
            # tab[u] = sum_k (digit k of u) * gens[k]: digits, or ints to xor for p = 2
            tab = [[0] * deg]
            for g in gens:
                gd, block = self._digits(g), tab[:]
                for t in range(1, p):
                    tab += [[(x + t * y) % p for x, y in zip(v, gd)] for v in block]
            return [self._undigits(v) for v in tab] if p == 2 else tab

        half = p ** (m // 2)
        lo_img, hi_img = span(images[:m // 2]), span(images[m // 2:])
        residue = [s % p for s in range(2 * p - 1)]
        log = array("H", [_UNSET]) * n
        log[0] = 0
        exp = array("I", [0]) * (3 * n1)
        x = 1
        for i in range(n1):
            v = lo[x % n] + hi[x // n]
            if log[v] != _UNSET:
                raise CheckError(f"gamma^{i} = {x} meets a log slot taken before")
            log[v] = i
            exp[i] = x
            u, w = lo_img[v % half], hi_img[v // half]
            x = u ^ w if p == 2 else self._undigits([residue[s + t] for s, t in zip(u, w)])
        if x != 1:
            raise CheckError(f"gamma = {gamma} does not satisfy gamma^(p^{m}-1) = 1")
        if p != 2 and exp[n1 // 2] != p - 1:
            raise CheckError(f"gamma^((p^{m}-1)/2) is not -1")
        exp[n1:2 * n1] = exp[:n1]

        # 1 + x only changes the lowest base-p digit of x
        def zech_log(x):
            if x == p - 1:
                return 2 * n1
            y = x + 1 if x % p != p - 1 else x - p + 1
            return log[lo[y % n] + hi[y // n]]
        zech = array("H", map(zech_log, exp[:n1]))
        tables = _Tables(n, lo, hi, log, exp, zech)
        if not whole:
            self._sub = tables
            return tables
        # lists, not arrays: an array read boxes a fresh int on every call.
        # The views take their ints from one list, so each value is one
        # object (the sentinel 2(n-1) is the only value above n - 1).
        ints = list(range(n))
        self._exp = list(map(ints.__getitem__, exp))
        self._zech = [ints[z] if z < n else z for z in zech]
        self._log = list(map(ints.__getitem__, log))
        return tables

    # the digit kernel: every operand no table covers, and the reference
    # for the tables

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        return self._undigits([(x + y) % p
                               for x, y in zip(self._digits(a), self._digits(b))])

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
        rows = [self._x_to_the_deg()]
        for _ in range(self.deg - 2):
            rows.append(_times_x(rows[-1], rows[0], self.p))
        self._red = rows

    def _x_to_the_deg(self) -> list[int]:
        # the digits of X^deg mod the modulus: minus its low digits
        p = self.p
        return [(-c) % p for c in self._digits(self.modulus - p ** self.deg)]

    def _pow_digits(self, a: int, e: int) -> int:
        if e < 0:
            if a == 0:
                raise ZeroDivisionError("field inverse of 0")
            e %= self.order - 1
        r, base = 1, a
        while e:
            if e & 1:
                r = self._mul_digits(r, base)
            e >>= 1
            if e:
                base = self._mul_digits(base, base)
        return r

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
        # Frobenius is F_p-linear: rows[i] = image of the basis monomial X^i,
        # (X^(p^k))^i.  For k = 1 each row is the one before times X^p, p
        # one-digit shifts each reduced by the modulus, with no multiply:
        # the modulus search builds these rows for every candidate it tests.
        # For any other k one power gives row 1 and a multiply each later row.
        p, deg = self.p, self.deg
        if k == 1 and p == 2:
            m, top = self.modulus, 1 << deg
            rows = [1]
            for _ in range(1, deg):
                x = rows[-1]
                for _ in range(2):
                    x <<= 1
                    if x & top:
                        x ^= m
                rows.append(x)
        elif k == 1:
            rows = [[1] + [0] * (deg - 1)]
            red = self._x_to_the_deg()
            for _ in range(1, deg):
                x = rows[-1]
                for _ in range(p):
                    x = _times_x(x, red, p)
                rows.append(x)
        else:
            row1 = self._pow_digits(p, p ** k)
            imgs = [1]
            for _ in range(1, deg):
                imgs.append(self._mul_digits(imgs[-1], row1))
            rows = imgs if p == 2 else [self._digits(x) for x in imgs]
        self._frows[k] = rows
        return rows

    def _frobenius_kernel(self, m: int) -> list[tuple[int, list[int]]]:
        """F_{p^m}, the fixed space of x -> x^(p^m) on the power basis, as
        _kernel_vectors lists it, from the digit kernel's Frobenius rows;
        kept per m, so the table build and subfield_basis share one row
        reduction."""
        kernel = self._fker.get(m)
        if kernel is None:
            p, deg = self.p, self.deg
            # x^(p^deg) = x, so m = deg reads the identity rows of k = 0
            rows = self._frows.get(m % deg) or self._build_frow(m % deg)
            if p == 2:
                rows = [self._digits(r) for r in rows]
            # column i is the image of X^i under x -> x^(p^m) - x
            mat = [[(rows[i][r] - (i == r)) % p for i in range(deg)] for r in range(deg)]
            pivots, _ = _rref(mat, p)
            kernel = self._fker[m] = _kernel_vectors(mat, pivots, p)
        return kernel

    # subfields

    def _check_subfield(self, m: int) -> None:
        if m < 1 or self.deg % m:
            raise ParameterError(f"no subfield of degree {m} inside degree {self.deg}")

    def subfield_generator(self, m: int) -> int:
        """A generator of F_{p^m}^*, kept per m: gamma = c^((order-1)/(p^m-1))
        for the least c >= 2 that gives gamma order exactly p^m - 1.

        Found with the digit kernel alone, so that the table build can use
        it; the tables and the point-count walk share it."""
        gamma = self._gens.get(m)
        if gamma is None:
            self._check_subfield(m)
            n = self.p ** m - 1
            e = (self.order - 1) // n
            pw = self._pow_digits
            gamma = _first_of_order(pw, (pw(c, e) for c in range(2, self.order)), n)
            if gamma is None:
                raise CheckError(f"no generator of F_(p^{m})^*; the modulus is not irreducible")
            self._gens[m] = gamma
        return gamma

    def in_subfield(self, a: int, m: int) -> bool:
        self._check_subfield(m)
        return self.frob(a, m) == a

    def subfield_basis(self, m: int) -> list[int]:
        """F_p-basis of F_{p^m} inside the ambient field, kept per m: the
        encodings of the _frobenius_kernel(m) vectors."""
        basis = self._sbasis.get(m)
        if basis is None:
            self._check_subfield(m)
            basis = [self._undigits(v) for _, v in self._frobenius_kernel(m)]
            if len(basis) != m:
                raise CheckError(f"F_(p^{m}) does not have dimension {m}")
            self._sbasis[m] = basis
        return basis

    def subfield_encodings(self, m: int):
        """All encodings of F_{p^m}, ascending, kept per m: the F_p-span of
        subfield_basis(m).  Returns range() for m = 4h."""
        if m == self.deg:
            return range(self.order)
        if m not in self._senc:
            self._senc[m] = _span(self, self.subfield_basis(m))
        return self._senc[m]


@functools.lru_cache(maxsize=None)
def make_field(p: int, h: int) -> FieldCtx:
    """Context for the tower over F_p with q = p^h, ambient degree 4h, at
    most DEFAULT_SIZE_BOUND."""
    _checked_prime_power(p, h, 4, DEFAULT_SIZE_BOUND)
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
    if _factorize(p) != [(p, 1)]:
        raise ParameterError(f"p = {p!r} is not prime")
    return power


def _as_encoding(ctx: FieldCtx, x) -> int:
    if isinstance(x, int):
        if 0 <= x < ctx.order:
            return x
        raise ParameterError(f"encoding {x} outside [0, {ctx.order})")
    raise ParameterError(f"not a field element: {x!r}")


def find_omega(ctx: FieldCtx) -> int:
    """omega with omega^(q-1) = -1.

    1 in characteristic 2; otherwise g^((q+1)/2) for the first primitive
    element g of F_{q^2} in ascending encoding order.  The scan reads
    F_{q^2} lazily off subfield_basis(2h) through _ascending_span, from its
    element 2 on, and stops at g: F_{q^2} is never listed.
    """
    if ctx._omega is None:
        if ctx.p == 2:
            w = 1
        else:
            span = _ascending_span(ctx, ctx.subfield_basis(2 * ctx.h))
            units = islice(span, 2, None)  # past 0 and 1
            g = _first_of_order(ctx.pow, units, ctx.q * ctx.q - 1)
            if g is None:
                raise CheckError("no primitive element found")
            w = ctx.pow(g, (ctx.q + 1) // 2)
        if ctx.pow(w, ctx.q - 1) != ctx.neg(1):
            raise CheckError("omega sanity check failed")
        ctx._omega = w
    return ctx._omega


def _ascending_span(ctx: FieldCtx, basis):
    """Lazy iterator over the F_p-span of basis in ascending encoding
    order: element i is sum_j d_j basis[j], for the base-p digits d_j of i.

    That order is ascending because the basis is in echelon form by top
    digit, as _frobenius_kernel gives it: the top base-p digit of basis[j]
    is a 1 at a column t_j, t_0 < t_1 < ..., and every other basis vector
    is 0 at t_j.  Raises CheckError, before it yields anything, unless the
    basis is in that form."""
    p = ctx.p
    vecs = [ctx._digits(b) for b in basis]
    tops = [max((u for u, d in enumerate(v) if d), default=-1) for v in vecs]
    if any(t <= s for s, t in pairwise([-1] + tops)) or any(
            v[t] != (i == j) for j, t in enumerate(tops) for i, v in enumerate(vecs)):
        raise CheckError("basis is not in echelon form by top digit")
    # product's last coordinate runs fastest: it multiplies basis[0]
    cols = list(zip(*reversed(vecs)))

    def element(coefs):
        return ctx._undigits([sum(map(_int_mul, coefs, col)) % p for col in cols])

    return map(element, product(range(p), repeat=len(vecs)))


def _zech_sums(zech, n1: int, lx, ly) -> list[int]:
    """log(x + y) for each pair of logs in lx and ly, y != 0, over tables
    of n1 + 1 elements, with 2 n1 as the log of 0: zech's own mark, at
    which plus any log below n1 exp reads 0."""
    zero = 2 * n1
    # b - a > -n1, and a negative index wraps
    return [b if a == zero else zero if (z := zech[b - a]) == zero else (a + z) % n1
            for a, b in zip(lx, ly)]


def _span_size(p: int, gens) -> int:
    """p^len(gens); raises CheckError above 2^20."""
    size = p ** len(gens)
    if size > (1 << 20):
        raise CheckError(f"span of {size} elements too large to enumerate")
    return size


def _dependent(size: int) -> CheckError:
    return CheckError(f"span has fewer than {size} elements: its generators are dependent")


def _log_span(n1: int, zech, lgens, lts) -> list[int]:
    """The logs of the nonzero F_p-combinations of generators with logs
    lgens, layer by layer, with lts the logs of t = 1 .. p - 1.
    x + t b = t (x/t + b), and x/t runs over the span so far as x does, so
    a layer is one Zech read per element, log(x + b) = log x + zech[log b
    - log x], then a shift by each log t.  x + b = 0 only for x = -b, when
    b lies in the span so far: zech's mark 2 n1 then wraps to log x, and
    the duplicate x fails the caller's distinctness check."""
    ls = []
    for lb in lgens:
        layer = [lb, *[(lx + zech[lb - lx]) % n1 for lx in ls]]
        ls += [(la + lt) % n1 for lt in lts for la in layer]
    return ls


def _span(ctx: FieldCtx, gens) -> list[int]:
    """All F_p-combinations of gens, ascending; raises CheckError above
    2^20 of them, or unless they are p^len(gens) distinct elements.

    When the tables cover every generator, each layer x + t b is one list
    comprehension of index arithmetic, _log_span's Zech reads on the logs
    of the nonzero elements.  Any other generator leaves every element to
    ctx.add."""
    p = ctx.p
    size = _span_size(p, gens)
    tables = ctx._logs([*gens, *range(1, p)])
    if tables is None:
        span = [0]
        for b in gens:
            layer = list(span)
            for t in range(1, p):
                tb = ctx.scale(b, t)
                span.extend(ctx.add(x, tb) for x in layer)
    else:
        n1, exp, zech, logs = tables
        k = len(gens)
        span = [0, *map(exp.__getitem__, _log_span(n1, zech, logs[:k], logs[k:]))]
    # sorted and compared in place: a set would cost a kernel's memory
    span.sort()
    if any(a == b for a, b in pairwise(span)):
        raise _dependent(size)
    return span


def _span_indicator(ctx: FieldCtx, gens):
    """The F_p-span of gens as bytes over the index range of the tables'
    exp, or None unless the tables cover every generator.  With n1 the
    order of the tabled field's unit group, byte i is 1 where exp[i] lies
    in the span, so exp's zero block, from slot 2 n1 on, is all 1.  The
    nonzero elements are marked by their logs, from _log_span.

    Raises CheckError as _span does: above 2^20 elements, or unless
    p^len(gens) - 1 nonzero elements are marked."""
    p = ctx.p
    size = _span_size(p, gens)
    tables = ctx._logs([*gens, *range(1, p)])
    if tables is None:
        return None
    n1, _, zech, logs = tables
    k = len(gens)
    ind = bytearray(n1)
    for la in _log_span(n1, zech, logs[:k], logs[k:]):
        ind[la] = 1
    if ind.count(1) != size - 1:
        raise _dependent(size)
    return bytes(ind * 2 + b"\1" * n1)


class LinearizedSolver:
    """Repeated solves of L(y) = rhs with y ranging over F_{p^m}.

    L(y) = sum_i coeffs[i] * y^(p^i) is F_p-linear, so over digit
    coordinates it is a (4h x m) matrix on the subfield basis.  The images
    L(basis[j]) are summed by Zech reads on logs when the tables cover the
    basis and every nonzero coefficient, by mul, frob and add otherwise.
    The row reduction is performed once and its operation log replayed per
    right-hand side, which keeps per-fiber work small.

    A fiber has kernel_size points when rhs lies in Im L and none
    otherwise, so counts skip the replay.  Im L is the F_p-span of
    L(basis[c]) over the pivot columns c, and the count path holds it two
    ways:

    * indicator(), built on the first call by _span_indicator from the
      span's logs, is a bytes indicator over the tables' exp index range,
      which the point count reads FieldCtx.walk's indices through: one
      byte read sizes a fiber.  It is None unless the tables cover every L(basis[c]) (the
      k = 1 walks, where L maps F_{q^2} into itself);
    * count(rhs) tests rhs against a frozenset that _span enumerates on
      the first count, by Zech reads where the tables cover the basis and
      one add per element otherwise.  It serves every walk the indicator
      cannot, and is the tests' oracle for it.  A full-rank L is onto the
      whole field, so count needs no image there.
    """

    def __init__(self, ctx: FieldCtx, coeffs, m: int):
        self.ctx = ctx
        self.m = m
        basis = ctx.subfield_basis(m)
        self.basis = basis
        nz = [(i, c) for i, c in enumerate(coeffs) if c]
        tables = ctx._logs([*basis, *(c for _, c in nz)])
        if tables is None:
            imgs = []
            for bj in basis:
                img = 0
                for i, ci in nz:
                    img = ctx.add(img, ctx.mul(ci, ctx.frob(bj, i)))
                imgs.append(img)
        else:
            # log(c_i b^(p^i)) = log c_i + p^i log b, summed over i from 0
            n1, exp, zech, logs = tables
            p, lbs = ctx.p, logs[:m]
            ls = [2 * n1] * m  # zech's mark for 0, where exp reads 0
            for (i, _), lc in zip(nz, logs[m:]):
                ls = _zech_sums(zech, n1, ls, [(lc + p ** i * lb) % n1 for lb in lbs])
            imgs = list(map(exp.__getitem__, ls))
        cols = [ctx._digits(img) for img in imgs]
        mat = [[cols[j][r] for j in range(m)] for r in range(ctx.deg)]
        self.pivots, self.ops = _rref(mat, ctx.p)
        self.rank = len(self.pivots)
        kb = [self._combine(vec) for _, vec in _kernel_vectors(mat, self.pivots, ctx.p)]
        self.kernel_basis = kb
        self.kernel_size = ctx.p ** len(kb)
        self._kernel = None
        self._image_basis = [imgs[c] for _, c in self.pivots]
        self._image = None
        self._indicator = None

    def _combine(self, vec) -> int:
        ctx = self.ctx
        enc = 0
        for j, t in enumerate(vec):
            if t:
                enc = ctx.add(enc, ctx.scale(self.basis[j], t))
        return enc

    def kernel(self) -> list[int]:
        """All kernel elements, ascending, enumerated once and cached."""
        if self._kernel is None:
            self._kernel = _span(self.ctx, self.kernel_basis)
        return self._kernel

    def count(self, rhs: int) -> int:
        """Number of solutions: kernel_size, or 0 when inconsistent."""
        image = self._image
        if image is None:
            if self.rank == self.ctx.deg:
                return self.kernel_size
            image = self._image = frozenset(_span(self.ctx, self._image_basis))
        return self.kernel_size if rhs in image else 0

    def indicator(self):
        """Im L as _span_indicator gives it, built once, or None where the
        tables do not cover the image basis."""
        if self._indicator is None:
            self._indicator = _span_indicator(self.ctx, self._image_basis)
        return self._indicator

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

