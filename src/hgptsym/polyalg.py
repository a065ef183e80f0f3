"""Sparse multivariate polynomial arithmetic over the rationals.

Polynomials live in either 3 variables (x1, x2, x3) or 6 variables
(x1, x2, x3, y1, y2, y3).  Coefficients are ``Fraction`` whenever the
inputs are exact; mixing in floats degrades gracefully to float
coefficients.  All values are immutable in use: every operation returns a
new polynomial.  The module also holds what the pipeline needs of them: the
float snapping rule, Kelvin harmonics, coefficient matrices and row reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np

VAR_NAMES_3 = ("x1", "x2", "x3")
VAR_NAMES_6 = ("x1", "x2", "x3", "y1", "y2", "y3")


def is_rational(c):
    """Whether c is an exact scalar: an int (not a bool) or a Fraction."""
    return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


def _coerce(c):
    return Fraction(c) if is_rational(c) else c


def _is_exact(c):
    return isinstance(c, Fraction)


@cache
def _factors_text(e):
    """The monomial x^e as ``to_text`` writes it after its coefficient,
    e.g. "*x1^2*y3" for (2, 0, 0, 0, 0, 1)."""
    names = VAR_NAMES_3 if len(e) == 3 else VAR_NAMES_6
    return "".join("*" + name if k == 1 else "*%s^%d" % (name, k)
                   for name, k in zip(names, e) if k)


def _snap(c):
    """The real number c as the nearest rational with denominator at most
    1000 when that lies within 1e-9 of it, else c itself.

    Two such rationals differ by at least 1/1000^2, so at most one exists,
    and it lies within 1/(2q^2) of x = float(c), so by Legendre's theorem it
    is a convergent of x.  The walk over the continued-fraction convergents
    of ``x.as_integer_ratio()`` in Python ints therefore returns exactly
    ``Fraction(x).limit_denominator(1000)`` when that passes the check.  The
    argument needs 2 * 1e-9 * 1000^2 < 1, so the bounds are fixed.  The
    check |p/q - x| <= 10^-9 runs exactly, in Python ints, at any magnitude."""
    n, d = n0, d0 = float(c).as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a, r = divmod(n, d)
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        if q1 > 1000:
            return c
        if abs(p1 * d0 - n0 * q1) * 10 ** 9 <= q1 * d0:
            return Fraction(p1, q1)
        n, d = d, r


class Polynomial:
    """Sparse polynomial keyed by exponent tuples."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms, nvars):
        if nvars not in (3, 6):
            raise ValueError("nvars must be 3 or 6")
        clean = {}
        for exps, c in terms.items():
            try:
                key = tuple(int(e) for e in exps)
            except (OverflowError, ValueError):     # an inf or nan exponent
                key = ()
            if len(key) != nvars or any(e < 0 for e in key) or key != tuple(exps):
                raise ValueError("bad exponent tuple %r" % (exps,))
            c = _coerce(c)
            if c != 0:
                clean[key] = c
        self.terms = clean
        self.nvars = nvars

    @classmethod
    def _make(cls, terms, nvars):
        """A result of arithmetic on valid polynomials: only zeros are dropped."""
        poly = cls.__new__(cls)
        poly.terms = {e: c for e, c in terms.items() if c != 0}
        poly.nvars = nvars
        return poly

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars=3):
        return cls({}, nvars)

    @classmethod
    def constant(cls, c, nvars=3):
        return cls({(0,) * nvars: c}, nvars)

    @classmethod
    def one(cls, nvars=3):
        return cls.constant(1, nvars)

    @classmethod
    def variable(cls, i, nvars=3):
        e = [0] * nvars
        e[i] = 1
        return cls({tuple(e): 1}, nvars)

    # ---- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_exact(self):
        return all(_is_exact(c) for c in self.terms.values())

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_exponent(self):
        """Lexicographically largest exponent tuple (None if zero).

        The last variable is most significant, so e.g. x3^2 leads x1^2;
        this is the ordering the canonical sign fix refers to.
        """
        if not self.terms:
            return None
        return max(self.terms, key=lambda e: e[::-1])

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = Polynomial.constant(other, self.nvars)
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return Polynomial._make(t, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make({e: -c for e, c in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else -_coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = _coerce(other)
            return Polynomial._make({e: c * other for e, c in self.terms.items()}, self.nvars)
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return Polynomial._make(t, self.nvars)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _coerce(scalar)
        return Polynomial({e: c / scalar for e, c in self.terms.items()}, self.nvars)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ---- calculus -------------------------------------------------------

    def diff(self, i):
        t = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            t[tuple(ne)] = t.get(tuple(ne), 0) + c * e[i]
        return Polynomial._make(t, self.nvars)

    def laplacian(self):
        """Sum of second derivatives in x1, x2, x3 (3-variable only)."""
        if self.nvars != 3:
            raise ValueError("laplacian requires a 3-variable polynomial")
        out = Polynomial.zero(3)
        for i in range(3):
            out = out + self.diff(i).diff(i)
        return out

    # ---- evaluation and substitution -------------------------------------

    def evaluate(self, point):
        point = tuple(point)
        if len(point) != self.nvars:
            raise ValueError("variable-count mismatch")
        total = 0
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(point, e):
                if ei:
                    v = v * xi ** ei
            total = total + v
        return total

    def compose_linear(self, R):
        """Substitute x -> R x for a 3x3 matrix R (3-variable polynomials).

        Exact when R has rational entries supplied as Fractions/ints.
        """
        if self.nvars != 3:
            raise ValueError("compose_linear requires a 3-variable polynomial")
        unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        forms = [Polynomial._make({unit[j]: _coerce(R[i][j]) for j in range(3)}, 3)
                 for i in range(3)]
        powers = [[Polynomial._make({(0, 0, 0): Fraction(1)}, 3)] for _ in range(3)]

        def power(v, k):
            while len(powers[v]) <= k:
                powers[v].append(powers[v][-1] * forms[v])
            return powers[v][k]

        out = Polynomial._make({}, 3)
        for e, c in self.terms.items():
            term = Polynomial._make({(0, 0, 0): c}, 3)
            for v, k in enumerate(e):
                if k:
                    term = term * power(v, k)
            out = out + term
        return out

    # ---- canonical form ---------------------------------------------------

    def canonicalized(self):
        """Content-1, sign-fixed form.  Returns (poly, applied_scale).

        For exact polynomials the coefficients are scaled so that the gcd of
        integer coefficients (after clearing denominators) is 1 and the
        lexicographically-leading coefficient is positive.  Inexact
        polynomials are scaled by the inverse of the leading coefficient,
        which gives it the same sign fix.  ``applied_scale`` is the factor
        the polynomial was multiplied by.
        """
        if not self.terms:
            return self, Fraction(1)
        lead = self.terms[self.leading_exponent()]
        if self.is_exact():
            den = math.lcm(*(c.denominator for c in self.terms.values()))
            scale = Fraction(den, math.gcd(*(c.numerator * (den // c.denominator)
                                             for c in self.terms.values())))
            scale = scale if lead > 0 else -scale
        else:
            scale = 1.0 / lead
        return self * scale, scale

    # ---- text form ---------------------------------------------------------

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            cs = str(c) if isinstance(c, Fraction) else "%.12g" % float(c)   # "n" or "n/d"
            parts.append(cs + _factors_text(e))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return "Polynomial(%s)" % self.to_text()


# ---------------------------------------------------------------------------
# Kelvin-transform construction of harmonic polynomials
# ---------------------------------------------------------------------------

def kelvin_harmonicize(q, m):
    """Harmonic polynomial r^(2m+1) * q(d/dx1, d/dx2, d/dx3) (1/r).

    ``q`` must be homogeneous of degree ``m`` in 3 variables.  The result is
    homogeneous of degree m, harmonic, and canonicalized (content 1,
    lexicographically-leading coefficient positive).  By Hobson's theorem it
    is (-1)^m (2m-1)!! times the harmonic projection sum_k c_k r^(2k) L^k q
    of q, over the powers L^k of the Laplacian with k <= m/2, c_0 = 1 and
    c_(k+1) = -c_k / ((2k+2)(2m-2k-1)); the sum is taken by Horner in r^2,
    and canonicalizing drops the constant factor.
    """
    if q.nvars != 3:
        raise ValueError("variable-count mismatch: need 3 variables")
    if not q.is_homogeneous() or (not q.is_zero() and q.degree() != m):
        raise ValueError("q must be homogeneous of degree %d" % m)
    r2 = Polynomial({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, 3)
    laplacians = [q]
    for _ in range(m // 2):
        laplacians.append(laplacians[-1].laplacian())
    out = laplacians.pop()
    for k in range(len(laplacians) - 1, -1, -1):
        out = laplacians[k] + r2 * out * Fraction(-1, (2 * k + 2) * (2 * m - 2 * k - 1))
    return out.canonicalized()[0]


# ---------------------------------------------------------------------------
# Linear algebra over the entries' own field (Fraction matrices exactly,
# float matrices with one relative tolerance; matrices as numpy arrays)
# ---------------------------------------------------------------------------

RTOL = 1e-9


def read_only(a):
    """The array a, marked read-only."""
    a.flags.writeable = False
    return a


def coefficient_matrix(polys, monomials):
    """The coefficients of ``polys`` over ``monomials`` as (N, den), one row
    per polynomial with rows = N / den: Python ints (object dtype) over the
    lcm of the denominators when every coefficient is a ``Fraction``, a
    float array over 1 otherwise (``integer_matrix``)."""
    index = {e: k for k, e in enumerate(monomials)}
    exact = all(p.is_exact() for p in polys)
    D = np.zeros((len(polys), len(monomials)), dtype=object if exact else float)
    for r, p in enumerate(polys):
        for e, c in p.terms.items():
            D[r, index[e]] = c
    return integer_matrix(D)


def polynomials(P, monomials, keep=None, convert=None):
    """The inverse of ``coefficient_matrix``: one polynomial per row of the
    array P over ``monomials``, with the entries that ``keep`` marks (the
    nonzero ones by default) as its terms, each through ``convert`` when
    given, once per distinct value."""
    rk, ck = np.nonzero(P if keep is None else keep)
    converted = {}
    terms = [{} for _ in P]
    for r, c, x in zip(rk.tolist(), ck.tolist(), P[rk, ck].tolist()):
        if x not in converted:
            converted[x] = x if convert is None else convert(x)
        terms[r][monomials[c]] = converted[x]
    return tuple(Polynomial._make(t, len(monomials[0])) for t in terms)


def integer_matrix(D):
    """An array D of Fractions or ints (object dtype) as (N, den), Python
    ints with D = N / den over the lcm of the denominators; a float array as
    (D, 1)."""
    if D.dtype != object:
        return D, 1
    den = math.lcm(*(x.denominator for x in D.flat))
    N = np.array([x.numerator * (den // x.denominator) for x in D.flat], dtype=object)
    return N.reshape(D.shape), den


def zero_tolerance(rows):
    """Largest magnitude that counts as zero among these entries.

    0 when every entry is a ``Fraction`` (an exact zero test); otherwise
    ``RTOL * max(1, max|v|)``.  The floor of 1 keeps a matrix of pure
    rounding noise from being rescaled into apparent rank.
    """
    A = np.asarray(rows)
    if not A.size or (A.dtype == object and all(_is_exact(v) for v in A.flat)):
        return 0
    return RTOL * max(1.0, np.abs(A).max())


def rational_rref(rows):
    """Reduced row echelon form as (array, pivot_columns).

    All-float input is reduced in float64, anything else in object dtype
    with integers as ``Fraction``s and floats left as floats.  The pivot of
    a column is its first remaining entry whose magnitude exceeds
    ``zero_tolerance`` (0 for exact input).  Rows change only at a pivot, so
    in float64 the next pivot column is found by one test of the whole
    remaining block; object input is tested a column at a time.
    """
    floats = isinstance(rows, np.ndarray) and rows.dtype.kind == "f"
    A = rows.astype(float) if floats else np.frompyfunc(_coerce, 1, 1)(np.array(rows, object))
    if A.dtype == object and all(isinstance(v, float) for v in A.flat):
        A = A.astype(float)
    A = A.reshape(len(A), -1 if A.size else 0)
    tol = zero_tolerance(A)
    nr, nc = A.shape
    block = A.dtype == float
    pivots = []
    r = c = 0
    while r < nr and c < nc:
        if block:           # the first hit of the remaining block, column by column
            hits = np.abs(A[r:, c:]) > tol
            j, k = divmod(int(hits.T.argmax()), nr - r)
            if not hits[k, j]:
                break
            c += j
        else:
            hits = np.abs(A[r:, c]) > tol
            k = int(hits.argmax())
            if not hits[k]:
                c += 1
                continue
        if k:
            A[[r, r + k]] = A[[r + k, r]]
        A[r] /= A[r, c]
        others = A[:, c] != 0
        others[r] = False
        if block:           # the same products and differences, without a gather
            np.subtract(A, A[:, c, None] * A[r], out=A, where=others[:, None])
        else:
            A[others] -= A[others, c, None] * A[r]
        pivots.append(c)
        r += 1
        c += 1
    return A, pivots
