"""Real and complex harmonic polynomial bases.

Real bases come in two styles: "integer" (small integer coefficients, not
normalized on the sphere) and "orthonormal" (unit L2 norm on the unit
sphere).  Degrees 0..4 use built-in tables of rational cores; each
orthonormal norm is computed from its core by exact integration over the
sphere.  Above them the integer style is the Laplacian's null-space basis,
and the orthonormal style is m-adapted: the real and imaginary parts of the
complex solid harmonics r^n Y_n^m.  Those are kept as exact rational
"cores", built from a closed formula, with an exact normalization n2 such
that the harmonic equals sqrt(n2 / pi) * (re_core + i * im_core).  This
makes harmonicity and orthonormality checkable in exact arithmetic;
float-coefficient polynomials are derived for numerical evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .polyalg import Polynomial, coefficient_matrix, read_only

STYLES = ("integer", "orthonormal")     # the real basis styles

_F = Fraction


# ---------------------------------------------------------------------------
# Exact integration of polynomials over the unit sphere
# ---------------------------------------------------------------------------

def monomial_sphere_integral_over_pi(exps):
    """(1/pi) * integral of x^exps over the unit sphere, as a Fraction:
    4 (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!! when a, b, c are even."""
    a, b, c = exps
    if a % 2 or b % 2 or c % 2:
        return _F(0)
    num = 4 * math.prod(math.prod(range(k - 1, 0, -2)) for k in exps)
    return _F(num, math.prod(range(a + b + c + 1, 0, -2)))


def sphere_inner_over_pi(p, q):
    """(1/pi) * <p, q>_S for real 3-variable polynomials; exact if p, q are."""
    prod = p * q
    total = _F(0) if prod.is_exact() else 0.0
    for e, coef in prod.terms.items():
        total = total + coef * monomial_sphere_integral_over_pi(e)
    return total


# ---------------------------------------------------------------------------
# Built-in real bases (degrees 0..4)
# ---------------------------------------------------------------------------

def _p(d):
    return Polynomial(d, 3)


_INTEGER_TABLE = {
    0: [_p({(0, 0, 0): 1})],
    1: [_p({(1, 0, 0): 1}), _p({(0, 1, 0): 1}), _p({(0, 0, 1): 1})],
    2: [
        _p({(2, 0, 0): 1, (0, 2, 0): -1}),
        _p({(2, 0, 0): 1, (0, 0, 2): -1}),
        _p({(1, 1, 0): 1}),
        _p({(1, 0, 1): 1}),
        _p({(0, 1, 1): 1}),
    ],
    3: [
        _p({(3, 0, 0): 1, (1, 2, 0): -3}),
        _p({(0, 3, 0): 1, (2, 1, 0): -3}),
        _p({(3, 0, 0): 1, (1, 0, 2): -3}),
        _p({(0, 0, 3): 1, (2, 0, 1): -3}),
        _p({(0, 3, 0): 1, (0, 1, 2): -3}),
        _p({(0, 0, 3): 1, (0, 2, 1): -3}),
        _p({(1, 1, 1): 1}),
    ],
    4: [
        _p({(4, 0, 0): 1, (2, 2, 0): -6, (0, 4, 0): 1}),
        _p({(4, 0, 0): 1, (2, 0, 2): -6, (0, 0, 4): 1}),
        _p({(0, 4, 0): 1, (0, 2, 2): -6, (0, 0, 4): 1}),
        _p({(3, 1, 0): 1, (1, 3, 0): -1}),
        _p({(3, 0, 1): 1, (1, 0, 3): -1}),
        _p({(0, 3, 1): 1, (0, 1, 3): -1}),
        _p({(2, 1, 1): 3, (0, 1, 3): -1}),
        _p({(1, 2, 1): 3, (1, 0, 3): -1}),
        _p({(1, 1, 2): 3, (3, 1, 0): -1}),
    ],
}

# Orthonormal table: the rational cores; the polynomial is sqrt(n2/pi) * core
# with n2 = 1 / sphere_inner_over_pi(core, core).
_ORTHONORMAL_TABLE = {
    0: _INTEGER_TABLE[0],
    1: _INTEGER_TABLE[1],
    2: [
        _p({(1, 1, 0): 1}),
        _p({(0, 1, 1): 1}),
        _p({(1, 0, 1): 1}),
        _p({(2, 0, 0): 1, (0, 2, 0): -2, (0, 0, 2): 1}),
        _p({(2, 0, 0): 1, (0, 0, 2): -1}),
    ],
    3: [
        _p({(3, 0, 0): 1, (1, 2, 0): -3}),
        _p({(2, 1, 0): -3, (0, 3, 0): 1}),
        _p({(3, 0, 0): 1, (1, 2, 0): 1, (1, 0, 2): -4}),
        _p({(2, 0, 1): -3, (0, 0, 3): 1}),
        _p({(2, 1, 0): 1, (0, 3, 0): 1, (0, 1, 2): -4}),
        _p({(2, 0, 1): 1, (0, 2, 1): -4, (0, 0, 3): 1}),
        _p({(1, 1, 1): 1}),
    ],
    4: [
        _p({(4, 0, 0): 1, (2, 2, 0): -6, (0, 4, 0): 1}),
        _p({(4, 0, 0): 7, (0, 4, 0): -1, (0, 0, 4): 8, (2, 2, 0): 6, (2, 0, 2): -48}),
        _p({(4, 0, 0): -1, (0, 4, 0): 4, (0, 2, 2): -27, (0, 0, 4): 4,
            (2, 2, 0): 3, (2, 0, 2): 3}),
        _p({(3, 1, 0): 1, (1, 3, 0): -1}),
        _p({(3, 0, 1): 1, (1, 0, 3): -1}),
        _p({(0, 3, 1): 1, (0, 1, 3): -1}),
        _p({(2, 1, 1): 6, (0, 3, 1): -1, (0, 1, 3): -1}),
        _p({(3, 0, 1): -1, (1, 2, 1): 6, (1, 0, 3): -1}),
        _p({(3, 1, 0): -1, (1, 3, 0): -1, (1, 1, 2): 6}),
    ],
}


@dataclass(frozen=True)
class HarmonicBasis:
    """2n+1 real harmonic polynomials of degree n.

    ``polynomials`` are directly evaluable (float coefficients in the
    orthonormal style); ``cores`` are the exact rational harmonics and
    ``norms2`` (orthonormal style only) the exact factors n2 with
    polynomial = sqrt(n2/pi) * core.
    """

    degree: int
    style: str
    polynomials: tuple
    cores: tuple
    norms2: tuple | None = None


def monomials_of_degree(n):
    """The exponent triples (a, b, c) of total degree n in strictly
    decreasing lexicographic order: a from n down, then b from n - a down."""
    if n < 0:
        raise ValueError("degree must be non-negative, got %d" % n)
    return [(a, b, n - a - b) for a in range(n, -1, -1) for b in range(n - a, -1, -1)]


def harmonic_nullspace_basis(n):
    """Integer-style degree-n harmonic basis from the Laplacian null space.

    A harmonic polynomial is fixed by its coefficients v on the monomials
    x1^a x2^b x3^c with a < 2, the free columns of the Laplacian's matrix in
    ``monomials_of_degree`` order; Laplace's equation gives the rest, a up:
    a (a-1) v[a,b,c] = -(b+2)(b+1) v[a-2,b+2,c] - (c+2)(c+1) v[a-2,b,c+2].
    Basis polynomial k has free coefficient k one and the others zero, as in
    the null-space basis of that matrix's row echelon form.  Run in integers
    with the free coefficient n!, of which v[a,b,c] is an integer multiple
    of n!/a!, so every division is exact.
    """
    monos = monomials_of_degree(n)
    pivots = [e for e in reversed(monos) if e[0] >= 2]      # a up
    basis = []
    for free in (e for e in monos if e[0] < 2):
        v = {e: math.factorial(n) * (e == free) for e in monos if e[0] < 2}
        for a, b, c in pivots:
            v[a, b, c] = -((b + 2) * (b + 1) * v[a - 2, b + 2, c]
                           + (c + 2) * (c + 1) * v[a - 2, b, c + 2]) // (a * (a - 1))
        basis.append(Polynomial(v, 3).canonicalized()[0])
    assert len(basis) == 2 * n + 1
    return basis


@cache
def real_basis(n, style="integer"):
    """The 2n+1 real harmonic polynomials of degree n.

    ``style`` is "integer" or "orthonormal".  Degrees 0..4 reproduce the
    built-in tables; higher degrees come from the Laplacian null space, or
    from the canonicalized complex cores in the orthonormal style.  Memoised:
    the returned basis is shared and must not be modified.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if style == "integer":
        polys = _INTEGER_TABLE[n] if n in _INTEGER_TABLE else harmonic_nullspace_basis(n)
        return HarmonicBasis(n, "integer", tuple(polys), tuple(polys))
    if style == "orthonormal":
        if n in _ORTHONORMAL_TABLE:
            cores = _ORTHONORMAL_TABLE[n]
            norms2 = [1 / sphere_inner_over_pi(c, c) for c in cores]
        else:
            # order m = i - n: the cos(m phi) part of H_n^|m| for m >= 0, the
            # sin(|m| phi) part for m < 0; each has half of |H_n^m|^2 if m != 0
            hs = [complex_solid_harmonic(n, m) for m in range(n + 1)]
            cores, norms2 = [], []
            for m in range(-n, n + 1):
                core, s = (hs[-m].im_core if m < 0 else hs[m].re_core).canonicalized()
                cores.append(core)
                norms2.append(hs[abs(m)].n2 * (2 if m else 1) / (s * s))
        polys = [c * math.sqrt(s / math.pi) for c, s in zip(cores, norms2)]
        return HarmonicBasis(n, "orthonormal", tuple(polys), tuple(cores), tuple(norms2))
    raise ValueError("unknown style %r" % style)


# ---------------------------------------------------------------------------
# Complex solid harmonics  H_n^m = r^n Y_n^m
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexSolidHarmonic:
    """H_n^m = sqrt(n2/pi) * (re_core + i * im_core).

    ``re``/``im`` are float-coefficient polynomials for evaluation;
    the cores and n2 are exact.
    """

    degree: int
    order: int
    re: Polynomial
    im: Polynomial
    re_core: Polynomial
    im_core: Polynomial
    n2: Fraction

    def evaluate(self, point):
        return complex(self.re.evaluate(point), self.im.evaluate(point))


def _solid_core(n, m):
    """Rational core of r^n Y_n^m for m >= 0, (re, im), in closed form:
    2^-n sum_j (-1)^j C(n, j) C(2n-2j, n) (n-2j)!/(n-2j-m)! x3^(n-2j-m)
    r^(2j) (x1 + i x2)^m, the m-th derivative of the Legendre polynomial P_n
    at x3/r, times r^(n-m) (x1 + i x2)^m.  r^(2j) is expanded by the
    trinomial theorem and (x1 + i x2)^m by the binomial theorem, in integers
    over 2^n."""
    parts = ({}, {})
    binomial = [(k, (-1) ** (k // 2) * math.comb(m, k), parts[k % 2]) for k in range(m + 1)]
    for j in range((n - m) // 2 + 1):
        c = (-1) ** j * math.comb(n, j) * math.comb(2 * n - 2 * j, n) * math.perm(n - 2 * j, m)
        for a in range(j + 1):
            for b in range(j - a + 1):
                t = c * math.comb(j, a) * math.comb(j - a, b)
                for k, u, part in binomial:             # i^k C(m, k) x1^(m-k) x2^k
                    e = (2 * a + m - k, 2 * b + k, n - m - 2 * a - 2 * b)
                    part[e] = part.get(e, 0) + u * t
    return tuple(Polynomial._make({e: _F(v, 2 ** n) for e, v in part.items()}, 3)
                 for part in parts)


def complex_solid_harmonic(n, m):
    if abs(m) > n:
        raise ValueError("|m| must not exceed n")
    am = abs(m)
    re_core, im_core = _solid_core(n, am)
    if m < 0:
        # H_n^{-m} = (-1)^m conj(H_n^m), exact at the coefficient level
        sign = -1 if am % 2 else 1
        re_core, im_core = sign * re_core, (-sign) * im_core
    n2 = _F((2 * n + 1) * math.factorial(n - am), 4 * math.factorial(n + am))
    scale = math.sqrt(n2 / math.pi)
    return ComplexSolidHarmonic(n, m, re_core * scale, im_core * scale,
                                re_core, im_core, n2)


def complex_solid_harmonics(n):
    """All 2n+1 solid harmonics of degree n, ordered m = -n..n."""
    return [complex_solid_harmonic(n, m) for m in range(-n, n + 1)]


# ---------------------------------------------------------------------------
# Change of basis between real and complex harmonics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisChange:
    """Coefficients a[l, m] with H_n^m = sum_l a[l, m] I_n^l.

    Indices run over l, m = -n..n mapped to 0..2n.  ``matrix`` follows the
    (A_p)_{mn} = a_{nm} convention, i.e. matrix = a.T, and ``adjoint`` is its
    conjugate transpose a.conj(); each is made once per change, and
    ``basis_change`` keeps one change per (degree, style).  Unitary when
    built from the orthonormal real style.
    """

    degree: int
    real_style: str
    a: np.ndarray

    @cached_property
    def matrix(self):
        return self.a.T

    @cached_property
    def adjoint(self):
        return read_only(self.a.conj())

    def unitarity_residual(self):
        A = self.a
        return float(np.max(np.abs(A.conj().T @ A - np.eye(A.shape[0]))))


@cache
def basis_change(n, real_style="orthonormal"):
    """Solve H_n^m = sum_l a[l, m] I_n^l on monomial coefficients.

    Memoised; ``a``, ``matrix`` and ``adjoint`` are read-only.
    """
    monos, A = monomial_expansion(n)
    N, den = coefficient_matrix(real_basis(n, real_style).polynomials, monos)
    BI = (N / den).astype(float)                                     # (2n+1) x nm
    # BI.T @ a[:, m] = A[:, m] for each order m
    a, res, rank, _ = np.linalg.lstsq(BI.T, A, rcond=None)
    if rank < 2 * n + 1:
        raise RuntimeError("real basis of degree %d is rank-deficient" % n)
    resid = float(np.max(np.abs(BI.T @ a - A)))
    if resid > 1e-9:
        raise RuntimeError("basis-change solve residual %g too large" % resid)
    return BasisChange(n, real_style, read_only(a))


def monomial_expansion(n):
    """Monomial coefficients a^MH with H_n^m = sum_beta a^MH[beta, m] x^beta.

    Returns (monomial list, complex array of shape (n_monomials, 2n+1)).
    """
    monos = monomials_of_degree(n)
    hs = complex_solid_harmonics(n)
    C, _ = coefficient_matrix([h.re for h in hs] + [h.im for h in hs], monos)
    return monos, np.ascontiguousarray((C[:len(hs)] + 1j * C[len(hs):]).T)


# ---------------------------------------------------------------------------
# Truncated harmonic expansion of the Laplace free-space Green's function
# ---------------------------------------------------------------------------

def green_expansion(x, xp, N):
    """Partial sum of the harmonic expansion of 1/(4 pi |x - x'|).

    Sums degrees n = 0..N of (1/(2n+1)) sum_m K_n^m(x) conj(H_n^m(x'))
    with K_n^m = H_n^m / |x|^(2n+1).  Requires 0 < |x'| or x' = 0, and
    |x'| < |x|.
    """
    x = tuple(float(v) for v in x)
    xp = tuple(float(v) for v in xp)
    rx = math.sqrt(sum(v * v for v in x))
    rp = math.sqrt(sum(v * v for v in xp))
    if rx == 0.0:
        raise ValueError("x must be nonzero")
    if rp >= rx:
        raise ValueError("requires |x'| < |x|")
    total = 0.0
    for n in range(N + 1):
        inv = 1.0 / (rx ** (2 * n + 1))
        s = 0.0
        for h in complex_solid_harmonics(n):
            s += (h.evaluate(x) * h.evaluate(xp).conjugate()).real
        total += s * inv / (2 * n + 1)
    return total


def green_exact(x, xp):
    """Closed-form 1/(4 pi |x - x'|), the oracle for green_expansion."""
    d = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, xp)))
    return 1.0 / (4.0 * math.pi * d)
