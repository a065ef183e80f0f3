"""Real and complex harmonic polynomial bases.

Real bases come in two styles: "integer" (small integer coefficients, not
normalized on the sphere) and "orthonormal" (unit L2 norm on the unit
sphere).  Degrees 0..4 use built-in tables; higher degrees are constructed
from the null space of the Laplacian on homogeneous monomials.

Complex solid harmonics r^n Y_n^m are kept as exact rational "cores"
together with an exact normalization n2 such that the harmonic equals
sqrt(n2 / pi) * (re_core + i * im_core).  This makes harmonicity and
orthonormality checkable in exact arithmetic; float-coefficient
polynomials are derived for numerical evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .polyalg import Polynomial, coefficient_matrix

_F = Fraction


# ---------------------------------------------------------------------------
# Exact integration of polynomials over the unit sphere
# ---------------------------------------------------------------------------

def _double_factorial(n):
    if n <= 0:
        return 1
    out = 1
    while n > 0:
        out *= n
        n -= 2
    return out


def monomial_sphere_integral_over_pi(exps):
    """(1/pi) * integral of x^exps over the unit sphere, as a Fraction."""
    a, b, c = exps
    if a % 2 or b % 2 or c % 2:
        return _F(0)
    num = 4 * _double_factorial(a - 1) * _double_factorial(b - 1) * _double_factorial(c - 1)
    return _F(num, _double_factorial(a + b + c + 1))


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

# Orthonormal table: (rational core, n2) with polynomial = sqrt(n2/pi) * core.
_ORTHONORMAL_TABLE = {
    0: [(_p({(0, 0, 0): 1}), _F(1, 4))],
    1: [
        (_p({(1, 0, 0): 1}), _F(3, 4)),
        (_p({(0, 1, 0): 1}), _F(3, 4)),
        (_p({(0, 0, 1): 1}), _F(3, 4)),
    ],
    2: [
        (_p({(1, 1, 0): 1}), _F(15, 4)),
        (_p({(0, 1, 1): 1}), _F(15, 4)),
        (_p({(1, 0, 1): 1}), _F(15, 4)),
        (_p({(2, 0, 0): 1, (0, 2, 0): -2, (0, 0, 2): 1}), _F(5, 16)),
        (_p({(2, 0, 0): 1, (0, 0, 2): -1}), _F(15, 16)),
    ],
    3: [
        (_p({(3, 0, 0): 1, (1, 2, 0): -3}), _F(35, 32)),
        (_p({(2, 1, 0): -3, (0, 3, 0): 1}), _F(35, 32)),
        (_p({(3, 0, 0): 1, (1, 2, 0): 1, (1, 0, 2): -4}), _F(21, 32)),
        (_p({(2, 0, 1): -3, (0, 0, 3): 1}), _F(35, 32)),
        (_p({(2, 1, 0): 1, (0, 3, 0): 1, (0, 1, 2): -4}), _F(21, 32)),
        (_p({(2, 0, 1): 1, (0, 2, 1): -4, (0, 0, 3): 1}), _F(21, 32)),
        (_p({(1, 1, 1): 1}), _F(105, 4)),
    ],
    4: [
        (_p({(4, 0, 0): 1, (2, 2, 0): -6, (0, 4, 0): 1}), _F(315, 256)),
        (_p({(4, 0, 0): 7, (0, 4, 0): -1, (0, 0, 4): 8, (2, 2, 0): 6, (2, 0, 2): -48}),
         _F(5, 256)),
        (_p({(4, 0, 0): -1, (0, 4, 0): 4, (0, 2, 2): -27, (0, 0, 4): 4,
             (2, 2, 0): 3, (2, 0, 2): 3}), _F(1, 16)),
        (_p({(3, 1, 0): 1, (1, 3, 0): -1}), _F(315, 16)),
        (_p({(3, 0, 1): 1, (1, 0, 3): -1}), _F(315, 16)),
        (_p({(0, 3, 1): 1, (0, 1, 3): -1}), _F(315, 16)),
        (_p({(2, 1, 1): 6, (0, 3, 1): -1, (0, 1, 3): -1}), _F(45, 16)),
        (_p({(3, 0, 1): -1, (1, 2, 1): 6, (1, 0, 3): -1}), _F(45, 16)),
        (_p({(3, 1, 0): -1, (1, 3, 0): -1, (1, 1, 2): 6}), _F(45, 16)),
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


def monomials_of_degree(n, nvars=3):
    """All exponent tuples of total degree n, sorted reverse-lexicographically."""
    if n < 0:
        raise ValueError("degree must be non-negative, got %d" % n)
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), n):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(set(out), reverse=True)


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
    monos = monomials_of_degree(n, 3)
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


def _gram_schmidt_orthonormal(cores):
    """Exact Gram-Schmidt on the sphere; returns (orthogonal cores, norms2)."""
    ortho = []
    inner_self = []
    for p in cores:
        u = p
        for v, vv in zip(ortho, inner_self):
            coef = sphere_inner_over_pi(p, v) / vv
            if coef:
                u = u - coef * v
        u, _ = u.canonicalized()
        ortho.append(u)
        inner_self.append(sphere_inner_over_pi(u, u))
    norms2 = [_F(1) / s for s in inner_self]
    return ortho, norms2


@cache
def real_basis(n, style="integer"):
    """The 2n+1 real harmonic polynomials of degree n.

    ``style`` is "integer" or "orthonormal".  Degrees 0..4 reproduce the
    built-in tables; higher degrees are constructed from the Laplacian
    null space (orthonormalized on the sphere when requested).  Memoised:
    the returned basis is shared and must not be modified.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if style == "integer":
        if n in _INTEGER_TABLE:
            polys = list(_INTEGER_TABLE[n])
        else:
            polys = harmonic_nullspace_basis(n)
        return HarmonicBasis(n, "integer", tuple(polys), tuple(polys))
    if style == "orthonormal":
        if n in _ORTHONORMAL_TABLE:
            pairs = _ORTHONORMAL_TABLE[n]
            cores = [p for p, _ in pairs]
            norms2 = [s for _, s in pairs]
        else:
            cores, norms2 = _gram_schmidt_orthonormal(real_basis(n, "integer").polynomials)
        polys = [c * math.sqrt(s / math.pi) for c, s in zip(cores, norms2)]
        return HarmonicBasis(n, "orthonormal", tuple(polys), tuple(cores), tuple(norms2))
    raise ValueError("unknown style %r" % style)


# ---------------------------------------------------------------------------
# Complex solid harmonics  H_n^m = r^n Y_n^m
# ---------------------------------------------------------------------------

def legendre_coefficients(n):
    """Coefficients of the Legendre polynomial P_n as Fractions, index = power."""
    if n == 0:
        return [_F(1)]
    prev = [_F(1)]
    cur = [_F(0), _F(1)]
    for k in range(1, n):
        nxt = [_F(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += _F(2 * k + 1, k + 1) * c
        for i, c in enumerate(prev):
            nxt[i] -= _F(k, k + 1) * c
        prev, cur = cur, nxt
    return cur


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
    """Rational core of r^n Y_n^m for m >= 0: (x1 + i x2)^m * R_nm(x3, r^2)."""
    coeffs = legendre_coefficients(n)
    for _ in range(m):
        coeffs = [k * c for k, c in enumerate(coeffs)][1:]
    x1, x2, x3 = (Polynomial.variable(i) for i in range(3))
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    radial = Polynomial.zero(3)
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        # term c * x3^k * r^(n-m-k); n-m-k is even by Legendre parity
        radial = radial + c * (x3 ** k) * (r2 ** ((n - m - k) // 2))
    re = Polynomial.zero(3)
    im = Polynomial.zero(3)
    for j in range(m + 1):
        coef = _F(math.comb(m, j))
        part = coef * (x1 ** (m - j)) * (x2 ** j)
        if j % 4 == 0:
            re = re + part
        elif j % 4 == 1:
            im = im + part
        elif j % 4 == 2:
            re = re - part
        else:
            im = im - part
    return re * radial, im * radial


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
        adjoint = self.a.conj()
        adjoint.flags.writeable = False
        return adjoint

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
    a.flags.writeable = False
    return BasisChange(n, real_style, a)


def monomial_expansion(n):
    """Monomial coefficients a^MH with H_n^m = sum_beta a^MH[beta, m] x^beta.

    Returns (monomial list, complex array of shape (n_monomials, 2n+1)).
    """
    monos = monomials_of_degree(n, 3)
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
