"""Shared fixtures, polynomial-span helpers and the verification references
(checks and the paper's Algorithm 2) that the library's pipeline does not call."""

import random
from fractions import Fraction

import numpy as np
import pytest

from hgptsym.harmonics import sphere_inner_over_pi
from hgptsym.polyalg import Polynomial, rational_rref
from hgptsym.symgroups import MATCH_TOL, _Keyed

_F = Fraction

PROJECTOR_TOL = 1e-9
SVD_RELTOL = 1e-10

# 3-variable building blocks for writing golden polynomials by hand
u1, u2, u3 = (Polynomial.variable(i, 3) for i in range(3))


def lift(poly3, block):
    """Embed a 3-variable polynomial into the x- or y-variables of 6."""
    shift = 0 if block == "x" else 3
    terms = {}
    for e, c in poly3.terms.items():
        ne = [0] * 6
        for i, k in enumerate(e):
            ne[shift + i] = k
        terms[tuple(ne)] = c
    return Polynomial(terms, 6)


def prod(f, g):
    """f(x) g(y) as a 6-variable polynomial."""
    return lift(f, "x") * lift(g, "y")


def sym(f, g):
    """Symmetrized product f(x) g(y) + f(y) g(x)."""
    return prod(f, g) + prod(g, f)


def coeff_matrix(polys):
    """Float coefficient matrix of a polynomial list on their joint monomials."""
    monos = sorted({e for p in polys for e in p.terms})
    index = {e: i for i, e in enumerate(monos)}
    A = np.zeros((len(polys), len(monos)))
    for i, p in enumerate(polys):
        for e, c in p.terms.items():
            A[i, index[e]] = float(c)
    return A, monos


def span_equal(polys_a, polys_b, tol=1e-8):
    """True when the two polynomial lists span the same subspace."""
    if not polys_a and not polys_b:
        return True
    monos = sorted({e for p in list(polys_a) + list(polys_b) for e in p.terms})
    index = {e: i for i, e in enumerate(monos)}

    def rows(polys):
        A = np.zeros((len(polys), len(monos)))
        for i, p in enumerate(polys):
            for e, c in p.terms.items():
                A[i, index[e]] = float(c)
            norm = np.linalg.norm(A[i])
            if norm > 0:
                A[i] /= norm
        return A

    A, B = rows(list(polys_a)), rows(list(polys_b))
    ra = np.linalg.matrix_rank(A, tol=tol)
    rb = np.linalg.matrix_rank(B, tol=tol)
    rs = np.linalg.matrix_rank(np.vstack([A, B]), tol=tol)
    return ra == rb == rs


def proportional(p, q, positive=True, tol=0.0):
    """True when p = c*q for a (positive) scalar c."""
    if set(p.terms) != set(q.terms):
        return False
    ratio = None
    for e, c in p.terms.items():
        r = float(c) / float(q.terms[e])
        if ratio is None:
            ratio = r
        elif abs(r - ratio) > tol + 1e-12 * abs(ratio):
            return False
    return ratio is not None and (ratio > 0 or not positive)


# ---------------------------------------------------------------------------
# verification references
# ---------------------------------------------------------------------------

def verify_fixed(inv, group, nsamples=20, tol=PROJECTOR_TOL, seed=0):
    """Pointwise check S(Rx, Ry) = S(x, y) at random rational points."""
    rng = random.Random(seed)
    nv = len(inv.space.monomials[0])
    worst = 0.0
    for S in inv.basis:
        pts = [tuple(_F(rng.randint(-10, 10), rng.randint(1, 7)) for _ in range(nv))
               for _ in range(nsamples)]
        for E in group.elements:
            for pt in pts:
                x = np.asarray(pt[:3], dtype=float)
                rx = np.asarray(E, dtype=float) @ x
                if nv == 6:
                    y = np.asarray(pt[3:], dtype=float)
                    ry = np.asarray(E, dtype=float) @ y
                    moved = tuple(rx) + tuple(ry)
                else:
                    moved = tuple(rx)
                a = float(S.evaluate(moved))
                b = float(S.evaluate(tuple(float(v) for v in pt)))
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst <= tol, worst


def nullspace(C, reltol=SVD_RELTOL):
    """Rows spanning the null space of C (SVD threshold relative to sigma_max)."""
    C = np.asarray(C, dtype=float)
    if C.size == 0:
        return np.eye(C.shape[1])
    _, s, vt = np.linalg.svd(C)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > reltol * max(smax, 1e-300)))
    return vt[rank:]


def intersect_subspaces(A, B):
    """Basis (rows) of span(columns of A) intersect span(columns of B).

    Stack C = [A B], take null vectors (u; w); then A u spans the
    intersection.  Empty intersection returns an empty array.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[1] == 0 or B.shape[1] == 0:
        return np.zeros((0, A.shape[0]))
    C = np.hstack([A, B])
    N = nullspace(C)
    if N.shape[0] == 0:
        return np.zeros((0, A.shape[0]))
    inter = N[:, :A.shape[1]] @ A.T
    # keep an independent subset of the rows
    keep = nullspace(nullspace(inter))  # orthonormal row basis of the row space
    return keep


def rational_nullspace(rows):
    """Basis (list of rows) for the null space of the matrix (nested lists
    or a numpy array)."""
    if len(rows) == 0:
        return []
    nc = len(rows[0])
    rref, pivots = rational_rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def solid_harmonic_inner_over_pi(h1, h2):
    """(1/pi) * <H1, H2>_S exactly (Fraction-valued up to the sqrt scales).

    Returns the exact rational value of <H1,H2>_S / (pi * sqrt(n2_1 * n2_2 / pi^2)),
    i.e. the core inner product; the full inner product is this times
    sqrt(n2_1 * n2_2).  Orthonormality holds iff the product equals 1 for
    h1 == h2 and the core inner product vanishes otherwise.
    """
    re_part = sphere_inner_over_pi(h1.re_core, h2.re_core) + \
        sphere_inner_over_pi(h1.im_core, h2.im_core)
    im_part = sphere_inner_over_pi(h1.im_core, h2.re_core) - \
        sphere_inner_over_pi(h1.re_core, h2.im_core)
    return re_part, im_part


def _contains(elements, M, tol=MATCH_TOL):
    return bool(_Keyed(elements).nearest(M, tol)[0] < tol)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_rotation(rng):
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1
    return Q


def frac(a, b=1):
    return Fraction(a, b)
