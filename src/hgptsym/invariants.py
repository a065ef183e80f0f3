"""Group actions on harmonic-polynomial spaces and their fixed subspaces.

The central objects are representation spaces (either the 2p+1 real
harmonics of degree p, or the symmetric products I_p^i(x) I_q^j(y) +
I_p^i(y) I_q^j(x)), the per-element action matrices, the group-averaging
projector whose trace is the fixed-subspace dimension, the Molien
dimension series with its harmonic counterpart h(t) = (1 - t^2) g(t),
and the translation of fixed symmetric products into linear relations
among HGPT coefficients.

Rational groups run in exact arithmetic end to end; irrational ones
(C3, C5, C6, icosahedral, ...) run in floats with tolerance-checked
integer reconstruction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .harmonics import monomials_of_degree, real_basis
from .polyalg import Polynomial, rational_rref, rational_solve

_F = Fraction

TRACE_TOL = 1e-6
PROJECTOR_TOL = 1e-9
SOLVE_TOL = 1e-10
SVD_RELTOL = 1e-10


# ---------------------------------------------------------------------------
# representation spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepresentationSpace:
    """Ordered polynomial basis of a space the group acts on.

    ``kind`` is "harmonic" (index_map holds 1-tuples of the order i) or
    "symmetric_product" (index_map holds (i, j) order pairs, i <= j when
    p == q).  ``monomials`` fixes the coefficient coordinates; ``B``
    is the exact coefficient matrix (rows = basis elements).
    """

    kind: str
    p: int
    q: int | None
    style: str
    basis: tuple
    index_map: tuple
    monomials: tuple
    B: tuple  # rows of Fractions (or floats for inexact bases)

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def is_exact(self):
        return all(isinstance(c, _F) for row in self.B for c in row)

    @cached_property
    def coefficients(self):
        """``B`` as a read-only float array."""
        return _read_only(np.array([[float(c) for c in row] for row in self.B]))


def _read_only(a):
    a.flags.writeable = False
    return a


def _coeff_rows(polys, monomials):
    index = {e: i for i, e in enumerate(monomials)}
    rows = []
    for p in polys:
        row = [_F(0)] * len(monomials)
        exact = p.is_exact()
        if not exact:
            row = [0.0] * len(monomials)
        for e, c in p.terms.items():
            row[index[e]] = c if exact else float(c)
        rows.append(row)
    return rows


@cache
def harmonic_space(p, style="integer"):
    basis = real_basis(p, style)
    monos = tuple(monomials_of_degree(p, 3))
    rows = _coeff_rows(basis.polynomials, monos)
    index_map = tuple((i,) for i in range(-p, p + 1))
    return RepresentationSpace("harmonic", p, None, style, tuple(basis.polynomials),
                               index_map, monos, tuple(tuple(r) for r in rows))


def _product_monomials(p, q):
    degs = {(p, q), (q, p)}
    out = []
    for dx, dy in degs:
        for ex in monomials_of_degree(dx, 3):
            for ey in monomials_of_degree(dy, 3):
                out.append(ex + ey)
    return sorted(set(out), reverse=True)


def _lift(poly3, block):
    """Embed a 3-variable polynomial into the x- or y-block of 6 variables."""
    shift = 0 if block == "x" else 3
    terms = {}
    for e, c in poly3.terms.items():
        ne = [0] * 6
        for i, k in enumerate(e):
            ne[shift + i] = k
        terms[tuple(ne)] = c
    return Polynomial(terms, 6)


@cache
def symmetric_product_space(p, q, style="integer"):
    """Span of I_p^i(x) I_q^j(y) + I_p^i(y) I_q^j(x).

    Dimension (2p+1)(2q+1) for p != q and (2p+1)(p+1) for p == q (the
    pair (i, j) with i <= j indexes the latter; the diagonal element is
    I_p^i(x) I_p^i(y)).
    """
    bp = real_basis(p, style).polynomials
    bq = real_basis(q, style).polynomials
    basis = []
    index_map = []
    for ii in range(2 * p + 1):
        for jj in range(2 * q + 1):
            i = ii - p
            j = jj - q
            if p == q and i > j:
                continue
            ex = _lift(bp[ii], "x") * _lift(bq[jj], "y")
            if p == q and i == j:
                elem = ex
            else:
                elem = ex + _lift(bp[ii], "y") * _lift(bq[jj], "x")
            basis.append(elem)
            index_map.append((i, j))
    monos = tuple(_product_monomials(p, q))
    rows = _coeff_rows(basis, monos)
    return RepresentationSpace("symmetric_product", p, q, style, tuple(basis),
                               tuple(index_map), monos, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# action matrices and the averaging projector
# ---------------------------------------------------------------------------

@cache
def _sample_values(monomials):
    """Fixed points X on the unit sphere and the monomials evaluated there.

    Twice as many points as monomials, on a Fibonacci lattice; the
    Vandermonde matrix is checked to have full column rank, so a
    homogeneous polynomial that vanishes at every point is zero.
    """
    n = 2 * len(monomials)
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    r = np.sqrt(1.0 - z * z)
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    X = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    V = _monomial_values(X, monomials)
    if np.linalg.matrix_rank(V) < len(monomials):
        raise RuntimeError("sample points do not separate the monomials")
    return _read_only(X), _read_only(V)


def _monomial_values(X, monomials):
    return np.prod(X[:, None, :] ** np.array(monomials)[None, :, :], axis=2)


def _harmonic_action(space, R, exact_R=None):
    """D(R) on a 3-variable space: row i holds basis[i] o R in the basis.

    Exact: compose each basis polynomial with ``exact_R`` and solve over
    the rationals.  Float: basis(R X) = D basis(X) at the fixed sample
    points X, solved by least squares; the rank check and the residual
    relative to the value scale prove basis o R lies in the span.
    """
    if exact_R is not None and space.is_exact:
        composed = [b.compose_linear(exact_R, "x") for b in space.basis]
        rows = _coeff_rows(composed, space.monomials)
        Dt = rational_solve(list(zip(*space.B)), list(zip(*rows)))
        return np.array(Dt, dtype=object).T
    X, V = _sample_values(space.monomials)
    Bt = space.coefficients.T
    G = V @ Bt                                            # basis at X
    F = _monomial_values(X @ np.asarray(R, dtype=float).T, space.monomials) @ Bt
    Dt, _, rank, _ = np.linalg.lstsq(G, F, rcond=None)
    if rank < space.dim:
        raise RuntimeError("basis is rank-deficient")
    resid = float(np.max(np.abs(G @ Dt - F))) / max(float(np.max(np.abs(F))), 1e-300)
    if resid > SOLVE_TOL:
        raise RuntimeError("composed polynomial not in the span (residual %g)" % resid)
    return Dt.T


def _fold(Dp, Dq, symmetric):
    """pi(R) on S_pq from D_p(R) and D_q(R), in ``index_map`` order.

    p != q: the Kronecker product.  p == q: row (i, j), i < j, is
    D[i,k] D[j,l] + D[j,k] D[i,l] over pairs k <= l; row (i, i) is
    D[i,k] D[i,l].
    """
    K = np.kron(Dp, Dq)
    if not symmetric:
        return K
    n = Dp.shape[0]
    K = K.reshape(n, n, n, n)          # K[i, j, k, l] = D[i, k] D[j, l]
    iu, ju = np.triu_indices(n)
    P = K[iu, ju][:, iu, ju]
    off = iu != ju
    P[off] += K[ju[off], iu[off]][:, iu, ju]
    return P


def action_matrix(space, R, exact_R=None):
    """Matrix pi(R): row i holds the coefficients of basis[i] o R in the basis.

    Exact when the space basis and R are rational (pass ``exact_R`` as rows
    of Fractions; the result is rows of Fractions); otherwise float.  On a
    symmetric-product space pi(R) is folded from the degree-p and degree-q
    harmonic actions.
    """
    if space.kind == "harmonic":
        D = _harmonic_action(space, R, exact_R)
    else:
        Dp = _harmonic_action(harmonic_space(space.p, space.style), R, exact_R)
        Dq = Dp if space.q == space.p else \
            _harmonic_action(harmonic_space(space.q, space.style), R, exact_R)
        D = _fold(Dp, Dq, space.p == space.q)
    return D.tolist() if D.dtype == object else D


def averaging_projector(space, group):
    """M_pi = (1/|G|) sum_R pi(R); idempotent projector onto the fixed space."""
    if space.is_exact and group.is_rational:
        n = space.dim
        total = [[_F(0)] * n for _ in range(n)]
        for E in group.exact_elements:
            P = action_matrix(space, E, exact_R=E)
            for i in range(n):
                for j in range(n):
                    total[i][j] += P[i][j]
        g = _F(group.order)
        return [[v / g for v in row] for row in total]
    total = np.zeros((space.dim, space.dim))
    for E in group.elements:
        total += action_matrix(space, E)
    return total / group.order


def projector_as_float(M):
    if isinstance(M, np.ndarray):
        return M
    return np.array([[float(v) for v in row] for row in M])


# ---------------------------------------------------------------------------
# fixed subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantSubspace:
    """Fixed subspace of a representation space under a group."""

    space: RepresentationSpace
    group_name: str
    dimension: int
    basis: tuple                 # canonicalized polynomials
    coefficient_rows: tuple      # rows over space.basis indices (same scaling)
    monomial_rows: tuple         # rows over space.monomials (same scaling)


def _select_independent_rows(rows, m, exact):
    """Indices of the first m rows that are linearly independent, in order."""
    chosen = []
    if exact:
        kept = []
        for idx, row in enumerate(rows):
            if all(c == 0 for c in row):
                continue
            trial = kept + [list(row)]
            if len(rational_rref(trial)[1]) == len(trial):
                kept = trial
                chosen.append(idx)
            if len(chosen) == m:
                break
    else:
        A = np.array([[float(c) for c in r] for r in rows])
        scale = max(np.max(np.abs(A)), 1.0)
        kept = np.zeros((0, A.shape[1]))
        for idx in range(A.shape[0]):
            row = A[idx]
            if np.max(np.abs(row)) < 1e-9 * scale:
                continue
            trial = np.vstack([kept, row])
            if np.linalg.matrix_rank(trial, tol=1e-8 * scale) == trial.shape[0]:
                kept = trial
                chosen.append(idx)
            if len(chosen) == m:
                break
    if len(chosen) != m:
        raise RuntimeError("found %d independent projected elements, expected %d"
                           % (len(chosen), m))
    return chosen


def invariant_subspace(space, group):
    """Dimension and canonical basis of the subspace fixed by the group."""
    M = averaging_projector(space, group)
    exact = not isinstance(M, np.ndarray)
    if exact:
        tr = sum(M[i][i] for i in range(space.dim))
        if tr.denominator != 1:
            raise RuntimeError("projector trace %s is not an integer" % tr)
        m = int(tr)
    else:
        tr = float(np.trace(M))
        m = round(tr)
        if abs(tr - m) > TRACE_TOL:
            raise RuntimeError("projector trace %.9f is not near an integer" % tr)
    if m == 0:
        return InvariantSubspace(space, group.name, 0, (), (), ())
    # rows of M_pi applied to the basis, in basis coordinates
    if exact:
        rows = M
    else:
        rows = [list(r) for r in M]
    chosen = _select_independent_rows(rows, m, exact)
    polys = []
    coeff_rows = []
    mono_rows = []
    nm = len(space.monomials)
    for idx in chosen:
        crow = rows[idx]
        if exact:
            mono = [sum(crow[k] * space.B[k][j] for k in range(space.dim))
                    for j in range(nm)]
            poly = Polynomial({space.monomials[j]: mono[j] for j in range(nm)},
                              space.basis[0].nvars)
            poly, scale = poly.canonicalized()
            crow = [c * scale for c in crow]
            mono = [c * scale for c in mono]
        else:
            mono = np.array([float(c) for c in crow]) @ space.coefficients
            poly = Polynomial({space.monomials[j]: mono[j] for j in range(nm)
                               if abs(mono[j]) > 1e-12}, space.basis[0].nvars)
            poly, scale = poly.canonicalized()
            poly = poly.snapped()
            crow = [float(c) * float(scale) for c in crow]
            mono = [v * float(scale) for v in mono]
        polys.append(poly)
        coeff_rows.append(tuple(crow))
        mono_rows.append(tuple(mono))
    return InvariantSubspace(space, group.name, m, tuple(polys),
                             tuple(coeff_rows), tuple(mono_rows))


def verify_fixed(inv, group, nsamples=20, tol=PROJECTOR_TOL, seed=0):
    """Pointwise check S(Rx, Ry) = S(x, y) at random rational points."""
    rng = random.Random(seed)
    nv = inv.space.basis[0].nvars if inv.basis else 6
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


# ---------------------------------------------------------------------------
# subspace intersection (null-space construction)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Molien series and invariant harmonic counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MolienSeries:
    group_name: str
    max_degree: int
    g: tuple  # invariant polynomial counts by degree
    h: tuple  # invariant harmonic counts, h_m = g_m - g_{m-2}


def _char_poly_series(R, M_max, exact):
    """Power series of 1/det(I - t R) to order M_max."""
    if exact:
        c1 = R[0][0] + R[1][1] + R[2][2]
        c2 = (R[0][0] * R[1][1] - R[0][1] * R[1][0]
              + R[0][0] * R[2][2] - R[0][2] * R[2][0]
              + R[1][1] * R[2][2] - R[1][2] * R[2][1])
        c3 = (R[0][0] * (R[1][1] * R[2][2] - R[1][2] * R[2][1])
              - R[0][1] * (R[1][0] * R[2][2] - R[1][2] * R[2][0])
              + R[0][2] * (R[1][0] * R[2][1] - R[1][1] * R[2][0]))
        s = [_F(1)]
    else:
        Rf = np.asarray(R, dtype=float)
        c1 = float(np.trace(Rf))
        c2 = float((np.trace(Rf) ** 2 - np.trace(Rf @ Rf)) / 2.0)
        c3 = float(np.linalg.det(Rf))
        s = [1.0]
    for k in range(1, M_max + 1):
        v = c1 * s[k - 1]
        if k >= 2:
            v -= c2 * s[k - 2]
        if k >= 3:
            v += c3 * s[k - 3]
        s.append(v)
    return s


def molien_series(group, M_max):
    """Truncated Molien series g and harmonic series h = (1 - t^2) g."""
    if M_max < 0:
        raise ValueError("max degree must be non-negative, got %d" % M_max)
    if group.is_rational:
        total = [_F(0)] * (M_max + 1)
        for E in group.exact_elements:
            s = _char_poly_series(E, M_max, True)
            total = [a + b for a, b in zip(total, s)]
        g = []
        for v in total:
            v = v / group.order
            if v.denominator != 1 or v < 0:
                raise RuntimeError("non-integer Molien coefficient %s" % v)
            g.append(int(v))
    else:
        total = np.zeros(M_max + 1)
        for E in group.elements:
            total += np.array(_char_poly_series(E, M_max, False))
        total /= group.order
        g = []
        for v in total:
            iv = round(float(v))
            if abs(v - iv) > TRACE_TOL or iv < 0:
                raise RuntimeError("Molien coefficient %.9f not near an integer" % v)
            g.append(iv)
    h = [g[m] - (g[m - 2] if m >= 2 else 0) for m in range(M_max + 1)]
    return MolienSeries(group.name, M_max, tuple(g), tuple(h))


def invariant_harmonics(group, m, style="integer"):
    """Fixed harmonic polynomials of degree m; cross-validated against h_m."""
    space = harmonic_space(m, style)
    inv = invariant_subspace(space, group)
    h_m = molien_series(group, m).h[m]
    if inv.dimension != h_m:
        raise RuntimeError(
            "fixed-space dimension %d disagrees with series count %d at degree %d"
            % (inv.dimension, h_m, m))
    return inv


# ---------------------------------------------------------------------------
# HGPT coefficient patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientPattern:
    """Linear relations among HGPT coefficients M^H_{q j p i}.

    ``pairs`` lists the (i, j) order pairs indexing the symmetric-product
    basis.  ``independent`` are the pivot pairs; ``zero`` the pairs forced
    to vanish; ``relations`` maps each remaining dependent pair to a list
    of (pivot_pair, coefficient) with entry = sum(coeff * entry[pivot]).
    ``vectors`` are the reduced basis rows over ``pairs`` (floats).
    """

    p: int
    q: int
    style: str
    group_name: str
    pairs: tuple
    independent: tuple
    zero: tuple
    relations: dict
    vectors: tuple

    def matrix_span(self):
        """Basis of allowed N_pq blocks as (2p+1) x (2q+1) float matrices."""
        mats = []
        for v in self.vectors:
            Mt = np.zeros((2 * self.p + 1, 2 * self.q + 1))
            for c, (i, j) in zip(v, self.pairs):
                Mt[i + self.p, j + self.q] += float(c)
                if self.p == self.q and i != j:
                    Mt[j + self.p, i + self.q] += float(c)
            mats.append(Mt)
        return mats


def coefficient_pattern(inv):
    """Read the independent / tied / vanishing HGPT coefficients off a
    fixed symmetric-product subspace."""
    space = inv.space
    if space.kind != "symmetric_product":
        raise ValueError("pattern requires a symmetric-product space")
    pairs = space.index_map
    rows = [list(r) for r in inv.coefficient_rows]
    if not rows:
        return CoefficientPattern(space.p, space.q, space.style, inv.group_name,
                                  pairs, (), tuple(pairs), {}, ())
    exact = all(isinstance(c, _F) for r in rows for c in r)
    if exact:
        rref, pivots = rational_rref(rows)
        rref = [[c for c in r] for r in rref[:len(pivots)]]
    else:
        A = np.array([[float(c) for c in r] for r in rows])
        # float RREF via repeated pivoting
        pivots = []
        r = 0
        A = A.copy()
        scale = np.max(np.abs(A))
        for c in range(A.shape[1]):
            piv = None
            for i in range(r, A.shape[0]):
                if abs(A[i, c]) > 1e-9 * scale:
                    piv = i
                    break
            if piv is None:
                continue
            A[[r, piv]] = A[[piv, r]]
            A[r] = A[r] / A[r, c]
            for i in range(A.shape[0]):
                if i != r and abs(A[i, c]) > 0:
                    A[i] = A[i] - A[i, c] * A[r]
            pivots.append(c)
            r += 1
            if r == A.shape[0]:
                break
        rref = A[:len(pivots)].tolist()
    independent = tuple(pairs[c] for c in pivots)
    zero = []
    relations = {}
    npairs = len(pairs)
    for c in range(npairs):
        if c in pivots:
            continue
        col = [rref[k][c] for k in range(len(pivots))]
        if all((v == 0 if exact else abs(v) < 1e-9) for v in col):
            zero.append(pairs[c])
        else:
            relations[pairs[c]] = [(pairs[pivots[k]], col[k])
                                   for k in range(len(pivots))
                                   if (col[k] != 0 if exact else abs(col[k]) > 1e-9)]
    vectors = tuple(tuple(float(v) for v in r) for r in rref)
    return CoefficientPattern(space.p, space.q, space.style, inv.group_name,
                              pairs, independent, tuple(zero), relations, vectors)
