"""Group actions on harmonic-polynomial spaces and their fixed subspaces.

The central objects are representation spaces (either the 2p+1 real
harmonics of degree p, or the symmetric products I_p^i(x) I_q^j(y) +
I_p^i(y) I_q^j(x)), the per-element action matrices, the group-averaging
projector whose trace is the fixed-subspace dimension, the Molien
dimension series with its harmonic counterpart h(t) = (1 - t^2) g(t),
and the translation of fixed symmetric products into linear relations
among HGPT coefficients.  The paper's Algorithm 2 (subspace intersection)
and a pointwise fixedness check are float references kept by the tests.

A space is its coefficient matrix B over a monomial list, held once as
(N, den) with B = N / den (``polyalg.coefficient_matrix`` reads it off
polynomials); its basis polynomials are read off N on demand by the
inverse, ``polyalg.polynomials``.  S_pq is
built from its harmonic factors: its coefficient matrix is B_p (x) B_q and
its action D_p (x) D_q, both folded onto the basis pairs by one convention
(``_pairs``); no 6-variable polynomial is multiplied or built.

There is one pipeline, written once over the field of the numbers it
holds, and each step reads the field off its inputs.  An action matrix
is exact when the space basis is exact and R's entries are ints or
Fractions (``polyalg.is_rational``); a stack of elements acts in its own
dtype.  The projector is ``Fraction`` when the space basis and the group
are rational (C2, C4, D4, T, O, ...), float otherwise (C3, C5, C6,
icosahedral, ...).  Every later step follows the field of the projector:
exact zero tests on Fractions, one relative tolerance on floats
(``polyalg.zero_tolerance``), and one canonical-basis step for both
(``_canonical_basis``): content 1 in integers, or leading coefficient 1.

Group actions are stacked.  Each space holds a left inverse L of a fixed
matrix A, its transposed coefficient matrix B^T, so D(R) = (L F(R))^T for
the coefficients F(R) of the composed basis, with the residual
A D(R)^T - F(R) checked for every element.  One function builds D(R) for a
stack of elements; in floats F(R) = (B Sym^p(R))^T, from the substitution
matrices Sym^p(R) of x -> R x on the degree-p monomials, built for the whole
stack by one recursion over the degree (``substitution_matrices``), with no
sample points.  ``action_matrix`` is the same function on a stack of one.
Every float D(R) is memoised once, read-only, keyed by the harmonic space
and the float64 bytes of the element stack (``_float_actions``, ``MEMO``
keys): ``action_stack`` reads D(G), of shape (|G|, d, d), from it, and
``hgpt.rotation_matrix`` a stack of one.  A float projector on S_pq is one
contraction of the flattened stacks D_p(G) and D_q(G) over the element
axis, the mean Kronecker product, folded onto the symmetric pairs once.  An
exact projector sums the exact ``action_matrix`` of each element, composed
with ``Polynomial.compose_linear``; exact arithmetic runs on Python ints
over one denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .harmonics import monomials_of_degree, real_basis
from .polyalg import (RTOL, _snap, coefficient_matrix, integer_matrix, is_rational,
                      polynomials, rational_rref, read_only, zero_tolerance)
from .symgroups import MATCH_TOL

_F = Fraction

TRACE_TOL = 1e-6
SOLVE_TOL = 1e-10
MEMO = 64                # memo entries: a float-grid pass uses 33 (space, stack) keys,
                         # an hgpt campaign 8 pattern stacks and 4 D_p(R) an object
ACTION_BLOCK = 1 << 14   # Sym^p entries a float action batch builds at once


# ---------------------------------------------------------------------------
# representation spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RepresentationSpace:
    """Ordered polynomial basis of a space the group acts on, held as its
    coefficient matrix B over ``monomials`` (rows = basis elements).

    ``kind`` is "harmonic" (index_map holds 1-tuples of the order i) or
    "symmetric_product" (index_map holds (i, j) order pairs, i <= j when
    p == q).  ``numerators`` is B as (N, den) with B = N / den, N read-only:
    Python ints (object dtype) for an exact basis, float64 over 1 otherwise
    (``polyalg.coefficient_matrix``).  Equality is identity.
    """

    kind: str
    p: int
    q: int | None
    style: str
    index_map: tuple
    monomials: tuple
    numerators: tuple

    @property
    def dim(self):
        return len(self.index_map)

    @property
    def is_exact(self):
        return self.numerators[0].dtype == object

    @cached_property
    def basis(self):
        """The basis polynomials, read off ``numerators``: Fraction
        coefficients if exact, floats otherwise."""
        N, den = self.numerators
        convert = (lambda v: _F(v, den)) if self.is_exact else None
        return polynomials(N, self.monomials, convert=convert)

    @cached_property
    def coefficients(self):
        """B as a read-only float array."""
        N, den = self.numerators
        return read_only((N / den).astype(float))

    @cached_property
    def lead_rank(self):
        """Read-only rank of each monomial in the order of
        ``Polynomial.leading_exponent``: a polynomial's leading term is its
        nonzero term of largest rank."""
        order = sorted(range(len(self.monomials)), key=lambda k: self.monomials[k][::-1])
        rank = np.empty(len(order), dtype=int)
        rank[order] = np.arange(len(order))
        return read_only(rank)

    @cached_property
    def float_solver(self):
        """Fixed matrix A = B^T and its pseudo-inverse L; the rank check runs
        here, once per space."""
        A = np.ascontiguousarray(self.coefficients.T)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        if np.sum(s > s[0] * max(A.shape) * np.finfo(float).eps) < self.dim:
            raise RuntimeError("basis is rank-deficient")
        return _Solver(read_only(A), read_only((Vt.T / s) @ U.T), slice(None), 1, 1)

    @cached_property
    def exact_solver(self):
        """A = B^T and the inverse L of its rows at the pivot monomials of B,
        from one row reduction of [N | a I] = a [B | I], held as Python ints:
        a A and l L."""
        N, a = self.numerators
        m = len(self.monomials)
        rref, pivots = rational_rref(np.hstack([N, a * np.identity(self.dim, dtype=object)]))
        rows = [c for c in pivots if c < m]
        if len(rows) < self.dim:
            raise RuntimeError("basis is rank-deficient")
        L, l = integer_matrix(rref[:, m:].T)
        return _Solver(N.T, read_only(L), read_only(np.array(rows)), a * l, l)


class _Solver(NamedTuple):
    """Left inverse L of a space's fixed matrix A, scaled to integers in the
    exact field: D(R)^T = L F(R)[rows] / den, checked by A L F[rows] = scale F."""

    A: np.ndarray
    L: np.ndarray
    rows: object
    scale: int
    den: int


@cache
def harmonic_space(p, style="integer"):
    monos = tuple(monomials_of_degree(p))
    N, den = coefficient_matrix(real_basis(p, style).polynomials, monos)
    return RepresentationSpace("harmonic", p, None, style,
                               tuple((i,) for i in range(-p, p + 1)), monos,
                               (read_only(N), den))


@cache
def _pairs(a, b):
    """The S_pq basis pairs (I, J) of factors with a and b rows, in
    ``index_map`` order: all pairs row-major for p != q, i <= j for p == q.
    Pairs marked ``off`` (S_pp off the diagonal) are the symmetrised sum
    X[i, j] + X[j, i], the others the plain product X[i, j].  Read-only."""
    I, J = np.divmod(np.arange(a * b), b)
    if a == b:
        I, J = I[I <= J], J[I <= J]
    return read_only(I), read_only(J), read_only((I != J) & (a == b))


def _fold_rows(X):
    """Rows X[i, j, ...] folded onto the pairs of ``_pairs``, in ``index_map`` order."""
    I, J, off = _pairs(*X.shape[:2])
    R = X[I, J]
    if off.any():
        R[off] += X[J[off], I[off]]
    return R


@cache
def symmetric_product_space(p, q, style="integer"):
    """Span of I_p^i(x) I_q^j(y) + I_p^i(y) I_q^j(x).

    Dimension (2p+1)(2q+1) for p != q and (2p+1)(p+1) for p == q (the
    pair (i, j) with i <= j indexes the latter; the diagonal element is
    I_p^i(x) I_p^i(y)).  Coefficients: B_p (x) B_q folded onto the pairs, held
    as they fold, in integers over bp * bq if exact; the 6-variable basis is
    read off them only when asked for.
    """
    hp, hq = harmonic_space(p, style), harmonic_space(q, style)
    (Bp, bp), (Bq, bq) = hp.numerators, hq.numerators
    # I_p^i(x) I_q^j(y) at x^u y^v, folded onto the pairs k: R[k, u, v]
    R = _fold_rows(Bp[:, None, :, None] * Bq[None, :, None, :])
    n = len(R)
    C = R.reshape(n, -1)
    monos = [u + v for u in hp.monomials for v in hq.monomials]   # sorted, as hp's and hq's
    if p != q:                        # + I_p^i(y) I_q^j(x), at x^v y^u
        monos += [v + u for v in hq.monomials for u in hp.monomials]
        order = sorted(range(len(monos)), key=monos.__getitem__, reverse=True)
        C = np.hstack([C, R.transpose(0, 2, 1).reshape(n, -1)])[:, order]
        monos = [monos[k] for k in order]
    if not hp.is_exact:
        C += 0.0                      # a float product's -0.0 is a +0.0 coefficient
    I, J, _ = _pairs(len(Bp), len(Bq))
    return RepresentationSpace("symmetric_product", p, q, style,
                               tuple(zip((I - p).tolist(), (J - q).tolist())),
                               tuple(monos), (read_only(C), bp * bq))


# ---------------------------------------------------------------------------
# action matrices and the averaging projector
# ---------------------------------------------------------------------------

@cache
def _substitution_plan(k):
    """The degree k-1 -> k step of ``substitution_matrices``, in
    ``monomials_of_degree`` order: each degree-k monomial x^e is x_i x^g, i
    its first variable and g its parent of degree k-1, held as ``parent``
    and ``var``; the 0/1 matrix U of shape (3 m_{k-1}, m_k) sends x_j x^h,
    flattened as (j, h), to its column.  Read-only."""
    prev = {g: h for h, g in enumerate(monomials_of_degree(k - 1))}
    # (j, h) for each x_j x^h = x^e, in the order of j
    down = [[(j, prev[e[:j] + (e[j] - 1,) + e[j + 1:]]) for j in range(3) if e[j]]
            for e in monomials_of_degree(k)]
    U = np.zeros((3, len(prev), len(down)), dtype=int)
    for c, steps in enumerate(down):
        U[tuple(zip(*steps)) + (c,)] = 1
    var, parent = zip(*(steps[0] for steps in down))
    return (read_only(np.array(parent)), read_only(np.array(var)),
            read_only(U.reshape(-1, len(down))))


def substitution_matrices(S, p):
    """Sym^p(R) for every R of the (n, 3, 3) stack S, shape (n, m_p, m_p)
    over the degree-p monomials in ``monomials_of_degree`` order: row e
    holds the coefficients of (Rx)^e.  One step a degree,
    T_k[e] = (R_i . x) T_{k-1}[g] for x^e = x_i x^g (``_substitution_plan``),
    in the dtype of S, so an integer stack gives integer matrices; for p = 1
    the result is S itself."""
    n = len(S)
    T = S if p else np.ones((n, 1, 1), dtype=S.dtype)     # Sym^1(R) = R over x1, x2, x3
    for k in range(2, p + 1):
        parent, var, U = _substitution_plan(k)
        T = (S[:, var, :, None] * T[:, parent, None, :]).reshape(n, len(var), -1) @ U
    return T


def _composed_values(space, S):
    """(F, f): the basis composed with each R of the stack S, in the
    coordinates of the solver, as F / f of shape (n, rows of A, d).
    Fraction S: the coefficients of ``basis[i] o R``, Python ints over the
    lcm f of their denominators over the stack.  Float S: C(R)^T over 1,
    C(R) = B Sym^p(R) the same coefficients, as a harmonic space lists all
    degree-p monomials in ``monomials_of_degree`` order."""
    if S.dtype == object:
        F, f = coefficient_matrix([b.compose_linear(R) for R in S for b in space.basis],
                                  space.monomials)
        return F.reshape(len(S), space.dim, -1).transpose(0, 2, 1), f
    A = space.float_solver.A
    T = substitution_matrices(S, sum(space.monomials[0]))
    return T.transpose(0, 2, 1) @ A, 1


def _harmonic_action(space, S):
    """D(R) for each R of the stack S on a 3-variable space, as (N, den)
    with the (n, d, d) actions N / den: row i of D(R) holds basis[i] o R.

    The field is that of S: Fractions (object dtype) on an exact space, or
    float64.  D(R)^T = L F(R) with the left inverse L of the solver's A; the
    residual A D(R)^T - F(R), which proves basis o R lies in the span, is
    checked for every element: exactly zero in Python ints for Fractions,
    within ``SOLVE_TOL`` for floats, ``ACTION_BLOCK`` Sym^p entries at a
    time.  A float element with a nan or inf entry is rejected before any
    arithmetic, on every degree.
    """
    exact = S.dtype == object
    if not exact and not np.isfinite(S).all():
        raise RuntimeError("composed polynomial not in the span (an element has a "
                           "non-finite entry)")
    A, L, rows, scale, den = space.exact_solver if exact else space.float_solver
    step = len(S) if exact else max(1, ACTION_BLOCK // len(A) ** 2)
    if len(S) > step:
        return np.concatenate([_harmonic_action(space, S[i:i + step])[0]
                               for i in range(0, len(S), step)]), den
    F, f = _composed_values(space, S)
    Dt = L @ F[:, rows]
    F = scale * F
    resid = abs(A @ Dt - F).max((1, 2)) / np.maximum(abs(F).max((1, 2)), 1e-300)
    bad = ~(resid <= (0 if exact else SOLVE_TOL))       # nan fails
    if bad.any():
        raise RuntimeError("composed polynomial not in the span (residual %g)"
                           % float(resid[bad][0]))
    return Dt.transpose(0, 2, 1), den * f


@lru_cache(maxsize=MEMO)
def _float_actions(space, entries):
    """D(R) for each R of the float64 (n, 3, 3) stack whose bytes are
    ``entries``, on a harmonic space: the read-only (n, d, d) float stack,
    kept for the ``MEMO`` most recently used (space, entries).  A stack the
    span check rejects, or then one with an element R whose max |R^T R - I|
    exceeds ``MATCH_TOL``, raises on every call and is never kept."""
    S = np.frombuffer(entries).reshape(-1, 3, 3)
    D = _harmonic_action(space, S)[0]
    orth = np.abs(S.transpose(0, 2, 1) @ S - np.eye(3)).max(initial=0.0)
    if orth > MATCH_TOL:
        raise ValueError("an element R is not orthogonal: max |R^T R - I| is %.3g, above %g"
                         % (orth, MATCH_TOL))
    return read_only(np.ascontiguousarray(D))


def action_stack(space, group):
    """D(G), the read-only float (|G|, d, d) stack of ``group``'s actions on
    a harmonic space, element order as in ``group.elements``; memoised by
    ``_float_actions`` under the bytes of ``group.stack``."""
    if space.kind != "harmonic":
        raise ValueError("action stacks are built on harmonic spaces")
    return _float_actions(space, group.stack.tobytes())


def _fold(K):
    """pi on S_pq, in ``index_map`` order, from K[i, j, k, l] = Dp[i, k] Dq[j, l]:
    the rows folded onto the pairs, then the columns of the pairs selected.
    Linear in K, so it folds a sum of such products too."""
    I, J, _ = _pairs(*K.shape[:2])
    return _fold_rows(K)[:, I, J]


def _action_sum(space, actions):
    """sum_R pi(R) on ``space`` as (N, den) with the sum = N / den, from the
    (n, d, d) stacks and denominators that ``actions(harmonic space)``
    returns.

    On S_pq the summed Kronecker product of D_p and D_q is one contraction
    over the element axis; it is folded onto the symmetric pairs once.
    """
    if space.kind == "harmonic":
        D, den = actions(space)
        return D.sum(axis=0), den
    Dp, dp = actions(harmonic_space(space.p, space.style))
    Dq, dq = (Dp, dp) if space.q == space.p else \
        actions(harmonic_space(space.q, space.style))
    n, a, _ = Dp.shape
    b = Dq.shape[1]
    K = Dp.reshape(n, a * a).T @ Dq.reshape(n, b * b)          # [(i, k), (j, l)]
    return _fold(K.reshape(a, a, b, b).transpose(0, 2, 1, 3)), dp * dq


def action_matrix(space, R):
    """Matrix pi(R): row i holds the coefficients of basis[i] o R in the basis.

    The field is that of R: rows of Fractions when the space basis is exact
    and R's entries are ints or Fractions (``polyalg.is_rational``), a float
    array otherwise.  The same path as the float projector, over a stack of
    one element.
    """
    R = np.array(R, dtype=object)
    S = (R if space.is_exact and all(map(is_rational, R.flat)) else R.astype(float))[None]
    N, den = _action_sum(space, lambda h: _harmonic_action(h, S))
    if N.dtype == object:
        return [[_F(x, den) for x in row] for row in N]
    return N


def averaging_projector(space, group):
    """M_pi = (1/|G|) sum_R pi(R); idempotent projector onto the fixed space.

    This is where the field is chosen: rows of Fractions when the space
    basis and the group are rational, a float array otherwise.  Fractions:
    the exact ``action_matrix`` of each element, summed.  Floats: the
    memoised stacks D_p(G), D_q(G) (``action_stack``); on S_pq the sum is
    the single contraction ``Dp.reshape(n, a*a).T @ Dq.reshape(n, b*b)``,
    folded once.
    """
    if not group.order:         # the mean over no elements is 0/0
        raise ValueError("group %s has no elements" % group.name)
    if space.is_exact and group.is_rational:
        total = sum(np.asarray(action_matrix(space, E)) for E in group.exact_elements)
        return (total / group.order).tolist()
    N, _ = _action_sum(space, lambda h: (action_stack(h, group), 1))
    return N / group.order


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


def check_trace_tol(trace_tol):
    """``trace_tol`` if it lies in (0, 0.5): nan or 0.5 and more would make
    the integer check vacuous."""
    if not 0.0 < trace_tol < 0.5:
        raise ValueError("trace tolerance must be a number in (0, 0.5), got %r"
                         % (trace_tol,))
    return trace_tol


def _integer(v, what, trace_tol):
    """``v`` as an int: exactly for a Fraction, within trace_tol for a float."""
    exact = isinstance(v, _F)
    n = round(v) if exact or math.isfinite(v) else v
    if not abs(v - n) <= (0 if exact else trace_tol):      # nan and inf fail
        raise RuntimeError("%s %s is not an integer" % (what, v))
    return int(n)


def _select_independent_rows(M, m):
    """Indices of the first m linearly independent rows of M, in order.

    They are the pivot columns of rref(M^T); M must have rank m.
    """
    _, pivots = rational_rref(M.T)
    if len(pivots) != m:
        raise RuntimeError("found %d independent projected elements, expected %d"
                           % (len(pivots), m))
    return pivots


def invariant_subspace(space, group, trace_tol=TRACE_TOL):
    """Dimension and canonical basis of the subspace fixed by the group.

    A float projector's trace must lie within ``trace_tol`` of an integer.
    A ``RuntimeError`` of the float path on the integer style above degree 4,
    where that basis is ill-conditioned, is raised again with a hint.
    """
    check_trace_tol(trace_tol)
    try:
        M = np.asarray(averaging_projector(space, group))   # Fractions -> object dtype
        m = _integer(M.trace(), "projector trace", trace_tol)
        if m == 0:
            return InvariantSubspace(space, group.name, 0, (), ())
        rows = M[_select_independent_rows(M, m)]
    except RuntimeError as exc:
        if space.style != "integer" or group.is_rational or max(space.p, space.q or 0) <= 4:
            raise
        raise RuntimeError("%s; the integer style is ill-conditioned at this degree, "
                           "use the orthonormal style (--style orthonormal)" % exc) from exc
    return InvariantSubspace(space, group.name, m, *_canonical_basis(space, rows))


def _canonical_basis(space, rows):
    """Canonical polynomials of the rows of M_pi applied to the basis, and the
    rows scaled alike, in the field of the rows: P = rows B a row at a time
    (one float matrix product rounds differently), in Python ints over one
    denominator when exact.  A row keeps its nonzero terms (in floats, those
    above ``RTOL`` of its largest) and leads with the kept one of largest
    ``lead_rank``.  It is scaled by +-1/gcd to content 1 with a positive lead
    when exact, else by 1/lead and snapped once per distinct value (``_snap``)."""
    R, den = integer_matrix(rows)
    exact = R.dtype == object
    B, b = space.numerators if exact else (space.coefficients, 1)
    P = np.array([row @ B for row in R])
    A = abs(P)
    keep = A > (0 if exact else RTOL * np.fmax(1.0, A.max(axis=1, keepdims=True)))
    lead = np.where(keep, P, 1)[np.arange(len(P)),          # 1 for a row with no terms
                                np.where(keep, space.lead_rank, -1).argmax(axis=1)]
    if exact:
        unit = np.array([(math.gcd(*r) or 1) * (1 if x > 0 else -1)
                         for r, x in zip(P.tolist(), lead.tolist())], dtype=object)
        P //= unit[:, None]
        scale, to_field = np.array([_F(b * den, u) for u in unit.tolist()]), _F
    else:
        scale, to_field = 1.0 / lead, _snap
        P = P * scale[:, None]
    return (polynomials(P, space.monomials, keep, to_field),
            tuple(map(tuple, (rows * scale[:, None]).tolist())))


# ---------------------------------------------------------------------------
# Molien series and invariant harmonic counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MolienSeries:
    group_name: str
    max_degree: int
    g: tuple  # invariant polynomial counts by degree
    h: tuple  # invariant harmonic counts, h_m = g_m - g_{m-2}


def _char_poly_series(S, M_max):
    """Power series of 1/det(I - t R) to order M_max for every R of the
    (n, 3, 3) stack S, as (M_max + 1, n) coefficients t_k over den^k: float64
    over 1 for a float stack; for an object stack of Fractions, Python ints
    with (N, den) = ``integer_matrix(S)``, from the recurrence
    t_k = a1 t_{k-1} - a2 t_{k-2} + a3 t_{k-3} whose a1, a2, a3 are the
    trace, the principal 2x2 minors and the determinant of N."""
    R, den = integer_matrix(S)
    R = R.transpose(1, 2, 0)        # R[i][j] is entry (i, j) over the stack
    a1 = R[0][0] + R[1][1] + R[2][2]
    a2 = (R[0][0] * R[1][1] - R[0][1] * R[1][0]
          + R[0][0] * R[2][2] - R[0][2] * R[2][0]
          + R[1][1] * R[2][2] - R[1][2] * R[2][1])
    a3 = (R[0][0] * (R[1][1] * R[2][2] - R[1][2] * R[2][1])
          - R[0][1] * (R[1][0] * R[2][2] - R[1][2] * R[2][0])
          + R[0][2] * (R[1][0] * R[2][1] - R[1][1] * R[2][0]))
    t = [np.ones_like(a1)]
    for k in range(1, M_max + 1):
        v = a1 * t[k - 1]
        if k >= 2:
            v = v - a2 * t[k - 2]
        if k >= 3:
            v = v + a3 * t[k - 3]
        t.append(v)
    return t, den


def molien_series(group, M_max, trace_tol=TRACE_TOL):
    """Truncated Molien series g and harmonic series h = (1 - t^2) g.

    g_k = sum_R t_k(R) / (|G| den^k), summed over the whole element stack at
    once (``_char_poly_series``): exactly, in Python ints, for a rational
    group, in float64 otherwise, where each coefficient must lie within
    ``trace_tol`` of an integer.
    """
    check_trace_tol(trace_tol)
    if M_max < 0:
        raise ValueError("max degree must be non-negative, got %d" % M_max)
    if not group.order:
        raise ValueError("group %s has no elements" % group.name)
    S = np.array(group.exact_elements, dtype=object) if group.is_rational else group.stack
    with np.errstate(over="ignore", invalid="ignore"):      # each coefficient is checked
        t, den = _char_poly_series(S, M_max)
    g = []
    for k, tk in enumerate(t):
        total = sum(tk.tolist())
        v = _integer(_F(total, group.order * den ** k) if group.is_rational
                     else total / group.order, "Molien coefficient", trace_tol)
        if v < 0:
            raise RuntimeError("negative Molien coefficient %d" % v)
        g.append(v)
    h = [g[m] - (g[m - 2] if m >= 2 else 0) for m in range(M_max + 1)]
    return MolienSeries(group.name, M_max, tuple(g), tuple(h))


def invariant_harmonics(group, m, style="integer", trace_tol=TRACE_TOL):
    """Fixed harmonic polynomials of degree m; cross-validated against h_m."""
    space = harmonic_space(m, style)
    inv = invariant_subspace(space, group, trace_tol)
    h_m = molien_series(group, m, trace_tol).h[m]
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
        """Basis of allowed N_pq blocks as (2p+1) x (2q+1) float matrices:
        each vector placed by the transpose of the fold (``_pairs``)."""
        shape = (2 * self.p + 1, 2 * self.q + 1)
        I, J, off = _pairs(*shape)
        V = np.array(self.vectors, dtype=float).reshape(-1, len(I))
        M = np.zeros((len(V),) + shape)
        M[:, I, J] += V
        M[:, J[off], I[off]] += V[:, off]
        return list(M)

    @cached_property
    def span_basis(self):
        """Orthonormal columns Q spanning the flattened ``matrix_span``,
        read-only, so that Q Q^T projects a flattened block onto it; no
        columns when the span is empty."""
        n = (2 * self.p + 1) * (2 * self.q + 1)
        V = np.array(self.matrix_span()).reshape(-1, n)
        return read_only(np.linalg.qr(V.T, mode="reduced")[0])


def coefficient_pattern(inv):
    """Read the independent / tied / vanishing HGPT coefficients off a
    fixed symmetric-product subspace."""
    space = inv.space
    if space.kind != "symmetric_product":
        raise ValueError("pattern requires a symmetric-product space")
    pairs = space.index_map
    if not inv.coefficient_rows:
        return CoefficientPattern(space.p, space.q, space.style, inv.group_name,
                                  pairs, (), tuple(pairs), {}, ())
    rref, pivots = rational_rref(np.array(inv.coefficient_rows))
    rref = rref[:len(pivots)]
    # one mask of the relation terms, read a column at a time
    hits = (abs(rref) > zero_tolerance(rref)).T.tolist()
    pivot_columns = set(pivots)
    zero = []
    relations = {}
    for c, (pair, hit, column) in enumerate(zip(pairs, hits, rref.T.tolist())):
        if c in pivot_columns:
            continue
        if any(hit):
            relations[pair] = [(pairs[pc], v) for pc, h, v in zip(pivots, hit, column) if h]
        else:
            zero.append(pair)
    return CoefficientPattern(space.p, space.q, space.style, inv.group_name, pairs,
                              tuple(pairs[c] for c in pivots), tuple(zero), relations,
                              tuple(map(tuple, rref.astype(float).tolist())))
