"""HGPT coefficient-matrix algebra.

An HGPT block N_pq holds the coefficients M^H_{q j p i} of a rank-(p, q)
harmonic generalised polarizability tensor in a real harmonic basis,
(N_pq)_{ij} = M^H_{q j p i} with i = -p..p, j = -q..q mapped to matrix
indices by i -> i + p.  This module converts between the complex (CGPT)
and real (HGPT) compactions, applies the scaling and rotation laws,
enforces symmetry patterns, and evaluates the forward voltage model.

What depends only on its inputs is computed once and kept read-only, and
each value is checked where it is made, so a lookup that hits pays for no
check and a rejected input raises every time and is never kept:
- D_p(R), element 0 of the one-element stack R in the memo of float
  actions that group stacks share (``invariants._float_actions``), keyed by
  the degree-p space and R's float64 bytes, for the ``MEMO`` most recently
  used keys; it refuses an R with a nan or inf entry or one that moves the
  degree-p harmonics out of their span (the span-residual check), and then
  one that is not orthogonal, max |R^T R - I| above ``symgroups.MATCH_TOL``
  (a shear at p = 1, or 2 I at any degree);
- the basis change A_n of each (degree, style) and its conjugate transpose
  A_n^H (``harmonics.basis_change``, ``matrix`` and ``adjoint``);
- the scaled I-vectors K_n(x) = I_n(x) / |x|^(2n+1) of ``forward_voltage``,
  keyed by (n, style, x), for the ``MEMO`` most recently used keys: the
  coefficient matrix B of the degree-n harmonic space times the degree-n
  monomial values at x, over |x|^(2n+1); it refuses a point whose
  |x|^(2n+1) is not a normal float (1e-120 or 1e110 at n = 1);
- the orthonormal span basis Q of a coefficient pattern
  (``CoefficientPattern.span_basis``), once per pattern, which
  ``apply_pattern`` projects with.

So a call is a few lookups and the products of its formula: D_p^T N D_q
(``rotate``), A_p^H M A_q and A_p N A_q^H (the CGPT conversions), Q (Q^T n)
on the flattened block (``apply_pattern``), and sum K_r N K_s over the
blocks (``forward_voltage``, which converts each point once to three
Python floats, rejects one that is not finite or at the origin, and a sum
that is not finite).  The operands are 1 x 1 to 13 x 13, where
numpy's call overhead outweighs the arithmetic, so the products are
``ndarray.dot`` chains, about half the cost of ``@`` chains there.  Every
block, given or computed, passes the one finite check of ``HgptMatrix``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import invariants
from .harmonics import basis_change, monomial_expansion, monomials_of_degree
from .harmonics import real_basis  # noqa: F401  (the basis that indexes a block)
from .invariants import MEMO, _read_only


@dataclass(frozen=True)
class HgptMatrix:
    """Real (2p+1) x (2q+1) HGPT block in the tagged real basis style."""

    p: int
    q: int
    entries: np.ndarray
    basis_style: str = "orthonormal"

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (2 * self.p + 1, 2 * self.q + 1):
            raise ValueError("entries must be (2p+1) x (2q+1)")
        if not np.isfinite(e).all():
            raise ValueError("HGPT entries must be finite")
        object.__setattr__(self, "entries", e)

    def to_json_dict(self):
        return {"p": self.p, "q": self.q, "basis_style": self.basis_style,
                "entries": [float(v) for v in self.entries.ravel()]}

    @staticmethod
    def from_json_dict(d):
        """The block of a JSON object: p and q must be JSON integers >= 0, not
        floats or booleans, and basis_style "integer" or "orthonormal" (the
        default); a malformed block raises ``ValueError``."""
        if not isinstance(d, dict):
            raise ValueError("a block must be a JSON object, got %s" % type(d).__name__)
        for key in ("p", "q", "entries"):
            if key not in d:
                raise ValueError("missing key %r" % key)
            if key != "entries" and (type(d[key]) is not int or d[key] < 0):
                raise ValueError("%s must be an integer >= 0, got %r" % (key, d[key]))
        try:
            e = np.array(d["entries"], dtype=float)
        except TypeError as exc:
            raise ValueError("entries must be numbers: %s" % exc) from None
        style = d.get("basis_style", "orthonormal")
        if style not in ("integer", "orthonormal"):
            raise ValueError('basis_style must be "integer" or "orthonormal", got %r' % (style,))
        p, q = d["p"], d["q"]
        return HgptMatrix(p, q, e.reshape(2 * p + 1, 2 * q + 1), style)


@dataclass(frozen=True)
class CgptMatrix:
    """Complex (2p+1) x (2q+1) CGPT block (M_pq)_{mn} = M^C_{q n p m}."""

    p: int
    q: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (2 * self.p + 1, 2 * self.q + 1):
            raise ValueError("entries must be (2p+1) x (2q+1)")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class GptCoefficients:
    """Real GPT values M_ab keyed by multi-index pairs with |a| = p, |b| = q."""

    p: int
    q: int
    values: dict

    def matrix(self):
        mp = monomials_of_degree(self.p)
        mq = monomials_of_degree(self.q)
        G = np.zeros((len(mp), len(mq)))
        for a_idx, a in enumerate(mp):
            for b_idx, b in enumerate(mq):
                if (a, b) not in self.values:
                    raise KeyError("missing GPT entry for %s, %s" % (a, b))
                G[a_idx, b_idx] = self.values[(a, b)]
        return G


def hgpt_from_cgpt(M, style="orthonormal"):
    """N_pq from a CGPT block: conjugate by the real<->complex basis changes
    of degrees p and q in ``style``.

    Returns (HgptMatrix, imaginary_residue).  The residue is the largest
    imaginary part discarded; it exceeds 1e-9 only for blocks that
    did not come from a real-contrast problem.
    """
    N = basis_change(M.p, style).adjoint.dot(M.entries).dot(basis_change(M.q, style).matrix)
    return HgptMatrix(M.p, M.q, N.real, style), float(abs(N.imag).max())


def cgpt_from_hgpt(N):
    """Inverse of hgpt_from_cgpt (unitary changes in the orthonormal style)."""
    A_p, A_q = basis_change(N.p, N.basis_style), basis_change(N.q, N.basis_style)
    return CgptMatrix(N.p, N.q, A_p.matrix.dot(N.entries).dot(A_q.adjoint))


def hgpt_from_gpt(G, style="orthonormal"):
    """Contract raw GPT values onto the real harmonic basis.

    N = W_p (T_p G T_q^H) W_q^H / ((2p+1)(2q+1)) where T_p[m, a] is the
    conjugated monomial coefficient of H_p^m and W_p expands the real
    basis in the complex one.  Returns (HgptMatrix, imaginary_residue).
    """
    p, q = G.p, G.q
    Gm = G.matrix()
    _, AMHp = monomial_expansion(p)
    _, AMHq = monomial_expansion(q)
    A_p, A_q = basis_change(p, style), basis_change(q, style)
    Mc = AMHp.conj().T @ Gm @ AMHq
    # W_p = A_p^H: rows real index i, columns order m
    N = A_p.adjoint @ Mc @ A_q.matrix / ((2 * p + 1) * (2 * q + 1))
    residue = float(np.max(np.abs(N.imag)))
    return HgptMatrix(p, q, N.real, style), residue


def scale(N, s):
    """Scaling law: N_pq(sB) = s^(p+q+1) N_pq(B)."""
    if not 0 < s <= sys.float_info.max:     # exact for an int or Fraction too
        raise ValueError("scale factor must be a positive finite number")
    with np.errstate(over="ignore", invalid="ignore"):
        e = N.entries * np.float64(s) ** (N.p + N.q + 1)
    if not np.isfinite(e).all():
        raise ValueError("scale factor %g overflows the block: s^%d N is not finite"
                         % (s, N.p + N.q + 1))
    return HgptMatrix(N.p, N.q, e, N.basis_style)


def rotation_matrix(p, R, style="orthonormal"):
    """D_p(R): action of R on the degree-p real basis, I_p(Rx) = D_p(R) I_p(x).

    Read-only, and kept for the ``MEMO`` most recently used
    (degree-p space, R's float64 bytes) with the group stacks."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError("R must be a 3 x 3 matrix")
    return invariants._float_actions(invariants.harmonic_space(p, style), R.tobytes())[0]


def rotate(N, R):
    """Rotation law: the block of the rotated object R(B) is D_p(R)^T N D_q(R),
    so that sum_ij I_p^i(x) N'_ij I_q^j(y) = sum_ij I_p^i(Rx) N_ij I_q^j(Ry)."""
    Dp, Dq = rotation_matrix(N.p, R, N.basis_style), rotation_matrix(N.q, R, N.basis_style)
    return HgptMatrix(N.p, N.q, Dp.T.dot(N.entries).dot(Dq), N.basis_style)


@lru_cache(maxsize=MEMO)
def _kvector(n, style, x):
    """K_n(x) = I_n(x) / |x|^(2n+1), read-only, for a finite point x whose
    |x|^(2n+1) is a normal float (else ``ValueError``, and nothing is kept):
    I_n(x) = B m(x), B the coefficient matrix of the degree-n harmonic
    space, m(x) the degree-n monomial values, one degree at a time in Python
    floats, x^e = x_i x^g (``invariants._substitution_plan``)."""
    try:
        r = _norm(x) ** (2 * n + 1)
    except OverflowError:
        r = math.inf
    if not sys.float_info.min <= r <= sys.float_info.max:
        raise ValueError("source and receiver must be away from the origin, with |x|^%d "
                         "a normal float: it is %g for x = %r" % (2 * n + 1, r, x))
    m = [1.0]
    for k in range(1, n + 1):
        parent, var, _ = invariants._substitution_plan(k)
        m = [x[i] * m[g] for i, g in zip(var.tolist(), parent.tolist())]
    return _read_only(invariants.harmonic_space(n, style).coefficients @ np.array(m) / r)


def _norm(x):
    return math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])


def _point(x):
    """x as a tuple of three Python floats."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("source and receiver must be points with three coordinates")
    return tuple(x.tolist())


def forward_voltage(blocks, x_r, x_s):
    """Truncated voltage V_sr = sum_pq I_rp N_pq I_sq^T / (|x_r|^(2p+1) |x_s|^(2q+1)).

    ``blocks`` is an iterable of HgptMatrix; the I-vectors evaluate the same
    real basis that indexes each block.  K_n = I_n / |x|^(2n+1) is computed
    once per (degree, style, point) and then looked up, from a memo of the
    ``MEMO`` most recently used.  A point without exactly three finite
    coordinates, or at the origin, raises ``ValueError`` before any lookup;
    one whose |x|^(2n+1) is not a normal float (such as 1e-120 or 1e110 at
    n = 1) raises where its K_n would be computed, and is never kept; and a
    voltage that is not finite raises ``ValueError``.
    """
    x_r, x_s = _point(x_r), _point(x_s)
    if not all(map(math.isfinite, x_r + x_s)):
        raise ValueError("source and receiver must be finite points")
    if _norm(x_r) == 0.0 or _norm(x_s) == 0.0:
        raise ValueError("source and receiver must be away from the origin")
    total = 0.0
    for N in blocks:
        total += _kvector(N.p, N.basis_style, x_r).dot(N.entries).dot(
            _kvector(N.q, N.basis_style, x_s))
    total = float(total)
    if not math.isfinite(total):
        raise ValueError("the voltage is not finite: the blocks overflow at these points")
    return total


def apply_pattern(N, pattern):
    """Project N onto the span allowed by a coefficient pattern.

    Orthogonal (Frobenius) projection onto the pattern's matrix span.
    Returns (projected HgptMatrix, residual), where the residual is the
    Frobenius norm of the removed component — a symmetry-violation score.
    """
    if (pattern.p, pattern.q) != (N.p, N.q) or pattern.style != N.basis_style:
        raise ValueError("pattern was built for a different block or basis style")
    Q = pattern.span_basis
    v = N.entries.ravel()
    proj = Q.dot(Q.T.dot(v))
    d = v - proj
    residual = math.sqrt(d.dot(d))
    return HgptMatrix(N.p, N.q, proj.reshape(N.entries.shape), N.basis_style), residual
