"""Finite orthogonal point groups as explicit 3x3 matrices.

Families: cyclic C_n (n-fold axis = x3), dihedral D_n (extra 2-fold axis =
x1), tetrahedral T (2-fold axes = coordinate axes), octahedral O (cube
faces parallel to the coordinate axes) and icosahedral I (coordinate axes
through midpoints of opposite edges, the edge crossed by the x1 axis
parallel to x2).  Type-2 groups adjoin the central inversion J; Type-3
groups arise from a rotational group G2 with an index-2 subgroup G1 as
G1 together with J*(G2 \\ G1).

A group's field is the field of its generators.  Generators given as ints
or Fractions close to a rational group (the built-in C1, C2, C4, D1, D2,
D4, T, O and their J-extensions), which carries exact Fraction matrices
alongside the float ones, so downstream linear algebra can run in exact
arithmetic; float generators close to a float group.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .polyalg import integer_matrix, is_rational, read_only

MATCH_TOL = 1e-9
MAX_ORDER = 240

_F = Fraction

J_MATRIX = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


@dataclass(frozen=True, eq=False)
class PointGroup:
    """A finite group of 3x3 orthogonal matrices.  Equality is identity."""

    name: str
    elements: tuple            # tuple of read-only 3x3 float arrays, rows of ``stack``
    generators: tuple          # tuple of read-only 3x3 float arrays
    exact_elements: tuple | None = None  # matching tuple of Fraction matrices
    stack: np.ndarray = field(init=False, repr=False)  # (order, 3, 3)

    def __post_init__(self):
        # read-only float copies: a memoised group is shared by every caller
        object.__setattr__(self, "stack", _readonly(self.elements))
        object.__setattr__(self, "elements", tuple(self.stack))
        object.__setattr__(self, "generators", tuple(_readonly(self.generators)))

    @property
    def order(self):
        return len(self.elements)

    @property
    def is_rational(self):
        return self.exact_elements is not None

    def __iter__(self):
        return iter(self.elements)


@dataclass
class GroupReport:
    name: str
    order: int
    expected_order: int | None
    passed: bool
    max_orthogonality_residual: float
    max_closure_residual: float
    failures: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _rot_z(n):
    """Rotation by 2*pi/n about x3; in integers for n in {1, 2, 4}."""
    th = 2.0 * math.pi / n
    c, s = {1: (1, 0), 2: (-1, 0), 4: (0, 1)}.get(n, (math.cos(th), math.sin(th)))
    return ((c, -s, 0), (s, c, 0), (0, 0, 1))


_ROT2_X1 = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
_CYCLE_XYZ = ((0, 0, 1), (1, 0, 0), (0, 1, 0))


def _axis_rotation(axis, angle):
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    c, s = math.cos(angle), math.sin(angle)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) * c + s * K + (1 - c) * np.outer(a, a)


def _icosahedral_generators():
    # vertex set (+-phi, +-1, 0), (0, +-phi, +-1), (+-1, 0, +-phi): the edge
    # crossed by the x1 axis joins (phi, 1, 0) and (phi, -1, 0), parallel to x2
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    return [_ROT2_X1, _axis_rotation((phi, 1.0, 0.0), 2.0 * math.pi / 5.0)]


# ---------------------------------------------------------------------------
# closure enumeration
# ---------------------------------------------------------------------------

def _readonly(matrices):
    return read_only(np.array(matrices, dtype=float).reshape(-1, 3, 3))


def _distances(P, E):
    """(len(P), len(E)) max-abs distances between two stacks of 3x3 matrices."""
    P = np.reshape(np.asarray(P, dtype=float), (-1, 9))
    E = np.reshape(np.asarray(E, dtype=float), (-1, 9))
    d = np.zeros((len(P), len(E)))
    for k in range(9):          # entry by entry: only (len(P), len(E)) arrays
        np.maximum(d, np.abs(P[:, k, None] - E[None, :, k]), out=d)
    return d


def _nearest(P, E):
    """Distance from each matrix in P to its nearest one in E, by a full
    search: an element with a nan or inf entry is near nothing, and a P with
    none to compare to (E empty or all non-finite) gets inf."""
    E = np.reshape(np.asarray(E, dtype=float), (-1, 9))
    return _distances(P, E[np.isfinite(E).all(axis=1)]).min(axis=1, initial=np.inf)


# Weights of the matching key k(M) = M.flat @ _KEY: fixed, of mixed sign and
# with no simple relation between them, so distinct elements get distinct keys.
_KEY = np.sqrt([2.0, 3, 5, 7, 11, 13, 17, 19, 23]) % 1 * np.tile([1.0, -1.0], 5)[:9]
_KEY_NORM = float(np.abs(_KEY).sum())
_EPS = np.finfo(float).eps


class _Keyed:
    """A stack of 3x3 matrices sorted by key, for matching by key window.

    If max|P - E| < tol then |k(P) - k(E)| < ||w||_1 tol, and a computed key
    is within a few ulps of ||w||_1 max|M| of the exact one.  So every
    element within ``tol`` of a matrix P lies in a window of the sorted keys
    around k(P), which two ``searchsorted`` calls find, and max-abs
    distances are taken for the window candidates only.  A matrix with a
    nan or inf entry is within ``tol`` of nothing; its window holds at most
    the elements whose keys are not finite either.
    """

    def __init__(self, E):
        self.E = np.reshape(np.asarray(E, dtype=float), (-1, 9))
        keys = self.E @ _KEY
        self.order = np.argsort(keys, kind="stable")   # non-finite keys at the ends
        self.keys = keys[self.order]
        finite = np.isfinite(keys)
        self.all_finite = bool(finite.all())
        self.size = np.abs(self.E if self.all_finite else self.E[finite]).max(initial=0.0)

    def pairs(self, P, tol):
        """Candidate pairs (i, j) of rows of P and elements, the max-abs
        distance of each pair, and each row's candidate count: every pair at
        a distance below ``tol`` is among them."""
        P = np.reshape(P, (-1, 9))
        kp = P @ _KEY
        bad = ~np.isfinite(kp)
        Q = P[~bad] if bad.any() else P
        size = max(self.size, Q.max(initial=0.0), -Q.min(initial=0.0))
        h = 1.000001 * _KEY_NORM * tol + 64 * _EPS * _KEY_NORM * size
        lo = self.keys.searchsorted(kp - h, "left")
        count = self.keys.searchsorted(kp + h, "right") - lo
        i = np.arange(len(P)).repeat(count)
        j = self.order[np.arange(len(i)) + (lo - count.cumsum() + count).repeat(count)]
        diff = P[i]
        diff -= self.E[j]
        return i, j, np.abs(diff, out=diff).max(axis=1, initial=0.0), count

    def nearest(self, P, tol):
        """Distance from each matrix in P to its nearest element, as the full
        search ``_nearest`` gives it: the least candidate distance where one
        is below ``tol``, the full search for the other rows."""
        P = np.reshape(np.asarray(P, dtype=float), (-1, 9))
        if not self.all_finite:     # the full search skips a non-finite element
            return _nearest(P, self.E)
        _, _, d, count = self.pairs(P, tol)
        best = np.full(len(P), np.inf)
        hit = count > 0
        if hit.any():
            best[hit] = np.minimum.reduceat(d, (count.cumsum() - count)[hit])
        miss = ~(best < tol)
        if miss.any():
            best[miss] = _nearest(P[miss], self.E)
        return best


@np.errstate(over="ignore", invalid="ignore")   # a product that overflows is matched as new
def group_from_generators(name, generators, expected_order=None):
    """Closure of explicit generator matrices in breadth-first rounds, in
    their own field: rational if every entry is an int or a Fraction.

    A round multiplies every generator by the whole frontier (the elements
    the last round found) in one stacked float product, and matches the
    products by key window (``_Keyed``) against the elements found so far
    and against the earlier products of the round.  A product is new when
    neither holds one within ``MATCH_TOL``, so the first of equal products
    is kept and the elements come in the order a one-at-a-time search
    appends them.  For rational generators (``polyalg.is_rational``), only
    the new elements are also formed exactly, as Python-int matrices over
    one gcd-reduced denominator: their floats are the exact values rounded,
    and the ``exact_elements`` Fractions are built once, at the end.
    Otherwise the float products are the elements.  A generator with a nan
    or inf entry raises before the first round, and a closure whose order is
    not ``expected_order``, when given, raises.
    """
    gens = [np.array(G, dtype=object).reshape(3, 3) for G in generators]
    exact = all(is_rational(x) for G in gens for x in G.flat)
    floats = np.array([G.astype(float) for G in gens]).reshape(-1, 3, 3)
    bad = np.flatnonzero(~np.isfinite(floats).all(axis=(1, 2)))
    if len(bad):
        raise ValueError("generator %d has an entry that is not finite" % bad[0])
    if exact:                   # (N, den) of each generator and each element
        ints = [integer_matrix(G) for G in gens]
        elems = [integer_matrix(np.identity(3, dtype=object))]
    found = np.empty((MAX_ORDER, 3, 3))
    found[0] = np.identity(3)
    start, n = 0, 1
    while start < n:            # the frontier is found[start:n]
        P = (floats[None] @ found[start:n, None]).reshape(-1, 3, 3)   # [e, g] row-major
        i, j, d, _ = _Keyed(np.concatenate([found[:n], P])).pairs(P, MATCH_TOL)
        old = np.zeros(len(P), dtype=bool)     # near a found element or an earlier product
        old[i[(d < MATCH_TOL) & (j < n + i)]] = True
        new = np.flatnonzero(~old)
        if n + len(new) > MAX_ORDER:
            raise ValueError("closure exceeded %d elements; bad group spec" % MAX_ORDER)
        if exact:
            for k in new.tolist():
                (G, a), (E, b) = ints[k % len(gens)], elems[start + k // len(gens)]
                N, den = G @ E, a * b
                c = math.gcd(den, *N.flat)
                elems.append((N // c, den // c))
                P[k] = N / den
        found[n:n + len(new)] = P[new]
        start, n = n, n + len(new)
    g = PointGroup(name, found[:n], floats,
                   tuple(tuple(tuple(_F(x, den) for x in row) for row in N.tolist())
                         for N, den in elems) if exact else None)
    if expected_order is not None and g.order != expected_order:
        raise RuntimeError("group %s has order %d, expected %d"
                           % (name, g.order, expected_order))
    return g


# ---------------------------------------------------------------------------
# the built-in families
# ---------------------------------------------------------------------------

EXPECTED_ORDERS = {"C": lambda n: n, "D": lambda n: 2 * n,
                   "T": lambda n: 12, "O": lambda n: 24, "I": lambda n: 60}

_GENERATORS = {"C": lambda n: [_rot_z(n)], "D": lambda n: [_rot_z(n), _ROT2_X1],
               "T": lambda n: [_ROT2_X1, _CYCLE_XYZ],
               "O": lambda n: [_ROT2_X1, _CYCLE_XYZ, _rot_z(4)],
               "I": lambda n: _icosahedral_generators()}


def _base_group(family, n):
    if family in ("C", "D") and n < 1:
        raise ValueError("%s order must be >= 1"
                         % ("cyclic" if family == "C" else "dihedral"))
    name = family + str(n) if family in ("C", "D") else family
    return group_from_generators(name, _GENERATORS[family](n), EXPECTED_ORDERS[family](n))


def _negated(E):
    return tuple(tuple(-x for x in row) for row in E)


def adjoin_inversion(g):
    """Type-2 extension: adjoin the central inversion J."""
    J = np.array(J_MATRIX, dtype=float)
    elems = np.concatenate([g.stack, J @ g.stack])
    exact = None
    if g.is_rational:
        exact = tuple(g.exact_elements) + tuple(map(_negated, g.exact_elements))
    return PointGroup(g.name + "i", elems, g.generators + (J,), exact)


@np.errstate(over="ignore", invalid="ignore")   # a non-finite element fails the checks
def type3_group(g2, g1):
    """G1 together with J*(G2 \\ G1); G1 must be an index-2 subgroup of G2,
    and both must be rotation groups.

    The generators are those of G1 and J*h for one h in G2 \\ G1: G1 and h
    generate G2, and g -> g on G1, g -> J g off it is an isomorphism.
    """
    if np.any(np.linalg.det(np.concatenate([g2.stack, g1.stack])) < 0):
        raise ValueError("G2 and G1 of a Type-3 group must be rotation groups")
    if 2 * g1.order != g2.order:
        raise ValueError("G1 is not an index-2 subgroup of G2 (orders %d, %d)"
                         % (g1.order, g2.order))
    if not np.all(_Keyed(g2.stack).nearest(g1.stack, MATCH_TOL) < MATCH_TOL):
        raise ValueError("G1 is not a subgroup of G2")
    J = np.array(J_MATRIX, dtype=float)
    off = _Keyed(g1.stack).nearest(g2.stack, MATCH_TOL) >= MATCH_TOL     # G2 \ G1
    coset = J @ g2.stack[off]
    elems = np.concatenate([g1.stack, coset])
    exact = None
    if g1.is_rational and g2.is_rational:
        exact = tuple(g1.exact_elements) + tuple(
            _negated(E) for E, o in zip(g2.exact_elements, off) if o)
    name = "type3:%s/%s" % (g2.name, g1.name)
    return PointGroup(name, elems, g1.generators + (coset[0],), exact)


_NAME_RE = re.compile(r"^(?:([CD])(\d+)|([TOI]))(i?)$")


@cache
def build_group(name):
    """Build a named group: C<n>, D<n>, T, O, I, suffix 'i' for Type 2,
    or 'type3:<G2>/<G1>' for Type 3.  Built once per name; the arrays are
    read-only."""
    name = name.strip()
    if name.startswith("type3:"):
        spec = name[len("type3:"):]
        if "/" not in spec:
            raise ValueError("type3 spec must be 'type3:<G2>/<G1>'")
        g2name, g1name = spec.split("/", 1)
        return type3_group(build_group(g2name), build_group(g1name))
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError("unknown group name %r" % name)
    g = _base_group(m.group(1) or m.group(3), int(m.group(2) or 0))
    return adjoin_inversion(g) if m.group(4) else g


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

_BLOCK = 512    # products matched at once: each (512, 9) temporary takes 37 kB


@np.errstate(over="ignore", invalid="ignore")   # a non-finite or overflowing element fails
def verify_group(g, tol=MATCH_TOL):
    """Check orthogonality, identity, closure and inverses; report residuals.

    ``tol`` bounds every check and must be finite and positive.  The closure
    residual is the largest distance from a product A B, or an inverse A^T,
    to its nearest element.  The products are formed in blocks of whole rows
    of the multiplication table, about ``_BLOCK`` at a time, and matched by
    key window (``_Keyed``), which finds each product's nearest element
    exactly when one is within ``tol``, and falls back to the full search
    otherwise: O(|G|^2 log |G|) time for a group, with temporaries of about
    ``_BLOCK`` x 9 floats whatever its order.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive, got %r" % (tol,))
    failures = []
    S = g.stack
    orth = np.abs(S.transpose(0, 2, 1) @ S - np.eye(3)).max(axis=(1, 2), initial=0.0)
    for k in np.flatnonzero(~(orth <= tol)):         # nan fails
        failures.append("element %d not orthogonal (residual %.3g)" % (k, orth[k]))
    keyed = _Keyed(S)
    if not keyed.nearest(np.eye(3), tol)[0] < tol:
        failures.append("identity missing")
    n = len(S)
    rows = max(1, _BLOCK // max(n, 1))
    row_max = [keyed.nearest(S[a:a + rows, None] @ S, tol).reshape(-1, n).max(axis=1)
               for a in range(0, n, rows)]
    max_close = float(np.concatenate([keyed.nearest(S.transpose(0, 2, 1), tol)]
                                     + row_max).max(initial=0.0))
    if not max_close <= tol:
        failures.append("closure/inverse residual %.3g exceeds %.3g" % (max_close, tol))
    i, j, d, _ = keyed.pairs(S, tol)
    dup = (j > i) & (d < tol)
    for k in np.lexsort((j[dup], i[dup])):
        failures.append("duplicate elements %d and %d" % (i[dup][k], j[dup][k]))
    expected = None
    m = _NAME_RE.match(g.name)
    if m:
        expected = EXPECTED_ORDERS[m.group(1) or m.group(3)](int(m.group(2) or 0))
        expected *= 2 if m.group(4) else 1
        if g.order != expected:
            failures.append("order %d, expected %d" % (g.order, expected))
    return GroupReport(g.name, g.order, expected, not failures,
                       float(orth.max(initial=0.0)), max_close, failures)
