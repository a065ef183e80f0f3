"""Finite orthogonal point groups as explicit 3x3 matrices.

Families: cyclic C_n (n-fold axis = x3), dihedral D_n (extra 2-fold axis =
x1), tetrahedral T (2-fold axes = coordinate axes), octahedral O (cube
faces parallel to the coordinate axes) and icosahedral I (coordinate axes
through midpoints of opposite edges, the edge crossed by the x1 axis
parallel to x2).  Type-2 groups adjoin the central inversion J; Type-3
groups arise from a rotational group G2 with an index-2 subgroup G1 as
G1 together with J*(G2 \\ G1).

Groups whose matrices are rational (C1, C2, C4, D1, D2, D4, T, O and
their J-extensions) carry exact Fraction matrices alongside the float
ones, so downstream linear algebra can run in exact arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

MATCH_TOL = 1e-9
MAX_ORDER = 240

_F = Fraction

J_MATRIX = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


@dataclass(frozen=True, eq=False)
class PointGroup:
    """A finite group of 3x3 orthogonal matrices.

    Two groups are equal when they have the same name, the same
    rationality and bit-identical element stacks; the hash is computed once,
    so a group can key the memoised action stacks in ``invariants``.
    """

    name: str
    elements: tuple            # tuple of read-only 3x3 float arrays, rows of ``stack``
    generators: tuple          # tuple of read-only 3x3 float arrays
    exact_elements: tuple | None = None  # matching tuple of Fraction matrices
    stack: np.ndarray = field(init=False, repr=False)  # (order, 3, 3)
    _key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        # read-only float copies: a memoised group is shared by every caller
        object.__setattr__(self, "stack", _readonly(self.elements))
        object.__setattr__(self, "elements", tuple(self.stack))
        object.__setattr__(self, "generators", tuple(_readonly(self.generators)))
        key = (self.name, self.is_rational, self.stack.tobytes())
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if not isinstance(other, PointGroup):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self):
        return self._hash

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

def _rot_z(k, n):
    """Rotation by 2*pi*k/n about x3; exact for n in {1, 2, 4}."""
    if n in (1, 2, 4):
        c = {0: 1, 1: 0, 2: -1, 3: 0}[(4 * k // n) % 4]
        s = {0: 0, 1: 1, 2: 0, 3: -1}[(4 * k // n) % 4]
        return ((_F(c), _F(-s), _F(0)), (_F(s), _F(c), _F(0)), (_F(0), _F(0), _F(1)))
    th = 2.0 * math.pi * k / n
    c, s = math.cos(th), math.sin(th)
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


_ROT2_X1 = ((_F(1), _F(0), _F(0)), (_F(0), _F(-1), _F(0)), (_F(0), _F(0), _F(-1)))
_CYCLE_XYZ = ((_F(0), _F(0), _F(1)), (_F(1), _F(0), _F(0)), (_F(0), _F(1), _F(0)))
_ROT4_X3 = ((_F(0), _F(-1), _F(0)), (_F(1), _F(0), _F(0)), (_F(0), _F(0), _F(1)))


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
    g2 = np.array(_ROT2_X1, dtype=float)
    g5 = _axis_rotation((phi, 1.0, 0.0), 2.0 * math.pi / 5.0)
    return [g2, g5]


# ---------------------------------------------------------------------------
# closure enumeration
# ---------------------------------------------------------------------------

def _readonly(matrices):
    a = np.array(matrices, dtype=float).reshape(-1, 3, 3)
    a.flags.writeable = False
    return a


def _distances(P, E):
    """(len(P), len(E)) max-abs distances between two stacks of 3x3 matrices."""
    P = np.reshape(np.asarray(P, dtype=float), (-1, 9))
    E = np.reshape(np.asarray(E, dtype=float), (-1, 9))
    d = np.zeros((len(P), len(E)))
    for k in range(9):          # entry by entry: only (len(P), len(E)) arrays
        np.maximum(d, np.abs(P[:, k, None] - E[None, :, k]), out=d)
    return d


def _nearest(P, E):
    """Distance from each matrix in P to its nearest one in E (inf if E is empty)."""
    return _distances(P, E).min(axis=1, initial=np.inf)


def _contains(elements, M, tol=MATCH_TOL):
    return bool(_nearest(M, elements)[0] < tol)


def _close_float(generators, max_order=MAX_ORDER):
    elems = np.empty((max_order, 3, 3))
    elems[0] = np.eye(3)
    gens = [np.asarray(g, dtype=float) for g in generators]
    i, n = 0, 1
    while i < n:                # breadth first: elements in the order found
        for g in gens:
            P = g @ elems[i]
            if not _contains(elems[:n], P):
                if n == max_order:
                    raise ValueError(
                        "closure exceeded %d elements; bad group spec" % max_order)
                elems[n] = P
                n += 1
        i += 1
    return elems[:n]


def _close_exact(generators, max_order=MAX_ORDER):
    ident = tuple(tuple(_F(1) if i == j else _F(0) for j in range(3)) for i in range(3))

    def mul(A, B):
        return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
                     for i in range(3))

    seen = {ident}
    order = [ident]
    gens = [tuple(tuple(_F(v) for v in row) for row in g) for g in generators]
    for E in order:             # breadth first: the loop visits appended elements too
        for g in gens:
            P = mul(g, E)
            if P not in seen:
                seen.add(P)
                order.append(P)
                if len(order) > max_order:
                    raise ValueError(
                        "closure exceeded %d elements; bad group spec" % max_order)
    return order


def _group_from_exact(name, exact_gens, expected_order=None):
    exact = tuple(_close_exact(exact_gens))
    return _check_expected(PointGroup(name, exact, exact_gens, exact), expected_order)


def _group_from_float(name, gens, expected_order=None):
    return _check_expected(PointGroup(name, _close_float(gens), gens), expected_order)


def _check_expected(g, expected_order):
    if expected_order is not None and g.order != expected_order:
        raise RuntimeError("group %s has order %d, expected %d"
                           % (g.name, g.order, expected_order))
    return g


def group_from_generators(name, generators, exact=False):
    """Closure of explicit generator matrices (rows of rows; Fractions if exact)."""
    if exact:
        return _group_from_exact(name, generators)
    return _group_from_float(name, generators)


# ---------------------------------------------------------------------------
# the built-in families
# ---------------------------------------------------------------------------

def _base_group(family, n):
    if family in ("C", "D"):
        if n < 1:
            raise ValueError("%s order must be >= 1"
                             % ("cyclic" if family == "C" else "dihedral"))
        make = _group_from_exact if n in (1, 2, 4) else _group_from_float
        if family == "C":
            return make("C%d" % n, [_rot_z(1, n)], n)
        return make("D%d" % n, [_rot_z(1, n), _ROT2_X1], 2 * n)
    if family == "T":
        return _group_from_exact("T", [_ROT2_X1, _CYCLE_XYZ], 12)
    if family == "O":
        return _group_from_exact("O", [_ROT2_X1, _CYCLE_XYZ, _ROT4_X3], 24)
    if family == "I":
        return _group_from_float("I", _icosahedral_generators(), 60)
    raise ValueError("unknown family %r" % family)


def adjoin_inversion(g):
    """Type-2 extension: adjoin the central inversion J."""
    J = np.array(J_MATRIX, dtype=float)
    elems = np.concatenate([g.stack, J @ g.stack])
    exact = None
    if g.exact_elements is not None:
        exact = tuple(g.exact_elements) + tuple(
            tuple(tuple(-x for x in row) for row in E) for E in g.exact_elements)
    return PointGroup(g.name + "i", elems, g.generators + (J,), exact)


def type3_group(g2, g1):
    """G1 together with J*(G2 \\ G1); G1 must be an index-2 subgroup of G2.

    The generators are those of G1 and J*h for one h in G2 \\ G1: G1 and h
    generate G2, and g -> g on G1, g -> J g off it is an isomorphism.
    """
    if 2 * g1.order != g2.order:
        raise ValueError("G1 is not an index-2 subgroup of G2 (orders %d, %d)"
                         % (g1.order, g2.order))
    if not np.all(_nearest(g1.stack, g2.stack) < MATCH_TOL):
        raise ValueError("G1 is not a subgroup of G2")
    J = np.array(J_MATRIX, dtype=float)
    coset = J @ g2.stack[~(_nearest(g2.stack, g1.stack) < MATCH_TOL)]
    elems = np.concatenate([g1.stack, coset])
    exact = None
    if g1.exact_elements is not None and g2.exact_elements is not None:
        g1set = set(g1.exact_elements)
        exact = tuple(g1.exact_elements) + tuple(
            tuple(tuple(-x for x in row) for row in E)
            for E in g2.exact_elements if E not in g1set)
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


EXPECTED_ORDERS = {"C": lambda n: n, "D": lambda n: 2 * n,
                   "T": lambda n: 12, "O": lambda n: 24, "I": lambda n: 60}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_group(g, tol=MATCH_TOL):
    """Check orthogonality, identity, closure and inverses; report residuals.

    The closure residual is the largest distance from a product A B, or an
    inverse A^T, to its nearest element.  Each row A of the multiplication
    table is compared with all elements in one array operation: O(|G|^2)
    matrix products in O(|G|^2) memory.
    """
    failures = []
    S = g.stack
    orth = np.abs(S.transpose(0, 2, 1) @ S - np.eye(3)).max(axis=(1, 2), initial=0.0)
    for k in np.flatnonzero(orth > 1e-9):
        failures.append("element %d not orthogonal (residual %.3g)" % (k, orth[k]))
    if not _contains(S, np.eye(3), tol):
        failures.append("identity missing")
    max_close = float(max([_nearest(S.transpose(0, 2, 1), S).max(initial=0.0)]
                          + [_nearest(A @ S, S).max() for A in S]))
    if max_close > tol:
        failures.append("closure/inverse residual %.3g exceeds %.3g" % (max_close, tol))
    for i, j in np.argwhere(np.triu(_distances(S, S) < tol, 1)):
        failures.append("duplicate elements %d and %d" % (i, j))
    expected = None
    m = _NAME_RE.match(g.name)
    if m:
        expected = EXPECTED_ORDERS[m.group(1) or m.group(3)](int(m.group(2) or 0))
        expected *= 2 if m.group(4) else 1
        if g.order != expected:
            failures.append("order %d, expected %d" % (g.order, expected))
    return GroupReport(g.name, g.order, expected, not failures,
                       float(orth.max(initial=0.0)), max_close, failures)
