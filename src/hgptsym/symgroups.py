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

import numpy as np

MATCH_TOL = 1e-9
MAX_ORDER = 240

_F = Fraction

J_MATRIX = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


@dataclass(frozen=True)
class PointGroup:
    name: str
    elements: tuple            # tuple of 3x3 np.ndarray
    generators: tuple
    exact_elements: tuple | None = None  # matching tuple of Fraction matrices

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

def _contains(elements, M, tol=MATCH_TOL):
    for E in elements:
        if np.max(np.abs(E - M)) < tol:
            return True
    return False


def _close_float(generators, max_order=MAX_ORDER):
    elems = [np.eye(3)]
    frontier = [np.eye(3)]
    gens = [np.asarray(g, dtype=float) for g in generators]
    while frontier:
        nxt = []
        for E in frontier:
            for g in gens:
                P = g @ E
                if not _contains(elems, P):
                    elems.append(P)
                    nxt.append(P)
                    if len(elems) > max_order:
                        raise ValueError(
                            "closure exceeded %d elements; bad group spec" % max_order)
        frontier = nxt
    return elems


def _close_exact(generators, max_order=MAX_ORDER):
    ident = tuple(tuple(_F(1) if i == j else _F(0) for j in range(3)) for i in range(3))

    def mul(A, B):
        return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
                     for i in range(3))

    seen = {ident}
    order = [ident]
    frontier = [ident]
    gens = [tuple(tuple(_F(v) for v in row) for row in g) for g in generators]
    while frontier:
        nxt = []
        for E in frontier:
            for g in gens:
                P = mul(g, E)
                if P not in seen:
                    seen.add(P)
                    order.append(P)
                    nxt.append(P)
                    if len(order) > max_order:
                        raise ValueError(
                            "closure exceeded %d elements; bad group spec" % max_order)
        frontier = nxt
    return order


def _group_from_exact(name, exact_gens, expected_order=None):
    exact = _close_exact(exact_gens)
    elems = tuple(np.array([[float(v) for v in row] for row in E]) for E in exact)
    gens = tuple(np.array([[float(v) for v in row] for row in g]) for g in exact_gens)
    g = PointGroup(name, elems, gens, tuple(exact))
    _check_expected(g, expected_order)
    return g


def _group_from_float(name, gens, expected_order=None):
    elems = tuple(_close_float(gens))
    g = PointGroup(name, elems, tuple(np.asarray(x, dtype=float) for x in gens))
    _check_expected(g, expected_order)
    return g


def _check_expected(g, expected_order):
    if expected_order is not None and g.order != expected_order:
        raise RuntimeError("group %s has order %d, expected %d"
                           % (g.name, g.order, expected_order))


def group_from_generators(name, generators, exact=False):
    """Closure of explicit generator matrices (rows of rows; Fractions if exact)."""
    if exact:
        return _group_from_exact(name, generators)
    return _group_from_float(name, generators)


# ---------------------------------------------------------------------------
# the built-in families
# ---------------------------------------------------------------------------

def _base_group(family, n):
    if family == "C":
        if n < 1:
            raise ValueError("cyclic order must be >= 1")
        if n in (1, 2, 4):
            return _group_from_exact("C%d" % n, [_rot_z(1, n)], n)
        return _group_from_float("C%d" % n, [_rot_z(1, n)], n)
    if family == "D":
        if n < 1:
            raise ValueError("dihedral order must be >= 1")
        if n in (1, 2, 4):
            return _group_from_exact("D%d" % n, [_rot_z(1, n), _ROT2_X1], 2 * n)
        return _group_from_float("D%d" % n,
                                 [np.array(_rot_z(1, n)),
                                  np.array(_ROT2_X1, dtype=float)], 2 * n)
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
    elems = tuple(g.elements) + tuple(J @ E for E in g.elements)
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
    for E in g1.elements:
        if not _contains(g2.elements, E):
            raise ValueError("G1 is not a subgroup of G2")
    J = np.array(J_MATRIX, dtype=float)
    coset = [E for E in g2.elements if not _contains(g1.elements, E)]
    elems = tuple(g1.elements) + tuple(J @ E for E in coset)
    exact = None
    if g1.exact_elements is not None and g2.exact_elements is not None:
        g1set = set(g1.exact_elements)
        coset_x = [E for E in g2.exact_elements if E not in g1set]
        exact = tuple(g1.exact_elements) + tuple(
            tuple(tuple(-x for x in row) for row in E) for E in coset_x)
    name = "type3:%s/%s" % (g2.name, g1.name)
    return PointGroup(name, elems, g1.generators + (J @ coset[0],), exact)


_NAME_RE = re.compile(r"^([CD])(\d+)(i?)$|^([TOI])(i?)$")


def build_group(name):
    """Build a named group: C<n>, D<n>, T, O, I, suffix 'i' for Type 2,
    or 'type3:<G2>/<G1>' for Type 3."""
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
    if m.group(1):
        g = _base_group(m.group(1), int(m.group(2)))
        inv = m.group(3) == "i"
    else:
        g = _base_group(m.group(4), 0)
        inv = m.group(5) == "i"
    return adjoin_inversion(g) if inv else g


EXPECTED_ORDERS = {"C": lambda n: n, "D": lambda n: 2 * n,
                   "T": lambda n: 12, "O": lambda n: 24, "I": lambda n: 60}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_group(g, tol=MATCH_TOL):
    """Check orthogonality, identity, closure and inverses; report residuals."""
    failures = []
    elems = [np.asarray(E, dtype=float) for E in g.elements]
    max_orth = 0.0
    for k, E in enumerate(elems):
        r = float(np.max(np.abs(E.T @ E - np.eye(3))))
        max_orth = max(max_orth, r)
        if r > 1e-9:
            failures.append("element %d not orthogonal (residual %.3g)" % (k, r))
    if not _contains(elems, np.eye(3), tol):
        failures.append("identity missing")
    max_close = 0.0
    for A in elems:
        for B in elems:
            P = A @ B
            d = min(float(np.max(np.abs(P - E))) for E in elems)
            max_close = max(max_close, d)
        dinv = min(float(np.max(np.abs(A.T - E))) for E in elems)
        max_close = max(max_close, dinv)
    if max_close > tol:
        failures.append("closure/inverse residual %.3g exceeds %.3g" % (max_close, tol))
    # duplicate detection
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if np.max(np.abs(elems[i] - elems[j])) < tol:
                failures.append("duplicate elements %d and %d" % (i, j))
    expected = None
    m = _NAME_RE.match(g.name)
    if m:
        fam = m.group(1) or m.group(4)
        n = int(m.group(2)) if m.group(2) else 0
        expected = EXPECTED_ORDERS[fam](n)
        if (m.group(3) == "i") or (m.group(5) == "i"):
            expected *= 2
        if g.order != expected:
            failures.append("order %d, expected %d" % (g.order, expected))
    return GroupReport(g.name, g.order, expected, not failures, max_orth,
                       max_close, failures)
