"""Acceptance gate: one test per criterion; pytest -v emits one line each.

Golden data are the published worked example, the dimension/basis tables
for the cyclic groups, the D4 invariant-harmonic table, and closed-form
identities.  Subspace comparisons are rank tests on stacked coefficient
matrices ("up to positive scale and basis choice"); printed single
polynomials are compared up to positive scale.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (intersect_subspaces, prod, proportional, random_rotation, span_equal,
                      sym, u1, u2, u3)
from hgptsym import harmonics as H
from hgptsym import hgpt
from hgptsym import invariants as inv
from hgptsym import symgroups as sg
from hgptsym.polyalg import kelvin_harmonicize

F = Fraction

# shorthand harmonics used throughout the published tables
a2 = u1 ** 2 - u2 ** 2
b2 = u1 ** 2 - u3 ** 2
c3a = u1 ** 3 - 3 * u1 * u2 ** 2
c3b = -3 * u1 ** 2 * u2 + u2 ** 3
d1 = u1 ** 3 - 3 * u1 * u3 ** 2
d2 = u2 ** 3 - 3 * u2 * u3 ** 2
e1 = -3 * u1 ** 2 * u3 + u3 ** 3
e2 = -3 * u2 ** 2 * u3 + u3 ** 3

S11_COMMON = [prod(u1, u1) + prod(u2, u2), prod(u3, u3)]

GOLDEN_BASES = {
    ("C2", 1, 1): [prod(u1, u1), sym(u2, u1), prod(u2, u2), prod(u3, u3)],
    ("C2", 1, 2): [sym(u1 * u3, u1), sym(u2 * u3, u1), sym(u1 * u3, u2),
                   sym(u2 * u3, u2), sym(a2, u3), sym(b2, u3), sym(u1 * u2, u3)],
    ("C2", 1, 3): [sym(c3a, u1), sym(c3b, u1), sym(d1, u1), sym(d2, u1),
                   sym(c3a, u2), sym(c3b, u2), sym(d1, u2), sym(d2, u2),
                   sym(e1, u3), sym(e2, u3), sym(u1 * u2 * u3, u3)],
    ("C2", 2, 2): [prod(a2, a2), sym(b2, a2), sym(a2, u1 * u2),
                   prod(b2, b2), sym(b2, u1 * u2), prod(u1 * u2, u1 * u2),
                   prod(u1 * u3, u1 * u3), sym(u2 * u3, u1 * u3),
                   prod(u2 * u3, u2 * u3)],
    ("C3", 1, 1): S11_COMMON,
    ("C3", 1, 2): [-sym(u1 * u2, u2) + F(1, 2) * sym(a2, u1),
                   sym(u1 * u2, u1) + F(1, 2) * sym(a2, u2),
                   sym(u1 * u3, u1) + sym(u2 * u3, u2),
                   -sym(u1 * u3, u2) + sym(u2 * u3, u1),
                   -F(1, 2) * sym(a2, u3) + sym(b2, u3)],
    ("C3", 1, 3): [-F(1, 6) * sym(c3a, u1) - F(1, 6) * sym(c3b, u2)
                   + F(2, 3) * sym(d1, u1) + F(2, 3) * sym(d2, u2),
                   sym(u1 * u2 * u3, u2) + F(1, 6) * sym(e1, u1)
                   - F(1, 6) * sym(e2, u1),
                   F(3, 8) * sym(c3a, u2) - F(3, 8) * sym(c3b, u1)
                   - F(3, 2) * sym(d1, u2) + F(3, 2) * sym(d2, u1),
                   sym(u1 * u2 * u3, u1) - F(1, 6) * sym(e1, u2)
                   + F(1, 6) * sym(e2, u2),
                   sym(c3a, u3), sym(c3b, u3),
                   F(1, 2) * sym(e1, u3) + F(1, 2) * sym(e2, u3)],
    ("C3", 2, 2): [12 * prod(u1 * u2, u1 * u2) + 3 * prod(a2, a2),
                   F(1, 2) * sym(u1 * u3, a2) - sym(u2 * u3, u1 * u2),
                   sym(u1 * u3, u1 * u2) + F(1, 2) * sym(u2 * u3, a2),
                   prod(u1 * u2, u1 * u2) + F(3, 4) * prod(a2, a2)
                   + 2 * prod(b2, b2) - sym(b2, a2),
                   prod(u1 * u3, u1 * u3) + prod(u2 * u3, u2 * u3)],
    ("C4", 1, 1): S11_COMMON,
    ("C4", 1, 2): [sym(u1 * u3, u1) + sym(u2 * u3, u2),
                   -sym(u1 * u3, u2) + sym(u2 * u3, u1),
                   -sym(a2, u3) + 2 * sym(b2, u3)],
    ("C4", 1, 3): [sym(c3a, u1) + sym(c3b, u2), -sym(c3a, u2) + sym(c3b, u1),
                   sym(d1, u1) + sym(d2, u2), -sym(d1, u2) + sym(d2, u1),
                   sym(e1, u3) + sym(e2, u3)],
    ("C4", 2, 2): [prod(a2, a2), sym(a2, u1 * u2),
                   prod(a2, a2) + 2 * prod(b2, b2) - sym(b2, a2),
                   prod(u1 * u2, u1 * u2),
                   prod(u1 * u3, u1 * u3) + prod(u2 * u3, u2 * u3)],
    ("C5", 1, 1): S11_COMMON,
    ("C5", 1, 2): [F(1, 2) * sym(u1 * u3, u1) + F(1, 2) * sym(u2 * u3, u2),
                   -F(5, 2) * sym(u1 * u3, u2) + F(5, 2) * sym(u2 * u3, u1),
                   -sym(a2, u3) + 2 * sym(b2, u3)],
    ("C5", 1, 3): [-F(1, 6) * sym(c3a, u1) - F(1, 6) * sym(c3b, u2)
                   + F(2, 3) * sym(d1, u1) + F(2, 3) * sym(d2, u2),
                   F(5, 8) * sym(c3a, u2) - F(5, 8) * sym(c3b, u1)
                   - F(5, 2) * sym(d1, u2) + F(5, 2) * sym(d2, u1),
                   F(1, 2) * sym(e1, u3) + F(1, 2) * sym(e2, u3)],
    ("C5", 2, 2): [F(8, 5) * prod(u1 * u2, u1 * u2) + F(2, 5) * prod(a2, a2),
                   F(8, 7) * prod(u1 * u2, u1 * u2) + F(6, 7) * prod(a2, a2)
                   + F(16, 7) * prod(b2, b2) - F(8, 7) * sym(b2, a2),
                   prod(u1 * u3, u1 * u3) + prod(u2 * u3, u2 * u3)],
    ("C6", 1, 1): S11_COMMON,
    ("C6", 1, 2): [F(1, 2) * sym(u1 * u3, u1) + F(1, 2) * sym(u2 * u3, u2),
                   -3 * sym(u1 * u3, u2) + 3 * sym(u2 * u3, u1),
                   -sym(a2, u3) + 2 * sym(b2, u3)],
    ("C6", 1, 3): [-F(1, 6) * sym(c3a, u1) - F(1, 6) * sym(c3b, u2)
                   + F(2, 3) * sym(d1, u1) + F(2, 3) * sym(d2, u2),
                   F(3, 4) * sym(c3a, u2) - F(3, 4) * sym(c3b, u1)
                   - 3 * sym(d1, u2) + 3 * sym(d2, u1),
                   F(1, 2) * sym(e1, u3) + F(1, 2) * sym(e2, u3)],
    ("C6", 2, 2): [F(8, 5) * prod(u1 * u2, u1 * u2) + F(2, 5) * prod(a2, a2),
                   F(8, 7) * prod(u1 * u2, u1 * u2) + F(6, 7) * prod(a2, a2)
                   + F(16, 7) * prod(b2, b2) - F(8, 7) * sym(b2, a2),
                   prod(u1 * u3, u1 * u3) + prod(u2 * u3, u2 * u3)],
}

GOLDEN_DIMS = {"C2": {(1, 1): 4, (1, 2): 7, (1, 3): 11, (2, 2): 9},
               "C3": {(1, 1): 2, (1, 2): 5, (1, 3): 7, (2, 2): 5},
               "C4": {(1, 1): 2, (1, 2): 3, (1, 3): 5, (2, 2): 5},
               "C5": {(1, 1): 2, (1, 2): 3, (1, 3): 3, (2, 2): 3},
               "C6": {(1, 1): 2, (1, 2): 3, (1, 3): 3, (2, 2): 3}}

CELLS = [(1, 1), (1, 2), (1, 3), (2, 2)]


def _subspace(name, p, q):
    g = sg.build_group(name)
    return inv.invariant_subspace(inv.symmetric_product_space(p, q), g)


def test_criterion_1_worked_example_exact():
    """(S11, C4): printed action matrices and projector, zero tolerance."""
    start = time.monotonic()
    g = sg.build_group("C4")
    space = inv.symmetric_product_space(1, 1)

    def pi(R):
        return inv.action_matrix(space, R)

    R2 = tuple(tuple(map(F, r)) for r in ((0, -1, 0), (1, 0, 0), (0, 0, 1)))
    R3 = tuple(tuple(map(F, r)) for r in ((-1, 0, 0), (0, -1, 0), (0, 0, 1)))
    R4 = tuple(tuple(map(F, r)) for r in ((0, 1, 0), (-1, 0, 0), (0, 0, 1)))
    want_pi2 = [[0, 0, 0, 1, 0, 0], [0, -1, 0, 0, 0, 0], [0, 0, 0, 0, -1, 0],
                [1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]]
    want_pi3 = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0],
                [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, 1]]
    want_pi4 = [[0, 0, 0, 1, 0, 0], [0, -1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0],
                [1, 0, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0], [0, 0, 0, 0, 0, 1]]
    assert pi(R2) == [[F(v) for v in row] for row in want_pi2]
    assert pi(R3) == [[F(v) for v in row] for row in want_pi3]
    assert pi(R4) == [[F(v) for v in row] for row in want_pi4]

    M = inv.averaging_projector(space, g)
    want_M = [[F(v, 4) for v in row] for row in
              [[2, 0, 0, 2, 0, 0], [0] * 6, [0] * 6,
               [2, 0, 0, 2, 0, 0], [0] * 6, [0, 0, 0, 0, 0, 4]]]
    assert M == want_M
    assert sum(M[i][i] for i in range(6)) == 2

    sub = inv.invariant_subspace(space, g)
    assert sub.dimension == 2
    assert span_equal(sub.basis, [prod(u1, u1) + prod(u2, u2), prod(u3, u3)])
    assert time.monotonic() - start < 1.0


def test_criterion_2_dimension_golden_suite():
    """Tables for C2..C6; exact arithmetic for C2/C4, float traces within
    1e-6 of an integer for C3/C5/C6.

    Note: the published C5 table states dim 2 at (p,q) = (1,2) while
    listing three basis polynomials; the computed dimension is 3 (the
    character sum of the 5-fold rotation over S_12 is 3), so the stated
    "2" is taken to be a typographical error and 3 is pinned here.
    """
    start = time.monotonic()
    for name, golden in GOLDEN_DIMS.items():
        g = sg.build_group(name)
        assert g.is_rational == (name in ("C2", "C4"))
        for (p, q), dim in golden.items():
            space = inv.symmetric_product_space(p, q)
            M = inv.averaging_projector(space, g)
            if g.is_rational:
                tr = sum(M[i][i] for i in range(space.dim))
                assert tr == dim, (name, p, q)
            else:
                tr = float(np.trace(M))
                assert abs(tr - round(tr)) < 1e-6
                assert round(tr) == dim, (name, p, q)
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("key", sorted(GOLDEN_BASES, key=str))
def test_criterion_3_basis_span_suite(key):
    """Computed subspaces equal the span of the published polynomials."""
    name, p, q = key
    sub = _subspace(name, p, q)
    golden = GOLDEN_BASES[key]
    assert sub.dimension == len(golden)
    assert span_equal(sub.basis, golden, tol=1e-8), key


def test_criterion_3_c5_12_discrepancy():
    """C5 (1,2): the three published polynomials span the computed
    3-dimensional space even though the table's dim column says 2."""
    sub = _subspace("C5", 1, 2)
    assert sub.dimension == 3
    assert span_equal(sub.basis, GOLDEN_BASES[("C5", 1, 2)])


def test_criterion_4_molien_meyer_suite():
    """D4 h-series, and h_m == fixed-space dimension for all built-in
    groups and m <= 8 (two independent routes)."""
    assert list(inv.molien_series(sg.build_group("D4"), 5).h) == \
        [1, 0, 1, 0, 2, 1]
    groups = ["C1", "C2", "C3", "C4", "C5", "C6",
              "D2", "D3", "D4", "D5", "D6", "T", "O", "I",
              "C2i", "C4i", "Oi", "type3:C4/C2"]
    for name in groups:
        g = sg.build_group(name)
        ms = inv.molien_series(g, 8)
        for m in range(9):
            space = inv.harmonic_space(m)
            got = inv.invariant_subspace(space, g).dimension
            assert got == ms.h[m], (name, m, got, ms.h[m])


def test_criterion_5_d4_invariant_harmonics_table():
    """The D4 table at m = 0..4, and the Kelvin construction."""
    g = sg.build_group("D4")
    i0 = inv.invariant_harmonics(g, 0)
    assert i0.dimension == 1 and i0.basis[0].degree() == 0

    i1 = inv.invariant_harmonics(g, 1)
    i3 = inv.invariant_harmonics(g, 3)
    assert i1.dimension == 0 and i3.dimension == 0

    i2 = inv.invariant_harmonics(g, 2)
    want2 = 2 * u3 ** 2 - u1 ** 2 - u2 ** 2
    assert i2.dimension == 1
    assert proportional(i2.basis[0], want2, positive=True)

    i4 = inv.invariant_harmonics(g, 4)
    want4a = (24 * u3 ** 4 + 9 * (u1 ** 4 + u2 ** 4)
              - 72 * (u1 ** 2 * u3 ** 2 + u2 ** 2 * u3 ** 2)
              + 18 * u1 ** 2 * u2 ** 2)
    want4b = 105 * (u1 ** 4 + u2 ** 4) - 630 * u1 ** 2 * u2 ** 2
    assert i4.dimension == 2
    assert span_equal(i4.basis, [want4a, want4b])
    # the two table rows come from the stated operating polynomials;
    # the binomial operating polynomial is x1^4 - 6 x1^2 x2^2 + x2^4
    # (the table abbreviates it, dropping the trailing + x2^4)
    assert proportional(kelvin_harmonicize(u3 ** 4, 4), want4a, positive=True)
    assert proportional(
        kelvin_harmonicize(u1 ** 4 - 6 * u1 ** 2 * u2 ** 2 + u2 ** 4, 4),
        want4b, positive=True)
    assert proportional(kelvin_harmonicize(u3 ** 2, 2), want2, positive=True)


def test_criterion_6_coefficient_patterns():
    """C2 at p=q=1: four printed independent coefficients; C4: the printed
    tie plus one free coefficient."""
    c2 = inv.coefficient_pattern(_subspace("C2", 1, 1))
    assert set(c2.independent) == {(-1, -1), (-1, 0), (0, 0), (1, 1)}
    assert not c2.relations
    assert set(c2.zero) == {(-1, 1), (0, 1)}

    c4 = inv.coefficient_pattern(_subspace("C4", 1, 1))
    assert set(c4.independent) == {(-1, -1), (1, 1)}
    assert c4.relations == {(0, 0): [((-1, -1), F(1))]}
    assert set(c4.zero) == {(-1, 0), (-1, 1), (0, 1)}


def test_criterion_7_remark_1_counts():
    """S_pp dimension (2p+1)(p+1) with no symmetry; the published
    comparison column (6, 15, 21, 15)."""
    for p in (1, 2, 3):
        assert inv.symmetric_product_space(p, p).dim == (2 * p + 1) * (p + 1)
    c1 = sg.build_group("C1")
    got = [inv.invariant_subspace(inv.symmetric_product_space(p, q), c1).dimension
           for (p, q) in CELLS]
    assert got == [6, 15, 21, 15]


def test_criterion_8_property_suites(rng):
    """Pinned-tolerance property checks across the modules."""
    # harmonicity of all bases, exact
    for n in range(7):
        for style in ("integer", "orthonormal"):
            for core in H.real_basis(n, style).cores:
                assert core.laplacian().is_zero()
    # basis-change unitarity
    for n in range(5):
        assert H.basis_change(n).unitarity_residual() < 1e-10
    # projector idempotence (a float group)
    g = sg.build_group("C6")
    space = inv.symmetric_product_space(2, 2)
    M = inv.averaging_projector(space, g)
    assert np.max(np.abs(M @ M - M)) < 1e-9
    # Green expansion against the closed form at |x'|/|x| = 0.25, N = 12
    x = (2.0, 0.0, 0.0)
    d = 0.5 / math.sqrt(3.0)
    xp = (d, d, d)  # |xp| = 0.5 = 0.25 * |x|
    assert abs(np.linalg.norm(xp) - 0.5) < 1e-12
    assert abs(H.green_expansion(x, xp, 12) - H.green_exact(x, xp)) < 1e-6
    # rotate / scale composition laws
    N = hgpt.HgptMatrix(1, 2, rng.normal(size=(3, 5)))
    R1, R2 = random_rotation(rng), random_rotation(rng)
    assert np.max(np.abs(hgpt.rotate(hgpt.rotate(N, R2), R1).entries
                         - hgpt.rotate(N, R2 @ R1).entries)) < 1e-10
    assert np.max(np.abs(hgpt.scale(hgpt.scale(N, 2.0), 3.0).entries
                         - hgpt.scale(N, 6.0).entries)) < 1e-10
    # forward-voltage rotation equivariance, 50 random configurations
    worst = 0.0
    for _ in range(50):
        R = random_rotation(rng)
        xr = rng.normal(size=3) + np.array([4.0, 0.0, 0.0])
        xs = rng.normal(size=3) + np.array([0.0, 5.0, 0.0])
        v1 = hgpt.forward_voltage([hgpt.rotate(N, R)], xr, xs)
        v2 = hgpt.forward_voltage([N], R @ xr, R @ xs)
        worst = max(worst, abs(v1 - v2))
    assert worst < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_criterion_9_algorithm_2_equivalence(n):
    """D_n fixed subspaces via intersection equal the direct computation."""
    dn = sg.build_group("D%d" % n)
    cn = sg.build_group("C%d" % n)
    flip = sg.group_from_generators("flip", [np.diag([1.0, -1.0, -1.0])])
    for (p, q) in CELLS:
        space = inv.symmetric_product_space(p, q)
        A = np.array([[float(c) for c in r] for r in
                      inv.invariant_subspace(space, cn).coefficient_rows]).T
        B = np.array([[float(c) for c in r] for r in
                      inv.invariant_subspace(space, flip).coefficient_rows]).T
        inter = intersect_subspaces(A, B)
        direct = inv.invariant_subspace(space, dn)
        assert inter.shape[0] == direct.dimension, (n, p, q)
        D = np.array([[float(c) for c in r] for r in direct.coefficient_rows])
        if direct.dimension:
            rank = np.linalg.matrix_rank(
                np.vstack([inter, D / np.linalg.norm(D, axis=1, keepdims=True)]),
                tol=1e-8)
            assert rank == direct.dimension, (n, p, q)
