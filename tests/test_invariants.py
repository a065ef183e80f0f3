"""Representation spaces, averaging projector, Molien series, patterns."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import intersect_subspaces, nullspace, random_rotation, span_equal, verify_fixed
from hgptsym import hgpt
from hgptsym import invariants as inv
from hgptsym import symgroups as sg
from hgptsym.harmonics import monomials_of_degree, real_basis
from hgptsym.polyalg import Polynomial, _snap, coefficient_matrix

F = Fraction


class TestRepresentationSpaces:
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_harmonic_space(self, p):
        space = inv.harmonic_space(p)
        assert space.dim == 2 * p + 1
        assert space.is_exact
        assert space.index_map == tuple((i,) for i in range(-p, p + 1))

    @pytest.mark.parametrize("p,q,dim", [(1, 1, 6), (1, 2, 15), (1, 3, 21),
                                         (2, 2, 15), (3, 3, 28)])
    def test_symmetric_product_dims(self, p, q, dim):
        space = inv.symmetric_product_space(p, q)
        assert space.dim == dim
        if p == q:
            assert all(i <= j for i, j in space.index_map)

    def test_s11_ordering_matches_convention(self):
        space = inv.symmetric_product_space(1, 1)
        assert space.index_map == ((-1, -1), (-1, 0), (-1, 1),
                                   (0, 0), (0, 1), (1, 1))
        # diagonal element is the plain product, off-diagonal symmetrized
        assert space.basis[0].to_text() == "1*x1*y1"
        assert space.basis[1].to_text() == "1*x1*y2 + 1*x2*y1"

    def test_elements_are_homogeneous_products(self):
        space = inv.symmetric_product_space(2, 2)
        for b in space.basis:
            assert b.degree() == 4 and b.is_homogeneous()

    @pytest.mark.parametrize("style", ["integer", "orthonormal"])
    @pytest.mark.parametrize("p", range(7))
    def test_folded_space_equals_polynomial_products(self, p, style):
        for q in range(7):
            space = inv.symmetric_product_space(p, q, style)
            basis, index_map, monos, rows = _product_space_from_polynomials(p, q, style)
            assert space.monomials == monos
            assert space.index_map == index_map
            got = _rows(space)
            assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in rows]
            assert got == rows
            assert np.array_equal(_bits(got), _bits(rows))      # +0.0 for zeros
            assert space.coefficients.tobytes() == np.array(rows, dtype=float).tobytes()
            assert space.basis == basis
            assert [b.to_text() for b in space.basis] == [b.to_text() for b in basis]

    def test_coefficients_are_the_numerators_over_their_denominator(self):
        # N / den in one array operation rounds as float(c) entry by entry
        spaces = [inv.harmonic_space(p) for p in range(13)]
        spaces += [inv.symmetric_product_space(p, q) for p in range(7) for q in range(7)]
        assert len(spaces) == 62
        for space in spaces:
            assert space.is_exact
            want = np.array([[float(c) for c in row] for row in _rows(space)])
            assert space.coefficients.tobytes() == want.tobytes(), (space.p, space.q)

    def test_float_numerators_are_the_coefficients_over_one(self):
        space = inv.symmetric_product_space(1, 2, "orthonormal")
        N, den = space.numerators
        assert den == 1 and N.dtype == float
        assert N.tobytes() == space.coefficients.tobytes()

    def test_product_space_reads_its_basis_only_when_asked(self):
        space = inv.symmetric_product_space.__wrapped__(2, 2)
        assert inv.invariant_subspace(space, sg.build_group("C4")).dimension == 5
        assert "basis" not in vars(space)
        assert space.basis == inv.symmetric_product_space(2, 2).basis

    @pytest.mark.parametrize("style", ["integer", "orthonormal"])
    def test_space_multiplies_no_polynomial(self, style, monkeypatch):
        for d in (2, 3):
            inv.harmonic_space(d, style)

        def refuse(*args):
            raise AssertionError("polynomial product")

        monkeypatch.setattr(Polynomial, "__mul__", refuse)
        monkeypatch.setattr(Polynomial, "__rmul__", refuse)
        for p, q in [(2, 3), (3, 3)]:
            assert inv.symmetric_product_space.__wrapped__(p, q, style).dim > 0


class TestActionMatrices:
    def test_exact_homomorphism(self):
        g = sg.build_group("O")
        space = inv.harmonic_space(2)
        mats = [np.array([[float(v) for v in row]
                          for row in inv.action_matrix(space, E)])
                for E in g.exact_elements]
        flo = [np.asarray(E, dtype=float) for E in g.elements]
        # pi(R1 R2) = pi(R1) pi(R2) for a few pairs
        for a in range(0, 24, 7):
            for b in range(0, 24, 5):
                P = flo[a] @ flo[b]
                k = next(i for i, E in enumerate(flo)
                         if np.max(np.abs(E - P)) < 1e-9)
                assert np.max(np.abs(mats[a] @ mats[b] - mats[k])) < 1e-12

    def test_defining_property(self, rng):
        # I_p(R x) = D_p(R) I_p(x) pointwise
        from conftest import random_rotation
        space = inv.harmonic_space(3)
        R = random_rotation(rng)
        D = np.array(inv.action_matrix(space, R))
        for _ in range(5):
            x = rng.normal(size=3)
            lhs = np.array([float(b.evaluate(tuple(R @ x))) for b in space.basis])
            rhs = D @ np.array([float(b.evaluate(tuple(x))) for b in space.basis])
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (3, 3)])
    def test_symmetric_product_identity_float(self, rng, p, q):
        # S_b(Rx, Ry) = sum_c pi[b, c] S_c(x, y) pointwise
        from conftest import random_rotation
        space = inv.symmetric_product_space(p, q)
        R = random_rotation(rng)
        P = np.asarray(inv.action_matrix(space, R))
        for _ in range(3):
            x, y = rng.normal(size=3), rng.normal(size=3)
            moved = tuple(R @ x) + tuple(R @ y)
            lhs = np.array([float(b.evaluate(moved)) for b in space.basis])
            rhs = P @ np.array([float(b.evaluate(tuple(x) + tuple(y)))
                                for b in space.basis])
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(lhs)))

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (3, 3)])
    def test_symmetric_product_identity_exact(self, p, q):
        g = sg.build_group("O")
        space = inv.symmetric_product_space(p, q)
        pt = (F(1), F(-2, 3), F(3, 5), F(2), F(1, 7), F(-5, 4))
        values = [b.evaluate(pt) for b in space.basis]
        for X in g.exact_elements:
            P = inv.action_matrix(space, X)
            moved = tuple(sum(X[i][k] * v[k] for k in range(3))
                          for v in (pt[:3], pt[3:]) for i in range(3))
            for b, row in zip(space.basis, P):
                assert b.evaluate(moved) == sum(c * v for c, v in zip(row, values))

    def test_span_that_is_not_rotation_closed_is_rejected(self):
        from hgptsym.polyalg import Polynomial
        monos = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        basis = (Polynomial.variable(0), Polynomial.variable(1))
        space = inv.RepresentationSpace("harmonic", 1, None, "integer",
                                        ((-1,), (0,)), monos, coefficient_matrix(basis, monos))
        c, s = np.cos(0.3), np.sin(0.3)
        about_x3 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        about_x1 = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        D = inv.action_matrix(space, about_x3)
        assert np.max(np.abs(D - about_x3[:2, :2])) < 1e-12
        with pytest.raises(RuntimeError, match="not in the span"):
            inv.action_matrix(space, about_x1)

    @pytest.mark.parametrize("space", [inv.harmonic_space(2), inv.symmetric_product_space(1, 2)])
    def test_field_of_the_action_is_the_field_of_r(self, space):
        ints = sg._CYCLE_XYZ                   # a rotation with entries 0 and 1
        X = tuple(tuple(map(F, row)) for row in ints)
        for R in (X, ints, np.array(ints)):
            P = inv.action_matrix(space, R)
            assert all(type(v) is F for row in P for v in row)
            assert P == inv.action_matrix(space, X)
        floats = [np.array(X, dtype=float), np.array(ints, dtype=bool),
                  [[float(v) for v in row] for row in X]]
        for R in floats:
            P = inv.action_matrix(space, R)
            assert isinstance(P, np.ndarray) and P.dtype == float
            assert np.max(np.abs(P - np.array(inv.action_matrix(space, X), dtype=float))) < 1e-12

    def test_fraction_r_on_the_orthonormal_style_is_float(self):
        X = sg.build_group("C4").exact_elements[1]
        for space in (inv.harmonic_space(2, "orthonormal"),
                      inv.symmetric_product_space(1, 1, "orthonormal")):
            P = inv.action_matrix(space, X)
            assert isinstance(P, np.ndarray) and P.dtype == float
            assert np.array_equal(P, inv.action_matrix(space, np.array(X, dtype=float)))

    def test_float_matches_exact(self):
        g = sg.build_group("C4")
        space = inv.symmetric_product_space(1, 1)
        for E, X in zip(g.elements, g.exact_elements):
            Pe = np.array([[float(v) for v in row]
                           for row in inv.action_matrix(space, X)])
            Pf = np.asarray(inv.action_matrix(space, E))
            assert np.max(np.abs(Pe - Pf)) < 1e-12


# a rational rotation whose entries are not integers: composed coefficients
# carry the denominator 5 to the power of the degree
PYTHAGOREAN = ((F(3, 5), F(-4, 5), 0), (F(4, 5), F(3, 5), 0), (0, 0, 1))


def _agrees_with_float_r(space):
    """The exact action of PYTHAGOREAN, after checking it is all Fractions and
    agrees with the action of the same R in floats."""
    D = inv.action_matrix(space, PYTHAGOREAN)
    assert all(isinstance(x, F) for row in D for x in row)
    want = inv.action_matrix(space, np.array(PYTHAGOREAN, dtype=float))
    assert np.max(np.abs(np.array(D, dtype=float) - want)) <= 1e-12
    return D


class TestRationalNonIntegerRotation:
    @pytest.mark.parametrize("build,args", [(inv.harmonic_space, (3,)),
                                            (inv.harmonic_space, (5,)),
                                            (inv.symmetric_product_space, (2, 3))])
    def test_exact_action_matches_float(self, build, args):
        _agrees_with_float_r(build(*args))

    def test_basis_with_a_denominator(self):
        monos = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        x1, x2, x3 = (Polynomial.variable(i) for i in range(3))
        basis = (x1 / 2, x2, x3 / 3)
        space = inv.RepresentationSpace("harmonic", 1, None, "integer", ((-1,), (0,), (1,)),
                                        monos, coefficient_matrix(basis, monos))
        assert space.numerators[1] == 6 and space.basis == basis
        D = _agrees_with_float_r(space)
        for b, row in zip(basis, D):
            assert b.compose_linear(PYTHAGOREAN) == sum(c * e for c, e in zip(row, basis))


class TestProjector:
    @pytest.mark.parametrize("name", ["C2", "C4", "D4", "O"])
    def test_idempotent_exact(self, name):
        g = sg.build_group(name)
        space = inv.symmetric_product_space(1, 1)
        M = inv.averaging_projector(space, g)
        n = space.dim
        sq = [[sum(M[i][k] * M[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        assert sq == M

    @pytest.mark.parametrize("name", ["C3", "C6", "I"])
    def test_idempotent_float(self, name):
        g = sg.build_group(name)
        space = inv.symmetric_product_space(1, 2)
        M = inv.averaging_projector(space, g)
        assert np.max(np.abs(M @ M - M)) < 1e-9

    def test_trivial_group_projects_to_identity(self):
        g = sg.build_group("C1")
        space = inv.symmetric_product_space(1, 1)
        M = inv.averaging_projector(space, g)
        assert all(M[i][j] == (1 if i == j else 0)
                   for i in range(6) for j in range(6))


class TestInvariantSubspace:
    def test_c1_gives_whole_space(self):
        space = inv.symmetric_product_space(2, 2)
        sub = inv.invariant_subspace(space, sg.build_group("C1"))
        assert sub.dimension == 15

    def test_fixedness_random_points(self):
        g = sg.build_group("D3")
        space = inv.symmetric_product_space(2, 2)
        sub = inv.invariant_subspace(space, g)
        ok, worst = verify_fixed(sub, g)
        assert ok, worst

    def test_type2_kills_odd_degrees(self):
        # p + q odd: inversion negates every element, no invariants survive
        g = sg.build_group("C2i")
        space = inv.symmetric_product_space(1, 2)
        assert inv.invariant_subspace(space, g).dimension == 0

    def test_canonical_scaling(self):
        g = sg.build_group("C4")
        sub = inv.invariant_subspace(inv.symmetric_product_space(1, 1), g)
        for b in sub.basis:
            assert b.is_exact()
            # content 1: integer coefficients with gcd 1
            assert all(c.denominator == 1 for c in b.terms.values())


def _reference_float_basis(space, rows):
    """The per-row chain the block path replaced: row @ B, the row's own zero
    tolerance, ``canonicalized`` and ``_snap`` on each coefficient."""
    polys, coeff_rows = [], []
    for crow in rows:
        mono = crow @ space.coefficients
        tol = 1e-9 * max(1.0, np.abs(mono).max())
        poly = Polynomial._make({e: c for e, c in zip(space.monomials, mono) if abs(c) > tol},
                                len(space.monomials[0]))
        poly, scale = poly.canonicalized()
        polys.append(Polynomial._make({e: _snap(c) for e, c in poly.terms.items()}, poly.nvars))
        coeff_rows.append(tuple((crow * scale).tolist()))
    return polys, coeff_rows


def _coefficient_bits(poly):
    return {e: (c if type(c) is F else float(c).hex()) for e, c in poly.terms.items()}


class TestFloatBasisBlock:
    def assert_matches_reference(self, space, rows):
        polys, coeff_rows = inv._canonical_basis(space, rows)
        want_polys, want_rows = _reference_float_basis(space, rows)
        assert [_coefficient_bits(b) for b in polys] == [_coefficient_bits(b) for b in want_polys]
        assert [[v.hex() for v in r] for r in coeff_rows] == \
            [[v.hex() for v in r] for r in want_rows]

    @pytest.mark.parametrize("group,p,q,style", [
        ("C3", 2, 2, "integer"), ("D5", 1, 3, "orthonormal"), ("I", 3, 3, "integer"),
        ("C6", 2, 3, "orthonormal"), ("I", 6, None, "integer"), ("C5", 4, None, "orthonormal")])
    def test_group_rows_match_the_per_row_chain(self, group, p, q, style):
        space = (inv.harmonic_space(p, style) if q is None
                 else inv.symmetric_product_space(p, q, style))
        M = inv.averaging_projector(space, sg.build_group(group))
        rows = M[inv._select_independent_rows(M, round(M.trace()))]
        self.assert_matches_reference(space, rows)

    def test_negative_leads_and_entries_near_the_tolerance(self, rng):
        # on degree 1, P = rows @ B only permutes the entries, so each row's
        # tolerance 1e-9 max(1, max|row|) is known before the small entries go in
        space = inv.harmonic_space(1)
        for _ in range(50):
            rows = rng.normal(scale=rng.choice([0.5, 5.0]), size=(4, 3))
            tol = 1e-9 * np.maximum(1.0, np.abs(rows).max(axis=1))
            small = rng.random(rows.shape) < 0.4
            small[np.arange(4), np.abs(rows).argmax(axis=1)] = False
            factor = rng.choice([0.5, 0.999, 1.001, 2.0], size=rows.shape)
            rows[small] = (rng.choice([-1.0, 1.0], size=rows.shape) * factor * tol[:, None])[small]
            self.assert_matches_reference(space, rows)


def _reference_exact_basis(space, rows):
    """The per-row loop the exact block replaced: each row of Fractions
    applied to the basis in Fractions, then ``canonicalized``."""
    B, b = space.numerators
    polys, coeff_rows = [], []
    for crow in rows:
        poly = Polynomial(dict(zip(space.monomials, crow @ B / b)), len(space.monomials[0]))
        poly, scale = poly.canonicalized()
        polys.append(poly)
        coeff_rows.append(tuple((crow * scale).tolist()))
    return polys, coeff_rows


class TestExactBasisBlock:
    def assert_matches_reference(self, space, rows):
        polys, coeff_rows = inv._canonical_basis(space, rows)
        want_polys, want_rows = _reference_exact_basis(space, rows)
        assert [b.terms for b in polys] == [b.terms for b in want_polys]
        assert list(coeff_rows) == want_rows
        assert all(type(c) is F for b in polys for c in b.terms.values())
        assert all(type(c) is F for r in coeff_rows for c in r)

    @pytest.mark.parametrize("group", ["C4", "D4", "T", "O", "Oi", "type3:O/T"])
    def test_group_rows_match_the_per_row_loop(self, group):
        g = sg.build_group(group)
        spaces = [inv.symmetric_product_space(p, q) for q in range(1, 4) for p in range(1, q + 1)]
        spaces += [inv.harmonic_space(m) for m in range(7)]
        for space in spaces:
            M = np.asarray(inv.averaging_projector(space, g))
            assert M.dtype == object
            if M.trace():
                self.assert_matches_reference(space, M[inv._select_independent_rows(M, M.trace())])

    def test_negative_leads_and_shared_factors(self, rng):
        # rows with common factors, zeros and leads of both signs, on the
        # degree-2 basis, whose rows mix the monomials, and on that basis
        # over the denominators 2..6
        h = inv.harmonic_space(2)
        basis = [b / (k + 2) for k, b in enumerate(h.basis)]
        scaled = inv.RepresentationSpace("harmonic", 2, None, "integer", h.index_map,
                                         h.monomials, coefficient_matrix(basis, h.monomials))
        assert scaled.numerators[1] == 60
        for space in (h, scaled):
            for _ in range(50):
                num = rng.integers(-6, 7, size=(3, 5)) * rng.integers(1, 4, size=(3, 1))
                den = rng.integers(1, 5, size=(3, 5))
                num[rng.random(num.shape) < 0.3] = 0
                rows = np.array([[F(int(a), int(d)) for a, d in zip(*r)]
                                 for r in zip(num, den)], dtype=object)
                self.assert_matches_reference(space, rows)


class TestIntersection:
    def test_nullspace_threshold(self):
        C = np.array([[1.0, 0.0], [0.0, 1e-14]])
        N = nullspace(C)
        assert N.shape[0] == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("pq", [(1, 1), (2, 2)])
    def test_dihedral_equals_intersection(self, n, pq):
        dn = sg.build_group("D%d" % n)
        cn = sg.build_group("C%d" % n)
        flip = sg.group_from_generators("flip", [np.diag([1.0, -1.0, -1.0])])
        space = inv.symmetric_product_space(*pq)
        A = np.array([[float(c) for c in r] for r in
                      inv.invariant_subspace(space, cn).coefficient_rows]).T
        B = np.array([[float(c) for c in r] for r in
                      inv.invariant_subspace(space, flip).coefficient_rows]).T
        inter = intersect_subspaces(A, B)
        direct = inv.invariant_subspace(space, dn)
        assert inter.shape[0] == direct.dimension
        D = np.array([[float(c) for c in r] for r in direct.coefficient_rows])
        stacked = np.vstack([inter, D])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == direct.dimension


class TestMolien:
    def test_d4_series(self):
        ms = inv.molien_series(sg.build_group("D4"), 5)
        assert list(ms.h) == [1, 0, 1, 0, 2, 1]

    @pytest.mark.parametrize("name", ["C2", "C3", "C4", "C5", "C6",
                                      "D2", "D3", "D4", "D5", "D6",
                                      "T", "O", "I", "C4i", "Oi"])
    def test_h_equals_projector_route(self, name):
        g = sg.build_group(name)
        ms = inv.molien_series(g, 6)
        for m in range(0, 7):
            space = inv.harmonic_space(m)
            assert inv.invariant_subspace(space, g).dimension == ms.h[m], \
                (name, m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_element_gives_no_integer(self, bad):
        c4 = sg.build_group("C4")
        g = sg.PointGroup("C4", c4.elements[:3] + (np.full((3, 3), bad),), ())
        with pytest.raises(RuntimeError, match="Molien coefficient .* is not an integer"):
            inv.molien_series(g, 2)

    def test_a_set_that_is_no_group_can_give_a_negative_coefficient(self):
        # {-I} alone, without I: g_1 = tr(-I) = -3
        g = sg.PointGroup("minus", np.array([-np.eye(3)]), ())
        with pytest.raises(RuntimeError, match="negative Molien coefficient -3"):
            inv.molien_series(g, 4)

    @pytest.mark.parametrize("v", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_integer_check_rejects_non_finite_values(self, v):
        with pytest.raises(RuntimeError, match="projector trace .* is not an integer"):
            inv._integer(v, "projector trace", inv.TRACE_TOL)

    def test_invariant_harmonics_cross_validates(self):
        got = inv.invariant_harmonics(sg.build_group("O"), 4)
        assert got.dimension == 1
        for b in got.basis:
            assert b.laplacian().is_zero()

    def test_invariant_harmonics_of_i_at_degree_24_in_the_orthonormal_style(self):
        assert inv.invariant_harmonics(sg.build_group("I"), 24, "orthonormal").dimension == 1

    def test_integer_style_failure_at_degree_38_names_the_orthonormal_style(self):
        with pytest.raises(RuntimeError, match=r"^composed polynomial not in the span "
                           r"\(residual .*\); .*the orthonormal style \(--style orthonormal\)$"):
            inv.invariant_harmonics(sg.build_group("C5"), 38)

    @pytest.mark.parametrize("group, degree, style, hint", [
        ("C5", 5, "integer", True), ("C5", 4, "integer", False),
        ("C5", 5, "orthonormal", False), ("C4", 5, "integer", False)])
    def test_only_the_integer_float_path_above_degree_four_adds_the_hint(
            self, monkeypatch, group, degree, style, hint):
        def fail(space, group):
            raise RuntimeError("boom")
        monkeypatch.setattr(inv, "averaging_projector", fail)
        with pytest.raises(RuntimeError) as info:
            inv.invariant_subspace(inv.harmonic_space(degree, style), sg.build_group(group))
        assert str(info.value).startswith("boom")
        assert ("orthonormal style" in str(info.value)) == hint

    def test_invariant_harmonics_raises_when_the_series_disagrees(self, monkeypatch):
        real = inv.molien_series

        def off_by_one(group, M_max, trace_tol=inv.TRACE_TOL):
            ms = real(group, M_max, trace_tol)
            return inv.MolienSeries(ms.group_name, ms.max_degree, ms.g,
                                    ms.h[:-1] + (ms.h[-1] + 1,))

        monkeypatch.setattr(inv, "molien_series", off_by_one)
        with pytest.raises(RuntimeError, match="fixed-space dimension 1 disagrees "
                                               "with series count 2 at degree 4"):
            inv.invariant_harmonics(sg.build_group("O"), 4)


class TestTraceTolerance:
    @staticmethod
    def almost_c1():
        # {I, R} with R a rotation by 0.01 rad is no group: its averaged trace on
        # degree-1 harmonics and its degree-1 Molien coefficient are 3 - 5e-5
        c, s = np.cos(0.01), np.sin(0.01)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return sg.PointGroup("almost C1", (np.eye(3), R), (R,))

    def test_default_rejects_a_near_integer_trace(self):
        g = self.almost_c1()
        with pytest.raises(RuntimeError, match="not an integer"):
            inv.invariant_subspace(inv.harmonic_space(1), g)
        with pytest.raises(RuntimeError, match="not an integer"):
            inv.molien_series(g, 1)

    def test_explicit_tolerance_is_used(self):
        g = self.almost_c1()
        assert inv.invariant_subspace(inv.harmonic_space(1), g, 1e-3).dimension == 3
        assert inv.molien_series(g, 1, trace_tol=1e-3).g == (1, 3)
        assert inv.invariant_harmonics(g, 1, trace_tol=1e-3).dimension == 3
        # nothing is left behind: the next call uses the default again
        with pytest.raises(RuntimeError):
            inv.molien_series(g, 1)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 0.5, 2.0, float("nan"), float("inf")])
    def test_out_of_range_rejected(self, bad):
        g = sg.build_group("C3")
        with pytest.raises(ValueError, match="trace tolerance"):
            inv.invariant_subspace(inv.harmonic_space(1), g, bad)
        with pytest.raises(ValueError, match="trace tolerance"):
            inv.molien_series(g, 2, bad)
        with pytest.raises(ValueError, match="trace tolerance"):
            inv.invariant_harmonics(g, 2, trace_tol=bad)


class TestCoefficientPattern:
    def test_c4_pattern(self):
        g = sg.build_group("C4")
        sub = inv.invariant_subspace(inv.symmetric_product_space(1, 1), g)
        pat = inv.coefficient_pattern(sub)
        assert set(pat.independent) == {(-1, -1), (1, 1)}
        assert pat.relations == {(0, 0): [((-1, -1), F(1))]}
        assert set(pat.zero) == {(-1, 0), (-1, 1), (0, 1)}

    def test_c2_pattern(self):
        g = sg.build_group("C2")
        sub = inv.invariant_subspace(inv.symmetric_product_space(1, 1), g)
        pat = inv.coefficient_pattern(sub)
        assert set(pat.independent) == {(-1, -1), (-1, 0), (0, 0), (1, 1)}
        assert not pat.relations
        assert set(pat.zero) == {(-1, 1), (0, 1)}

    def test_matrix_span_is_symmetric(self):
        g = sg.build_group("C2")
        sub = inv.invariant_subspace(inv.symmetric_product_space(1, 1), g)
        for M in inv.coefficient_pattern(sub).matrix_span():
            assert np.max(np.abs(M - M.T)) == 0

    @pytest.mark.parametrize("style", ["integer", "orthonormal"])
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3)])
    def test_matrix_span_evaluates_the_space(self, p, q, style, rng):
        # sum_k v_k S_k(x, y) = f(x, y) + [p != q] f(y, x), f = I_p(x)^T Mt I_q(y)
        space = inv.symmetric_product_space(p, q, style)
        v = rng.normal(size=space.dim)
        pattern = inv.CoefficientPattern(p, q, style, "random", space.index_map,
                                         (), (), {}, (tuple(v),))
        (Mt,) = pattern.matrix_span()

        def harmonics(d, x):
            return np.array([float(b.evaluate(tuple(x))) for b in real_basis(d, style).polynomials])

        def f(x, y):
            return harmonics(p, x) @ Mt @ harmonics(q, y)

        for x, y in rng.normal(size=(4, 2, 3)):
            got = sum(c * float(S.evaluate(tuple(x) + tuple(y))) for c, S in zip(v, space.basis))
            want = f(x, y) + (f(y, x) if p != q else 0.0)
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_pattern_requires_product_space(self):
        g = sg.build_group("C2")
        sub = inv.invariant_subspace(inv.harmonic_space(2), g)
        with pytest.raises(ValueError):
            inv.coefficient_pattern(sub)


def _product_space_from_polynomials(p, q, style):
    """S_pq built from 6-variable polynomial products, as before it was
    folded from its factors: (basis, index_map, monomials, coefficient rows)."""
    def lift(poly3, block):
        pad = (0, 0, 0)
        return Polynomial({e + pad if block == "x" else pad + e: c
                           for e, c in poly3.terms.items()}, 6)

    bp = real_basis(p, style).polynomials
    bq = real_basis(q, style).polynomials
    basis, index_map = [], []
    for ii in range(2 * p + 1):
        for jj in range(2 * q + 1):
            i, j = ii - p, jj - q
            if p == q and i > j:
                continue
            elem = lift(bp[ii], "x") * lift(bq[jj], "y")
            if p != q or i != j:
                elem = elem + lift(bp[ii], "y") * lift(bq[jj], "x")
            basis.append(elem)
            index_map.append((i, j))
    monos = sorted({ex + ey for dx, dy in {(p, q), (q, p)}
                    for ex in monomials_of_degree(dx)
                    for ey in monomials_of_degree(dy)}, reverse=True)
    index = {e: k for k, e in enumerate(monos)}
    rows = []
    for b in basis:
        cast = F if b.is_exact() else float
        row = [cast(0)] * len(monos)
        for e, c in b.terms.items():
            row[index[e]] = cast(c)
        rows.append(tuple(row))
    return tuple(basis), tuple(index_map), tuple(monos), tuple(rows)


# ---------------------------------------------------------------------------
# stacked group actions
# ---------------------------------------------------------------------------

def _rotation_about_x3(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _reference_fold(K, space):
    """pi on S_pq from K = kron(D_p, D_q), entry by entry over index_map."""
    p, q = space.p, space.q
    b = 2 * q + 1

    def at(i, j, k, l):
        return K[(i + p) * b + j + q, (k + p) * b + l + q]

    P = np.empty((space.dim, space.dim), dtype=K.dtype)
    for r, (i, j) in enumerate(space.index_map):
        for c, (k, l) in enumerate(space.index_map):
            v = at(i, j, k, l)
            if p == q and i != j:
                v = v + at(j, i, k, l)
            P[r, c] = v
    return P


def _reference_projector(space, g):
    """(1/|G|) sum_g fold(kron(D_p(g), D_q(g))), one element at a time."""
    exact = space.is_exact and g.is_rational
    hp = inv.harmonic_space(space.p, space.style)
    hq = inv.harmonic_space(space.q, space.style)
    total = 0
    for k, E in enumerate(g.elements):
        R = g.exact_elements[k] if exact else E
        Dp = np.array(inv.action_matrix(hp, R))
        Dq = np.array(inv.action_matrix(hq, R))
        total = total + _reference_fold(np.kron(Dp, Dq), space)
    return total / g.order


CELLS = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


class TestStackedProjector:
    @pytest.mark.parametrize("style", ["integer", "orthonormal"])
    @pytest.mark.parametrize("name", ["C4", "O", "Oi", "type3:O/T", "C3", "C5", "D6", "I"])
    def test_projector_matches_brute_force(self, name, style):
        # exact equality on Fraction projectors, 1e-13 on float ones
        g = sg.build_group(name)
        for p, q in CELLS:
            space = inv.symmetric_product_space(p, q, style)
            M = inv.averaging_projector(space, g)
            want = _reference_projector(space, g)
            if space.is_exact and g.is_rational:
                assert M == want.tolist(), (p, q)
                assert all(isinstance(v, F) for row in M for v in row)
            else:
                assert np.max(np.abs(M - want)) <= 1e-13, (p, q)

    @pytest.mark.parametrize("style", ["integer", "orthonormal"])
    @pytest.mark.parametrize("name", ["C4", "O", "type3:O/T", "C3", "C5", "D6", "I"])
    def test_harmonic_actions_and_projector_match_brute_force(self, name, style):
        # each float action_matrix(space, R) is the matching slice of D(G);
        # the projector is the mean of the action matrices in its field
        g = sg.build_group(name)
        for m in range(7):
            space = inv.harmonic_space(m, style)
            exact = space.is_exact and g.is_rational
            stack = inv.action_stack(space, g)
            assert stack.shape == (g.order, space.dim, space.dim)
            assert stack.dtype == float
            mats = []
            for k, E in enumerate(g.elements):
                assert np.array_equal(stack[k], inv.action_matrix(space, E))
                if exact:
                    X = g.exact_elements[k]
                    mats.append(np.array(inv.action_matrix(space, X)))
                    assert np.max(np.abs(mats[-1].astype(float) - stack[k])) <= 1e-13
                else:
                    mats.append(stack[k])
            want = sum(mats) / g.order
            M = inv.averaging_projector(space, g)
            if exact:
                assert M == want.tolist(), m
            else:
                assert np.max(np.abs(M - want)) <= 1e-13, m

    def test_exact_projector_sums_one_action_matrix_per_element(self, monkeypatch):
        space = inv.symmetric_product_space(1, 2)
        g = sg.build_group("O")
        seen = []
        real = inv.action_matrix
        monkeypatch.setattr(inv, "action_matrix",
                            lambda s, R: seen.append(R) or real(s, R))
        inv.averaging_projector(space, g)
        assert seen == list(g.exact_elements)

    def test_stack_is_built_once(self, monkeypatch):
        space = inv.harmonic_space(2)
        g = sg.build_group("D6")
        first = inv.action_stack(space, g)
        calls = []
        real = inv._harmonic_action
        monkeypatch.setattr(inv, "_harmonic_action",
                            lambda *a: calls.append(a) or real(*a))
        assert inv.action_stack(space, sg.build_group("D6")) is first
        inv.averaging_projector(inv.symmetric_product_space(2, 2), g)
        inv.averaging_projector(space, g)
        assert calls == []

    def test_stacks_and_solvers_are_read_only(self):
        space = inv.harmonic_space(3)
        arrays = [inv.action_stack(space, sg.build_group("O")),
                  inv.action_stack(space, sg.build_group("I")),
                  space.float_solver.A, space.float_solver.L,
                  space.exact_solver.A, space.exact_solver.L, space.exact_solver.rows]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0, ...] = 0

    def test_almost_c1_groups_never_share_a_stack(self):
        space = inv.harmonic_space(1)
        g1 = sg.PointGroup("almost C1", (np.eye(3), _rotation_about_x3(0.01)), ())
        g2 = sg.PointGroup("almost C1", (np.eye(3), _rotation_about_x3(0.02)), ())
        D1, D2 = inv.action_stack(space, g1), inv.action_stack(space, g2)
        assert g1 != g2 and D1 is not D2
        assert np.array_equal(D1[1], inv.action_matrix(space, g1.elements[1]))
        assert np.array_equal(D2[1], inv.action_matrix(space, g2.elements[1]))
        assert not np.allclose(D1[1], D2[1])
        again = sg.PointGroup("almost C1", (np.eye(3), _rotation_about_x3(0.01)), ())
        assert inv.action_stack(space, again) is D1

    def test_hand_built_space_never_hits_a_built_in_stack(self):
        g = sg.build_group("C4")
        builtin = inv.harmonic_space(1)
        D = inv.action_stack(builtin, g)
        order = [2, 0, 1]
        N, den = builtin.numerators
        space = inv.RepresentationSpace(
            "harmonic", 1, None, "integer",
            tuple(builtin.index_map[i] for i in order), builtin.monomials, (N[order], den))
        mine = inv.action_stack(space, g)
        assert mine is not D
        assert np.max(np.abs(mine - D[:, order][:, :, order])) <= 1e-13
        twin = inv.RepresentationSpace(*(getattr(builtin, f) for f in (
            "kind", "p", "q", "style", "index_map", "monomials", "numerators")))
        assert inv.action_stack(twin, g) is not D
        assert inv.action_stack(twin, g).tolist() == D.tolist()

    def test_memo_keeps_the_most_recently_used_groups(self):
        space = inv.harmonic_space(2)
        kept = sg.build_group("D6")
        D = inv.action_stack(space, kept)
        for k in range(3 * inv.MEMO):
            ad_hoc = sg.PointGroup("ad hoc", (np.eye(3), _rotation_about_x3(0.1 + k)), ())
            inv.action_stack(space, ad_hoc)
            before = inv._float_actions.cache_info()
            assert inv.action_stack(space, kept) is D
            after = inv._float_actions.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)
            assert after.maxsize == inv.MEMO and after.currsize <= inv.MEMO
        first = sg.PointGroup("ad hoc", (np.eye(3), _rotation_about_x3(0.1)), ())
        for group, hit in ((ad_hoc, True), (first, False)):
            before = inv._float_actions.cache_info()
            inv.action_stack(space, group)
            after = inv._float_actions.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (hit, not hit)

    def test_stacks_need_a_harmonic_space(self):
        with pytest.raises(ValueError, match="harmonic"):
            inv.action_stack(inv.symmetric_product_space(1, 1), sg.build_group("C4"))


class TestChecksOnStackedPath:
    SKEW = ((1, 0, 0), (0, 1, 0), (0, 0, 2))

    def skew_group(self, exact):
        X = tuple(tuple(F(v) for v in row) for row in self.SKEW)
        ident = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
        return sg.PointGroup("skew", (ident, X), (X,), (ident, X) if exact else None)

    @pytest.mark.parametrize("exact", [False, True])
    def test_non_orthogonal_element_is_not_in_the_span(self, exact):
        g = self.skew_group(exact)
        assert g.is_rational == exact
        for space in (inv.harmonic_space(2), inv.symmetric_product_space(2, 2)):
            with pytest.raises(RuntimeError, match="not in the span"):
                inv.averaging_projector(space, g)

    @pytest.mark.parametrize("exact", [False, True])
    def test_rank_deficient_space_fails_before_any_element(self, exact, monkeypatch):
        from hgptsym.polyalg import Polynomial
        x1 = Polynomial.variable(0)
        monos = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        space = inv.RepresentationSpace(
            "harmonic", 1, None, "integer", ((-1,), (0,)),
            monos, coefficient_matrix((x1, x1), monos))
        seen = []
        monkeypatch.setattr(inv, "_composed_values", lambda *a: seen.append(a))
        with pytest.raises(RuntimeError, match="rank-deficient"):
            inv.averaging_projector(space, self.skew_group(exact))
        assert seen == []

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_group_with_no_elements_is_refused_before_any_arithmetic(self, exact,
                                                                        monkeypatch):
        g = sg.PointGroup("E", np.zeros((0, 3, 3)), (), () if exact else None)
        assert g.is_rational == exact
        seen = []
        for name in ("action_matrix", "_action_sum", "_char_poly_series"):
            monkeypatch.setattr(inv, name, lambda *a: seen.append(a))
        for call in (lambda: inv.averaging_projector(inv.harmonic_space(1), g),
                     lambda: inv.averaging_projector(inv.symmetric_product_space(1, 2), g),
                     lambda: inv.invariant_subspace(inv.harmonic_space(2), g),
                     lambda: inv.molien_series(g, 4)):
            with pytest.raises(ValueError, match="group E has no elements"):
                call()
        assert seen == []


@pytest.mark.filterwarnings("error")
class TestOverflowingElements:
    """An element whose products overflow is refused by the span check, or at
    degrees 0 and 1 by the orthogonality check, without a warning."""

    BIG = 1e200 * np.eye(3)
    SPAN = r"not in the span \(residual nan\)"

    @pytest.mark.parametrize("p", range(4))
    def test_rotation_matrix_refuses_every_time(self, p):
        error, message = (ValueError, "not orthogonal") if p < 2 else (RuntimeError, self.SPAN)
        for _ in range(2):
            with pytest.raises(error, match=message):
                hgpt.rotation_matrix(p, self.BIG)

    def test_action_matrix_on_a_symmetric_product(self):
        with pytest.raises(RuntimeError, match=self.SPAN):
            inv.action_matrix(inv.symmetric_product_space(2, 2), self.BIG)

    def test_action_stack(self):
        g = sg.PointGroup("x", [np.eye(3), self.BIG], [])
        with pytest.raises(RuntimeError, match=self.SPAN):
            inv.action_stack(inv.harmonic_space(2), g)


def _reference_action(space, R):
    """D(R) by an independent route: each monomial composed with R in floats
    (``compose_linear``), the basis carried along, then solved against B^T by
    least squares."""
    monos = space.monomials
    T, _ = coefficient_matrix([Polynomial({e: 1.0}, 3).compose_linear(R) for e in monos],
                              monos)
    B = space.coefficients
    return np.linalg.lstsq(B.T, (B @ T).T, rcond=None)[0].T


def _sampled_actions(space, S):
    """D(R) for every R of the stack S by a second independent route: the
    basis evaluated at seeded points x of the unit sphere and at R x by
    powers of the coordinates, then b(R x) = D(R) b(x) solved by least
    squares."""
    E = np.array(space.monomials).reshape(-1, 3)
    X = np.random.default_rng(0).normal(size=(3 * len(E), 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    B = space.coefficients
    V = np.prod(X[:, None, :] ** E, axis=2) @ B.T
    VR = np.prod((X @ S.transpose(0, 2, 1))[..., None, :] ** E, axis=-1) @ B.T
    Dt = np.linalg.lstsq(V, VR.transpose(1, 0, 2).reshape(len(X), -1), rcond=None)[0]
    return Dt.reshape(space.dim, len(S), space.dim).transpose(1, 2, 0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _rows(space):
    """The coefficient rows of ``space``: Fractions if exact, floats otherwise."""
    N, den = space.numerators
    return tuple(tuple(F(x, den) if space.is_exact else x for x in row) for row in N.tolist())


BATCHED_GROUPS = ["C3", "C5", "C6", "C7", "D3", "D5", "D6", "I", "Ii", "O", "Oi", "T", "C4",
                  "type3:O/T"]


class TestBatchedActions:
    @pytest.mark.parametrize("style", ["integer", "orthonormal"])
    @pytest.mark.parametrize("name", BATCHED_GROUPS)
    def test_batched_stack_equals_one_element_path(self, name, style):
        # every element: bit for bit against action_matrix, within 1e-12 of
        # the sampled reference, and of the compose_linear one up to order 12
        g = sg.build_group(name)
        for m in range(9):
            space = inv.harmonic_space(m, style)
            D, den = inv._harmonic_action(space, g.stack)
            assert den == 1 and D.shape == (g.order, space.dim, space.dim)
            one = np.array([inv.action_matrix(space, E) for E in g.elements])
            assert np.array_equal(_bits(D), _bits(one)), m
            refs = [_sampled_actions(space, g.stack)]
            if g.order <= 12:
                refs.append(np.array([_reference_action(space, E) for E in g.elements]))
            for ref in refs:
                assert np.max(np.abs(D - ref)) <= 1e-12 * np.max(np.abs(ref)), m

    @pytest.mark.parametrize("block", [1, 50, 10 ** 9])
    def test_blocking_does_not_change_the_stack(self, block, monkeypatch):
        # ``block`` elements of I a batch: one at a time, 50 then 10, all 60
        g = sg.build_group("I")
        space = inv.harmonic_space(5)
        want = _bits(inv._harmonic_action(space, g.stack)[0])
        monkeypatch.setattr(inv, "ACTION_BLOCK", block * len(space.float_solver.A) ** 2)
        assert np.array_equal(_bits(inv._harmonic_action(space, g.stack)[0]), want)

    @pytest.mark.parametrize("m", range(13))
    def test_monomial_values_match_direct_evaluation(self, m, rng):
        # Sym^m(R) carries the degree-m monomials at x to their values at R x
        monos = monomials_of_degree(m)
        E = np.array(monos).reshape(-1, 3)
        S = np.stack([random_rotation(rng) * s for s in (1.0, -1.0, 0.5)])
        X = rng.normal(size=(7, 3))
        T = inv.substitution_matrices(S, m)
        assert T.shape == (3, len(monos), len(monos))
        for R, Tk in zip(S, T):
            want = np.prod((X @ R.T)[:, None, :] ** E, axis=2)
            got = np.prod(X[:, None, :] ** E, axis=2) @ Tk.T
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("degree", [2, 6])
    def test_one_bad_element_in_the_middle_raises(self, degree, monkeypatch):
        # C6 about x3 with element 3 replaced by a skew map; at degree 6 the
        # stack is evaluated in blocks of three and the bad element sits in the second
        space = inv.harmonic_space(degree)
        if degree == 6:
            monkeypatch.setattr(inv, "ACTION_BLOCK", 3 * len(space.float_solver.A) ** 2)
        skew = np.diag([1.0, 1.0, 2.0])
        elements = [_rotation_about_x3(2 * np.pi * k / 6) for k in range(6)]
        elements[3] = skew
        g = sg.PointGroup("bad middle", tuple(elements), ())
        before = inv._float_actions.cache_info()
        with pytest.raises(RuntimeError, match="not in the span") as batched:
            inv.action_stack(space, g)
        with pytest.raises(RuntimeError, match="not in the span") as alone:
            inv.action_matrix(space, skew)
        assert str(batched.value) == str(alone.value)
        with pytest.raises(RuntimeError, match="not in the span"):
            inv.action_stack(space, g)          # raises again: the stack was never kept
        after = inv._float_actions.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)
        assert after.currsize == before.currsize

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("degree", [1, 2, 6])
    def test_non_finite_element_is_not_in_the_span(self, degree, bad):
        space = inv.harmonic_space(degree)
        R = np.eye(3)
        R[1, 2] = bad
        g = sg.PointGroup("non-finite", (np.eye(3), R), ())
        before = inv._float_actions.cache_info()
        for _ in range(2):
            with pytest.raises(RuntimeError, match="not in the span"):
                inv.action_matrix(space, R)
            with pytest.raises(RuntimeError, match="not in the span"):
                inv.action_stack(space, g)
        after = inv._float_actions.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)


class TestSubstitutionMatrices:
    @pytest.mark.parametrize("p", range(9))
    def test_product_of_elements_is_product_of_matrices(self, p, rng):
        R1, R2 = random_rotation(rng), 0.8 * random_rotation(rng)
        T = inv.substitution_matrices(np.stack([R1, R2, R1 @ R2]), p)
        assert np.max(np.abs(T[2] - T[0] @ T[1])) <= 1e-12 * max(1.0, np.max(np.abs(T[2])))

    @pytest.mark.parametrize("p", range(9))
    def test_identity_gives_identity(self, p):
        T = inv.substitution_matrices(np.identity(3)[None], p)
        assert np.array_equal(T[0], np.identity(len(monomials_of_degree(p))))

    @pytest.mark.parametrize("p", range(7))
    def test_signed_permutations_match_compose_linear_bit_for_bit(self, p):
        # every element of O is a signed permutation, so each coefficient of
        # (Rx)^e is an exact integer in floats too
        g = sg.build_group("O")
        monos = monomials_of_degree(p)
        T = inv.substitution_matrices(g.stack, p)
        for k, E in enumerate(g.exact_elements):
            C, den = coefficient_matrix([Polynomial({e: 1}, 3).compose_linear(E)
                                         for e in monos], monos)
            want = np.array((C / den).tolist(), dtype=float)
            # + 0.0 turns a product's -0.0 into the +0.0 a zero Fraction gives
            assert np.array_equal(_bits(T[k] + 0.0), _bits(want)), (p, k)

    def test_integer_stack_stays_integer(self):
        g = sg.build_group("O")
        S = np.array(g.exact_elements, dtype=object).astype(int)
        T = inv.substitution_matrices(S, 4)
        assert T.dtype.kind == "i"
        assert np.array_equal(T, inv.substitution_matrices(g.stack, 4))


class TestRowSelection:
    @staticmethod
    def matrix(rows, exact):
        if exact:
            return np.array([[F(v) for v in r] for r in rows], dtype=object)
        return np.array(rows, dtype=float)

    @pytest.mark.parametrize("exact", [False, True])
    def test_pivots_are_the_first_independent_rows(self, exact):
        M = self.matrix([[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]], exact)
        assert list(inv._select_independent_rows(M, 2)) == [1, 3]

    @pytest.mark.parametrize("exact", [False, True])
    def test_more_independent_rows_than_the_trace_raise(self, exact):
        M = self.matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1], [0, 0, 1]], exact)
        with pytest.raises(RuntimeError, match="found 3 independent projected elements, "
                                               "expected 2"):
            inv._select_independent_rows(M, 2)
        with pytest.raises(RuntimeError, match="found 3 independent projected elements, "
                                               "expected 4"):
            inv._select_independent_rows(M, 4)

    def test_noise_below_the_tolerance_is_not_a_pivot(self):
        M = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-12]])
        assert list(inv._select_independent_rows(M, 1)) == [0]
