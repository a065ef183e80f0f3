"""Harmonic bases, complex solid harmonics, basis changes, Green expansion."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import rational_nullspace, solid_harmonic_inner_over_pi
from hgptsym import harmonics as H
from hgptsym import hgpt
from hgptsym.polyalg import Polynomial, coefficient_matrix


class TestSphereIntegration:
    def test_monomial_formula(self):
        # int_S x3^2 dS = 4*pi/3
        assert H.monomial_sphere_integral_over_pi((0, 0, 2)) == Fraction(4, 3)
        assert H.monomial_sphere_integral_over_pi((1, 0, 0)) == 0
        assert H.monomial_sphere_integral_over_pi((2, 2, 0)) == Fraction(4, 15)

    def test_inner_product_is_symmetric(self):
        p = Polynomial.variable(0) ** 2
        q = Polynomial.variable(1) ** 2
        assert H.sphere_inner_over_pi(p, q) == H.sphere_inner_over_pi(q, p)


class TestRealBases:
    @pytest.mark.parametrize("n", range(0, 13))
    def test_counts_and_harmonicity(self, n):
        for style in ("integer", "orthonormal"):
            basis = H.real_basis(n, style)
            assert len(basis.polynomials) == 2 * n + 1
            for core in basis.cores:
                assert core.laplacian().is_zero()
                if n > 0:
                    assert core.degree() == n and core.is_homogeneous()

    @pytest.mark.parametrize("n", range(0, 13))
    def test_orthonormality_exact(self, n):
        basis = H.real_basis(n, "orthonormal")
        k = 2 * n + 1
        for i in range(k):
            for j in range(i, k):
                # <c_i, c_j>/pi * sqrt(n2_i n2_j)/pi = delta_ij exactly in n2 terms
                inner = H.sphere_inner_over_pi(basis.cores[i], basis.cores[j])
                if i == j:
                    assert inner * basis.norms2[i] == 1
                else:
                    assert inner == 0

    @pytest.mark.parametrize("n", range(41))
    def test_monomials_of_degree(self, n):
        # each exponent triple of total degree n once, strictly decreasing
        monos = H.monomials_of_degree(n)
        assert len(monos) == (n + 1) * (n + 2) // 2
        assert all(len(e) == 3 and min(e) >= 0 and sum(e) == n for e in monos)
        assert all(a > b for a, b in zip(monos, monos[1:]))

    def test_integer_basis_independence(self, rng):
        basis = H.real_basis(5, "integer")
        monos = H.monomials_of_degree(5)
        index = {e: i for i, e in enumerate(monos)}
        A = np.zeros((11, len(monos)))
        for i, p in enumerate(basis.polynomials):
            for e, c in p.terms.items():
                A[i, index[e]] = float(c)
        assert np.linalg.matrix_rank(A) == 11

    @pytest.mark.parametrize("n", range(13))
    def test_recursion_gives_the_laplacian_null_space_basis(self, n):
        # the canonicalized null-space basis of the Laplacian's matrix, from
        # its row echelon form
        monos = H.monomials_of_degree(n)
        L, _ = coefficient_matrix([Polynomial({e: 1}, 3).laplacian() for e in monos],
                                  H.monomials_of_degree(n - 2) if n >= 2 else [(0, 0, 0)])
        want = [Polynomial(dict(zip(monos, v)), 3).canonicalized()[0]
                for v in rational_nullspace(L.T)]
        assert H.harmonic_nullspace_basis(n) == want

    @pytest.mark.parametrize("n", range(5, 9))
    def test_orthonormal_basis_above_degree_four_is_m_adapted(self, n):
        # a rotation about x3 mixes only the orders m and -m, at positions
        # i and 2n - i: D_n(Rz) is zero off its diagonal and anti-diagonal
        c, s = math.cos(0.3), math.sin(0.3)
        D = hgpt.rotation_matrix(n, [[c, -s, 0], [s, c, 0], [0, 0, 1]])
        i, j = np.indices(D.shape)
        assert np.max(np.abs(D[(i != j) & (i + j != 2 * n)])) <= 1e-12

    def test_table_degree_one(self):
        basis = H.real_basis(1, "orthonormal")
        texts = [c.to_text() for c in basis.cores]
        assert texts == ["1*x1", "1*x2", "1*x3"]
        assert all(s == Fraction(3, 4) for s in basis.norms2)

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            H.real_basis(2, "chebyshev")

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="degree must be non-negative"):
            H.real_basis(-1)


class TestComplexSolidHarmonics:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_harmonic_and_conjugation(self, n):
        harms = H.complex_solid_harmonics(n)
        assert len(harms) == 2 * n + 1
        for h in harms:
            assert h.re_core.laplacian().is_zero()
            assert h.im_core.laplacian().is_zero()
        # H_n^{-m} = (-1)^m conj(H_n^m), exact on the rational cores
        for m in range(1, n + 1):
            hm = harms[n + m]
            hneg = harms[n - m]
            sign = (-1) ** m
            assert hneg.re_core == sign * hm.re_core
            assert hneg.im_core == sign * (-1) * hm.im_core
            assert hneg.n2 == hm.n2

    @pytest.mark.parametrize("n", range(0, 5))
    def test_orthonormality_exact(self, n):
        harms = H.complex_solid_harmonics(n)
        for a in range(2 * n + 1):
            for b in range(a, 2 * n + 1):
                re, im = solid_harmonic_inner_over_pi(harms[a], harms[b])
                if a == b:
                    # core inner product times the exact norm factor is 1
                    assert re * harms[a].n2 == 1 and im == 0
                else:
                    assert re == 0 and im == 0

    def test_cores_pinned(self):
        """The exact cores, Fraction for Fraction: sha256 of re_core.to_text()
        and im_core.to_text(), each followed by a newline, for every
        0 <= m <= n <= 12 in that order."""
        h = hashlib.sha256()
        for n in range(13):
            for m in range(n + 1):
                c = H.complex_solid_harmonic(n, m)
                h.update(("%s\n%s\n" % (c.re_core.to_text(), c.im_core.to_text())).encode())
        assert h.hexdigest() == "33f642f80065e66354e132f7310f11045d4dd3dc83ddcbb0e7071ab76014f5c6"

    @pytest.mark.parametrize("m", [3, -3])
    def test_order_beyond_the_degree_is_rejected(self, m):
        with pytest.raises(ValueError, match=r"\|m\| must not exceed n"):
            H.complex_solid_harmonic(2, m)

    def test_degree_one_values(self):
        # H_1^0 = sqrt(3/(4 pi)) x3
        h = H.complex_solid_harmonic(1, 0)
        v = h.evaluate((0.0, 0.0, 2.0))
        assert v == pytest.approx(2 * math.sqrt(3 / (4 * math.pi)))


class TestBasisChange:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_unitarity(self, n):
        bc = H.basis_change(n, "orthonormal")
        assert bc.unitarity_residual() < 1e-10

    def test_defining_relation(self, rng):
        n = 2
        bc = H.basis_change(n)
        basis = H.real_basis(n, "orthonormal")
        harms = H.complex_solid_harmonics(n)
        pts = rng.normal(size=(5, 3))
        for pt in pts:
            ivals = np.array([p.evaluate(tuple(pt)) for p in basis.polynomials])
            for k, h in enumerate(harms):
                want = h.evaluate(tuple(pt))
                got = complex(bc.a[:, k] @ ivals)
                assert abs(got - want) < 1e-10

    def test_matrix_orientation(self):
        bc = H.basis_change(1)
        assert np.allclose(bc.matrix, bc.a.T)

    def test_monomial_expansion_consistency(self, rng):
        n = 3
        monos, A = H.monomial_expansion(n)
        harms = H.complex_solid_harmonics(n)
        pt = tuple(rng.normal(size=3))
        vals = np.array([math.prod(p ** k for p, k in zip(pt, e)) for e in monos])
        for k, h in enumerate(harms):
            assert abs(complex(vals @ A[:, k]) - h.evaluate(pt)) < 1e-10


def _basis_change_from_terms(n, style):
    """``a`` of basis_change with the complex target written out from the
    solid harmonics' real and imaginary terms."""
    monos = H.monomials_of_degree(n)
    index = {e: i for i, e in enumerate(monos)}
    N, den = coefficient_matrix(H.real_basis(n, style).polynomials, monos)
    BI = np.array(N / den, dtype=complex)
    target = np.zeros((2 * n + 1, len(monos)), dtype=complex)
    for k, h in enumerate(H.complex_solid_harmonics(n)):
        for e, c in h.re.terms.items():
            target[k, index[e]] += complex(c)
        for e, c in h.im.terms.items():
            target[k, index[e]] += 1j * complex(c)
    return np.linalg.lstsq(BI.T, target.T, rcond=None)[0]


class TestBasisChangeTarget:
    @pytest.mark.parametrize("style", ["integer", "orthonormal"])
    @pytest.mark.parametrize("n", range(9))
    def test_target_is_the_monomial_expansion(self, n, style):
        a = H.basis_change(n, style).a
        assert a.tobytes() == _basis_change_from_terms(n, style).tobytes()


class TestGreenExpansion:
    def test_converges_to_exact(self):
        x = (1.1, -0.3, 0.7)
        xp = (0.1, 0.05, -0.08)
        exact = H.green_exact(x, xp)
        err12 = abs(H.green_expansion(x, xp, 12) - exact)
        assert err12 < 1e-6
        err4 = abs(H.green_expansion(x, xp, 4) - exact)
        assert err12 < err4

    def test_monopole_term(self):
        x = (2.0, 0.0, 0.0)
        assert H.green_expansion(x, (0.0, 0.0, 0.0), 0) == \
            pytest.approx(1 / (8 * math.pi))

    def test_requires_separation(self):
        with pytest.raises(ValueError):
            H.green_expansion((1.0, 0, 0), (2.0, 0, 0), 3)
        with pytest.raises(ValueError):
            H.green_expansion((0.0, 0, 0), (0.0, 0, 0), 3)


class TestMemoisedBuilders:
    def test_basis_change_arrays_are_read_only(self):
        bc = H.basis_change(2)
        assert H.basis_change(2) is bc
        for A in (bc.a, bc.matrix):
            assert not A.flags.writeable
            with pytest.raises(ValueError):
                A[0, 0] = 0

    def test_real_basis_is_shared(self):
        assert H.real_basis(5, "orthonormal") is H.real_basis(5, "orthonormal")
