"""Exact sparse polynomial arithmetic and rational linear algebra."""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import proportional, rational_nullspace, u1, u2, u3
from hgptsym.harmonics import monomials_of_degree
from hgptsym.polyalg import (Polynomial, _snap, coefficient_matrix, kelvin_harmonicize,
                             rational_rref, zero_tolerance)


class TestArithmetic:
    def test_ring_operations(self):
        p = (u1 + 2 * u2) * (u1 - 2 * u2)
        assert p == u1 ** 2 - 4 * u2 ** 2
        assert (p - p).is_zero()
        assert p * Polynomial.one(3) == p
        assert p * 0 == Polynomial.zero(3)

    def test_fraction_coefficients_stay_exact(self):
        p = Polynomial({(1, 1, 0): Fraction(1, 3)}, 3) + u3 / 7
        assert p.is_exact()
        assert p.terms[(1, 1, 0)] == Fraction(1, 3)
        assert p.terms[(0, 0, 1)] == Fraction(1, 7)

    def test_float_coefficients_degrade_gracefully(self):
        p = 0.5 * u1 + u2
        assert not p.is_exact()
        assert p.evaluate((2.0, 3.0, 0.0)) == pytest.approx(4.0)

    def test_pow_and_degree(self):
        p = (u1 + u2 + u3) ** 3
        assert p.degree() == 3
        assert p.is_homogeneous()
        assert p.terms[(1, 1, 1)] == 6

    def test_evaluate_exact(self):
        p = u1 ** 2 - u2 * u3
        assert p.evaluate((Fraction(1, 2), Fraction(1, 3), Fraction(3, 1))) == \
            Fraction(1, 4) - 1

    def test_zero_degree_conventions(self):
        assert Polynomial.zero(3).is_zero()
        assert Polynomial.constant(5).degree() == 0


class TestCalculus:
    def test_diff(self):
        p = u1 ** 3 * u2
        assert p.diff(0) == 3 * u1 ** 2 * u2
        assert p.diff(1) == u1 ** 3
        assert p.diff(2).is_zero()

    def test_laplacian(self):
        assert (u1 ** 2 - u2 ** 2).laplacian().is_zero()
        assert (u1 ** 2 + u2 ** 2 + u3 ** 2).laplacian() == Polynomial.constant(6)

    def test_laplacian_rejects_6_vars(self):
        with pytest.raises(ValueError):
            Polynomial.variable(4, 6).laplacian()


class TestComposeLinear:
    def test_rotation_substitution(self):
        R = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]  # x1 -> -x2, x2 -> x1
        p = u1
        assert p.compose_linear(R) == -u2

    def test_homomorphism(self, rng):
        from conftest import random_rotation
        R1, R2 = random_rotation(rng), random_rotation(rng)
        p = (0.3 * u1 + u2 * u3) * u1
        a = p.compose_linear(R1).compose_linear(R2)
        b = p.compose_linear(R1 @ R2)
        diff = a - b
        assert all(abs(float(c)) < 1e-12 for c in diff.terms.values())

    def test_octahedral_elements_agree_with_evaluation(self):
        from hgptsym.symgroups import build_group
        p = u1 ** 3 * u2 - Fraction(2, 3) * u2 * u3 ** 3 + 5 * u1 * u2 * u3 ** 2
        pt = (Fraction(1, 2), Fraction(-3), Fraction(2, 7))
        for R in build_group("O").exact_elements:
            Rx = tuple(sum(R[i][j] * pt[j] for j in range(3)) for i in range(3))
            composed = p.compose_linear(R)
            assert composed.is_exact()
            assert composed.evaluate(pt) == p.evaluate(Rx)

    def test_six_variable_polynomial_raises(self):
        from conftest import prod
        with pytest.raises(ValueError):
            prod(u1, u2).compose_linear(np.eye(3))


class TestCanonicalization:
    def test_content_and_sign(self):
        p = Fraction(-2, 3) * u1 ** 2 - Fraction(4, 3) * u2 ** 2
        c, scale = p.canonicalized()
        assert c == u1 ** 2 + 2 * u2 ** 2
        assert p * scale == c

    def test_x3_is_most_significant(self):
        # leading term for the sign fix is the one highest in x3, then x2, x1
        p = -u1 ** 2 - u2 ** 2 + 2 * u3 ** 2
        c, _ = p.canonicalized()
        assert c == p  # 2*x3^2 keeps its positive printed sign


class TestSnap:
    @staticmethod
    def sample(n, seed=20221):
        """n floats: uniform, small rationals nudged by 0 or +-1e-12, and
        signed square roots."""
        rng = random.Random(seed)
        out = []
        while len(out) < n:
            out.append(rng.uniform(-50.0, 50.0))
            out.append(rng.randint(-3000, 3000) / rng.randint(1, 3000)
                       + rng.choice((0.0, 1e-12, -1e-12)))
            out.append(rng.choice((1, -1)) * math.sqrt(rng.randint(1, 10 ** 5)))
        return out[:n]

    @staticmethod
    def reference(x):
        """The rule ``_snap`` implements, through the stdlib, with the exact
        distance."""
        f = Fraction(x).limit_denominator(1000)
        return f if abs(f - Fraction(x)) <= Fraction(1, 10 ** 9) else x

    @pytest.mark.parametrize("x, want", [
        (1.0 + 1e-13, Fraction(1)), (0.5000000000001, Fraction(1, 2)),
        (1e-12, Fraction(0)), (0.25, Fraction(1, 4)), (np.pi, np.pi),
        (np.float64(-1.5), Fraction(-3, 2)),
        (1095126363198664.6, Fraction(8761010905589317, 8)),
        (-8627119033.188375, -8627119033.188375)])
    def test_keeps_the_field_of_each_value(self, x, want):
        got = _snap(x)
        assert got == want and type(got) is type(want)
        assert got == self.reference(x)

    def test_matches_limit_denominator_with_the_tolerance_check(self):
        rng = random.Random(20222)
        near = [rng.randint(-2000, 2000) / rng.randint(1, 1000)
                + rng.choice((1, -1)) * (1e-9 + rng.choice((1, -1)) * 1e-12)
                for _ in range(10 ** 4)]
        dyadic = [k / 1024 for k in range(-3000, 3001)] + [k / 2048 for k in range(-3000, 3001)]
        xs = (self.sample(6 * 10 ** 4) + near + dyadic
              + [0.0, -0.0, 1e-300, -1e300, 5e-324, np.float64(2 / 3)])
        for x in xs:
            got, want = _snap(x), self.reference(x)
            assert got == want and type(got) is type(want), x


class TestKelvin:
    def test_degree_two(self):
        got = kelvin_harmonicize(u3 ** 2, 2)
        want = 2 * u3 ** 2 - u1 ** 2 - u2 ** 2
        assert proportional(got, want, positive=True)

    def test_results_are_harmonic_and_homogeneous(self):
        for q, m in [(u1 * u2, 2), (u3 ** 3, 3), (u1 ** 4 - 6 * u1 ** 2 * u2 ** 2, 4)]:
            h = kelvin_harmonicize(q, m)
            assert h.laplacian().is_zero()
            assert h.degree() == m and h.is_homogeneous()

    def test_degenerate_operating_polynomial(self):
        # r^2-multiples operate to zero
        r2 = u1 ** 2 + u2 ** 2 + u3 ** 2
        assert kelvin_harmonicize(r2, 2).is_zero()

    def test_texts_pinned(self):
        # the texts for every monomial of degree m <= 10 and for ten seeded
        # rational combinations of them per degree
        rng = random.Random(23)
        digest = hashlib.sha256()
        for m in range(11):
            monos = monomials_of_degree(m)
            qs = [Polynomial({e: 1}, 3) for e in monos]
            qs += [Polynomial({e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in monos}, 3)
                   for _ in range(10)]
            for q in qs:
                digest.update((kelvin_harmonicize(q, m).to_text() + "\n").encode())
        assert digest.hexdigest() == \
            "acb0854ed6c4f5223a9ddb187ef37cb5c016d26084ce929b178b45404149e0a4"


class TestRationalLinearAlgebra:
    def test_rref_and_rank(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        rref, pivots = rational_rref(rows)
        assert pivots == [0]
        assert rref.tolist() == [[1, 2], [0, 0]]

    def test_nullspace(self):
        rows = [[Fraction(1), Fraction(1), Fraction(0)]]
        ns = rational_nullspace(rows)
        assert len(ns) == 2
        for v in ns:
            assert v[0] + v[1] == 0 or v[2] != 0

    def test_nullspace_of_an_array(self):
        rows = np.array([[1, 2], [2, 4]], dtype=object)
        assert rational_nullspace(rows) == rational_nullspace(rows.tolist()) == [[-2, 1]]
        assert rational_nullspace(np.zeros((0, 3), dtype=object)) == []


class TestCoefficientMatrix:
    MONOS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_fractions_are_integers_over_one_denominator(self):
        N, den = coefficient_matrix([u1 / 2 - u2, u2 * Fraction(2, 3), Polynomial.zero(3)],
                                    self.MONOS)
        assert den == 6 and N.dtype == object
        assert N.tolist() == [[3, -6, 0], [0, 4, 0], [0, 0, 0]]
        assert all(type(x) is int for x in N.flat)

    def test_any_float_makes_a_float_array_over_one(self):
        N, den = coefficient_matrix([u1 * 0.5, u3], self.MONOS)
        assert den == 1 and N.dtype == float
        assert N.tolist() == [[0.5, 0.0, 0.0], [0.0, 0.0, 1.0]]


class TestRrefOverFields:
    def test_noise_matrix_has_no_pivots(self):
        noise = np.random.default_rng(0).normal(scale=1e-17, size=(15, 15))
        assert rational_rref(noise.tolist())[1] == []

    def test_near_singular_float_matrix_has_one_pivot(self):
        rref, pivots = rational_rref([[1.0, 2.0], [2.0, 4.0 + 1e-13]])
        assert pivots == [0]
        assert all(isinstance(v, float) for row in rref for v in row)

    def test_integer_input_stays_exact(self):
        rref, pivots = rational_rref([[2, 1, 0], [4, 3, 1]])
        assert pivots == [0, 1]
        assert all(type(v) is Fraction for row in rref for v in row)
        assert rref[0].tolist() == [1, 0, Fraction(-1, 2)]

    def test_exact_tolerance_is_zero(self):
        assert zero_tolerance([[Fraction(1, 10 ** 30)]]) == 0
        assert rational_rref([[Fraction(1, 10 ** 30)]])[1] == [0]


def _reference_zero_tolerance(rows):
    values = [v for row in rows for v in row]
    if all(isinstance(v, Fraction) for v in values):
        return 0
    return 1e-9 * max(1.0, max(abs(v) for v in values))


def _reference_rref(rows):
    """The list-of-lists reduction the array version replaced, kept as a
    reference: same pivot rule, same entry-by-entry operations."""
    A = [[Fraction(x) if isinstance(x, (int, Fraction)) else x for x in row] for row in rows]
    tol = _reference_zero_tolerance(A)
    nr = len(A)
    nc = len(A[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if abs(A[i][c]) > tol), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = A[r][c]
        A[r] = [v / inv for v in A[r]]
        for i in range(nr):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return A, pivots


def _entry_bits(v):
    return (type(v), v.hex()) if isinstance(v, float) else (type(v), v)


def _random_matrix(rng, kind):
    nr, nc = rng.integers(1, 8, size=2)
    if kind == "float":
        A = [[float(x) for x in row] for row in rng.normal(size=(nr, nc))]
    else:
        A = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in range(nc)]
             for _ in range(nr)]
    if kind == "mixed":
        for row in A:
            row[int(rng.integers(nc))] = float(rng.normal())
            row[int(rng.integers(nc))] = int(rng.integers(-3, 4))
    if nr > 2:       # rank deficiency: one row a combination of two others
        k = Fraction(int(rng.integers(-3, 4))) if kind != "float" else float(rng.normal())
        A[-1] = [a + k * b for a, b in zip(A[0], A[1])]
    if nc > 1:       # a zero column
        z = int(rng.integers(nc))
        for row in A:
            row[z] = 0.0 if kind == "float" else Fraction(0)
    return A


class TestRrefOnArrays:
    @pytest.mark.parametrize("kind", ["float", "fraction", "mixed"])
    def test_matches_the_list_reduction_bit_for_bit(self, kind):
        rng = np.random.default_rng(["float", "fraction", "mixed"].index(kind))
        for _ in range(200):
            rows = _random_matrix(rng, kind)
            want, want_pivots = _reference_rref(rows)
            inputs = [rows, np.array(rows)] if kind == "float" else [rows]
            for given in inputs:
                got, pivots = rational_rref(given)
                assert pivots == want_pivots
                assert [[_entry_bits(v) for v in row] for row in got.tolist()] == \
                    [[_entry_bits(v) for v in row] for row in want]

    def test_block_pivot_search_matches_the_column_walk(self):
        # float input finds its next pivot column by one test of the remaining
        # block; the column walk of the reference must give the same bits, on
        # rank-deficient matrices with skipped columns and entries near tol
        rng = np.random.default_rng(16)
        for _ in range(150):
            nr, nc = (int(v) for v in rng.integers(2, 20, size=2))
            rank = int(rng.integers(1, min(nr, nc) + 1))
            A = rng.normal(size=(nr, rank)) @ rng.normal(size=(rank, nc))
            A[:, rng.random(nc) < 0.3] = 0.0
            tol = 1e-9 * max(1.0, np.abs(A).max())
            near = rng.random(A.shape) < rng.choice([0.0, 0.1, 0.5])
            A[near] = rng.choice([-1.0, 1.0], near.sum()) * tol * rng.uniform(0.5, 2.0, near.sum())
            want, want_pivots = _reference_rref(A.tolist())
            got, pivots = rational_rref(A)
            assert pivots == want_pivots
            assert [[v.hex() for v in row] for row in got.tolist()] == \
                [[v.hex() for v in row] for row in want]

    def test_float_input_reduces_in_float64_and_is_not_modified(self):
        M = np.array([[2.0, 4.0], [1.0, 3.0]])
        rref, pivots = rational_rref(M)
        assert rref.dtype == np.float64 and pivots == [0, 1]
        assert M.tolist() == [[2.0, 4.0], [1.0, 3.0]]

    def test_no_rows(self):
        rref, pivots = rational_rref([])
        assert rref.shape == (0, 0) and pivots == []


class TestArithmeticResults:
    def test_results_drop_zeros_and_keep_their_field(self):
        p = Fraction(1, 3) * u1 ** 2 + u2 * u3
        assert (p - p).terms == {}
        assert (p * 0).terms == {}
        q = (p * p).diff(0) + (-p).diff(1) * 2
        assert all(type(c) is Fraction for c in q.terms.values())
        assert q == Polynomial(dict(q.terms), 3)
        assert all(type(c) is float for c in (p * 0.5).terms.values())

    def test_constructor_still_validates(self):
        with pytest.raises(ValueError):
            Polynomial({(1, 0): 1}, 3)
        with pytest.raises(ValueError):
            Polynomial({(-1, 0, 0): 1}, 3)
        with pytest.raises(ValueError, match="bad exponent tuple"):
            Polynomial({(1.9, 0.2, 0): 1}, 3)            # not truncated to x1
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="bad exponent tuple"):
                Polynomial({(bad, 0, 0): 1}, 3)
        with pytest.raises(ValueError, match="nvars must be 3 or 6"):
            Polynomial({}, 4)
        assert type(Polynomial({(1, 0, 0): 2}, 3).terms[(1, 0, 0)]) is Fraction
        e, = Polynomial({(1.0, np.int64(2), 0): 1}, 3).terms
        assert e == (1, 2, 0) and all(type(k) is int for k in e)


class TestRejectedInputs:
    @pytest.mark.parametrize("call, message", [
        (lambda: u1 + Polynomial.variable(0, 6), "variable-count mismatch"),
        (lambda: u1 * Polynomial.variable(0, 6), "variable-count mismatch"),
        (lambda: u1.evaluate((1, 2, 3, 4, 5, 6)), "variable-count mismatch"),
        (lambda: u1 ** -1, "negative power"),
        (lambda: kelvin_harmonicize(Polynomial.variable(0, 6), 1),
         "variable-count mismatch: need 3 variables"),
        (lambda: kelvin_harmonicize(u1 + u2 ** 2, 2), "q must be homogeneous of degree 2"),
    ])
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestSerialization:
    def test_text_formats(self):
        assert (2 * u3 ** 2 - u1 ** 2).to_text() == "-1*x1^2 + 2*x3^2"
        assert Polynomial.zero(3).to_text() == "0"
        assert "np.float64" not in (0.5 * u1).to_text()
