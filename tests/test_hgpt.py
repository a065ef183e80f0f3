"""HGPT block algebra: basis conversions, transformation laws, forward model."""

import math

import numpy as np
import pytest

from conftest import random_rotation
from hgptsym import hgpt
from hgptsym import invariants as inv
from hgptsym import symgroups as sg
from hgptsym.harmonics import basis_change, monomial_expansion, monomials_of_degree, real_basis


def random_cgpt(rng, p, q):
    e = rng.normal(size=(2 * p + 1, 2 * q + 1)) + \
        1j * rng.normal(size=(2 * p + 1, 2 * q + 1))
    return hgpt.CgptMatrix(p, q, e)


def evaluated_ivector(n, style, x):
    """I_n(x) read off the basis polynomials one at a time."""
    return np.array([float(b.evaluate(x)) for b in real_basis(n, style).polynomials])


class TestCgptConversion:
    def test_identity_maps_to_identity(self):
        M = hgpt.CgptMatrix(1, 1, np.eye(3, dtype=complex))
        N, residue = hgpt.hgpt_from_cgpt(M)
        assert np.max(np.abs(N.entries - np.eye(3))) < 1e-12
        assert residue < 1e-12

    @pytest.mark.parametrize("pq", [(1, 1), (1, 2), (2, 2), (1, 3)])
    def test_round_trip(self, rng, pq):
        p, q = pq
        N = hgpt.HgptMatrix(p, q, rng.normal(size=(2 * p + 1, 2 * q + 1)))
        M = hgpt.cgpt_from_hgpt(N)
        N2, residue = hgpt.hgpt_from_cgpt(M)
        assert np.max(np.abs(N2.entries - N.entries)) < 1e-12
        assert residue < 1e-12

    def test_hermitian_block_gives_symmetric_real_part(self, rng):
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        M = hgpt.CgptMatrix(2, 2, (A + A.conj().T) / 2)
        N, _ = hgpt.hgpt_from_cgpt(M)
        assert np.max(np.abs(N.entries - N.entries.T)) < 1e-12

    def test_c4_patterned_hgpt_gives_diagonal_cgpt(self):
        N = hgpt.HgptMatrix(1, 1, np.diag([2.0, 2.0, 7.0]))
        M = hgpt.cgpt_from_hgpt(N)
        off = M.entries - np.diag(np.diag(M.entries))
        assert np.max(np.abs(off)) < 1e-12

    def test_zero_maps_to_zero(self):
        N = hgpt.HgptMatrix(1, 2, np.zeros((3, 5)))
        assert np.max(np.abs(hgpt.cgpt_from_hgpt(N).entries)) == 0


class TestGptConversion:
    def _brute_force(self, G, p, q, style="orthonormal"):
        """Direct quadruple sum over alpha, beta, m, n."""
        mp = monomials_of_degree(p, 3)
        mq = monomials_of_degree(q, 3)
        _, AMHp = monomial_expansion(p)
        _, AMHq = monomial_expansion(q)
        aIHp = basis_change(p, style).matrix.conj().T  # [i, m]
        aIHq = basis_change(q, style).matrix.conj().T
        N = np.zeros((2 * p + 1, 2 * q + 1), dtype=complex)
        for i in range(2 * p + 1):
            for j in range(2 * q + 1):
                total = 0j
                for ai, a in enumerate(mp):
                    for bi, b in enumerate(mq):
                        for m in range(2 * p + 1):
                            for n in range(2 * q + 1):
                                total += (aIHp[i, m] * np.conj(AMHp[ai, m]) *
                                          G.values[(a, b)] * AMHq[bi, n] *
                                          np.conj(aIHq[j, n]))
                N[i, j] = total / ((2 * p + 1) * (2 * q + 1))
        return N

    def test_matches_brute_force(self, rng):
        mp = monomials_of_degree(1, 3)
        vals = {(a, b): float(rng.normal()) for a in mp for b in mp}
        G = hgpt.GptCoefficients(1, 1, vals)
        N, residue = hgpt.hgpt_from_gpt(G)
        brute = self._brute_force(G, 1, 1)
        assert np.max(np.abs(N.entries - brute.real)) < 1e-12
        assert np.max(np.abs(brute.imag)) < 1e-12
        assert residue < 1e-12

    def test_isotropic_gives_scalar_matrix(self):
        mp = monomials_of_degree(1, 3)
        G = hgpt.GptCoefficients(1, 1, {(a, b): float(a == b)
                                        for a in mp for b in mp})
        N, _ = hgpt.hgpt_from_gpt(G)
        assert np.max(np.abs(N.entries - N.entries[0, 0] * np.eye(3))) < 1e-12
        assert N.entries[0, 0] == pytest.approx(1 / (12 * math.pi))

    def test_diagonal_polya_szego(self):
        mp = monomials_of_degree(1, 3)
        d = {(1, 0, 0): 2.0, (0, 1, 0): 3.0, (0, 0, 1): 5.0}
        G = hgpt.GptCoefficients(1, 1, {(a, b): (d[a] if a == b else 0.0)
                                        for a in mp for b in mp})
        N, _ = hgpt.hgpt_from_gpt(G)
        want = np.diag([2.0, 3.0, 5.0]) / (12 * math.pi)
        assert np.max(np.abs(N.entries - want)) < 1e-12

    def test_zero_and_missing_entries(self):
        mp = monomials_of_degree(1, 3)
        G = hgpt.GptCoefficients(1, 1, {(a, b): 0.0 for a in mp for b in mp})
        N, _ = hgpt.hgpt_from_gpt(G)
        assert np.max(np.abs(N.entries)) == 0
        with pytest.raises(KeyError):
            hgpt.hgpt_from_gpt(hgpt.GptCoefficients(1, 1, {}))


class TestScale:
    def test_factors(self):
        N = hgpt.HgptMatrix(1, 1, np.eye(3))
        assert hgpt.scale(N, 2.0).entries[0, 0] == 8.0  # s^(p+q+1) = 2^3
        N12 = hgpt.HgptMatrix(1, 2, np.ones((3, 5)))
        assert hgpt.scale(N12, 2.0).entries[0, 0] == 16.0  # 2^4

    def test_composition_and_identity(self, rng):
        N = hgpt.HgptMatrix(2, 2, rng.normal(size=(5, 5)))
        assert np.max(np.abs(hgpt.scale(N, 1.0).entries - N.entries)) == 0
        a = hgpt.scale(hgpt.scale(N, 2.0), 3.0).entries
        assert np.max(np.abs(a - hgpt.scale(N, 6.0).entries)) < 1e-10

    def test_rejects_nonpositive(self):
        N = hgpt.HgptMatrix(1, 1, np.eye(3))
        with pytest.raises(ValueError):
            hgpt.scale(N, 0.0)


class TestRotate:
    def test_identity(self, rng):
        N = hgpt.HgptMatrix(1, 2, rng.normal(size=(3, 5)))
        assert np.max(np.abs(hgpt.rotate(N, np.eye(3)).entries - N.entries)) < 1e-12

    def test_c4_fixed_point(self):
        N = hgpt.HgptMatrix(1, 1, np.diag([2.0, 2.0, 7.0]))
        R = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
        assert np.max(np.abs(hgpt.rotate(N, R).entries - N.entries)) < 1e-12

    def test_composition_law(self, rng):
        N = hgpt.HgptMatrix(1, 2, rng.normal(size=(3, 5)))
        R1, R2 = random_rotation(rng), random_rotation(rng)
        a = hgpt.rotate(hgpt.rotate(N, R2), R1).entries
        b = hgpt.rotate(N, R2 @ R1).entries
        assert np.max(np.abs(a - b)) < 1e-10

    def test_preserves_singular_values(self, rng):
        N = hgpt.HgptMatrix(2, 2, rng.normal(size=(5, 5)))
        R = random_rotation(rng)
        s1 = np.linalg.svd(N.entries, compute_uv=False)
        s2 = np.linalg.svd(hgpt.rotate(N, R).entries, compute_uv=False)
        assert np.max(np.abs(s1 - s2)) < 1e-10

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    @pytest.mark.parametrize("p", range(7))
    def test_matches_the_uncached_action(self, rng, p, style):
        R = random_rotation(rng)
        D = {n: np.asarray(inv.action_matrix(inv.harmonic_space(n, style), R), dtype=float)
             for n in (p, 2)}
        for q in (p, 2):
            N = hgpt.HgptMatrix(p, q, rng.normal(size=(2 * p + 1, 2 * q + 1)), style)
            want = D[p].T @ N.entries @ D[q]
            for _ in range(2):              # computed, then memoised
                got = hgpt.rotate(N, R).entries
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_non_orthogonal_matrix_raises_every_time(self):
        R = np.diag([1.0, 1.0, 2.0])        # x3^2 -> 4 x3^2 leaves the harmonics
        before = hgpt._rotation_matrix.cache_info()
        for _ in range(2):
            with pytest.raises(RuntimeError, match="not in the span"):
                hgpt.rotation_matrix(2, R)
        after = hgpt._rotation_matrix.cache_info()
        assert (after.misses, after.hits) == (before.misses + 2, before.hits)

    def test_rejects_a_matrix_that_is_not_3_by_3(self):
        with pytest.raises(ValueError, match="3 x 3"):
            hgpt.rotation_matrix(1, np.eye(3).ravel())


class TestForwardVoltage:
    def test_zero_blocks(self):
        N = hgpt.HgptMatrix(1, 1, np.zeros((3, 3)))
        assert hgpt.forward_voltage([N], (1, 2, 3), (3, 1, 0)) == 0.0

    def test_identity_block_closed_form(self):
        N = hgpt.HgptMatrix(1, 1, np.eye(3))
        v = hgpt.forward_voltage([N], (0, 0, 2), (0, 0, 2))
        assert v == pytest.approx((1 / 64) * 3 / math.pi)

    def test_swap_symmetry(self, rng):
        A = rng.normal(size=(3, 3))
        N = hgpt.HgptMatrix(1, 1, (A + A.T) / 2)
        xr, xs = (1.0, -2.0, 0.5), (0.3, 3.0, -1.0)
        assert hgpt.forward_voltage([N], xr, xs) == \
            pytest.approx(hgpt.forward_voltage([N], xs, xr))

    def test_rotation_equivariance(self, rng):
        N = hgpt.HgptMatrix(1, 2, rng.normal(size=(3, 5)))
        worst = 0.0
        for _ in range(50):
            R = random_rotation(rng)
            xr = rng.normal(size=3) + np.array([4.0, 0, 0])
            xs = rng.normal(size=3) + np.array([0, 5.0, 0])
            v1 = hgpt.forward_voltage([hgpt.rotate(N, R)], xr, xs)
            v2 = hgpt.forward_voltage([N], R @ xr, R @ xs)
            worst = max(worst, abs(v1 - v2))
        assert worst < 1e-10

    def test_rejects_origin(self):
        N = hgpt.HgptMatrix(1, 1, np.eye(3))
        with pytest.raises(ValueError):
            hgpt.forward_voltage([N], (0, 0, 0), (1, 0, 0))

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    @pytest.mark.parametrize("n", range(7))
    def test_matches_polynomial_evaluation(self, rng, n, style):
        """Within 1e-14 of the voltage's scale sum |I_r| |N| |I_s| / den, on
        which the rounding of the cancelling sum rests."""
        blocks = [hgpt.HgptMatrix(p, q, rng.normal(size=(2 * p + 1, 2 * q + 1)), style)
                  for p, q in [(n, n), (n, 1), (2, n)]]
        for _ in range(5):
            x_r, x_s = (tuple(rng.normal(size=3) * 2.5) for _ in range(2))
            rr, rs = np.linalg.norm(x_r), np.linalg.norm(x_s)
            want = scale = 0.0
            for N in blocks:
                Ir, Is = evaluated_ivector(N.p, style, x_r), evaluated_ivector(N.q, style, x_s)
                den = rr ** (2 * N.p + 1) * rs ** (2 * N.q + 1)
                want += float(Ir @ N.entries @ Is) / den
                scale += float(np.abs(Ir) @ np.abs(N.entries) @ np.abs(Is)) / den
            for _ in range(2):              # computed, then memoised
                assert abs(hgpt.forward_voltage(blocks, x_r, x_s) - want) <= 1e-14 * scale


class TestApplyPattern:
    def _pattern(self, name, p, q):
        g = sg.build_group(name)
        space = inv.symmetric_product_space(p, q, style="orthonormal")
        return inv.coefficient_pattern(inv.invariant_subspace(space, g))

    def test_patterned_matrix_has_zero_residual(self):
        pat = self._pattern("C4", 1, 1)
        N = hgpt.HgptMatrix(1, 1, np.diag([3.0, 3.0, -1.0]))
        _, res = hgpt.apply_pattern(N, pat)
        assert res < 1e-12

    def test_projection_is_idempotent(self, rng):
        pat = self._pattern("C4", 1, 1)
        N = hgpt.HgptMatrix(1, 1, rng.normal(size=(3, 3)))
        P, res = hgpt.apply_pattern(N, pat)
        assert res > 0
        P2, res2 = hgpt.apply_pattern(P, pat)
        assert res2 < 1e-12
        assert np.max(np.abs(P2.entries - P.entries)) < 1e-12

    def test_c2_patterned_violates_c4(self, rng):
        c2 = self._pattern("C2", 1, 1)
        c4 = self._pattern("C4", 1, 1)
        N = hgpt.HgptMatrix(1, 1, rng.normal(size=(3, 3)))
        P, _ = hgpt.apply_pattern(N, c2)
        _, res = hgpt.apply_pattern(P, c4)
        assert res > 1e-3

    def test_style_mismatch_rejected(self):
        g = sg.build_group("C4")
        space = inv.symmetric_product_space(1, 1, style="integer")
        pat = inv.coefficient_pattern(inv.invariant_subspace(space, g))
        N = hgpt.HgptMatrix(1, 1, np.eye(3), basis_style="orthonormal")
        with pytest.raises(ValueError):
            hgpt.apply_pattern(N, pat)

    @pytest.mark.parametrize("name, p, q", [("C4", 1, 1), ("C2", 2, 1), ("D6", 1, 2),
                                            ("O", 2, 2), ("I", 2, 2)])
    def test_matches_the_per_call_qr_projection(self, rng, name, p, q):
        pat = self._pattern(name, p, q)
        N = hgpt.HgptMatrix(p, q, rng.normal(size=(2 * p + 1, 2 * q + 1)))
        V = np.array([m.ravel() for m in pat.matrix_span()])
        Q = np.linalg.qr(V.T, mode="reduced")[0]
        want = (Q @ (Q.T @ N.entries.ravel())).reshape(N.entries.shape)
        for _ in range(2):                  # span basis computed, then cached
            P, res = hgpt.apply_pattern(N, pat)
            assert np.array_equal(P.entries, want)
            assert res == float(np.linalg.norm(N.entries - want))

    def test_empty_pattern_gives_the_zero_block(self, rng):
        pat = self._pattern("Ii", 1, 2)
        assert pat.matrix_span() == [] and pat.span_basis.shape == (15, 0)
        N = hgpt.HgptMatrix(1, 2, rng.normal(size=(3, 5)))
        P, res = hgpt.apply_pattern(N, pat)
        assert np.array_equal(P.entries, np.zeros((3, 5)))
        assert res == float(np.linalg.norm(N.entries))


class TestMemos:
    def test_memos_stay_within_their_bound(self, rng):
        N = hgpt.HgptMatrix(2, 2, np.eye(5))
        for _ in range(hgpt.MEMO + 5):
            hgpt.rotate(N, random_rotation(rng))
            hgpt.forward_voltage([N], rng.normal(size=3) + 3, rng.normal(size=3) + 3)
            for memo in (hgpt._rotation_matrix, hgpt._kvector):
                info = memo.cache_info()
                assert info.maxsize == hgpt.MEMO and info.currsize <= hgpt.MEMO
        assert hgpt._kvector.cache_info().currsize == hgpt.MEMO

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    def test_kvector_is_the_scaled_ivector(self, rng, style):
        for n in range(7):
            x = tuple(rng.normal(size=3) * 2.0)
            want = evaluated_ivector(n, style, x) / np.linalg.norm(x) ** (2 * n + 1)
            got = hgpt._kvector(n, style, x)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_each_degree_is_looked_up_once_per_call(self, rng):
        blocks = [hgpt.HgptMatrix(p, q, rng.normal(size=(2 * p + 1, 2 * q + 1)))
                  for p in (1, 2) for q in (1, 2)]
        x_r, x_s = tuple(rng.normal(size=3) + 3), tuple(rng.normal(size=3) + 3)
        for misses in (4, 0):
            before = hgpt._kvector.cache_info()
            hgpt.forward_voltage(blocks, x_r, x_s)
            after = hgpt._kvector.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (4 - misses,
                                                                                misses)

    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 2.0), (0.0, math.inf, 1.0),
                                     (0.0, 0.0, 0.0), (1e-200, 0.0, 0.0)])
    def test_rejected_points_raise_every_time_and_are_never_kept(self, bad):
        blocks = [hgpt.HgptMatrix(1, 1, np.eye(3))]
        before = hgpt._kvector.cache_info()
        for args in [(bad, (0.0, 0.0, 2.0)), ((0.0, 0.0, 2.0), bad)] * 2:
            with pytest.raises(ValueError, match="finite|origin"):
                hgpt.forward_voltage(blocks, *args)
        assert hgpt._kvector.cache_info() == before

    def test_memoised_arrays_are_read_only(self, rng):
        R = random_rotation(rng)
        D = hgpt.rotation_matrix(2, R)
        assert hgpt.rotation_matrix(2, R.copy()) is D
        g = sg.build_group("C4")
        space = inv.symmetric_product_space(1, 1, style="orthonormal")
        pat = inv.coefficient_pattern(inv.invariant_subspace(space, g))
        for a in (D, hgpt._kvector(2, "orthonormal", (1.0, 2.0, 3.0)), pat.span_basis):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestJsonSchema:
    def test_round_trip(self, rng):
        N = hgpt.HgptMatrix(1, 2, rng.normal(size=(3, 5)), "integer")
        d = N.to_json_dict()
        assert set(d) == {"p", "q", "basis_style", "entries"}
        M = hgpt.HgptMatrix.from_json_dict(d)
        assert M.p == 1 and M.q == 2 and M.basis_style == "integer"
        assert np.max(np.abs(M.entries - N.entries)) == 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_entries_rejected(self, bad):
        e = np.zeros((3, 3))
        e[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            hgpt.HgptMatrix(1, 1, e)

    def test_points_rejected(self):
        blocks = [hgpt.HgptMatrix(1, 1, np.eye(3))]
        with pytest.raises(ValueError, match="finite"):
            hgpt.forward_voltage(blocks, (0.0, 0.0, 2.0), (math.nan, 0.0, 2.0))
