"""HGPT block algebra: basis conversions, transformation laws, forward model."""

import math
import re
import warnings

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
        mp = monomials_of_degree(p)
        mq = monomials_of_degree(q)
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
        mp = monomials_of_degree(1)
        vals = {(a, b): float(rng.normal()) for a in mp for b in mp}
        G = hgpt.GptCoefficients(1, 1, vals)
        N, residue = hgpt.hgpt_from_gpt(G)
        brute = self._brute_force(G, 1, 1)
        assert np.max(np.abs(N.entries - brute.real)) < 1e-12
        assert np.max(np.abs(brute.imag)) < 1e-12
        assert residue < 1e-12

    def test_isotropic_gives_scalar_matrix(self):
        mp = monomials_of_degree(1)
        G = hgpt.GptCoefficients(1, 1, {(a, b): float(a == b)
                                        for a in mp for b in mp})
        N, _ = hgpt.hgpt_from_gpt(G)
        assert np.max(np.abs(N.entries - N.entries[0, 0] * np.eye(3))) < 1e-12
        assert N.entries[0, 0] == pytest.approx(1 / (12 * math.pi))

    def test_diagonal_polya_szego(self):
        mp = monomials_of_degree(1)
        d = {(1, 0, 0): 2.0, (0, 1, 0): 3.0, (0, 0, 1): 5.0}
        G = hgpt.GptCoefficients(1, 1, {(a, b): (d[a] if a == b else 0.0)
                                        for a in mp for b in mp})
        N, _ = hgpt.hgpt_from_gpt(G)
        want = np.diag([2.0, 3.0, 5.0]) / (12 * math.pi)
        assert np.max(np.abs(N.entries - want)) < 1e-12

    def test_zero_and_missing_entries(self):
        mp = monomials_of_degree(1)
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

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.0, -2.0, 10 ** 400])
    def test_rejects_a_factor_before_any_arithmetic(self, s):
        N = hgpt.HgptMatrix(1, 1, np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="scale factor must be a positive finite number"):
                hgpt.scale(N, s)

    @pytest.mark.parametrize("s, entries", [(1e200, np.eye(3)), (1e103, np.eye(3)),
                                            (1e5, 1e300 * np.eye(3))])
    def test_an_overflowing_factor_is_a_value_error(self, s, entries):
        N = hgpt.HgptMatrix(1, 1, entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="scale factor .* overflows the block"):
                hgpt.scale(N, s)


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
        before = inv._float_actions.cache_info()
        for _ in range(2):
            with pytest.raises(RuntimeError, match="not in the span"):
                hgpt.rotation_matrix(2, R)
        after = inv._float_actions.cache_info()
        assert (after.misses, after.hits) == (before.misses + 2, before.hits)
        assert after.currsize == before.currsize

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    @pytest.mark.parametrize("p, q, R", [
        (1, 1, [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),   # a shear, in the span
        (2, 2, 2 * np.eye(3)), (0, 2, 2 * np.eye(3)), (0, 0, -np.eye(3) * (1 + 1e-8))])
    def test_a_matrix_in_the_span_that_is_not_orthogonal_raises_every_time(self, p, q, R,
                                                                           style):
        N = hgpt.HgptMatrix(p, q, np.eye(2 * p + 1, 2 * q + 1), style)
        before = inv._float_actions.cache_info()
        for _ in range(2):
            for call in (lambda: hgpt.rotate(N, R), lambda: hgpt.rotation_matrix(p, R, style)):
                with pytest.raises(ValueError, match="not orthogonal"):
                    call()
        after = inv._float_actions.cache_info()
        assert (after.hits, after.currsize) == (before.hits, before.currsize)

    def test_orthogonal_within_the_group_tolerance_is_accepted(self):
        R = np.eye(3)
        R[0, 0] += sg.MATCH_TOL / 4
        assert hgpt.rotation_matrix(1, R).shape == (3, 3)

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    @pytest.mark.parametrize("p", [1, 2, 6])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_raises_every_time(self, bad, p, style):
        R = np.eye(3)
        R[2, 0] = bad
        before = inv._float_actions.cache_info()
        for _ in range(2):
            with pytest.raises(RuntimeError, match="not in the span"):
                hgpt.rotation_matrix(p, R, style)
        after = inv._float_actions.cache_info()
        assert (after.misses, after.hits) == (before.misses + 2, before.hits)
        assert after.currsize == before.currsize

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_is_rejected_at_every_degree_without_warnings(self, bad, p):
        N = hgpt.HgptMatrix(p, p, np.eye(2 * p + 1))
        R = np.full((3, 3), bad)
        before = inv._float_actions.cache_info()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                with pytest.raises(RuntimeError, match="not in the span"):
                    hgpt.rotate(N, R)
        assert inv._float_actions.cache_info().currsize == before.currsize

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    @pytest.mark.parametrize("name", ["C4", "D6", "O", "I", "Oi"])
    def test_equals_the_group_stack_bit_for_bit(self, name, style):
        g = sg.build_group(name)
        for p in range(7):
            stack = inv.action_stack(inv.harmonic_space(p, style), g)
            for k, E in enumerate(g.elements):
                D = hgpt.rotation_matrix(p, E, style)
                assert D.shape == stack[k].shape and D.tobytes() == stack[k].tobytes()

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

    @pytest.mark.parametrize("bad", [(1.0, 2.0, 3.0, 4.0), (1.0, 2.0), (), ((0.0, 0.0, 2.0),)])
    def test_a_point_needs_three_coordinates(self, bad):
        blocks = [hgpt.HgptMatrix(1, 1, np.eye(3))]
        before = hgpt._kvector.cache_info()
        for args in [(bad, (0.0, 0.0, 2.0)), ((0.0, 0.0, 2.0), bad)]:
            with pytest.raises(ValueError, match="three coordinates"):
                hgpt.forward_voltage(blocks, *args)
        assert hgpt._kvector.cache_info() == before

    def test_voltages_pinned(self):
        """Seeded voltages, bit for bit: the order of the sum over the blocks and
        of each product K_r N K_s is part of the result."""
        rng = np.random.default_rng(24)
        got = []
        for style in ("orthonormal", "integer"):
            blocks = [hgpt.HgptMatrix(p, q, rng.normal(size=(2 * p + 1, 2 * q + 1)), style)
                      for p, q in BLOCKS + [(6, 6), (6, 1)]]
            for _ in range(3):
                x_r, x_s = (tuple(rng.normal(size=3) * 2.5) for _ in range(2))
                for _ in range(2):          # computed, then memoised
                    v = hgpt.forward_voltage(blocks, x_r, x_s)
                got.append(v.hex())
        assert got == ["0x1.2ed1263039dbcp-8", "0x1.413dfbfa7038dp-6", "0x1.5e7a978d7d664p-10",
                       "-0x1.b76ca4fc98c02p-5", "-0x1.cc780590c60adp-6", "-0x1.a330aa1797baap-4"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("blocks, x", [
        ([hgpt.HgptMatrix(1, 1, np.full((3, 3), 1e300))], (1e-100, 0.0, 0.0)),
        ([hgpt.HgptMatrix(1, 1, np.full((3, 3), 1e300))], (1e-100, 1e-100, 1e-100)),
        ([hgpt.HgptMatrix(0, 0, np.full((1, 1), 1e308))] * 2, (0.25, 0.0, 0.0)),   # the sum
    ])
    def test_a_voltage_that_overflows_raises(self, blocks, x):
        with pytest.raises(ValueError, match="voltage is not finite"):
            hgpt.forward_voltage(blocks, x, x)

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
        assert hgpt.MEMO is inv.MEMO
        for _ in range(hgpt.MEMO + 5):
            hgpt.rotate(N, random_rotation(rng))
            hgpt.forward_voltage([N], rng.normal(size=3) + 3, rng.normal(size=3) + 3)
            for memo in (inv._float_actions, hgpt._kvector):
                info = memo.cache_info()
                assert info.maxsize == hgpt.MEMO and info.currsize <= hgpt.MEMO
        for memo in (inv._float_actions, hgpt._kvector):
            assert memo.cache_info().currsize == hgpt.MEMO

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    def test_kvector_is_the_scaled_ivector(self, rng, style):
        for n in range(7):
            x = tuple(rng.normal(size=3) * 2.0)
            want = evaluated_ivector(n, style, x) / np.linalg.norm(x) ** (2 * n + 1)
            got = hgpt._kvector(n, style, x)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_each_kvector_is_computed_once(self, rng):
        blocks = [hgpt.HgptMatrix(p, q, rng.normal(size=(2 * p + 1, 2 * q + 1)))
                  for p in (1, 2) for q in (1, 2)]
        x_r, x_s = tuple(rng.normal(size=3) + 3), tuple(rng.normal(size=3) + 3)
        for misses in (4, 0):               # K_1, K_2 at x_r and at x_s, then none
            before = hgpt._kvector.cache_info()
            hgpt.forward_voltage(blocks, x_r, x_s)
            assert hgpt._kvector.cache_info().misses - before.misses == misses

    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 2.0), (0.0, math.inf, 1.0),
                                     (0.0, 0.0, 0.0), (1e-200, 0.0, 0.0)])
    def test_rejected_points_raise_every_time_and_are_never_kept(self, bad):
        blocks = [hgpt.HgptMatrix(1, 1, np.eye(3))]
        before = hgpt._kvector.cache_info()
        for args in [(bad, (0.0, 0.0, 2.0)), ((0.0, 0.0, 2.0), bad)] * 2:
            with pytest.raises(ValueError, match="finite|origin"):
                hgpt.forward_voltage(blocks, *args)
        assert hgpt._kvector.cache_info() == before

    @pytest.mark.parametrize("n, bad", [(1, (1e-120, 0.0, 0.0)), (1, (0.0, 1e-103, 0.0)),
                                        (1, (1e110, 0.0, 0.0)), (3, (0.0, 0.0, 1e50)),
                                        (1, (1e200, 1e200, 0.0))])
    def test_a_point_whose_power_is_not_a_normal_float_is_never_kept(self, n, bad):
        blocks = [hgpt.HgptMatrix(n, n, np.eye(2 * n + 1))]
        hgpt._kvector(n, "orthonormal", (0.0, 0.0, 2.0))      # the good point is kept
        size = hgpt._kvector.cache_info().currsize
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in [(bad, (0.0, 0.0, 2.0)), ((0.0, 0.0, 2.0), bad)] * 2:
                with pytest.raises(ValueError, match="away from the origin, with "
                                                     r"\|x\|\^%d a normal float" % (2 * n + 1)):
                    hgpt.forward_voltage(blocks, *args)
        assert hgpt._kvector.cache_info().currsize == size

    def test_memoised_arrays_are_read_only(self, rng):
        R = random_rotation(rng)
        D = hgpt.rotation_matrix(2, R)
        before = inv._float_actions.cache_info()
        again = hgpt.rotation_matrix(2, R.copy())
        after = inv._float_actions.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert again.tobytes() == D.tobytes() and not again.flags.writeable
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

    @pytest.mark.parametrize("key,value", [("p", 1.5), ("p", 1.0), ("q", True),
                                           ("p", -1), ("q", "1"), ("p", None)])
    def test_orders_must_be_json_integers(self, key, value):
        d = {"p": 1, "q": 1, "entries": [0.0] * 9, key: value}
        with pytest.raises(ValueError, match="%s must be an integer >= 0, got %r"
                           % (key, value)):
            hgpt.HgptMatrix.from_json_dict(d)

    @pytest.mark.parametrize("key", ["p", "q", "entries"])
    def test_a_missing_key_is_named(self, key):
        d = {"p": 1, "q": 1, "entries": [0.0] * 9}
        del d[key]
        with pytest.raises(ValueError, match="missing key '%s'" % key):
            hgpt.HgptMatrix.from_json_dict(d)

    @pytest.mark.parametrize("d", [5, [1, 1], None])
    def test_a_block_must_be_an_object(self, d):
        with pytest.raises(ValueError, match="a block must be a JSON object"):
            hgpt.HgptMatrix.from_json_dict(d)

    def test_basis_style_defaults_to_orthonormal(self):
        M = hgpt.HgptMatrix.from_json_dict({"p": 0, "q": 0, "entries": [1.0]})
        assert M.basis_style == "orthonormal"

    @pytest.mark.parametrize("style", [["x"], "foo", 3, None, "Integer"])
    def test_basis_style_must_be_a_known_name(self, style):
        d = {"p": 0, "q": 0, "basis_style": style, "entries": [1.0]}
        with pytest.raises(ValueError, match='basis_style must be "integer" or '
                           '"orthonormal", got %s' % re.escape(repr(style))):
            hgpt.HgptMatrix.from_json_dict(d)

    def test_entries_must_be_numbers(self):
        with pytest.raises(ValueError, match="entries must be numbers"):
            hgpt.HgptMatrix.from_json_dict({"p": 0, "q": 0, "entries": {"a": 1}})


class TestShapes:
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (9,), (3, 3, 1)])
    def test_a_wrong_shape_is_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(2p\+1\) x \(2q\+1\)"):
            hgpt.HgptMatrix(1, 1, np.zeros(shape))
        with pytest.raises(ValueError, match=r"\(2p\+1\) x \(2q\+1\)"):
            hgpt.CgptMatrix(1, 1, np.zeros(shape, dtype=complex))


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


def written_out(L, E, R):
    """(L E R)_ij summed term by term, L_ik E_kl R_lj over k and l, with the
    sum of the terms' magnitudes, on which the rounding of the product rests."""
    want = np.zeros((L.shape[0], R.shape[1]), dtype=complex)
    scale = np.zeros(want.shape)
    for i in range(want.shape[0]):
        for j in range(want.shape[1]):
            terms = [complex(L[i, k] * E[k, l] * R[l, j])
                     for k in range(E.shape[0]) for l in range(E.shape[1])]
            want[i, j] = complex(math.fsum(t.real for t in terms),
                                 math.fsum(t.imag for t in terms))
            scale[i, j] = sum(abs(t) for t in terms)
    return want, scale


BLOCKS = [(p, q) for p in range(4) for q in range(4)]


class TestWrittenOutFormulas:
    """Each block operation against its formula summed term by term, within
    1e-14 of the magnitude sum of the terms."""

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    def test_rotate(self, rng, style):
        R = random_rotation(rng)
        for p, q in BLOCKS:
            N = hgpt.HgptMatrix(p, q, rng.normal(size=(2 * p + 1, 2 * q + 1)), style)
            Dp, Dq = hgpt.rotation_matrix(p, R, style), hgpt.rotation_matrix(q, R, style)
            want, scale = written_out(Dp.T, N.entries, Dq)
            got = hgpt.rotate(N, R)
            assert (got.p, got.q, got.basis_style) == (p, q, style)
            assert np.all(abs(got.entries - want.real) <= 1e-14 * scale)

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    def test_hgpt_from_cgpt(self, rng, style):
        for p, q in BLOCKS:
            M = random_cgpt(rng, p, q)
            A_p, A_q = basis_change(p, style).matrix, basis_change(q, style).matrix
            want, scale = written_out(A_p.conj().T, M.entries, A_q)
            N, residue = hgpt.hgpt_from_cgpt(M, style)
            assert (N.p, N.q, N.basis_style) == (p, q, style)
            assert np.all(abs(N.entries - want.real) <= 1e-14 * scale)
            assert abs(residue - np.max(abs(want.imag))) <= 1e-14 * np.max(scale)

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    def test_cgpt_from_hgpt(self, rng, style):
        for p, q in BLOCKS:
            N = hgpt.HgptMatrix(p, q, rng.normal(size=(2 * p + 1, 2 * q + 1)), style)
            A_p, A_q = basis_change(p, style).matrix, basis_change(q, style).matrix
            want, scale = written_out(A_p, N.entries, A_q.conj().T)
            M = hgpt.cgpt_from_hgpt(N)
            assert (M.p, M.q) == (p, q)
            assert np.all(abs(M.entries - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("style", ["orthonormal", "integer"])
    def test_forward_voltage(self, rng, style):
        blocks = [hgpt.HgptMatrix(p, q, rng.normal(size=(2 * p + 1, 2 * q + 1)), style)
                  for p, q in BLOCKS]
        for _ in range(3):
            x_r, x_s = (rng.normal(size=3) * 2.5 for _ in range(2))
            rr, rs = math.dist(x_r, (0, 0, 0)), math.dist(x_s, (0, 0, 0))
            terms = []
            for N in blocks:
                Ir = evaluated_ivector(N.p, style, x_r)
                Is = evaluated_ivector(N.q, style, x_s)
                den = rr ** (2 * N.p + 1) * rs ** (2 * N.q + 1)
                terms += [Ir[i] * N.entries[i, j] * Is[j] / den
                          for i in range(2 * N.p + 1) for j in range(2 * N.q + 1)]
            got = hgpt.forward_voltage(blocks, x_r, x_s)
            assert abs(got - math.fsum(terms)) <= 1e-14 * sum(abs(t) for t in terms)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("p, q", [(1, 1), (2, 2), (1, 2)])
    def test_a_computed_block_that_overflows_raises(self, p, q):
        N = hgpt.HgptMatrix(p, q, np.full((2 * p + 1, 2 * q + 1), 1e308))
        c = math.sqrt(0.5)
        R = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])   # pi/4 about x3
        with pytest.raises(ValueError, match="HGPT entries must be finite"):
            hgpt.rotate(N, R)
