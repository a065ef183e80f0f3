"""Point-group construction, closure, and the three group types."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import _contains
from hgptsym import symgroups as sg
from hgptsym.invariants import molien_series
from hgptsym.polyalg import integer_matrix

F = Fraction


EXPECTED = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7,
    "D1": 2, "D2": 4, "D3": 6, "D4": 8, "D5": 10, "D6": 12,
    "T": 12, "O": 24, "I": 60,
}


class TestType1:
    @pytest.mark.parametrize("name,order", sorted(EXPECTED.items()))
    def test_orders_and_verification(self, name, order):
        g = sg.build_group(name)
        assert g.order == order
        report = sg.verify_group(g)
        assert report.passed, report.failures

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_all_rotations(self, name):
        for E in sg.build_group(name):
            assert np.linalg.det(np.asarray(E, dtype=float)) == pytest.approx(1.0)

    def test_rational_groups_carry_exact_elements(self):
        for name in ("C1", "C2", "C4", "D2", "D4", "T", "O"):
            assert sg.build_group(name).is_rational, name
        for name in ("C3", "C5", "C6", "D3", "I"):
            assert not sg.build_group(name).is_rational, name

    def test_exact_elements_match_floats(self):
        g = sg.build_group("O")
        for E, X in zip(g.elements, g.exact_elements):
            assert np.max(np.abs(np.asarray(E) -
                                 np.array([[float(v) for v in r] for r in X]))) == 0


class TestType2:
    @pytest.mark.parametrize("name", ["C2i", "C4i", "D4i", "Ti", "Oi", "Ii"])
    def test_inversion_doubles_order(self, name):
        g = sg.build_group(name)
        base = sg.build_group(name[:-1])
        assert g.order == 2 * base.order
        dets = [round(float(np.linalg.det(np.asarray(E, dtype=float)))) for E in g]
        assert dets.count(1) == base.order and dets.count(-1) == base.order
        assert sg.verify_group(g).passed

    def test_contains_inversion(self):
        g = sg.build_group("C2i")
        assert any(np.max(np.abs(np.asarray(E) + np.eye(3))) < 1e-12 for E in g)


class TestType3:
    def test_c4_over_c2(self):
        g = sg.build_group("type3:C4/C2")
        assert g.order == 4
        assert sg.verify_group(g).passed
        dets = [round(float(np.linalg.det(np.asarray(E, dtype=float)))) for E in g]
        assert dets.count(1) == 2 and dets.count(-1) == 2
        # J itself is not an element (it pairs only with the non-subgroup coset)
        assert not any(np.max(np.abs(np.asarray(E) + np.eye(3))) < 1e-12 for E in g)

    @pytest.mark.parametrize("name", ["type3:C2/C1", "type3:C4/C2", "type3:D4/C4",
                                      "type3:D4/D2", "type3:D6/D3", "type3:O/T"])
    def test_generators_are_elements_and_close_to_the_group(self, name):
        g = sg.build_group(name)
        for G in g.generators:
            assert _contains(g.elements, G)
        closed = sg.group_from_generators("closure", g.generators)
        assert closed.order == g.order
        assert all(_contains(closed.elements, E) for E in g.elements)

    def test_rejects_wrong_index(self):
        with pytest.raises(ValueError):
            sg.type3_group(sg.build_group("C6"), sg.build_group("C2"))

    def test_rejects_non_subgroup(self):
        with pytest.raises(ValueError):
            sg.type3_group(sg.build_group("C4"), sg.build_group("D1"))

    @pytest.mark.parametrize("name", ["type3:C4i/C4", "type3:C2i/C1i"])
    def test_rejects_improper_g2_or_g1(self, name):
        # C4i/C4 would hold 8 rotations with repeats; C2i/C1i would be C2i itself
        with pytest.raises(ValueError, match="rotation groups"):
            sg.build_group(name)


class TestNaming:
    @pytest.mark.parametrize("bad", ["X9", "C", "D0", "Q4", "c4", "type3:C4"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError):
            sg.build_group(bad)

    def test_type3_name(self):
        assert sg.build_group("type3:C4/C2").name == "type3:C4/C2"


class TestGenerators:
    def test_custom_generators_close(self):
        g = sg.group_from_generators("flip", [np.diag([1.0, -1.0, -1.0])])
        assert g.order == 2
        assert sg.verify_group(g).passed

    def test_closure_cap(self):
        # a rotation by an irrational angle never closes; the cap must trip
        th = 1.0
        R = np.array([[np.cos(th), -np.sin(th), 0],
                      [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
        with pytest.raises(Exception):
            sg.group_from_generators("bad", [R])

    def test_icosahedral_traces(self):
        # rotation traces in I: 3 (identity), -1 (2-fold), 0 (3-fold),
        # 1 + 2cos(72) = phi and 1 + 2cos(144) = 1 - phi (5-fold)
        g = sg.build_group("I")
        phi = (1 + np.sqrt(5)) / 2
        traces = {round(float(np.trace(np.asarray(E))), 6) for E in g}
        assert traces == {3.0, -1.0, 0.0, round(phi, 6), round(1 - phi, 6)}


# the 32 crystallographic point groups: name -> (order, proper rotations)
TYPE1 = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6,
         "D2": 4, "D3": 6, "D4": 8, "D6": 12, "T": 12, "O": 24}
TYPE3 = ["C2/C1", "C4/C2", "C6/C3", "D2/C2", "D3/C3",
         "D4/C4", "D6/C6", "D4/D2", "D6/D3", "O/T"]
CRYSTALLOGRAPHIC = {**{n: (k, k) for n, k in TYPE1.items()},
                    **{n + "i": (2 * k, k) for n, k in TYPE1.items()},
                    **{"type3:" + s: (TYPE1[s.split("/")[0]], TYPE1[s.split("/")[1]])
                       for s in TYPE3}}


class TestCrystallographicGrid:
    def test_there_are_32(self):
        assert len(CRYSTALLOGRAPHIC) == 32

    @pytest.mark.parametrize("name", sorted(CRYSTALLOGRAPHIC))
    def test_order_rotations_and_verification(self, name):
        order, proper = CRYSTALLOGRAPHIC[name]
        g = sg.build_group(name)
        assert g.order == order
        dets = [round(float(np.linalg.det(E))) for E in g]
        assert dets.count(1) == proper and dets.count(-1) == order - proper
        report = sg.verify_group(g)
        assert report.passed, report.failures


def brute_force_residuals(g):
    """O(|G|^3) reference: the largest |E^T E - I| entry, and the largest
    distance from a product A B or an inverse A^T to its nearest element,
    each product scanned against every element."""
    elems = [np.array(E) for E in g.elements]
    S = np.array(elems)
    orth = max(np.max(np.abs(E.T @ E - np.eye(3))) for E in elems)
    close = 0.0
    for A in elems:
        P = np.array([A @ B for B in elems] + [A.T])
        close = max(close, np.abs(P[:, None] - S[None]).max(axis=(2, 3)).min(axis=1).max())
    return orth, close


class TestVerification:
    @pytest.mark.parametrize("name", ["C4", "D6", "O", "I", "type3:O/T"]
                             + sorted(set(CRYSTALLOGRAPHIC) - {"C4", "D6", "O", "type3:O/T"})
                             + ["Ii"])
    def test_residuals_match_brute_force(self, name):
        g = sg.build_group(name)
        report = sg.verify_group(g)
        orth, close = brute_force_residuals(g)
        assert report.max_orthogonality_residual == orth
        assert report.max_closure_residual == close

    def test_missing_rotation_fails_closure(self):
        c4 = sg.build_group("C4")
        report = sg.verify_group(sg.PointGroup("C4", c4.elements[:3], c4.generators))
        assert not report.passed
        assert report.failures == ["closure/inverse residual 1 exceeds 1e-09",
                                   "order 3, expected 4"]
        assert report.max_closure_residual == 1.0

    def test_duplicate_element(self):
        c4 = sg.build_group("C4")
        g = sg.PointGroup("C4 with a repeat", c4.elements + c4.elements[1:2], c4.generators)
        report = sg.verify_group(g)
        assert report.failures == ["duplicate elements 1 and 4"]
        assert not report.passed and report.max_closure_residual == 0.0

    def test_non_orthogonal_element(self):
        g = sg.PointGroup("C2", (np.eye(3), np.diag([1.0, -1.0, -1.0]) * (1 + 1e-6)), ())
        report = sg.verify_group(g)
        assert report.failures == ["element 1 not orthogonal (residual 2e-06)",
                                   "closure/inverse residual 2e-06 exceeds 1e-09"]
        assert report.max_orthogonality_residual == pytest.approx(2e-6, rel=1e-6)

    def test_identity_missing(self):
        g = sg.PointGroup("C2 without identity", sg.build_group("C2").elements[1:], ())
        report = sg.verify_group(g)
        assert report.failures == ["identity missing",
                                   "closure/inverse residual 2 exceeds 1e-09"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("k", [0, 3])
    def test_a_non_finite_element_is_named_and_fails(self, k, bad):
        E = list(sg.build_group("C4").elements)
        E[k] = np.full((3, 3), bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # the report says it all, silently
            report = sg.verify_group(sg.PointGroup("C4", tuple(E), ()))
        orth, close = report.max_orthogonality_residual, report.max_closure_residual
        assert not report.passed and not np.isfinite(orth) and not np.isfinite(close)
        assert report.failures == (["element %d not orthogonal (residual %.3g)" % (k, orth)]
                                   + ["identity missing"] * (k == 0)
                                   + ["closure/inverse residual %.3g exceeds 1e-09" % close])

    def test_one_infinite_entry_is_named(self):
        E = [np.array(M) for M in sg.build_group("D4").elements]
        E[5][1, 2] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sg.verify_group(sg.PointGroup("D4", tuple(E), ()))
        assert report.failures[0].startswith("element 5 not orthogonal")
        assert "identity missing" not in report.failures
        assert report.failures[-1].startswith("closure/inverse residual")
        assert not report.passed

    def test_a_non_finite_element_is_near_nothing(self):
        S = sg.build_group("C4").stack.copy()
        S[3] = np.nan
        assert sg._nearest(S, S)[:3].tolist() == [0.0] * 3 and np.isnan(sg._nearest(S, S)[3])
        assert sg._nearest(np.eye(3), S[3:]).tolist() == [np.inf]
        assert _contains(S, np.eye(3)) and not _contains(S, S[3])

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf"), -float("inf")])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            sg.verify_group(sg.build_group("C4"), tol)

    def test_orthogonality_is_checked_at_tol(self):
        g = sg.PointGroup("C2", (np.eye(3), np.diag([1.0, -1.0, -1.0]) * (1 + 1e-6)), ())
        assert sg.verify_group(g, 1e-5).passed
        assert sg.verify_group(g, 1e-6).failures == [
            "element 1 not orthogonal (residual 2e-06)",
            "closure/inverse residual 2e-06 exceeds 1e-06"]

    def test_empty_group(self):
        report = sg.verify_group(sg.PointGroup("C1", np.zeros((0, 3, 3)), ()))
        assert report.failures == ["identity missing", "order 0, expected 1"]
        assert report.max_orthogonality_residual == report.max_closure_residual == 0.0

    def test_near_duplicates_are_listed_as_the_full_table_lists_them(self):
        S = sg.build_group("I").stack
        shift = np.array([-0.3, 0.5, 0.5, 2.0])[:, None, None] * sg.MATCH_TOL
        near = np.concatenate([S, S[[7, 3, 7, 5]] + shift])      # keys not in index order
        report = sg.verify_group(sg.PointGroup("I", near, ()))
        pairs = np.argwhere(np.triu(sg._distances(near, near) < sg.MATCH_TOL, 1))
        assert pairs.tolist() == [[3, 61], [7, 60], [7, 62], [60, 62]]
        dups = ["duplicate elements %d and %d" % (i, j) for i, j in pairs]
        assert [f for f in report.failures if f.startswith("duplicate")] == dups


# (max orthogonality residual, max closure residual) of each built-in float
# group; its J-extension has the same, and a rational group has (0.0, 0.0)
FLOAT_RESIDUALS = {
    "C3": (1.1102230246251565e-16, 6.363854784884189e-16),
    "C5": (2.220446049250313e-16, 2.6556679409574677e-16),
    "C6": (2.220446049250313e-16, 8.286817471267754e-16),
    "C7": (4.440892098500626e-16, 5.551115123125783e-16),
    "C8": (3.3306690738754696e-16, 7.378146288716786e-16),
    "C9": (1.2212453270876722e-15, 8.881784197001252e-16),
    "C10": (2.220446049250313e-16, 2.220446049250313e-16),
    "C11": (4.440892098500626e-16, 5.828670879282072e-16),
    "C12": (6.661338147750939e-16, 1.1102230246251565e-15),
    "D3": (1.1102230246251565e-16, 6.363854784884189e-16),
    "D5": (1.1102230246251565e-16, 2.220446049250313e-16),
    "D6": (2.220446049250313e-16, 8.286817471267754e-16),
    "D7": (4.440892098500626e-16, 5.551115123125783e-16),
    "D8": (1.1102230246251565e-16, 7.127430867131293e-16),
    "I": (4.440892098500626e-16, 8.008622089453101e-16),
}
BUILT_IN = {**{"C%d" % n: n for n in range(1, 13)}, **{"D%d" % n: 2 * n for n in range(1, 9)},
            "T": 12, "O": 24, "I": 60}
# (name, order, expected order) of every built-in group
REPORTS = ([(n, k, k) for n, k in BUILT_IN.items()]
           + [(n + "i", 2 * k, 2 * k) for n, k in BUILT_IN.items()]
           + [("type3:O/T", 24, None), ("type3:D4/C4", 8, None)])


class TestBuiltInReports:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name,order,expected", REPORTS)
    def test_report_is_pinned_field_for_field(self, name, order, expected):
        """Every field as pinned; a float residual within one ulp of 1, as the
        rounding of a 3 x 3 product may differ by one between BLAS builds."""
        report = sg.verify_group(sg.build_group(name))
        assert (report.name, report.order, report.expected_order, report.passed,
                report.failures) == (name, order, expected, True, [])
        got = (report.max_orthogonality_residual, report.max_closure_residual)
        base = name.rstrip("i")
        want = FLOAT_RESIDUALS.get(base, (0.0, 0.0))
        tol = np.finfo(float).eps if base in FLOAT_RESIDUALS else 0.0
        assert all(abs(g - w) <= tol for g, w in zip(got, want)), got


@pytest.mark.filterwarnings("error")
class TestRefusalsWithoutWarnings:
    def test_an_overflowing_element_is_reported(self):
        report = sg.verify_group(sg.PointGroup("x", [1e200 * np.eye(3)], []))
        assert (report.order, report.passed) == (1, False)
        assert report.max_orthogonality_residual == report.max_closure_residual == np.inf
        assert report.failures == ["element 0 not orthogonal (residual inf)", "identity missing",
                                   "closure/inverse residual inf exceeds 1e-09"]

    def test_a_non_finite_g1_is_not_a_subgroup(self):
        g1 = sg.PointGroup("x", [np.eye(3), np.full((3, 3), np.nan)], [])
        with pytest.raises(ValueError, match="^G1 is not a subgroup of G2$"):
            sg.type3_group(sg.build_group("C4"), g1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_generator_is_refused_by_index(self, bad):
        with pytest.raises(ValueError, match="^generator 1 has an entry that is not finite$"):
            sg.group_from_generators("x", [np.eye(3), np.full((3, 3), bad)])

    def test_an_overflowing_generator_exceeds_the_closure_cap(self):
        with pytest.raises(ValueError, match="closure exceeded 240 elements"):
            sg.group_from_generators("x", [1e200 * np.eye(3)])


# ---------------------------------------------------------------------------
# matching by key window against the full search
# ---------------------------------------------------------------------------

def same_floats(a, b):
    return np.array_equal(a, b, equal_nan=True)


class TestKeyedMatching:
    def test_equal_keys_with_different_entries_are_not_confused(self):
        v = np.arange(9.0) - 4.0
        v -= (v @ sg._KEY) / (sg._KEY @ sg._KEY) * sg._KEY     # orthogonal to the weights
        A = np.eye(3)
        B = A + 0.5 * (v / np.abs(v).max()).reshape(3, 3)
        assert abs(sg._KEY @ (A - B).ravel()) < 1e-15 and np.abs(A - B).max() == 0.5
        E = np.array([A, B])
        keyed = sg._Keyed(E)
        assert keyed.nearest(E, sg.MATCH_TOL).tolist() == [0.0, 0.0]
        P = np.array([A, B]) + 0.5 * sg.MATCH_TOL
        assert same_floats(keyed.nearest(P, sg.MATCH_TOL), sg._nearest(P, E))
        i, j, d, count = keyed.pairs(P, sg.MATCH_TOL)
        assert count.tolist() == [2, 2]
        assert sorted(zip(i[d < sg.MATCH_TOL].tolist(), j[d < sg.MATCH_TOL].tolist())) == [
            (0, 0), (1, 1)]
        g = sg.PointGroup("C1", E, ())
        report = sg.verify_group(g)
        assert report.max_closure_residual == brute_force_residuals(g)[1] > 0.5
        assert not any(f.startswith("duplicate") for f in report.failures)

    @pytest.mark.parametrize("factor", [0.5, 0.99, 2.0])
    def test_a_product_near_an_element(self, factor):
        S = sg.build_group("I").stack
        P = S[[11, 40, 23]].copy()
        P[0, 1, 2] += factor * sg.MATCH_TOL
        P[1] -= factor * sg.MATCH_TOL
        P[2] += factor * sg.MATCH_TOL * np.sign(sg._KEY).reshape(3, 3)    # the widest key gap
        got = sg._Keyed(S).nearest(P, sg.MATCH_TOL)
        assert same_floats(got, sg._nearest(P, S))
        assert (got < sg.MATCH_TOL).tolist() == [factor < 1] * 3
        i, j, d, _ = sg._Keyed(S).pairs(P, sg.MATCH_TOL)
        assert sorted(zip(i[d < sg.MATCH_TOL].tolist(), j[d < sg.MATCH_TOL].tolist())) == (
            [(0, 11), (1, 40), (2, 23)] if factor < 1 else [])
        assert got == pytest.approx(factor * sg.MATCH_TOL, rel=1e-6)

    def test_every_pair_within_tol_is_a_candidate(self, rng):
        S = sg.build_group("Ii").stack
        edge = 0.99 * sg.MATCH_TOL * np.sign(sg._KEY).reshape(3, 3)
        P = np.concatenate([S, S + rng.uniform(-1, 1, S.shape) * sg.MATCH_TOL, S + edge,
                            S - edge, S + rng.uniform(-1, 1, S.shape) * 1e-3])
        i, j, d, count = sg._Keyed(S).pairs(P, sg.MATCH_TOL)
        full = sg._distances(P, S)
        assert np.array_equal(d, full[i, j]) and count.sum() == len(i)
        assert set(zip(*np.nonzero(full < sg.MATCH_TOL))) <= set(zip(i.tolist(), j.tolist()))
        for tol in (1e-9, 1e-3, 0.3, 2.0):
            assert same_floats(sg._Keyed(S).nearest(P, tol), sg._nearest(P, S))

    def test_empty_stacks(self):
        S = sg.build_group("C4").stack
        assert sg._Keyed(np.zeros((0, 3, 3))).nearest(S, sg.MATCH_TOL).tolist() == [np.inf] * 4
        assert sg._Keyed(S).nearest(np.zeros((0, 3, 3)), sg.MATCH_TOL).shape == (0,)
        assert not _contains(np.zeros((0, 3, 3)), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_give_the_full_search(self, bad):
        S = sg.build_group("D4").stack.copy()
        P = np.concatenate([S, S[:2]])
        P[-1, 0, 0] = bad
        assert same_floats(sg._Keyed(S).nearest(P, sg.MATCH_TOL), sg._nearest(P, S))
        S[3, 2, 1] = bad
        assert same_floats(sg._Keyed(S).nearest(P, sg.MATCH_TOL), sg._nearest(P, S))
        i, j, d, _ = sg._Keyed(S).pairs(P, sg.MATCH_TOL)
        full = sg._distances(P, S) < sg.MATCH_TOL
        assert set(zip(*np.nonzero(full))) == set(zip(i[d < sg.MATCH_TOL].tolist(),
                                                       j[d < sg.MATCH_TOL].tolist()))


class TestMemoisation:
    def test_built_once(self):
        assert sg.build_group("O") is sg.build_group("O")
        assert sg.build_group("type3:O/T") is sg.build_group("type3:O/T")

    def test_arrays_are_read_only(self):
        g = sg.build_group("O")
        for arrays in (g.elements, g.generators, (g.stack,)):
            with pytest.raises(ValueError):
                arrays[0][0, 0] = 2.0
        assert g.elements[0][0, 0] == 1.0

    def test_errors_are_not_cached(self):
        size = sg.build_group.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                sg.build_group("Q4")
        assert sg.build_group.cache_info().currsize == size

    def test_extensions_leave_memoised_inputs_alone(self):
        o, t = sg.build_group("O"), sg.build_group("T")
        before = (o.stack.copy(), t.stack.copy(), o.exact_elements, t.exact_elements)
        oi = sg.adjoin_inversion(o)
        o_t = sg.type3_group(o, t)
        assert oi.order == 48 and o_t.order == 24
        assert np.array_equal(oi.stack[:24], o.stack)
        assert np.array_equal(o_t.stack[:12], t.stack)
        assert np.array_equal(o.stack, before[0]) and np.array_equal(t.stack, before[1])
        assert (o.exact_elements, t.exact_elements) == before[2:]
        assert sg.verify_group(oi).passed and sg.verify_group(o_t).passed

    def test_caller_arrays_stay_writable(self):
        R = np.diag([1.0, -1.0, -1.0])
        g = sg.group_from_generators("flip", [R])
        assert R.flags.writeable
        R[0, 0] = 5.0
        assert g.generators[0][0, 0] == 1.0


class TestEquality:
    def test_distinct_groups_compare_without_raising(self):
        c4 = sg.build_group("C4")
        rebuilt = sg.group_from_generators("C4", c4.generators)
        assert rebuilt.order == 4
        assert not rebuilt.is_rational and c4.is_rational
        assert (c4 == rebuilt) is False and c4 != rebuilt
        assert c4 != sg.build_group("C2") and c4 != "C4"


# ---------------------------------------------------------------------------
# the one closure against the two it replaced
# ---------------------------------------------------------------------------

def _table_group(name, generators, expected_order=None):
    """The closure as it matched products before key windows: one table of
    max-abs distances from each round's products to the found elements and
    to each other, an earlier product's column read off its lower triangle."""
    gens = [np.array(G, dtype=object).reshape(3, 3) for G in generators]
    exact = all(sg.is_rational(x) for G in gens for x in G.flat)
    floats = np.array([G.astype(float) for G in gens]).reshape(-1, 3, 3)
    if exact:
        ints = [integer_matrix(G) for G in gens]
        elems = [integer_matrix(np.identity(3, dtype=object))]
    found = np.empty((sg.MAX_ORDER, 3, 3))
    found[0] = np.identity(3)
    start, n = 0, 1
    while start < n:
        P = (floats[None] @ found[start:n, None]).reshape(-1, 3, 3)
        near = sg._distances(P, np.concatenate([found[:n], P])) < sg.MATCH_TOL
        new = np.flatnonzero(~(near[:, :n].any(axis=1)
                               | np.tril(near[:, n:], -1).any(axis=1)))
        if n + len(new) > sg.MAX_ORDER:
            raise ValueError("closure exceeded %d elements; bad group spec" % sg.MAX_ORDER)
        if exact:
            for k in new.tolist():
                (G, a), (E, b) = ints[k % len(gens)], elems[start + k // len(gens)]
                N, den = G @ E, a * b
                c = math.gcd(den, *N.flat)
                elems.append((N // c, den // c))
                P[k] = N / den
        found[n:n + len(new)] = P[new]
        start, n = n, n + len(new)
    return sg.PointGroup(name, found[:n], floats,
                         tuple(tuple(tuple(F(x, den) for x in row) for row in N.tolist())
                               for N, den in elems) if exact else None)


_PYTHAGOREAN = np.array([[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]],
                        dtype=object)
CUSTOM_GENERATORS = {
    "flip": [np.diag([1.0, -1.0, -1.0])],
    "int flip": [((1, 0, 0), (0, -1, 0), (0, 0, -1))],
    "Fraction C4": [tuple(tuple(map(Fraction, r)) for r in sg._rot_z(4))],
    "float T": [np.array(sg._ROT2_X1, dtype=float), sg._CYCLE_XYZ],
    "QOQ^T": [_PYTHAGOREAN @ np.array(G, dtype=object) @ _PYTHAGOREAN.T
              for G in sg._GENERATORS["O"](0)],
    "float QOQ^T": [np.array(_PYTHAGOREAN @ np.array(G, dtype=object) @ _PYTHAGOREAN.T,
                             dtype=float) for G in sg._GENERATORS["O"](0)],
    "3-fold about (1,1,1) and a flip": [sg._axis_rotation((1, 1, 1), 2 * np.pi / 3),
                                        np.diag([1.0, -1.0, -1.0])],
    "I by 3- and 5-fold": [sg._axis_rotation(((1 + 5 ** 0.5) / 2, 1.0, 0.0), 2 * np.pi / 5),
                           sg._axis_rotation((1.0, 1.0, 1.0), 2 * np.pi / 3)],
    **{"generators of " + n: list(sg.build_group(n).generators)
       for n in ["Ii", "type3:O/T", "type3:D6/D3", "D7i"]},
}


class TestClosureAgainstTheTable:
    @pytest.mark.parametrize("family,n", [(f, n) for f in "CD" for n in range(1, 9)]
                             + [("T", 0), ("O", 0), ("I", 0)])
    def test_built_in_families(self, family, n):
        gens = sg._GENERATORS[family](n)
        got, want = sg.group_from_generators("g", gens), _table_group("g", gens)
        assert got.stack.tobytes() == want.stack.tobytes()
        assert got.exact_elements == want.exact_elements

    @pytest.mark.parametrize("name", sorted(CUSTOM_GENERATORS))
    def test_custom_generators(self, name):
        gens = CUSTOM_GENERATORS[name]
        got, want = sg.group_from_generators("g", gens), _table_group("g", gens)
        assert got.order > 1
        assert got.stack.tobytes() == want.stack.tobytes()
        assert got.exact_elements == want.exact_elements

    def test_both_stop_at_max_order(self):
        R = sg._axis_rotation((0.0, 0.0, 1.0), 1.0)
        for close in (sg.group_from_generators, _table_group):
            with pytest.raises(ValueError, match="closure exceeded"):
                close("C_inf", [R])


def _reference_close_float(generators, max_order=sg.MAX_ORDER):
    elems = np.empty((max_order, 3, 3))
    elems[0] = np.eye(3)
    gens = [np.asarray(g, dtype=float) for g in generators]
    i, n = 0, 1
    while i < n:
        for g in gens:
            P = g @ elems[i]
            if not _contains(elems[:n], P):
                assert n < max_order
                elems[n] = P
                n += 1
        i += 1
    return elems[:n]


def _reference_close_exact(generators, max_order=sg.MAX_ORDER):
    F = Fraction
    ident = tuple(tuple(F(1) if i == j else F(0) for j in range(3)) for i in range(3))

    def mul(A, B):
        return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
                     for i in range(3))

    seen = {ident}
    order = [ident]
    gens = [tuple(tuple(F(v) for v in row) for row in g) for g in generators]
    for E in order:
        for g in gens:
            P = mul(g, E)
            if P not in seen:
                seen.add(P)
                order.append(P)
                assert len(order) <= max_order
    return order


def _negated(E):
    return tuple(tuple(-x for x in row) for row in E)


def _reference_group(name):
    """(stack, generators, exact_elements) of a named group, closed by the
    exact or the float reference closure as the field was once chosen, and
    extended by concatenation."""
    J = np.array(sg.J_MATRIX, dtype=float)
    if name.startswith("type3:"):
        (s2, _, x2), (s1, gens1, x1) = map(_reference_group, name[6:].split("/"))
        off = ~(sg._nearest(s2, s1) < sg.MATCH_TOL)
        coset = J @ s2[off]
        exact = None
        if x1 is not None and x2 is not None:
            exact = x1 + tuple(_negated(E) for E in x2 if E not in set(x1))
        return np.concatenate([s1, coset]), gens1 + [coset[0]], exact
    if name.endswith("i"):
        stack, gens, exact = _reference_group(name[:-1])
        exact = None if exact is None else exact + tuple(map(_negated, exact))
        return np.concatenate([stack, J @ stack]), gens + [J], exact
    family, n = name[0], int(name[1:] or 0)
    gens = sg._GENERATORS[family](n)
    if family in "TO" or (family in "CD" and n in (1, 2, 4)):
        exact = tuple(_reference_close_exact(gens))
        stack = np.array(exact, dtype=float)
    else:
        exact, stack = None, _reference_close_float(gens)
    return stack, [np.array(G, dtype=float) for G in gens], exact


CLOSURE_NAMES = [f + str(n) for f in "CD" for n in range(1, 9)] + ["T", "O", "I"]
CLOSURE_NAMES += [n + "i" for n in CLOSURE_NAMES] + [
    "type3:" + s for s in ["C2/C1", "C4/C2", "C6/C3", "D4/C4", "D4/D2", "D6/D3", "O/T"]]


class TestOneClosure:
    @pytest.mark.parametrize("name", CLOSURE_NAMES)
    def test_matches_the_exact_and_float_closures(self, name):
        g = sg.build_group(name)
        stack, gens, exact = _reference_group(name)
        assert g.stack.tobytes() == stack.tobytes()
        assert [G.tobytes() for G in g.generators] == [G.tobytes() for G in gens]
        assert g.exact_elements == exact
        assert all(type(x) is Fraction for E in g.exact_elements or () for r in E for x in r)

    @pytest.mark.parametrize("gens", [
        [((1, 0, 0), (0, -1, 0), (0, 0, -1))],
        [np.diag([1, -1, -1])],
        [tuple(tuple(map(Fraction, r)) for r in sg._rot_z(4))],
        [sg._ROT2_X1, sg._CYCLE_XYZ],
    ])
    def test_int_or_fraction_generators_make_a_rational_group(self, gens):
        g = sg.group_from_generators("g", gens)
        assert g.is_rational and sg.verify_group(g).passed
        assert all(type(x) is Fraction for E in g.exact_elements for r in E for x in r)
        assert np.array_equal(g.stack, np.array(g.exact_elements, dtype=float))

    @pytest.mark.parametrize("gens", [
        [np.diag([1.0, -1.0, -1.0])],
        [np.array(sg._ROT2_X1, dtype=float), sg._CYCLE_XYZ],      # one float is enough
        [np.diag([True, True, True])],                           # bools are not rational
    ])
    def test_any_float_generator_makes_a_float_group(self, gens):
        g = sg.group_from_generators("g", gens)
        assert not g.is_rational and g.exact_elements is None
        assert sg.verify_group(g).passed

    def test_a_conjugated_group_closes_over_a_denominator(self):
        # O conjugated by a Pythagorean rotation: rational, with entries over 25
        Q = np.array([[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]], dtype=object)
        gens = [Q @ np.array(G, dtype=object) @ Q.T for G in sg._GENERATORS["O"](0)]
        g = sg.group_from_generators("QOQ^T", gens)
        assert g.is_rational and g.order == 24 and sg.verify_group(g).passed
        assert integer_matrix(np.array(g.exact_elements, dtype=object))[1] > 1
        assert all(type(x) is Fraction for E in g.exact_elements for r in E for x in r)
        assert np.array_equal(g.stack, np.array(g.exact_elements, dtype=float))
        got, want = molien_series(g, 12), molien_series(sg.build_group("O"), 12)
        assert (got.g, got.h) == (want.g, want.h)

    def test_an_infinite_group_stops_at_max_order(self):
        R = sg._axis_rotation((0.0, 0.0, 1.0), 1.0)      # irrational angle / pi
        with pytest.raises(ValueError, match="closure exceeded %d" % sg.MAX_ORDER):
            sg.group_from_generators("C_inf", [R])

    def test_expected_orders_are_the_built_in_orders(self):
        for f, n in [("C", 5), ("D", 3), ("T", 0), ("O", 0), ("I", 0)]:
            name = f + (str(n) if n else "")
            assert sg.build_group(name).order == sg.EXPECTED_ORDERS[f](n)
        with pytest.raises(RuntimeError, match="expected 3"):
            sg.group_from_generators("C4 as C3", sg._GENERATORS["C"](4), 3)
