"""Point-group construction, closure, and the three group types."""

from fractions import Fraction

import numpy as np
import pytest

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
            assert sg._contains(g.elements, G)
        closed = sg.group_from_generators("closure", g.generators)
        assert closed.order == g.order
        assert all(sg._contains(closed.elements, E) for E in g.elements)

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
    distance from a product A B or an inverse A^T to its nearest element."""
    elems = [np.array(E) for E in g.elements]
    orth = max(np.max(np.abs(E.T @ E - np.eye(3))) for E in elems)
    close = 0.0
    for A in elems:
        for P in [A @ B for B in elems] + [A.T]:
            close = max(close, min(np.max(np.abs(P - E)) for E in elems))
    return orth, close


class TestVerification:
    @pytest.mark.parametrize("name", ["C4", "D6", "O", "I", "type3:O/T"])
    def test_residuals_match_brute_force(self, name):
        g = sg.build_group(name)
        report = sg.verify_group(g)
        orth, close = brute_force_residuals(g)
        assert abs(report.max_orthogonality_residual - orth) <= 1e-15
        assert abs(report.max_closure_residual - close) <= 1e-15

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

    def test_equal_by_name_rationality_and_elements(self):
        o = sg.build_group("O")
        copy = sg.PointGroup(o.name, o.elements, o.generators, o.exact_elements)
        assert copy is not o and copy == o and hash(copy) == hash(o)
        assert sg.PointGroup("O'", o.elements, o.generators, o.exact_elements) != o
        assert sg.PointGroup(o.name, o.elements, o.generators) != o     # not rational
        assert sg.PointGroup(o.name, o.elements[::-1], o.generators,
                             o.exact_elements[::-1]) != o               # other order
        assert {o: 1}[copy] == 1

    def test_hash_is_stored(self):
        g = sg.build_group("I")
        assert hash(g) == g._hash == hash((g.name, False, g.stack.tobytes()))
        assert {g, sg.build_group("I"), sg.build_group("Ii")} == {g, sg.build_group("Ii")}


# ---------------------------------------------------------------------------
# the one closure against the two it replaced
# ---------------------------------------------------------------------------

def _reference_close_float(generators, max_order=sg.MAX_ORDER):
    elems = np.empty((max_order, 3, 3))
    elems[0] = np.eye(3)
    gens = [np.asarray(g, dtype=float) for g in generators]
    i, n = 0, 1
    while i < n:
        for g in gens:
            P = g @ elems[i]
            if not sg._contains(elems[:n], P):
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
            sg._group("C4 as C3", sg._GENERATORS["C"](4), 3)
