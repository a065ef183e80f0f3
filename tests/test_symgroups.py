"""Point-group construction, closure, and the three group types."""

import numpy as np
import pytest

from hgptsym import symgroups as sg


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
