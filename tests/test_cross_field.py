"""One pipeline, one answer: a group built from float generators gives the
same fixed spaces, patterns and Molien series as its exact built-in twin."""

import numpy as np
import pytest

from conftest import span_equal
from hgptsym import invariants as inv
from hgptsym import symgroups as sg

CELLS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]


def float_twin(name):
    exact = sg.build_group(name)
    gens = [np.asarray(G, dtype=float) for G in exact.generators]
    twin = sg.group_from_generators(name + "-float", gens)
    assert exact.is_rational and not twin.is_rational
    assert twin.order == exact.order
    return exact, twin


@pytest.mark.parametrize("name", ["C4", "D4", "O"])
def test_exact_and_float_fields_agree(name):
    exact, twin = float_twin(name)
    for p, q in CELLS:
        space = inv.symmetric_product_space(p, q)
        a = inv.invariant_subspace(space, exact)
        b = inv.invariant_subspace(space, twin)
        assert a.dimension == b.dimension, (name, p, q)
        assert span_equal(a.basis, b.basis), (name, p, q)
        pa, pb = inv.coefficient_pattern(a), inv.coefficient_pattern(b)
        assert pa.independent == pb.independent
        assert pa.zero == pb.zero
        assert pa.relations.keys() == pb.relations.keys()
        for pair, terms in pa.relations.items():
            other = dict(pb.relations[pair])
            assert [pp for pp, _ in terms] == [pp for pp, _ in pb.relations[pair]]
            for pp, c in terms:
                assert abs(float(c) - other[pp]) <= 1e-12, (name, p, q, pair)
    ma, mb = inv.molien_series(exact, 8), inv.molien_series(twin, 8)
    assert (ma.g, ma.h) == (mb.g, mb.h)
