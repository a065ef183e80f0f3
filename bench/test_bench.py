"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def test_character_oracle_reproduces_published_table():
    for group, cells in oracle.PUBLISHED_DIMS.items():
        for (p, q), dim in cells.items():
            assert oracle.dim_symmetric_product(group, p, q) == dim, (group, p, q)


def test_character_oracle_group_orders():
    want = {"C6": 6, "D5": 10, "T": 12, "O": 24, "I": 60, "Oi": 48, "type3:O/T": 24}
    assert {g: oracle.group_order(g) for g in want} == want


def test_declared_metrics_match_the_harness():
    e2e, layers, workloads = _declared()
    assert e2e == run.END_TO_END_UNITS
    assert layers == tracer.metric_units()
    assert set(workloads) < set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(workload, trace):
    e2e, layers, _ = _declared()
    final, record = run.run_workload(workload, seed=7, seconds=0.1, trace=trace, tiny=True)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    want = layers if trace else e2e
    assert {k: m["unit"] for k, m in final["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in final["metrics"].values())
    assert record["failed_frac"] == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(42) == 75.0      # exact-grid pass
    assert run.tail_percentile(61) == 75.0      # float-grid pass
    assert run.tail_percentile(1032) == 99.0    # hgpt-field pass
    assert run.tail_percentile(3) == 50.0


def test_tampered_answer_counts_as_failed(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "hgptsym" / "cli.py"
    text = cli.read_text()
    honest = '"dimension": inv.dimension, "basis": _poly_texts(inv.basis),\n' \
             '              "coefficient_pattern"'
    assert text.count(honest) == 1
    cli.write_text(text.replace(honest, honest.replace("inv.dimension,",
                                                       "inv.dimension + (args.q == 2),")))
    code = ("import sys, json; sys.path.insert(0, 'bench'); import run; "
            "print(json.dumps(run.run_workload('exact-grid', 0, 0.1, False, tiny=True)[1]))")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    record = json.loads(out.strip().splitlines()[-1])
    assert record["attempted"] == 2
    assert record["failed_frac"] == 0.5
    assert "character formula" in record["failures"][0]


def test_tracer_wraps_aliases_and_counts_self_time():
    from hgptsym import cli, harmonics, hgpt, invariants, polyalg
    original = harmonics.real_basis
    t = tracer.Tracer()
    t.install()
    try:
        assert hgpt.real_basis is harmonics.real_basis is invariants.real_basis
        assert harmonics.real_basis is not original
        assert invariants.rational_rref is polyalg.rational_rref
        assert cli.main(["invariants", "--group", "C4", "--p", "1", "--q", "1",
                         "--format", "json"]) == 0
    finally:
        t.uninstall()
    assert harmonics.real_basis is original and hgpt.real_basis is original
    m = t.metrics()
    assert m["cli.main.calls"] == 1
    assert m["invariants.invariant_subspace.calls"] == 1
    assert m["invariants.action_matrix.calls"] == 4
    assert m["invariants.action_matrix.entries"] == 4 * 6 ** 2
    assert m["symgroups.elements"] == 4
    assert m["polyalg.Polynomial.compose_linear.calls"] > 0
    assert m["polyalg.rational_rref.calls"] > 0
    assert 0.0 <= m["harmonics.real_basis.reuse_frac"] < 1.0
    by_id = {s[0]: s for s in t.spans}
    root = [s for s in t.spans if s[4] == -1]
    assert [s[1] for s in root] == ["cli.main"]
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(root[0][3] - root[0][2], rel=1e-9)
    assert all(by_id[s[4]][2] <= s[2] and s[3] <= by_id[s[4]][3] for s in t.spans if s[4] >= 0)


def test_tracer_reports_zero_for_a_removed_function(monkeypatch):
    from hgptsym import polyalg
    monkeypatch.delattr(polyalg.Polynomial, "compose_linear")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.metrics()["polyalg.Polynomial.compose_linear.calls"] == 0
