"""Tests of the benchmark itself: span arithmetic, output checks, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
import workloads
from tracer import Span, Target

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- span arithmetic ----------------------------------------------------------------

def _nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds a2 [2, 3]) and b [5, 9]
    return [
        Span("outer", 0.0, 10.0, -1, 0, None),
        Span("a", 1.0, 4.0, 0, 100, None),
        Span("a2", 2.0, 3.0, 1, 0, None),
        Span("b", 5.0, 9.0, 0, 50, None),
        Span("b", 11.0, 12.0, -1, 50, None),
    ]


def test_self_time_subtracts_direct_children_only():
    assert tracer.self_times(_nested_spans()) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_root_time_counts_only_parentless_spans():
    assert tracer.root_time(_nested_spans()) == 11.0


def test_layer_metrics_aggregate_calls_self_time_and_points():
    targets = (Target("b", "m", "b", ("calls", "self_s", "ns_per_point",
                                      "ns_per_point_step")),
               Target("a", "m", "a", ("calls", "self_s")))
    m = tracer.layer_metrics(_nested_spans(), targets)
    assert m["b.calls"] == 2
    assert m["b.self_s"] == 5.0
    assert m["b.ns_per_point"] == pytest.approx(1e9 * 5.0 / 100)
    assert m["b.ns_per_point_step"] == pytest.approx(1e9 * 5.0 / 100)
    assert m["a.self_s"] == 2.0


def test_absent_layer_reads_zero():
    m = tracer.layer_metrics([], tracer.TARGETS)
    assert set(m) == set(tracer.metric_names()[:-2])
    assert all(v == 0 for v in m.values())


def test_tracer_records_nested_calls_and_restores_originals():
    import anosovlab
    from anosovlab import flow, fuchsian, model

    before = (anosovlab.build_model, model.build_model,
              fuchsian.DirichletDomain.__dict__["reduce_matrices"],
              flow.closed_geodesic_elements)
    tr = tracer.Tracer()
    tr.install()
    try:
        # modules the package does not import itself are rebound as well
        assert hasattr(sys.modules["anosovlab.cli"].main, "__wrapped__")
        assert hasattr(sys.modules["anosovlab.tableio"].write_resonances,
                       "__wrapped__")
        m = anosovlab.build_model(model="constant_curvature")
        g = np.array([[[1.0, 5.0], [0.0, 1.0]]])
        m.domain.reduce_matrices(g)
    finally:
        tr.uninstall()
    spans = tr.take()
    after = (anosovlab.build_model, model.build_model,
             fuchsian.DirichletDomain.__dict__["reduce_matrices"],
             flow.closed_geodesic_elements)
    assert after == before
    names = [s.name for s in spans]
    assert names == ["model.build_model", "fuchsian.DirichletDomain.reduce_matrices"]
    assert spans[1].points == 1 and spans[1].extras["rounds_max"] >= 1


def test_accept_ratio_counts_candidates_under_the_sampler():
    spans = [
        Span("surface.sample_octagon_positions", 0.0, 1.0, -1, 30, None),
        Span("surface.octagon_rho_max", 0.1, 0.2, 0, 256, None),
        Span("surface.octagon_rho_max", 2.0, 3.0, -1, 999, None),
    ]
    m = tracer.layer_metrics(spans)
    assert m["surface.sample_octagon_positions.accept_ratio"] == 30 / 256


# -- output checks reject a wrong reference ------------------------------------------

def test_c0_check():
    assert workloads.c0_matches(4.46, 0.07, 4.45)
    assert not workloads.c0_matches(4.46, 0.07, 4.45 + 0.5)


def test_finite_check():
    assert workloads.all_finite(np.ones(3), np.zeros(2))
    assert not workloads.all_finite(np.ones(3), np.array([0.0, np.nan]))


def test_conjugation_check():
    z = np.array([-0.5 + 1j, -0.5 - 1j, -1.0 + 0j])
    assert workloads.conjugation_closed(z)
    assert not workloads.conjugation_closed(np.array([-0.5 + 1j, -0.5 - 1.1j]))


def test_expansion_slack_check():
    assert workloads.expansion_slack(-0.5, 0.98) <= 1e-3
    assert workloads.expansion_slack(-0.5, 1.2) > 1e-3


def test_edge_check():
    good = [{"k": str(k), "gamma_minus": str(-0.5 - k),
             "gamma_plus": str(-0.5 - k)} for k in range(4)]
    assert max(workloads.edge_errors(good)) == 0.0
    bad = [dict(r) for r in good]
    bad[2]["gamma_plus"] = "-2.4"
    assert max(workloads.edge_errors(bad)) > 1e-3
    with pytest.raises(KeyError):
        workloads.edge_errors(good[:3])


def test_artifact_digest_sees_one_changed_byte(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"k,v\n0,1\n")
    first = workloads.tree_digest(tmp_path)
    (tmp_path / "a.csv").write_bytes(b"k,v\n0,2\n")
    assert workloads.tree_digest(tmp_path) != first


# -- metric names -----------------------------------------------------------------

def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_per_layer_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    printed = {n: tracer.metric_unit(n) for n in tracer.metric_names()}
    assert declared == printed


def test_workloads_match_benchmark_json():
    declared = [w["name"] for w in _benchmark_json()["workloads"]]
    assert declared == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_readme_names_every_per_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    missing = [n for n in tracer.metric_names() if "`%s`" % n not in text]
    assert missing == []


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corr-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
