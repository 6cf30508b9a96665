"""Fast self-test of the benchmark harness (run from the repository root)::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np                              # noqa: E402

import conetorsion as ct                        # noqa: E402
import run                                      # noqa: E402
import tracer as tracing                        # noqa: E402
import workloads                                # noqa: E402
from conetorsion import geometry, quantities    # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_excludes_children_and_bookkeeping():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def inner():
        clock.advance(2.0)

    def bookkeeping(tracer, args, result):
        clock.advance(0.125)      # e.g. a repeat digest: no layer's time

    def outer():
        clock.advance(1.0)
        calls["inner"]()
        clock.advance(0.5)
        calls["inner"]()

    def failing():
        clock.advance(0.25)
        raise ValueError("boom")

    calls = {"inner": tr.wrap("fem.solve_s", inner, bookkeeping)}
    clock.advance(0.25)                           # outside every span
    tr.wrap("fem.assemble_s", outer)()
    with pytest.raises(ValueError):
        tr.wrap("mesher.refine_s", failing)()
    m = tr.metrics(wall_s=clock.t)
    assert m["fem.solve_s"] == 4.0
    assert m["fem.assemble_s"] == 1.5
    assert m["mesher.refine_s"] == 0.25
    assert m["trace.unattributed_s"] == 0.25
    assert tr.top_s == 4.0 + 1.5 + 0.25 + 2 * 0.125
    assert tr._stack == []


def test_repeat_ratios_on_a_tiny_mesh():
    spec = ct.make_sector_domain(np.pi / 2, ct.ConstantRadius(1.0), 32)
    mesh = ct.triangulate(spec, 0.25)
    a, b, _ = ct.boundary_partition(spec).all_segments()
    pts = mesh.vertices
    tr = tracing.Tracer()
    with tracing.installed(tr):
        geometry.polyline_distance(pts, a, b)
        geometry.polyline_distance(pts, a, b)            # repeat of the first
        geometry.polyline_distance(pts[:5], a, b)        # new input
        u = ct.solve(ct.assemble(mesh, 2))
        z = ct.compute_center(u, ct.normal_span(ct.boundary_partition(spec)))
        ct.deficits(u, z)    # GAMMA0 trace, then GAMMA1 and GAMMA0 again
    m = tr.metrics(wall_s=1.0)
    n = len(pts) * len(a)
    assert m["geometry.distance_calls"] == 3
    assert m["geometry.distance_pairs"] == 2 * n + 5 * len(a)
    assert m["geometry.distance_repeat_ratio"] == n / (2 * n + 5 * len(a))
    assert m["quantities.edge_trace_calls"] == 3
    assert m["quantities.edge_trace_repeat_ratio"] == 1 / 3
    assert m["mesher.triangles"] == 0              # triangulated before tracing
    assert m["fem.dofs"] == u.coeffs.size
    assert m["quantities.identity_s"] > 0          # nested call was wrapped
    assert set(m) | {"trace.overhead_s"} == set(tracing.PER_LAYER)
    assert not hasattr(quantities.edge_trace, "__wrapped__")   # restored


def test_seed_jitters_amplitudes_only():
    assert workloads.jitter((0.02, 0.04), 0) == (0.02, 0.04)
    j = workloads.jitter((0.02, 0.04), 5)
    assert j == workloads.jitter((0.02, 0.04), 5)
    assert j != workloads.jitter((0.02, 0.04), 6)
    for v, nominal in zip(j, (0.02, 0.04)):
        assert abs(v / nominal - 1) <= workloads.JITTER
    for name, w in workloads.WORKLOADS.items():
        p0, p5 = w.build(ct, 0)["params"], w.build(ct, 5)["params"]
        assert p0["h"] == p5["h"] and p0["samples"] == p5["samples"], name


def triangle_counts(name, seed):
    cfg = workloads.WORKLOADS[name].build(ct, seed)
    specs = ([s for _, s in cfg["family"].members] if "family" in cfg
             else [cfg["spec"]])
    return [ct.triangulate(s, cfg["h"]).n_triangles for s in specs]


@pytest.mark.parametrize("name,seeds", [("sweep-disk3", range(1, 3)),
                                        ("poincare-quarter4", range(1, 12)),
                                        ("identity-quarter4", range(1, 12))])
def test_every_seed_meshes_the_same_number_of_triangles(name, seeds):
    nominal = triangle_counts(name, 0)
    for seed in seeds:
        assert triangle_counts(name, seed) == nominal, seed


def test_compare_reports_zero_for_equal_values(tmp_path, capsys):
    rec = {"w": {"seed": 0, "values": {"row[0].R": 1.0, "row[1].R": 2.0,
                                       "x": float("nan")}}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(rec))
    rec["w"]["values"]["row[1].R"] = 2.0 * (1 + 1e-12)
    b.write_text(json.dumps(rec))
    assert run.compare(str(a), str(a)) == 0
    assert "all values                               max relative change 0\n" \
        in capsys.readouterr().out
    run.compare(str(a), str(b))
    out = capsys.readouterr().out
    assert "row.R" in out and "1e-12" in out


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit(m["name"])
