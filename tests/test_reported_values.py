"""Every value the benchmark reports, and demo 04's CSV, against their records.

One seed-0 iteration of each workload in ``bench/workloads.py`` (build,
execute, report) must give the values stored in the newest ``BENCH_*.json``,
within ``|a - b| <= RTOL |b| + ATOL`` (NaN equals NaN).  The moves seen so
far between records of unchanged meaning are 1.24e-9 relative (a CG
preconditioner change, ``identity_residual``), 4.5e-10 relative (a CG start
vector), 1.5e-12 absolute (the direct/CG crossover), 5.6e-9 relative (the
uncorrected CG solve stopped once its correction settles, with a degree-2
smoother; sweep-disk3 ``identity_residual``, 5.7e-13 absolute) and at most
4.1e-17 on ``z_x``/``z_y``, which are zero up to roundoff.  RTOL = 1e-8 covers these
(and thread-count effects in BLAS and ARPACK), while a looser CG tolerance
or a perturbed quadrature weight fails it.  A change that moves a value
further writes a new BENCH file.

Demo 04's sweep, rebuilt here with its settings, must write the committed
``demos/output/disk3_sweep.csv`` byte for byte.
"""

import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import conetorsion as ct

ROOT = Path(__file__).resolve().parent.parent
RTOL, ATOL = 1e-8, 1e-14


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def _newest_record() -> dict:
    path = max(ROOT.glob("BENCH_*.json"),
               key=lambda p: int(re.fullmatch(r"BENCH_(\d+)", p.stem).group(1)))
    return json.loads(path.read_text())


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * abs(b) + ATOL


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_values_match_the_newest_bench_record(name):
    record = _newest_record()[name]
    assert record["seed"] == 0
    workload = WORKLOADS.WORKLOADS[name]
    cfg = workload.build(ct, 0)
    out = workload.report(ct, cfg, workload.execute(ct, cfg))
    assert out.failed == []
    expected = record["values"]
    assert sorted(out.values) == sorted(expected)
    moved = {key: (value, expected[key]) for key, value in out.values.items()
             if not _close(float(value), float(expected[key]))}
    assert moved == {}


def test_demo_04_sweep_writes_the_committed_csv(tmp_path):
    base = ct.make_sector_domain(2 * np.pi, ct.ConstantRadius(1.0), 512)
    family = ct.make_family(base, mode=3, eps_list=[0.02, 0.04, 0.08])
    result = ct.run_sweep(family, h_target=0.04, degree=2, threads=2,
                          label="disk3")
    fits = [ct.fit_exponent(result, "deficit_2", "pseudodistance"),
            ct.fit_exponent(result, "deficit_1", "rho_gap")]
    path = tmp_path / "disk3_sweep.csv"
    ct.write_sweep_csv(result, fits, path)
    committed = ROOT / "demos" / "output" / "disk3_sweep.csv"
    assert path.read_bytes() == committed.read_bytes()
