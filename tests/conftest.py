"""Shared fixtures: the test domains and their (expensive) solves.

Session-scoped so the acceptance module and the unit modules reuse the same
pipelines instead of re-solving.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from conetorsion import (ConstantRadius, FourierRadius, boundary_partition,
                         make_sector_domain, normal_span, offset_disk_radius,
                         triangulate)
from conetorsion import fem
from conetorsion import quantities as qty
from tests.oracles import h1_seminorm_error, l2_error


@dataclass
class SolveBundle:
    spec: object
    partition: object
    span: object
    mesh: object
    system: object
    field: object
    center: object
    report: object


def solve_domain(spec, h_target, degree=2):
    part = boundary_partition(spec)
    span = normal_span(part)
    mesh = triangulate(spec, h_target)
    system = fem.assemble(mesh, degree)
    field = fem.solve(system)
    center = qty.compute_center(field, span)
    report = qty.deficits(field, center, domain_id=f"fixture-h{h_target:g}")
    return SolveBundle(spec, part, span, mesh, system, field, center, report)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def quarter_spec():
    return make_sector_domain(np.pi / 2, ConstantRadius(1.0), 256)


@pytest.fixture(scope="session")
def disk_spec():
    return make_sector_domain(2 * np.pi, ConstantRadius(1.0), 512)


@pytest.fixture(scope="session")
def half_spec():
    return make_sector_domain(np.pi, ConstantRadius(1.0), 256)


@pytest.fixture(scope="session")
def pert_disk_spec():
    """r = 1 + 0.05 cos 3t on the full plane."""
    return make_sector_domain(2 * np.pi, FourierRadius(1.0, [(3, 0.05)]), 512)


@pytest.fixture(scope="session")
def pert_quarter_spec():
    """r = 1 + 0.05 cos 4t on the quarter-plane cone (orthogonal corners)."""
    return make_sector_domain(np.pi / 2, FourierRadius(1.0, [(4, 0.05)]), 256)


@pytest.fixture(scope="session")
def shifted_half_spec():
    """Upper half of the unit disk centered at (0.3, 0)."""
    return make_sector_domain(np.pi, offset_disk_radius(0.3), 256)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def quarter_solve(quarter_spec):
    return solve_domain(quarter_spec, 0.05)


@pytest.fixture(scope="session")
def quarter_solve_fine(quarter_spec):
    return solve_domain(quarter_spec, 0.025)


@pytest.fixture(scope="session")
def disk_solve(disk_spec):
    return solve_domain(disk_spec, 0.05)


@pytest.fixture(scope="session")
def disk_solve_fine(disk_spec):
    return solve_domain(disk_spec, 0.025)


@pytest.fixture(scope="session")
def pert_disk_solve(pert_disk_spec):
    return solve_domain(pert_disk_spec, 0.05)


@pytest.fixture(scope="session")
def pert_quarter_solve(pert_quarter_spec):
    return solve_domain(pert_quarter_spec, 0.05)


@pytest.fixture(scope="session")
def shifted_half_solve(shifted_half_spec):
    return solve_domain(shifted_half_spec, 0.025)


# ---------------------------------------------------------------------------
# refinement series shared between unit and acceptance tests
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def rigidity_series(quarter_spec):
    """Rigidity quarter-disk solves at h in {0.05, 0.025, 0.0125}."""
    return [solve_domain(quarter_spec, h) for h in (0.05, 0.025, 0.0125)]


@pytest.fixture(scope="session")
def manufactured_errors(quarter_spec):
    """L2/H1 errors against the exact sector solution over refinements."""
    exact = lambda x, y: (x**2 + y**2 - 1) / 2
    grad = lambda x, y: (x, y)
    out = {1: {"h": [], "l2": [], "h1": []}, 2: {"h": [], "l2": [], "h1": []}}
    for degree in (1, 2):
        for h in (0.1, 0.05, 0.025, 0.0125):
            mesh = triangulate(quarter_spec, h)
            u = fem.solve(fem.assemble(mesh, degree))
            out[degree]["h"].append(mesh.h_max)
            out[degree]["l2"].append(l2_error(u, exact))
            out[degree]["h1"].append(h1_seminorm_error(u, grad))
    return out


@pytest.fixture(scope="session")
def identity_series(pert_disk_spec, pert_quarter_spec):
    """Identity parts across h in {0.05, 0.025, 0.0125} for both domains."""
    out = {}
    for name, spec in (("disk3", pert_disk_spec), ("quarter4", pert_quarter_spec)):
        span = normal_span(boundary_partition(spec))
        rows = []
        for h in (0.05, 0.025, 0.0125):
            mesh = triangulate(spec, h)
            u = fem.solve(fem.assemble(mesh, 2))
            z = qty.compute_center(u, span)
            rows.append(qty.identity_residual(u, z))
        out[name] = rows
    return out


@pytest.fixture(scope="session")
def disk_sweep(disk_spec):
    from conetorsion import make_family, run_sweep
    fam = make_family(disk_spec, 3, [0.02, 0.04, 0.08])
    return run_sweep(fam, 0.025, 2, label="disk3")


@pytest.fixture(scope="session")
def quarter_sweep(quarter_spec):
    from conetorsion import make_family, run_sweep
    fam = make_family(quarter_spec, 4, [0.02, 0.04, 0.08])
    return run_sweep(fam, 0.025, 2, label="quarter4")
