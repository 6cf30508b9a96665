"""Numerical verification lab for the mixed-boundary torsion problem on
planar convex cones: rigidity reproduction, the volume identity, weighted
Poincare constants, and quantitative stability sweeps."""

from .geometry import (BoundaryPartition, ConstantRadius, DomainError,
                       DomainSpec, FourierRadius, RadiusFunction, ScaledRadius,
                       SpanInfo, TableRadius, boundary_partition, domain_diameter,
                       exterior_sphere_radius, interior_sphere_radius,
                       make_sector_domain, normal_span, offset_disk_radius,
                       parse_radius_spec, polar_curvature, serrin_radius)
from .mesher import (GAMMA0, GAMMA1, MeshError, TaggedMesh, rectangle_mesh,
                     refine, triangulate, write_mesh)
from .fem import FemError, FemField, LinearSystem, assemble, solve, write_solution
from .quantities import (BoundaryField, Center, CenterError, DeficitReport,
                         alternative_center, compute_center, deficits,
                         identity_residual, max_depth, max_gradient,
                         normal_derivative, u_distance_bounds)
from .poincare import (EigenError, PoincareEstimate, eta_estimate,
                       lambda_constant, mu_estimate, theorem_constant,
                       weighted_hessian_l2)
from .stability import (ExponentFit, Family, SweepError, SweepResult,
                        TheoremVerdict, fit_exponent, fit_exponent_xy,
                        make_family, run_pipeline, run_sweep, sweep_fits,
                        verify_theorems, write_sweep_csv)

__version__ = "0.1.0"
