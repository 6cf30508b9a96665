"""Weighted Poincare constants as discrete eigenvalues, against closed forms.

mu(unit disk, alpha = 0) is the first positive root of J1' (the classical
free-membrane eigenvalue); on the unit square it is pi.  On sectors the
constrained vector constant eta decouples into one-leg mixed eigenproblems
and reproduces the same Bessel root.  The alpha-weighted variants feed the
explicit stability constant (2 N Lambda^2 + 3) / (2 m).
"""

import numpy as np
from scipy.special import jnp_zeros

from conetorsion import (ConstantRadius, boundary_partition, eta_estimate,
                         lambda_constant, make_sector_domain, mu_estimate,
                         normal_span, rectangle_mesh, theorem_constant,
                         triangulate)

bessel = jnp_zeros(1, 1)[0]
print(f"first positive root of J1': {bessel:.10f}\n")

disk = make_sector_domain(2 * np.pi, ConstantRadius(1.0), 512)
mesh = triangulate(disk, 0.05)
est = mu_estimate(mesh, 0.0, levels=2)
print(f"mu(disk, a=0)   levels {est.history} -> {est.value:.6f} "
      f"(error {abs(est.value - bessel) / bessel:.2%}, converged={est.converged})")

sq = mu_estimate(rectangle_mesh(40, 40), 0.0)
print(f"mu(square, a=0) {sq.value:.6f} vs pi (error {abs(sq.value - np.pi) / np.pi:.2%})")

quarter = make_sector_domain(np.pi / 2, ConstantRadius(1.0), 256)
part = boundary_partition(quarter)
span = normal_span(part)
qmesh = triangulate(quarter, 0.05)
eta0 = eta_estimate(qmesh, part, span, 0.0)
# without the GAMMA1 constraint constants are admissible: value = sqrt(max(lambda_0, 0))
ablation = eta_estimate(qmesh, part, span, 0.0, drop_constraint=True).value ** 2
print(f"eta(quarter, a=0) {eta0.value:.6f} vs J1' root "
      f"(error {abs(eta0.value - bessel) / bessel:.2%}); "
      f"constraint removed -> eigenvalue {ablation:.1e}")

print("\nweighted constants entering the stability bound (alpha = 1):")
mu1 = mu_estimate(mesh, 1.0)
eta1 = eta_estimate(qmesh, part, span, 1.0)
lam_disk = lambda_constant(0, mu=mu1)
lam_quarter = lambda_constant(span.k, eta=eta1)
print(f"  disk   : mu_(2,1) {mu1.value:.4f} -> Lambda {lam_disk:.4f} "
      f"-> C(m=1) {theorem_constant(1.0, lam_disk):.4f}")
print(f"  quarter: eta_(2,1) {eta1.value:.4f} -> Lambda {lam_quarter:.4f} "
      f"-> C(m=1) {theorem_constant(1.0, lam_quarter):.4f}")
