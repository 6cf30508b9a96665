"""A perturbation sweep: deficits against the stability inequalities.

Family r_eps(t) = 1 + eps cos(3t) on the full plane.  Each member runs the
full pipeline; the rows verify the Lipschitz pseudodistance bound with the
numerically estimated constant, the linear rho_e - rho_i profile, and the
classical depth/gradient bounds.  Writes CSV and a log-log SVG next to this
script.
"""

import os

import numpy as np

from conetorsion import (ConstantRadius, make_family, make_sector_domain,
                         run_sweep, sweep_fits, verify_theorems,
                         write_sweep_csv)
from conetorsion.svgplot import write_scatter_svg

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

base = make_sector_domain(2 * np.pi, ConstantRadius(1.0), 512)
family = make_family(base, mode=3, eps_list=[0.02, 0.04, 0.08])
result = run_sweep(family, h_target=0.04, degree=2, threads=2, label="disk3")

print(f"Lambda_(2,1)(k={result.k}) = {result.lam:.4f} "
      f"(mu = {result.mu.value:.4f})\n")
print(f"{'eps':>5} {'deficit_1':>10} {'deficit_2':>10} {'pseudod':>10} "
      f"{'rho_gap':>10} {'C bound':>8} {'row check':>9}")
for row in result.rows:
    r = row.report
    print(f"{row.eps:5.2f} {r.deficit_1:10.5f} {r.deficit_2:10.5f} "
          f"{r.pseudodistance:10.5f} {r.rho_gap:10.5f} {r.C_bound:8.3f} "
          f"{str(r.C_bound_satisfied):>9}")

# pseudodistance ~ deficit_2 (Lipschitz), then rho_gap ~ deficit_1 (profile)
fits = sweep_fits(result)
print(f"\nlog-log slope pseudodistance vs deficit_2: {fits[0].slope:.4f} "
      f"(r2 {fits[0].r_squared:.5f}) -> Lipschitz")
print(f"log-log slope rho_gap vs deficit_1:        {fits[1].slope:.4f} "
      f"(r2 {fits[1].r_squared:.5f}) -> linear profile in the plane")

print("\nverdicts:")
for v in verify_theorems(result):
    print(" ", v.line())

csv_path = os.path.join(out_dir, "disk3_sweep.csv")
svg_path = os.path.join(out_dir, "disk3_sweep.svg")
write_sweep_csv(result, fits, csv_path)
x = result.column("deficit_2")
y = result.column("pseudodistance")
write_scatter_svg(svg_path, x, y, fit=(fits[0].slope, fits[0].intercept),
                  x_label="deficit_2", y_label="pseudodistance",
                  title=f"slope {fits[0].slope:.3f}")
print(f"\nwrote {csv_path}\nwrote {svg_path}")
