#!/usr/bin/env python3
"""Constructive probes for the failure modes of observability.

Three finite trend experiments render the necessity arguments:
  * concentrating roughened bumps under the time weight t^alpha -- the
    exponent 2 keeps their quotients controlled, small exponents do not;
  * bumps hidden inside an unobserved ball -- the final state stays pinned at
    the first multiplier coefficient while the observation collapses;
  * the pure-heat leak outside a ball stays uniformly bounded however sharp
    the inside bump is.
"""

import numpy as np

from memflow import (
    ObsSetup,
    alpha_probe,
    ball_complement_mask,
    build_flow_table,
    cylinder_mask,
    first_nonzero_h_index,
    h_coeff,
    heat_local_probe,
    interval_basis,
    missing_ball_probe,
    parse_kernel,
)

M = parse_kernel("exp(-1*t)")
basis = interval_basis(64, 1024)
print("building a 64-mode propagator table by the exact route ...")
table = build_flow_table(M, basis, 1.0, 2000, method="exact")
full = cylinder_mask(1.0, 200, 256)

print("\nweight-exponent probe (concentrating bumps, quotient vs scale):")
for alpha in (0.5, 1.0, 2.0):
    setup = ObsSetup(table, full, alpha=alpha)
    recs = alpha_probe(setup, [1, 2, 4, 8, 16, 32], omega=(0.25, 0.75))
    q = np.array([r["quotient"] for r in recs])
    print(f"  exponent {alpha}: " + "  ".join(f"{v:8.3f}" for v in q)
          + f"   (spread {q.max() / q.min():.2f}x)")
print("  (small exponents let the concentration transient through; "
      "exponent 2 suppresses it)")

print("\nhidden-bump probe (ball around x = 0.5 unobserved):")
x_star, r = 0.5, 0.3
mask = ball_complement_mask(1.0, 200, 256, x_star, r)
setup = ObsSetup(table, mask, alpha=None)
Jidx = first_nonzero_h_index(M, 1.0)
hJ = abs(h_coeff(M, Jidx).eval(1.0))
print(f"  first active multiplier index {Jidx}, |h_{Jidx}(T)| = {hJ:.5f}")
recs = missing_ball_probe(setup, x_star, r, Jidx, [2, 4, 8, 16, 32])
print(f"  {'k':>3} {'width':>7} {'observation':>12} {'final norm':>11} "
      f"{'quotient':>10}")
for rec in recs:
    print(f"  {rec['k']:3d} {rec['width']:7.4f} {rec['obs']:12.5f} "
          f"{rec['final_norm']:11.5f} {rec['quotient']:10.5f}")
print(f"  quotient growth {recs[-1]['quotient'] / recs[0]['quotient']:.1f}x; "
      f"final norm locked near |h_{Jidx}(T)| "
      f"(ratio {recs[-1]['final_norm'] / hJ:.3f})")

print("\npure-heat leak outside the ball (uniform in the bump width):")
out = heat_local_probe(basis, 0.5, 0.2, s_exponents=(0.0, -2.0, -4.0),
                       half_widths=(0.08, 0.04, 0.02, 0.01))
for s, tbl in out.items():
    ratios = "  ".join(f"{row['ratio']:.4f}" for row in tbl["rows"])
    print(f"  reference exponent {s:+.0f}: ratios {ratios}")
