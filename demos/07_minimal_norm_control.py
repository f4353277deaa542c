#!/usr/bin/env python3
"""Minimal-norm steering to a smooth target through a masked control region.

A control is constant on each mask cell, so the flow is stepped exactly once
per mask row (one matrix exponential per mode), and the moment problem maps
raster control cells to final-state coefficients through the exact influence
of each row: the least-norm solve and the forced replay agree to roundoff,
and so does the exact flow.  Controls vanish outside the mask by
construction.  The endpoint gap between the memory system
and the pure heat system driven by the same control is a smooth state, which
is what confines reachable targets.
"""

import numpy as np

from memflow import (
    interval_basis,
    min_norm_control,
    parse_kernel,
    reachable_difference_check,
    zigzag_mask,
)

M = parse_kernel("exp(-1*t)")
basis = interval_basis(12, 64)
mask = zigzag_mask(0.1, 1.0, 100, 64)
rng = np.random.default_rng(3)
y0 = rng.standard_normal(12)
y1 = basis.eigenvalues**-3.0

print("steering a random state to the smooth target (coefficients "
      "eta_j^-3) at time 1 through the zigzag strip")
u, rep = min_norm_control(M, basis, mask, 1.0, y0, y1)
print(f"  final-state error by forced replay: {rep['final_error']:.3e}")
print(f"  moment residual of the solve      : {rep['moment_residual']:.3e}")
print(f"  control norm                      : {rep['control_norm']:.4f}")
print(f"  values outside the mask           : "
      f"{np.abs(u[~mask.cells]).max():.1f} (bit-exact zero)")

uw, repw = min_norm_control(M, basis, mask, 1.0, y0, y1,
                            regime="weighted_linf", alpha=2.0)
tm = (np.arange(mask.n_t) + 0.5) * mask.dt
prof = np.sqrt((uw**2).sum(axis=1) * mask.dx) * (1.0 - tm) ** -2.0
print("\nweighted minimax regime (controls forced to die quadratically "
      "toward the horizon):")
print(f"  final-state error : {repw['final_error']:.3e}")
print(f"  worst weighted amplitude: {prof.max():.4f} "
      f"(solver objective {repw['objective']:.4f})")

print("\nendpoint gap between the memory and memoryless systems "
      "(same control):")
out = reachable_difference_check(M, interval_basis(32, 128),
                                 1.0 / np.arange(1, 33), u, mask, 1.0)
print(f"  smooth-norm of the gap: {out['smooth_norm']:.4e}")
print(f"  tail-quartile share of the fourth-power mode sums: "
      f"{out['tail_quartile_growth']:.2%}  (flat tail = smooth gap)")
