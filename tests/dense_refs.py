"""Dense references for the matrix-free operators of the library.

Observation (``ObsSetup``) and control (``inverse_control._influence_rows``)
are one masked-row operator; both dense maps are its fields of the unit
coefficient vectors, ``dense_rows``.  ``forced_solution`` replays a raster
control along the library's own route pair.
"""

import numpy as np

from memflow.flow import volterra_modes
from memflow.inverse_control import _influence_rows, _raster, _replay


def dense_rows(op):
    """op.fields(e_j) for every mode j: the stack (J, n, n_x)."""
    return op.fields(np.eye(op.P.shape[1]))


def observation_operator(setup):
    """Rows O[(i,k), j] of the weighted masked observation map, and the
    weights sq (n_times, n_x).

    The row weights make ||O a - d_w||_2 the L2(time x space) distance, with
    the same trapezoid-in-time and masked spatial quadrature the seminorm
    uses (no t^alpha weight: reconstruction fits plain squared misfit).
    """
    sq = np.sqrt(setup.quad_weights)[:, None] * np.sqrt(setup.masked_weights)
    # O[i, k, j] = sqrt(wt_i w_k chi) phi_j(t_i) e_j(x_k)
    return (dense_rows(setup) * sq).reshape(setup.basis.J, -1).T, sq


def reachability_matrix(kernel, basis, mask, T_hat, n_steps):
    """(G, dof_index): G[:, d] = K[t_d] * B[:, x_d] maps the value of mask
    cell d = (t_d, x_d) to final-state coefficients, from the exact influence
    coefficients of the discrete stepper; dof_index holds the (t, x) pairs of
    the mask cells."""
    op, _ = _influence_rows(kernel, basis, mask, T_hat, n_steps)
    it, ix = np.nonzero(mask.cells)
    return dense_rows(op)[:, it, ix], np.stack([it, ix], axis=1)


def forced_solution(M, basis, y0, control, mask, T, n_steps):
    """(traj, discrepancy): the controlled trajectory (n_steps+1, J) of a
    raster control (zero outside the mask) by the forced stepper, and its
    largest distance from the superposition sum of ``_replay``."""
    etas = basis.eigenvalues
    rows, B = _raster(basis, mask, T, n_steps)
    nf = len(rows) - 1
    f = (np.where(mask.cells, control, 0.0) @ B.T)[rows]
    fine, disc = _replay(M, etas, np.asarray(y0, dtype=float), f, T,
                         volterra_modes(M, etas, T, nf))
    return fine[::nf // n_steps], disc
