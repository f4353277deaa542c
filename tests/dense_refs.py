"""Dense references for the matrix-free operators of the library.

Observation (``ObsSetup``) is a masked-row operator, and its dense map is
its fields of the unit coefficient vectors, ``dense_rows``.  The control
references step the mode ODE of ``flow._generator`` across each mask row
before T_hat with scipy's ``expm`` of the augmented generator
h [[G, e_0], [0, 0]], one row at a time: ``forced_solution`` replays a
raster control forward, and ``influence_rows`` runs the same steps backward
to the final coefficient reached from each row.  Neither reads the
library's ``_expm``, ``_scan`` or row bookkeeping.
"""

import numpy as np
import scipy.linalg as sla

from memflow.flow import _generator


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


def row_lengths(mask, T_hat):
    """Lengths of the mask rows that start before T_hat, the last one ending
    at T_hat (cut inside the raster, stretched past mask.T)."""
    starts = np.arange(mask.n_t) * mask.dt
    starts = starts[starts < T_hat - 1e-9 * mask.dt]
    return np.diff(np.append(starts, T_hat))


def cell_modes(basis, mask):
    """B[j, ix] = sum of e_j(x_k) w_k over the grid points x_k in column ix."""
    cols = mask.columns_at(basis.x)
    fw = basis.funcs * basis.weights
    return np.stack([fw[:, cols == ix].sum(axis=1) for ix in range(mask.n_x)], axis=1)


def _row_maps(M, etas, lengths):
    """e^{h [[G, e_0], [0, 0]]} (J, P+1, P+1) for each row length h, by scipy."""
    G = _generator(M, np.asarray(etas, dtype=float))
    J, P, _ = G.shape
    X = np.zeros((J, P + 1, P + 1))
    X[:, :P, :P] = G
    X[:, 0, P] = 1.0
    return [sla.expm(h * X) for h in lengths]


def forced_solution(M, basis, y0, control, mask, T_hat):
    """The mode coefficients (R + 1, J) at 0 and at the end of each of the R
    mask rows before T_hat under a raster control (zero outside the mask),
    stepped row by row: (x, u) <- e^{h [[G, e_0], [0, 0]]} (x, u)."""
    lengths = row_lengths(mask, T_hat)
    f = np.where(mask.cells, control, 0.0)[: len(lengths)] @ cell_modes(basis, mask).T
    maps = _row_maps(M, basis.eigenvalues, lengths)
    P = maps[0].shape[-1]
    z = np.zeros((basis.J, P))
    z[:, 0] = y0
    traj = [z[:, 0].copy()]
    for V, f_r in zip(maps, f):
        z[:, -1] = f_r
        z = np.einsum("jpq,jq->jp", V, z)
        traj.append(z[:, 0].copy())
    return np.array(traj)


def influence_rows(M, basis, mask, T_hat):
    """K[r, j]: y_j(T_hat) from y(0) = 0 under a unit mode forcing on row r
    alone, by the row maps run backward: v^T <- v^T E_r from v = e_0 at T_hat."""
    maps = _row_maps(M, basis.eigenvalues, row_lengths(mask, T_hat))
    P = maps[0].shape[-1] - 1
    v = np.zeros((basis.J, P))
    v[:, 0] = 1.0
    K = np.empty((len(maps), basis.J))
    for r in range(len(maps) - 1, -1, -1):
        K[r] = np.einsum("jp,jp->j", v, maps[r][:, :P, P])
        v = np.einsum("jp,jpq->jq", v, maps[r][:, :P, :P])
    return K


def reachability_matrix(kernel, basis, mask, T_hat):
    """(G, dof_index): G[:, d] = K[t_d] * B[:, x_d] maps the value of mask
    cell d = (t_d, x_d) to final-state coefficients, from ``influence_rows``
    and ``cell_modes``; dof_index holds the (t, x) pairs of the mask cells
    on the rows before T_hat."""
    K = influence_rows(kernel, basis, mask, T_hat)
    it, ix = np.nonzero(mask.cells[: len(K)])
    return K[it].T * cell_modes(basis, mask)[:, ix], np.stack([it, ix], axis=1)
