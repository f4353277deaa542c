"""Inversion from masked observations and minimal-norm steering.

Reconstruction solves the regularized normal equations of the discrete
observation map (justified by the two-sided observability estimate: the
reference norm of the initial state is equivalent to the masked observation
norm), on which the discrepancy principle also picks lambda.  Control
solves the moment problem G u = target of the continuous flow of the
truncated modes: a control lives on the mask raster (constant per cell,
zero outside the mask by construction), so the flow crosses each mask row
by one exact step of ``flow._row_step``.  The influence rows and phi(T_hat)
are scans of that step (``flow._scan``); the forced replay (``_replay``)
folds the rows into the final state by powers of the step, sharing no code
with the influence rows it checks, and must land on the moment solve's
prediction to roundoff.

Control through the mask is observation of the adjoint (HUM duality): G is
the transpose of the masked-row operator ``observability._MaskedRows`` with
the influence rows k_r as time profiles, the cell indicators' mode
coefficients B as spatial functions and the mask cells as weights.  So the
reachability Gram G diag(c) G^T is that operator's ``gram(c)``, the control
is read on the raster through its ``fields``, and the moment residual G u
through its ``adjoint`` (``min_norm_control``).
"""

from __future__ import annotations

import math

import numpy as np

from .flow import _row_step, _scan
from .kernels import ExpPolyFn
from .observability import _MaskedRows, _pencil_eigh

__all__ = [
    "SingularSystemError",
    "synthesize_observation",
    "reconstruct_y0",
    "RouteMismatchError",
    "min_norm_control",
    "reachable_difference_check",
    "duality_range_test",
]


class SingularSystemError(np.linalg.LinAlgError):
    """Unregularized normal equations are rank deficient; names a null direction."""

    def __init__(self, msg, null_direction=None):
        super().__init__(msg)
        self.null_direction = null_direction


def synthesize_observation(setup, y0, noise=0.0, rng=None):
    """Forward masked data of a known initial state, optionally noisy.

    Noise is relative: gaussian with std = noise * rms(signal) added on the
    in-mask samples.
    """
    a = np.asarray(y0, dtype=float)
    live = setup.masked_weights > 0
    data = np.where(live, setup.fields(a), 0.0)
    if noise > 0.0:
        rng = np.random.default_rng(0) if rng is None else rng
        scale = noise * math.sqrt(float(np.mean(data[live] ** 2)))
        data = data + np.where(live, rng.standard_normal(data.shape) * scale, 0.0)
    return data


def _cholesky_solve(A, b):
    """Solution of A x = b by the Cholesky factor of A; LinAlgError unless A
    is positive definite."""
    L = np.linalg.cholesky(A)
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def reconstruct_y0(setup, data, lam=None, noise_norm=None):
    """Regularized least squares for the initial coefficients.

    ``data`` holds samples d[i, k] on the setup's (window time grid) x (basis
    spatial grid), zero outside the mask; it is read, never written.
    Minimizes ||O a - d||^2 + lam ||a||_ref^2 by Cholesky on the normal
    equations, built once.  lam = None means the discrepancy principle when
    ``noise_norm`` (the L2 norm of the noise in ``data``) is given, else 0:
    lam grows from 1e-14 max(trace(O^T O), 1) by factors of 10 until the
    residual reaches 0.9 noise_norm (after 60 misses, the solve at
    lam_0 10^60 is returned).  With lam = 0 a rank-deficient system raises
    SingularSystemError naming the invisible direction.

    Returns (coefficients, report): the length-J coefficient array and a
    dict of lambda, the data residual, and sigma_min and rank of the map
    being inverted.  Both come from the pencil (O^T O, reference mass): rank
    counts its eigenvalues, and sigma_min = ||O v|| is the norm of the map on
    the bottom eigenvector v (||v||_ref = 1), which keeps the digits that the
    square root of the smallest eigenvalue loses.
    """
    data = np.asarray(data, dtype=float)
    expected = (len(setup.times), len(setup.basis.x))
    if data.shape != expected:
        raise ValueError(f"data must have shape {expected}")
    A = setup.gram(setup.quad_weights)
    rhs = setup.adjoint(setup.quad_weights[:, None] * setup.masked(data))
    Dm = np.diag(setup.mass_matrix())
    lam_ev, V = _pencil_eigh(A, Dm)
    top = max(lam_ev[-1], 0.0)
    if lam is None and noise_norm is None:
        lam = 0.0
    if lam == 0.0 and lam_ev[0] <= 1e-14 * max(top, 1e-300):
        raise SingularSystemError(
            "observation map is rank deficient with lam = 0; "
            f"null direction coefficients {np.round(V[:, 0], 6)}",
            null_direction=V[:, 0],
        )
    last = 60 if lam is None else 0  # the sweep's last step is not tested
    if lam is None:
        lam = 1e-14 * max(float(np.trace(A)), 1.0)
    for step in range(last + 1):
        a = _cholesky_solve(A + lam * Dm, rhs)
        residual = setup.l2_norm(setup.fields(a) - data)
        if step == last or residual >= 0.9 * noise_norm:
            break
        lam *= 10.0
    return a, {
        "lambda": lam,
        "residual": residual,
        "sigma_min": setup.l2_norm(setup.fields(V[:, 0])),
        "rank": int(np.sum(lam_ev > 1e-12 * max(top, 1e-300))),
    }


# ---------------------------------------------------------------------------
# minimal-norm control
# ---------------------------------------------------------------------------

class RouteMismatchError(RuntimeError):
    """A forced replay misses the final state its moment solve predicts."""


def _cell_modes(basis, mask):
    """B[j, ix]: the mode coefficients of the indicator of mask column ix (a
    control is piecewise constant per cell, so its mode forcing on row r is
    B u_r)."""
    B = np.zeros((basis.J, mask.n_x))
    np.add.at(B.T, mask.columns_at(basis.x), (basis.funcs * basis.weights).T)
    return B


def _row_lengths(mask, T_hat):
    """Lengths (R,) of the mask rows that start before T_hat: mask.dt each,
    the last one cut at T_hat, or stretched to it when T_hat > mask.T.  A
    T_hat within rounding of a row edge ends that row."""
    R = min(mask.n_t, max(1, math.ceil(T_hat / mask.dt - 1e-9)))
    h = np.full(R, mask.dt)
    if not math.isclose(T_hat - (R - 1) * mask.dt, mask.dt, rel_tol=1e-9):
        h[-1] = T_hat - (R - 1) * mask.dt
    return h


def _replay(steps, a0, f):
    """y(T_hat) from coefficients a0 under the row forcing f (R, J), by the
    row steps ((E, E_l), (F, F_l)) of ``flow._row_step`` across a full row
    and across the last one.  E and E_l are functions of one generator, so
    they commute, and the state after the first R - 1 rows, taken on by E_l,
    is sum_i E^{R-1-i} w_i with w_0 = E_l a0 e_0 and w_{r+1} = E_l F f_r.
    That sum is folded pairwise: with w padded by leading zeros to a power
    of two, each level replaces w by the pairs E w_{2k} + w_{2k+1} and E by
    E^2, about 2 log2(R) batched products in all.  The last row adds F_l f."""
    (E, E_l), (F, F_l) = steps
    R = len(f)
    n = 1 << (R - 1).bit_length()
    w = np.zeros((*E.shape[:2], n))
    w[..., n - R] = a0[:, None] * E_l[:, :, 0]
    w[..., n - R + 1:] = (E_l @ F[..., None]) * f[:-1].T[:, None]
    while n > 1:
        w, n = E @ w[..., 0::2] + w[..., 1::2], n // 2
        E = E @ E
    return w[:, 0, 0] + F_l[:, 0] * f[-1]


def _influence_rows(kernel, basis, mask, T_hat):
    """(op, steps, lengths): the control operator ``_MaskedRows(K, B, cells)``
    on the R mask rows before T_hat, the row steps of ``_replay`` and the
    row lengths of ``_row_lengths``, built once for the whole solve.
    K[r, j] = e_0^T E^{R-2-r} E_l F (K[R-1] = e_0^T F_l) is the final
    coefficient j reached from a unit constant forcing on row r, so
    op.fields(e_j)[r, x] = K[r, j] B[j, x] is that of a unit control on
    cell (r, x)."""
    lengths = _row_lengths(mask, T_hat)
    steps = _row_step(kernel, basis.eigenvalues, lengths[[0, -1]])
    (E, E_l), (F, F_l) = steps
    K = np.empty((len(lengths), basis.J))
    # the scan's last entry e_0^T E^{R-1} E_l F is not read
    K[:-1] = _scan(E, (E_l @ F[..., None])[..., 0], len(lengths))[-2::-1]
    K[-1] = F_l[:, 0]
    cells = mask.cells[: len(lengths)].astype(float)
    return _MaskedRows(K, _cell_modes(basis, mask), cells), steps, lengths


def min_norm_control(kernel, basis, mask, T_hat, y0, y1, regime="l2", alpha=2.0):
    """Least-norm control steering y0 to y1 at T_hat through the mask.

    y0 and y1 are coefficient arrays; one shorter than basis.J is padded
    with zeros.  A control is constant on each mask cell, so the flow is
    stepped exactly once per mask row (``flow._row_step``), and only the R
    rows that start before T_hat carry a control (the last one cut at T_hat,
    or stretched to it past mask.T).  The moment system G u = y1 - phi(T_hat) y0
    is solved in the requested norm: least norm in L2(raster) for "l2";
    Lawson-style iteratively reweighted least squares for "weighted_linf",
    which minimizes the worst (T_hat - t)^{-alpha}-weighted spatial norm
    (alpha > 1 required), t the midpoint of a row's part before T_hat.  Both
    solve the normal matrix G diag(c) G^T + jitter I with c constant on
    each mask row r (c_r = mask.dt / h_r for "l2", 1 on rows of full
    length): the ``gram(c)`` of the control operator of ``_influence_rows``,
    contracted per run of equal mask rows.  G itself is never formed: the
    control is read on the raster, u = c o fields(mu), that is
    u_r = c_r ((k_r o mu)^T B), on the mask cells (+0.0 elsewhere), and so
    are the row norms that drive the reweighting (cond(G G^T) reaches 1e19,
    and the row quadratic forms of the Gram would cancel).  An IRLS
    iteration costs O(n_t J^2 + n_runs J^2) plus two raster products.  The
    result is verified by a forced replay by the row steps, whose row
    forcing f_r = B u_r also gives the moment residual
    G u = adjoint(u) = sum_r k_r o f_r.

    Returns (u, report): the raster control values (zero outside the mask
    and on rows past T_hat) and a dict of the replayed final error, the
    L2(Q) control norm and the solver diagnostics.
    """
    if regime not in ("l2", "weighted_linf"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "weighted_linf" and alpha <= 1.0:
        raise ValueError("weighted regime requires alpha > 1")
    op, steps, lengths = _influence_rows(kernel, basis, mask, T_hat)
    R = len(lengths)
    a0 = np.zeros(basis.J)
    a0[: len(y0)] = y0
    a1 = np.zeros(basis.J)
    a1[: len(y1)] = y1
    (E, E_l), _ = steps
    target = a1 - _scan(E, E_l[:, :, 0], R)[-1] * a0  # phi(T_hat) a0

    # jitter of G G^T
    shift = 1e-14 * np.trace(op.gram(np.ones(R))) * np.eye(basis.J)

    def solve(c):
        mu = _cholesky_solve(op.gram(c) + shift, target)
        return np.where(op.W > 0, c[:, None] * op.fields(mu), 0.0)

    if regime == "l2":
        u = solve(mask.dt / lengths)
        n_irls, converged = 0, True
    else:
        rho = (0.5 * lengths + T_hat - np.cumsum(lengths)) ** (-alpha)
        omega = np.ones(R)
        converged = True
        for n_irls in range(1, 41):
            # weight 1 / (rho^2 omega) per row; a row with omega = 0 carries none
            w = rho**2 * omega
            u = solve(np.divide(1.0, w, out=np.zeros_like(w), where=w > 0))
            # per-row weighted spatial norms drive the Lawson reweighting
            gamma = np.sqrt((u**2 * mask.dx).sum(axis=1)) * rho
            new = omega * gamma  # 0 on the rows that carry no control
            s = new.sum()
            if s == 0:  # no row carries control
                break
            new /= s
            if np.abs(new - omega / omega.sum()).max() < 1e-12:
                omega = new
                break
            omega = new
        else:
            converged = False  # stopped at the iteration cap
        objective = float(np.max(gamma))

    control_norm = math.sqrt(float(lengths @ (u**2).sum(axis=1)) * mask.dx)
    if regime == "l2":
        objective = control_norm / math.sqrt(mask.dt * mask.dx)
    final_error = float(np.linalg.norm(_replay(steps, a0, u @ op.F.T) - a1))
    # the replay must land on the moment-solve prediction to roundoff;
    # anything larger signals a broken pairing of the two runs
    predicted = float(np.linalg.norm(op.adjoint(u) - target))
    if abs(final_error - predicted) > 1e-8 * max(1.0, float(np.linalg.norm(a1))):
        raise RouteMismatchError(
            f"forced replay misses the moment-solve prediction: "
            f"replay error {final_error:.3e} vs residual {predicted:.3e}")
    u_raster = np.zeros((mask.n_t, mask.n_x))
    u_raster[:R] = u
    return u_raster, {
        "final_error": final_error,
        "control_norm": control_norm,
        "regime": regime,
        "objective": objective,
        "moment_residual": predicted,
        "irls_iterations": n_irls,
        "irls_converged": converged,
        "n_dof": int(np.count_nonzero(mask.cells)),
    }


def reachable_difference_check(kernel, basis, y0, u, mask, T_hat):
    """Smoothness audit of the memory-vs-pure-heat endpoint gap.

    Runs the forced flow with and without the memory kernel by the exact row
    steps, forms the gap f = y(T_hat) - z(T_hat), and reports the flattening
    of the partial sums of a_j^2 eta_j^4 (the gap should look like a smooth
    state: the tail quartile of modes must contribute only marginally).
    """
    a0 = np.asarray(y0, dtype=float)
    lengths = _row_lengths(mask, T_hat)
    R = len(lengths)
    f = np.where(mask.cells, u, 0.0)[:R] @ _cell_modes(basis, mask).T
    gap = (_replay(_row_step(kernel, basis.eigenvalues, lengths[[0, -1]]), a0, f)
           - _replay(_row_step(ExpPolyFn.zero(), basis.eigenvalues, lengths[[0, -1]]), a0, f))
    terms = gap**2 * basis.eigenvalues**4
    partial = np.cumsum(terms)
    J = basis.J
    q3 = partial[3 * J // 4 - 1]
    total = partial[-1]
    growth = float((total - q3) / total) if total > 0 else 0.0
    return {
        "gap_coeffs": gap,
        "partial_sums": partial,
        "tail_quartile_growth": growth,
        "smooth_norm": float(math.sqrt(total)),
    }


def duality_range_test(R, O, xstar_list):
    """Adjoint-range certificate for the forward inequality ||Rz|| <= C1 ||Oz||.

    For each x* solves the least-norm y* with O^T y* = R^T x*, reports the
    residual (ValueError above 1e-9 relative to ||R^T x*||) and
    C2 = max ||y*|| / ||x*||; in finite dimensions C2 equals the
    best forward constant C1 (up to sampling of the x* family), which is also
    returned for comparison.  C1 is inf when O^T O is singular; the residual
    check alone then decides each x*.
    """
    R = np.asarray(R, dtype=float)
    O = np.asarray(O, dtype=float)
    try:
        C1 = math.sqrt(max(_pencil_eigh(R.T @ R, O.T @ O)[0][-1], 0.0))
    except np.linalg.LinAlgError:  # O^T O singular: no finite forward constant
        C1 = math.inf
    C2 = 0.0
    residuals = []
    for xs in xstar_list:
        xs = np.asarray(xs, dtype=float)
        rhs = R.T @ xs
        ystar, *_ = np.linalg.lstsq(O.T, rhs, rcond=None)
        res = float(np.linalg.norm(O.T @ ystar - rhs))
        residuals.append(res)
        if res > 1e-9 * max(1.0, float(np.linalg.norm(rhs))):
            raise ValueError(
                f"adjoint range equation inconsistent (residual {res:.3e}); "
                "the forward inequality fails for this pair"
            )
        nx = float(np.linalg.norm(xs))
        if nx > 0:
            C2 = max(C2, float(np.linalg.norm(ystar)) / nx)
    return C2, np.array(residuals), C1
