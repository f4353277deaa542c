"""Inversion from masked observations and minimal-norm steering.

Reconstruction solves the regularized normal equations of the discrete
observation map (justified by the two-sided observability estimate: the
reference norm of the initial state is equivalent to the masked observation
norm), on which the discrepancy principle also picks lambda.  Control
solves the discretized moment problem G u = target for the forced flow, with
G built from exact influence coefficients of the time stepper, so a forced
replay (``_replay``) reproduces the target to roundoff.  Controls live on the mask raster (piecewise constant per cell) and vanish
outside the mask by construction; one raster (``_raster``) serves the
influence rows, the replay's forcing and the moment residual.

Control through the mask is observation of the adjoint (HUM duality): G is
the transpose of the masked-row operator ``observability._MaskedRows`` with
the influence rows k_t as time profiles, the cell indicators' mode
coefficients B as spatial functions and the mask cells as weights.  So the
reachability Gram G diag(c) G^T is that operator's ``gram(c)``, the control
is read on the raster through its ``fields``, and the moment residual G u
through its ``adjoint`` (``min_norm_control``).
"""

from __future__ import annotations

import math

import numpy as np

from .flow import _fine_steps, volterra_influence, volterra_modes
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


def _raster(basis, mask, T, n_steps):
    """(rows, B) of raster controls on the substepped grid (``_fine_steps``)
    over [0, T]: rows[i] the mask row of fine time t_i, and B[j, ix] the mode
    coefficients of the indicator of mask column ix (a control is piecewise
    constant per cell, so its mode forcing on row t is F_t = B u_t)."""
    nf = _fine_steps(basis.eigenvalues, T, n_steps)
    B = np.zeros((basis.J, mask.n_x))
    np.add.at(B.T, mask.columns_at(basis.x), (basis.funcs * basis.weights).T)
    return mask.rows_at(np.linspace(0.0, T, nf + 1)), B


def _replay(M, etas, a0, f, T, phi):
    """The forced stepper from coefficients a0 under the fine-grid forcing f
    (nf+1, J), and the largest coefficient-space distance, over 16 evenly
    spaced checkpoints, from the superposition sum
    y(t) = phi(t) a0 + sum_k w_k phi(t - s_k) f(s_k) (trapezoid weights) on
    the unforced table phi (nf+1, J).  Returns (trajectory (nf+1, J), distance)."""
    nf = len(f) - 1
    fine = volterra_modes(M, etas, T, nf, y0=a0, forcing=f)
    phi, f = phi.T.copy(), f.T.copy()  # (J, nf+1)
    dt = T / nf
    idxs = np.unique(np.linspace(0, nf, 17).astype(int))
    disc = 0.0
    for i in idxs[1:]:  # idxs[0] = 0
        w = np.full(i + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        duh = phi[:, i] * a0 + np.einsum("k,jk,jk->j", w, phi[:, i::-1], f[:, : i + 1])
        disc = max(disc, float(np.linalg.norm(fine[i] - duh)))
    return fine, disc


def _influence_rows(kernel, basis, mask, T_hat, n_steps):
    """(op, rows): the control operator ``_MaskedRows(K, B, cells)``, with
    K[t, j] the exact stepper influence on mode j summed over the fine steps
    that fall in mask row t, and the raster (rows, B) of ``_raster``, built
    once for the whole solve.  op.fields(e_j)[t, x] = K[t, j] B[j, x] is the
    final coefficient j reached from a unit control on cell (t, x)."""
    rows, B = _raster(basis, mask, T_hat, n_steps)
    g = volterra_influence(kernel, basis.eigenvalues, T_hat, len(rows) - 1)  # (nf+1, J)
    K = np.stack([np.bincount(rows, weights=g_j, minlength=mask.n_t) for g_j in g.T],
                 axis=1)
    return _MaskedRows(K, B, mask.cells.astype(float)), rows


def min_norm_control(kernel, basis, mask, T_hat, y0, y1, regime="l2", alpha=2.0,
                     n_steps=1000):
    """Least-norm discrete control steering y0 to y1 at T_hat through the mask.

    y0 and y1 are coefficient arrays; one shorter than basis.J is padded
    with zeros.  The moment system G u = y1 - phi(T_hat) y0 is solved in the
    requested norm: plain least-norm for "l2" (the L2(raster) norm);
    Lawson-style iteratively reweighted least squares for "weighted_linf",
    which minimizes the worst (T_hat - t)^{-alpha}-weighted spatial norm
    (alpha > 1 required).  Both solve the normal matrix
    G diag(c) G^T + jitter I with c constant on each mask row t (c = 1 for
    "l2"): the ``gram(c)`` of the control operator of ``_influence_rows``,
    contracted per run of equal mask rows.  G itself is never formed: the
    control is read on the raster, u = c o fields(mu), that is
    u_t = c_t ((k_t o mu)^T B), on the mask cells (+0.0 elsewhere), and so
    are the row norms that drive the reweighting (cond(G G^T) reaches 1e19,
    and the row quadratic forms of the Gram would cancel).  An IRLS
    iteration costs O(n_t J^2 + n_runs J^2) plus two raster products.  The
    result is verified by a forced replay through the time stepper, whose
    row forcing F_t = B u_t also gives the moment residual
    G u = adjoint(u) = sum_t k_t o F_t.

    Returns (u, report): the raster control values (zero outside the mask)
    and a dict of the replayed final error, the route (a) vs (b) replay
    discrepancy, the discrete L2(Q) control norm and the solver diagnostics.
    """
    if regime not in ("l2", "weighted_linf"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "weighted_linf" and alpha <= 1.0:
        raise ValueError("weighted regime requires alpha > 1")
    op, rows = _influence_rows(kernel, basis, mask, T_hat, n_steps)
    nf = len(rows) - 1
    # one unforced sweep: phi(T_hat) for the target, the table for the replay
    phi = volterra_modes(kernel, basis.eigenvalues, T_hat, nf)
    a0 = np.zeros(basis.J)
    a0[: len(y0)] = y0
    a1 = np.zeros(basis.J)
    a1[: len(y1)] = y1
    target = a1 - phi[-1] * a0

    # jitter of G G^T
    shift = 1e-14 * np.trace(op.gram(np.ones(mask.n_t))) * np.eye(basis.J)

    def solve(c):
        mu = _cholesky_solve(op.gram(c) + shift, target)
        return np.where(mask.cells, c[:, None] * op.fields(mu), 0.0)

    if regime == "l2":
        u = solve(np.ones(mask.n_t))
        objective = float(np.linalg.norm(u))
        n_irls, converged = 0, True
    else:
        rho = (T_hat - (np.arange(mask.n_t) + 0.5) * mask.dt) ** (-alpha)
        omega = np.ones(mask.n_t)
        converged = True
        for n_irls in range(1, 41):
            # weight 1 / (rho^2 omega) per row; a row with omega = 0 carries none
            w = rho**2 * omega
            u = solve(np.divide(1.0, w, out=np.zeros_like(w), where=w > 0))
            # per-row weighted spatial norms drive the Lawson reweighting
            gamma = np.sqrt((u**2 * mask.dx).sum(axis=1)) * rho
            live = gamma > 0
            if not live.any():
                break
            new = np.where(live, omega * gamma, 0.0)
            s = new.sum()
            if s == 0:
                break
            new /= s
            if np.abs(new - omega / omega.sum()).max() < 1e-12:
                omega = new
                break
            omega = new
        else:
            converged = False  # stopped at the iteration cap
        objective = float(np.max(gamma))

    F = u @ op.F.T  # the mode forcing of each mask row
    fine, disc = _replay(kernel, basis.eigenvalues, a0, F[rows], T_hat, phi)
    final_error = float(np.linalg.norm(fine[-1] - a1))
    # the replay must land on the moment-solve prediction to roundoff;
    # anything larger signals a broken discretization pairing
    predicted = float(np.linalg.norm(op.adjoint(u) - target))
    if abs(final_error - predicted) > 1e-8 * max(1.0, float(np.linalg.norm(a1))):
        raise RouteMismatchError(
            f"forced replay misses the moment-solve prediction: "
            f"replay error {final_error:.3e} vs residual {predicted:.3e}")
    return u, {
        "final_error": final_error,
        "replay_discrepancy": disc,
        "control_norm": float(np.linalg.norm(u) * math.sqrt(mask.dt * mask.dx)),
        "regime": regime,
        "objective": objective,
        "moment_residual": predicted,
        "irls_iterations": n_irls,
        "irls_converged": converged,
        "n_dof": int(np.count_nonzero(mask.cells)),
        "n_steps_fine": nf,
    }


def reachable_difference_check(kernel, basis, y0, u, mask, T_hat, n_steps=1000):
    """Smoothness audit of the memory-vs-pure-heat endpoint gap.

    Runs the forced flow with and without the memory kernel, forms the gap
    f = y(T_hat) - z(T_hat), and reports the flattening of the partial sums
    of a_j^2 eta_j^4 (the gap should look like a smooth state: the tail
    quartile of modes must contribute only marginally).
    """
    from .kernels import ExpPolyFn

    a0, etas = np.asarray(y0, dtype=float), basis.eigenvalues
    rows, B = _raster(basis, mask, T_hat, n_steps)
    nf = len(rows) - 1
    f = (np.where(mask.cells, u, 0.0) @ B.T)[rows]
    # the forced runs alone: the gap needs no superposition cross-check
    gap = (volterra_modes(kernel, etas, T_hat, nf, y0=a0, forcing=f)[-1]
           - volterra_modes(ExpPolyFn.zero(), etas, T_hat, nf, y0=a0, forcing=f)[-1])
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
