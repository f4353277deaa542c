"""Inversion from masked observations and minimal-norm steering.

Reconstruction solves the regularized normal equations of the discrete
observation map (justified by the two-sided observability estimate: the
reference norm of the initial state is equivalent to the masked observation
norm).  Control solves the discretized moment problem for the forced flow by
a least-norm solve on the reachability matrix G built from exact influence
coefficients of the time stepper, so a forced replay reproduces the target to
roundoff.  Controls live on the mask raster (piecewise constant per cell) and
vanish outside the mask by construction.

Control through the mask is the adjoint of observation on the mask (HUM
duality), so the reachability Gram G diag(c) G^T has the row structure of the
observation Grams: a sum over mask rows t of c_t R_t, R_t = (k_t k_t^T) o S_t,
with S_t from the masked spatial Gram helper that ``ObsSetup`` uses.  The
control normal matrices are contractions of the R_t (``min_norm_control``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flow import (
    RouteMismatchError,
    _fine_steps,
    _forced_run,
    _replay,
    control_mode_projection,
    volterra_influence,
    volterra_modes,
)
from .observability import (
    ObsSetup,
    _pencil_eigh,
    _row_gram_stack,
    _spatial_grams,
    unique_continuation_rank,
)

__all__ = [
    "ReconstructionProblem",
    "SingularSystemError",
    "observation_operator",
    "synthesize_observation",
    "reconstruct_y0",
    "discrepancy_lambda",
    "ControlProblem",
    "ControlResult",
    "reachability_matrix",
    "min_norm_control",
    "reachable_difference_check",
    "duality_range_test",
]


class SingularSystemError(np.linalg.LinAlgError):
    """Unregularized normal equations are rank deficient; names a null direction."""

    def __init__(self, msg, null_direction=None):
        super().__init__(msg)
        self.null_direction = null_direction


@dataclass(frozen=True)
class ReconstructionProblem:
    """Masked observation data with its regularization weight.

    ``data`` holds samples d[i, k] on the setup's (window time grid) x (basis
    spatial grid), zero outside the mask.
    """

    setup: ObsSetup
    data: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        expected = (len(self.setup.times), len(self.setup.basis.x))
        if d.shape != expected:
            raise ValueError(f"data must have shape {expected}")
        object.__setattr__(self, "data", d)
        d.setflags(write=False)


def observation_operator(setup):
    """Rows O[(i,k), j] of the weighted masked observation map, materialized.

    The row weights make ||O a - d_w||_2 the L2(time x space) distance, with
    the same trapezoid-in-time and masked spatial quadrature the seminorm
    uses (no t^alpha weight: reconstruction fits plain squared misfit).  Only
    tests form O: it is the dense reference for the methods of ObsSetup.
    """
    J = setup.basis.J
    sq = np.sqrt(setup.quad_weights)[:, None] * np.sqrt(setup.masked_weights)
    # O[i, k, j] = sqrt(wt_i w_k chi) phi_j(t_i) e_j(x_k)
    return (setup.fields(np.eye(J)) * sq).reshape(J, -1).T, sq


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


def _normal_equations(setup, data):
    """(A, rhs, Dm): A = O^T O and rhs = O^T d without forming O, and the
    reference mass Dm, so that ||O a - d||^2 + lam ||a||_ref^2 is least at
    (A + lam Dm) a = rhs."""
    A = setup.gram(setup.quad_weights)
    rhs = setup.adjoint(setup.quad_weights[:, None] * setup.masked(data))
    return A, rhs, np.diag(setup.mass_matrix())


def _cholesky_solve(A, b):
    """Solution of A x = b by the Cholesky factor of A; LinAlgError unless A
    is positive definite."""
    L = np.linalg.cholesky(A)
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def reconstruct_y0(problem):
    """Regularized least squares for the initial coefficients.

    Minimizes ||O a - d||^2 + lam ||a||_ref^2 by direct normal equations.
    With lam = 0 a rank-deficient system raises SingularSystemError naming
    the invisible direction.

    Returns (coefficients, diagnostics): the length-J coefficient array and a
    dict of lambda, the data residual, sigma_min and the rank.
    """
    setup = problem.setup
    A, rhs, Dm = _normal_equations(setup, problem.data)
    if problem.lam == 0.0:
        lam_ev, V = _pencil_eigh(A, Dm)
        if lam_ev[0] <= 1e-14 * max(lam_ev[-1], 1e-300):
            raise SingularSystemError(
                "observation map is rank deficient with lam = 0; "
                f"null direction coefficients {np.round(V[:, 0], 6)}",
                null_direction=V[:, 0],
            )
    a = _cholesky_solve(A + problem.lam * Dm, rhs)
    resid = setup.l2_norm(setup.fields(a) - problem.data)
    rank, sigma_min = unique_continuation_rank(setup)
    return a, {
        "lambda": problem.lam,
        "residual": resid,
        "sigma_min": sigma_min,
        "rank": rank,
    }


def discrepancy_lambda(setup, data, noise_norm):
    """Grow lam from 1e-14 trace(O^T O) by factors of 10 until the residual
    reaches 0.9 x noise."""
    A, rhs, Dm = _normal_equations(setup, data)
    lam = 1e-14 * max(float(np.trace(A)), 1.0)
    for _ in range(60):
        a = _cholesky_solve(A + lam * Dm, rhs)
        if setup.l2_norm(setup.fields(a) - data) >= 0.9 * noise_norm:
            return lam
        lam *= 10.0
    return lam


# ---------------------------------------------------------------------------
# minimal-norm control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlProblem:
    """Steering task: reach `y1` from `y0` at time T_hat through the mask.

    y0 and y1 are coefficient arrays; one shorter than basis.J is padded
    with zeros.  regime "l2" minimizes the L2(raster) norm; "weighted_linf"
    minimizes the worst (T_hat - t)^{-alpha}-weighted spatial norm (alpha > 1
    required).
    """

    kernel: object
    basis: object
    mask: object
    T_hat: float
    y0: np.ndarray
    y1: np.ndarray
    regime: str = "l2"
    alpha: float = 2.0
    n_steps: int = 1000


@dataclass
class ControlResult:
    u: np.ndarray                   # raster control values, zero outside mask
    final_error: float              # ||replayed final state - target||_L2
    replay_discrepancy: float       # route (a) vs (b) distance from the replay
    control_norm: float             # discrete L2(Q) norm of u
    diagnostics: dict = field(default_factory=dict)


def _influence_rows(kernel, basis, mask, T_hat, n_steps):
    """(K, B, nf): K[t, j] the exact stepper influence on mode j summed over
    the nf fine steps that fall in mask row t, and B the mode projection of
    the mask columns (``control_mode_projection``)."""
    etas = basis.eigenvalues
    nf = _fine_steps(etas, T_hat, n_steps)
    g = volterra_influence(kernel, etas, T_hat, nf)       # (nf+1, J)
    rows = mask.rows_at(np.linspace(0.0, T_hat, nf + 1))
    K = np.stack([np.bincount(rows, weights=g_j, minlength=mask.n_t) for g_j in g.T],
                 axis=1)
    return K, control_mode_projection(basis, mask), nf


def _dof_columns(K, B, mask):
    """(G, dof): G[:, d] = K[t_d] * B[:, x_d] for the mask cells (t_d, x_d)."""
    it, ix = np.nonzero(mask.cells)
    return (K[it] * B.T[ix]).T, np.stack([it, ix], axis=1)


def reachability_matrix(kernel, basis, mask, T_hat, n_steps):
    """Columns map in-mask raster cell values to final-state coefficients.

    Built from the exact influence coefficients of the discrete stepper, so
    G @ u equals the forced replay's final coefficients to roundoff.

    Returns (G, dof_index) with dof_index the (i_t, i_x) pairs of mask cells.
    """
    K, B, _ = _influence_rows(kernel, basis, mask, T_hat, n_steps)
    return _dof_columns(K, B, mask)


def min_norm_control(problem):
    """Least-norm discrete control steering y0 to y1 at T_hat.

    The moment system G u = y1 - phi(T_hat) y0 is solved in the requested
    norm: plain least-norm for "l2"; Lawson-style iteratively reweighted
    least squares against the (T_hat - t)^{-alpha} weight for
    "weighted_linf" (alpha > 1 enforced).  Both solve the normal matrix
    G diag(c) G^T + jitter I with c constant on each mask row t (c = 1 for
    "l2").  It is the contraction sum_t c_t R_t of the per-row reachability
    Grams R_t = (k_t k_t^T) o S_t, with k_t the influence summed over row t
    and S_t = B diag(cells_t) B^T, built once per call.  So an IRLS
    iteration costs O(n_t J^2) plus two products with G, not
    O(n_dof J^2).  The control u = c G^T mu and the row norms that drive the
    reweighting are read on the dof columns of G: cond(G G^T) reaches 1e19,
    and the quadratic forms mu^T R_t mu would cancel.  The result is
    verified by a forced replay through the time stepper.
    """
    if problem.regime not in ("l2", "weighted_linf"):
        raise ValueError(f"unknown regime {problem.regime!r}")
    if problem.regime == "weighted_linf" and problem.alpha <= 1.0:
        raise ValueError("weighted regime requires alpha > 1")
    basis, mask = problem.basis, problem.mask
    K, B, nf = _influence_rows(problem.kernel, basis, mask, problem.T_hat, problem.n_steps)
    G, dof = _dof_columns(K, B, mask)
    R = _row_gram_stack(K, *_spatial_grams(B, mask.cells.astype(float)))
    # one unforced sweep: phi(T_hat) for the target, the table for the replay
    phi = volterra_modes(problem.kernel, basis.eigenvalues, problem.T_hat, nf)
    a0 = np.zeros(basis.J)
    a0[: len(problem.y0)] = problem.y0
    a1 = np.zeros(basis.J)
    a1[: len(problem.y1)] = problem.y1
    target = a1 - phi[-1] * a0

    cells = dof[:, 0]
    shift = 1e-14 * np.einsum("tjj->", R) * np.eye(basis.J)  # jitter of G G^T

    def solve(c):
        gram = np.tensordot(c, R, axes=1)
        mu = _cholesky_solve(0.5 * (gram + gram.T) + shift, target)
        return (G.T @ mu) * c[cells]

    if problem.regime == "l2":
        u_dof = solve(np.ones(mask.n_t))
        objective = float(np.linalg.norm(u_dof))
        n_irls, converged = 0, True
    else:
        rho = (problem.T_hat - (np.arange(mask.n_t) + 0.5) * mask.dt) ** (-problem.alpha)
        omega = np.ones(mask.n_t)
        converged = True
        for n_irls in range(1, 41):
            # weight 1 / (rho^2 omega) per row; a row with omega = 0 carries none
            w = rho**2 * omega
            u_dof = solve(np.divide(1.0, w, out=np.zeros_like(w), where=w > 0))
            # per-row weighted spatial norms drive the Lawson reweighting
            gamma = np.sqrt(np.bincount(cells, weights=u_dof**2 * mask.dx,
                                        minlength=mask.n_t)) * rho
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

    u = np.zeros((mask.n_t, mask.n_x))
    u[dof[:, 0], dof[:, 1]] = u_dof

    traj, disc = _replay(problem.kernel, basis, a0, u, mask, problem.T_hat,
                         problem.n_steps, phi)
    final_error = float(np.linalg.norm(traj[-1] - a1))
    # the replay must land on the moment-solve prediction to roundoff;
    # anything larger signals a broken discretization pairing
    predicted = float(np.linalg.norm(G @ u_dof - target))
    if abs(final_error - predicted) > 1e-8 * max(1.0, float(np.linalg.norm(a1))):
        raise RouteMismatchError(
            f"forced replay misses the moment-solve prediction: "
            f"replay error {final_error:.3e} vs residual {predicted:.3e}")
    return ControlResult(
        u=u,
        final_error=final_error,
        replay_discrepancy=disc,
        control_norm=float(np.linalg.norm(u_dof) * math.sqrt(mask.dt * mask.dx)),
        diagnostics={
            "regime": problem.regime,
            "objective": objective,
            "moment_residual": predicted,
            "irls_iterations": n_irls,
            "irls_converged": converged,
            "n_dof": int(len(u_dof)),
            "n_steps_fine": nf,
        },
    )


def reachable_difference_check(kernel, basis, y0, u, mask, T_hat, n_steps=1000):
    """Smoothness audit of the memory-vs-pure-heat endpoint gap.

    Runs the forced flow with and without the memory kernel, forms the gap
    f = y(T_hat) - z(T_hat), and reports the flattening of the partial sums
    of a_j^2 eta_j^4 (the gap should look like a smooth state: the tail
    quartile of modes must contribute only marginally).
    """
    from .kernels import ExpPolyFn

    a0 = np.asarray(y0, dtype=float)
    nf = _fine_steps(basis.eigenvalues, T_hat, n_steps)
    # the forced runs alone: the gap needs no superposition cross-check
    gap = (_forced_run(kernel, basis, a0, u, mask, T_hat, nf)[0][-1]
           - _forced_run(ExpPolyFn.zero(), basis, a0, u, mask, T_hat, nf)[0][-1])
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
