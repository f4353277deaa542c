"""Observability functionals, constant estimation, and degeneracy probes.

The central object is the masked, time-weighted observation seminorm

    obs(y0) = int_S^T' || chi_Q(t, .) y(t, .; y0) ||_{L2}  w(t) dt,

with w(t) = t^alpha on windows starting at 0 and w = 1 otherwise.  Every
functional here is built on one discrete operator, the masked observation map
of ``ObsSetup``: ``fields`` takes mode coefficients to the window x grid
field, ``adjoint`` is its transpose and ``masked`` applies the masked spatial
quadrature.  ``row_grams`` holds the row Grams K_i = (phi_i phi_i^T) o S_r,
with one masked spatial Gram S_r per mask row r that the window meets, so
that obs(y0) = sum_i cw_i sqrt(a^T K_i a); every time-weighted Gram (``gram``)
is a contraction of that stack.  The seminorm itself is evaluated on the
fields: the quadratic form loses relative accuracy on tiny observations.

Constants over the unit reference-norm sphere start from an exact eigensolve
of an L2-in-time surrogate and refine the true L1-in-time objective with one
batched majorize-minimize loop over many restarts (``_mm_loop``).  The lower
and null constants reweight the row Grams at the iterate and take a
generalized eigenvector, which decreases the quotient monotonically; the
upper constant keeps the better of the linearized ascent (monotone, f being
convex) and a saddle-free Newton step.  Every step advances all restarts
with one stacked J x J eigensolve and one contraction of the row-Gram stack,
O(n_restarts n_times J^2), and needs no step size.  The restart spread, the
step counts and a convergence flag are reported.  Blow-up statements from
the theory are rendered as finite trend probes, never as limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flow import flow_apply
from .spectral import SpectralVec, hs_norm

__all__ = [
    "ObsSetup",
    "ObsReport",
    "ObsInvariantError",
    "obs_seminorm",
    "obs_seminorm_many",
    "gram_matrix",
    "two_sided_constants",
    "null_obs_constant",
    "relaxed_inequality_fit",
    "bump_vector",
    "alpha_probe",
    "missing_ball_probe",
    "heat_local_probe",
    "unique_continuation_rank",
]


# coefficient rows per batch of ``time_profiles``; bounds its field scratch
_PROFILE_CHUNK = 16
# H^s exponent of the reference norm: weights eta_j^REF_EXPONENT
REF_EXPONENT = -4.0


class ObsInvariantError(RuntimeError):
    """An estimated constant breaks a relation it must satisfy."""


class ObsSetup:
    """Flow table, mask, window and weighting, and the masked observation
    operator on (window rows of the time grid) x (basis grid).

    The weight t^alpha is applied only when the window starts at 0 (the
    weighted-estimate regime); windows with S > 0 are unweighted unless
    ``force_weight`` overrides.  ``quad_weights`` is the trapezoid rule in
    time, ``masked_weights`` the grid rule restricted to the mask.  Only the
    operator methods combine propagators, eigenfunctions and mask; the row
    Grams and the eigenpairs of the surrogate pencil are built once per
    setup, on first use.
    """

    ref_exponent = REF_EXPONENT  # read off a setup by perfbench/checks.py

    def __init__(self, table, mask, alpha=None, window=None, force_weight=False):
        self.table = table
        self.mask = mask
        self.alpha = alpha
        S, T_hi = window if window is not None else (0.0, table.T)
        if not (0.0 <= S < T_hi <= table.T + 1e-12):
            raise ValueError("window must satisfy 0 <= S < T' <= table horizon")
        self.window = (float(S), float(T_hi))
        self.weighted = alpha is not None and (S == 0.0 or force_weight)

        tg = table.tgrid
        i0 = int(np.searchsorted(tg, S - 1e-12, side="left"))
        i1 = int(np.searchsorted(tg, T_hi + 1e-12, side="right")) - 1
        if i1 <= i0:
            raise ValueError("window too narrow for the table grid")
        self.i0, self.i1 = i0, i1
        self.times = tg[i0:i1 + 1]
        n_used = i1 - i0 + 1
        wt = np.full(n_used, table.dt)
        wt[0] = wt[-1] = 0.5 * table.dt
        # fractional closing of the window against the grid
        wt[0] += max(0.0, self.times[0] - S) - 0.0
        wt[-1] += max(0.0, T_hi - self.times[-1])
        self.quad_weights = wt
        self.time_weight = self.times ** alpha if self.weighted else np.ones(n_used)

        basis = table.basis
        rows = mask.rows_at(self.times)
        self.masked_weights = np.where(mask.cells[np.ix_(rows, mask.columns_at(basis.x))],
                                       basis.weights[None, :], 0.0)
        self.phi_win = table.phi[:, i0:i1 + 1]
        # first window row of each run of rows that meet one mask row
        self._run_starts = np.flatnonzero(np.diff(rows, prepend=-1))
        self._row_grams = None
        self._pencil = None

    @property
    def basis(self):
        return self.table.basis

    def mass_matrix(self):
        """Diagonal of the reference-norm Gram (weights eta_j^REF_EXPONENT)."""
        return self.basis.eigenvalues ** REF_EXPONENT

    def pencil(self):
        """Eigenpairs (lam, V) of the surrogate pencil (G, D) of ``gram_matrix``,
        lam ascending and V^T D V = I (D is positive definite).  Built once,
        read-only."""
        if self._pencil is None:
            lam, V = _pencil_eigh(*gram_matrix(self))
            lam.setflags(write=False)
            V.setflags(write=False)
            self._pencil = lam, V
        return self._pencil

    # -- the masked observation operator -------------------------------------

    def fields(self, A):
        """Fields of coefficients A: (J,) -> (n_times, n_x), or a batch
        (n_vec, J) -> (n_vec, n_times, n_x)."""
        A = np.asarray(A, dtype=float)
        return (A[..., None, :] * self.phi_win.T) @ self.basis.funcs

    def adjoint(self, W, rows=slice(None)):
        """Transpose of ``fields`` on the window rows ``rows``:
        sum(fields(a)[rows] * W) = a @ adjoint(W, rows)."""
        return np.einsum("ij,ij->j", W @ self.basis.funcs.T, self.phi_win.T[rows])

    def masked(self, F):
        """F times the masked grid weights (sum over x of masked(F) * G is the
        masked L2 product per time row)."""
        return F * self.masked_weights

    def row_grams(self):
        """Stack K (n_times, J, J) of row Grams K_i = (phi_i phi_i^T) o S_r(i):
        a^T K_i a is the squared masked spatial norm of row i of fields(a).

        S_r = E diag(w_r) E^T is the masked spatial Gram of mask row r, built
        once for each mask row the window meets and symmetrized, so every
        K_i is exactly symmetric.  Built once, in place, and read-only.
        """
        if self._row_grams is None:
            E, P = self.basis.funcs, self.phi_win.T
            W = self.masked_weights[self._run_starts]
            S = (W[:, None, :] * E) @ E.T                       # (R, J, J)
            S = 0.5 * (S + S.transpose(0, 2, 1))
            K = P[:, :, None] * P[:, None, :]
            for run, S_r in zip(np.split(K, self._run_starts[1:]), S):
                run *= S_r
            K.setflags(write=False)
            self._row_grams = K
        return self._row_grams

    def gram(self, coef):
        """Gram sum_i coef_i K_i of the masked map under time weights coef
        (n_times,): coef contracted with ``row_grams``, symmetrized."""
        G = np.tensordot(coef, self.row_grams(), axes=1)
        return 0.5 * (G + G.T)

    def l2_norm(self, F):
        """L2 norm over the observed part of the window of a field F
        (n_times, n_x): trapezoid in time, masked grid rule in space."""
        return math.sqrt(float(self.quad_weights
                               @ np.einsum("ik,ik->i", self.masked(F), F)))

    def time_profiles(self, A):
        """Masked spatial norms r[v, i] for coefficient rows A (n_vec, J)."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        out = np.empty((A.shape[0], len(self.times)))
        for lo in range(0, A.shape[0], _PROFILE_CHUNK):
            F = self.fields(A[lo:lo + _PROFILE_CHUNK])
            out[lo:lo + len(F)] = np.sqrt(np.einsum("vik,vik->vi", self.masked(F), F))
        return out


def obs_seminorm_many(setup, A):
    """Seminorm of every coefficient row of A (n_vec, J) at once."""
    r = setup.time_profiles(A)
    return r @ (setup.quad_weights * setup.time_weight)


def obs_seminorm(setup, v):
    """Weighted time integral of the masked spatial norm along the flow of v."""
    a = v.coeffs if isinstance(v, SpectralVec) else np.asarray(v, dtype=float)
    full = np.zeros(setup.basis.J)
    full[: len(a)] = a
    return float(obs_seminorm_many(setup, full[None, :])[0])


def _pencil_eigh(A, B):
    """Eigenpairs (lam, V) of the symmetric-definite pencil (A, B): lam
    ascending and V^T B V = I.  Whitens with the Cholesky factor B = L L^T
    and solves the standard problem of L^{-1} A L^{-T}, as LAPACK's sygv
    does; LinAlgError unless B is positive definite."""
    L = np.linalg.cholesky(B)
    lam, W = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, A).T))
    return lam, np.linalg.solve(L.T, W)


def gram_matrix(setup):
    """L2-in-time surrogate Gram pair (G, D).

    G[j,k] = int w2(t) phi_j phi_k <chi e_j, chi e_k>_grid dt with w2 = t^{2a}
    (or 1 in the unweighted regime); D is the diagonal reference-norm mass.
    Every raster cell contributes a positive-semidefinite rank-one update, so
    enlarging the mask never shrinks G.
    """
    w2 = setup.times ** (2 * setup.alpha) if setup.weighted else np.ones_like(setup.times)
    return setup.gram(setup.quad_weights * w2), np.diag(setup.mass_matrix())


# ---------------------------------------------------------------------------
# constants over the unit reference sphere
# ---------------------------------------------------------------------------

@dataclass
class ObsReport:
    """Constants, witnesses and optimizer diagnostics of one estimation run."""

    c_lower: float
    c_upper: float
    c_null: float | None = None
    witness_lower: np.ndarray | None = None
    witness_upper: np.ndarray | None = None
    witness_null: np.ndarray | None = None
    surrogate_lower: float = math.nan
    surrogate_upper: float = math.nan
    spread_lower: float = math.nan
    spread_upper: float = math.nan
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "c_lower": self.c_lower,
            "c_upper": self.c_upper,
            "c_null": self.c_null,
            "surrogate_lower": self.surrogate_lower,
            "surrogate_upper": self.surrogate_upper,
            "spread_lower": self.spread_lower,
            "spread_upper": self.spread_upper,
        }
        for key in ("witness_lower", "witness_upper", "witness_null"):
            w = getattr(self, key)
            out[key] = None if w is None else [float(x) for x in w]
        out.update(self.diagnostics)
        return out


def _pencil_top(G, p):
    """Top eigenvectors of the pencils (diag(p)^2, G[r]) for a stack G of
    positive semidefinite matrices; p = None is the identity pencil, whose
    top eigenvector is the smallest eigenvector of G.

    With G = V diag(lam) V^T and a = V diag(lam)^(-1/2) y the pencil becomes
    the matrix B^T B, B = diag(p) V diag(lam)^(-1/2); the common factor
    sqrt(lam_min) keeps B bounded, and clipping lam at the smallest normal
    number lets a null direction of G (a zero of the seminorm) win outright.
    """
    lam, V = np.linalg.eigh(G)
    if p is None:
        return V[:, :, 0]
    lam = np.maximum(lam, np.finfo(float).tiny)
    S = V * np.sqrt(lam[:, :1] / lam)[:, None, :]
    B = p[None, :, None] * S
    y = np.linalg.eigh(np.swapaxes(B, 1, 2) @ B)[1][:, :, -1]
    return np.einsum("rjk,rk->rj", S, y)


def _newton_on_sphere(U, g, H):
    """Saddle-free Newton step for a maximum of f on the unit sphere from the
    unit rows U, with gradients g and Hessians H of f there: u + d with
    d = |P (f I - H) P|^+ P g, P = I - u u^T.  This is the Riemannian Newton
    step with the Hessian's eigenvalues taken in absolute value, so that d
    points uphill; eigenvalues are floored at roundoff and d is kept
    tangent."""
    J = U.shape[1]
    f = np.sum(U * g, axis=1)
    P = np.eye(J) - U[:, :, None] * U[:, None, :]
    lam, Q = np.linalg.eigh(P @ (f[:, None, None] * np.eye(J) - H) @ P)
    floor = np.finfo(float).eps * f[:, None] + np.finfo(float).tiny
    c = np.einsum("rjk,rj->rk", Q, g - f[:, None] * U) / np.maximum(np.abs(lam), floor)
    return U + np.einsum("rjk,rk->rj", P @ Q, c)


def _mm_loop(setup, U0, n_iter, p=None, ascend=False):
    """Batched majorize-minimize on the reference sphere, every restart at once.

    In reference-normalized coordinates u = D^{1/2} a the seminorm is
    f(u) = sum_i cw_i r_i(u), r_i the masked spatial norm of time row i, with
    r_i^2 = a^T K_i a for the row Grams K_i of ``ObsSetup.row_grams``.  At
    the iterate u_k they reweight to G_w = D^{-1/2} (sum_i (cw_i / r_i) K_i)
    D^{-1/2}, and Cauchy-Schwarz gives f(u)^2 <= f(u_k) u^T G_w u with
    equality at u_k.

    Descent minimizes q(u) = f(u) / ||p u|| (p = None: ||u||) by the top
    eigenvector of the pencil (diag p^2, G_w), which makes q monotone.
    Ascent maximizes f on the sphere.  Its monotone step is the linearized
    one, u <- G_w u / ||G_w u|| (f is convex and positively homogeneous), but
    that one crawls across flat stretches, so each ascent step also tries
    the saddle-free Newton step on the sphere and keeps the better of the
    two.  A step is taken only if q does not get worse, and a restart stops
    when q stops improving or after n_iter steps.

    Returns (U, iterations, capped): the unit iterates, the steps taken by
    each restart and whether it was still improving at the cap.
    """
    K = setup.row_grams()
    n, J = K.shape[0], K.shape[1]
    K_rows = K.reshape(n * J, J)
    K_flat = K.reshape(n, J * J)
    cw = setup.quad_weights * setup.time_weight
    half = setup.mass_matrix() ** 0.5
    sense = -1.0 if ascend else 1.0

    def row_products(U):
        """K_i u for every row U (m, J) and time row i: (m, n, J)."""
        KA = (K_rows @ (U / half).T).reshape(n, J, -1)
        return KA.transpose(2, 0, 1) / half

    def evaluate(U):
        r = np.sqrt(np.maximum(np.einsum("rij,rj->ri", row_products(U), U), 0.0))
        den = np.linalg.norm(U if p is None else U * p, axis=1)
        q = np.divide(sense * (r @ cw), den, out=np.full(len(U), np.inf), where=den > 0)
        return q, r

    U = U0 / np.linalg.norm(U0, axis=1, keepdims=True)
    q, r = evaluate(U)
    iterations = np.zeros(len(U), dtype=int)
    active = np.ones(len(U), dtype=bool)
    for _ in range(n_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        m, Ui, ri = idx.size, U[idx], r[idx]
        W = np.divide(cw, ri, out=np.zeros((m, n)), where=ri > 0)
        G = (W @ K_flat).reshape(m, J, J) / np.outer(half, half)
        if ascend:
            g = np.einsum("rjk,rk->rj", G, Ui)
            KU = row_products(Ui)
            w3 = np.divide(W, ri**2, out=np.zeros_like(W), where=ri > 0)
            H = G - np.swapaxes(KU * w3[:, :, None], 1, 2) @ KU
            cands = np.stack([g, _newton_on_sphere(Ui, g, H)])
        else:
            cands = _pencil_top(G, p)[None]
        norm = np.linalg.norm(cands, axis=2, keepdims=True)
        cands = np.divide(cands, norm, out=np.full_like(cands, np.nan), where=norm > 0)
        cands *= np.where(np.sum(cands * Ui, axis=2) < 0.0, -1.0, 1.0)[..., None]
        qs, rs = evaluate(cands.reshape(-1, J))
        qs = qs.reshape(len(cands), m)
        pick = np.argmin(qs, axis=0)
        cols = np.arange(m)
        C, qc = cands[pick, cols], qs[pick, cols]
        rc = rs.reshape(len(cands), m, n)[pick, cols]
        keep, improved = qc <= q[idx], qc < q[idx]
        take = idx[keep]
        U[take], q[take], r[take] = C[keep], qc[keep], rc[keep]
        iterations[take] += 1
        active[idx[~improved]] = False
    return U, iterations, active


def _start_pool(leading, n, rng):
    """Starts of a sphere search: the rows of ``leading`` (k, J), then the J
    coordinate axes, then seeded standard normal rows up to n in all."""
    J = leading.shape[1]
    starts = [*leading, *np.eye(J)]
    while len(starts) < n:
        starts.append(rng.standard_normal(J))
    return np.array(starts)


def two_sided_constants(setup, n_restarts=32, rng=None):
    """Extremes of the seminorm over the unit reference sphere.

    Every start of the pool (surrogate eigendirections, coordinate axes,
    seeded random) runs both batched loops of ``_mm_loop``: the lower
    constant takes the smallest eigenvector of the reweighted row Gram at
    each step, the upper constant the better of the linearized ascent and a
    saddle-free Newton step.  A step costs one stacked J x J eigensolve and
    one contraction of the row-Gram stack per restart, O(n_times J^2), and
    each restart takes at most 250 steps (tens at J=12).  Reports the
    restart spread as a stagnation proxy and, per constant, the largest step
    count and whether the best restart stopped short of the cap.  Raises
    ObsInvariantError if a constant breaks the Cauchy-Schwarz bridge to the
    surrogate constants, if c_lower > c_upper, or if a witness does not
    reproduce its constant.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    lam, V = setup.pencil()  # surrogate constants and start directions
    sur_lo = math.sqrt(max(lam[0], 0.0))
    sur_up = math.sqrt(max(lam[-1], 0.0))
    half = setup.mass_matrix() ** 0.5
    U0 = _start_pool(V.T * half, n_restarts, rng)

    U_lo, it_lo, cap_lo = _mm_loop(setup, U0, 250)
    U_up, it_up, cap_up = _mm_loop(setup, U0, 250, ascend=True)
    lo_vals = obs_seminorm_many(setup, U_lo / half)
    up_vals = obs_seminorm_many(setup, U_up / half)
    i_lo, i_up = int(np.argmin(lo_vals)), int(np.argmax(up_vals))
    lo_val, up_val = float(lo_vals[i_lo]), float(up_vals[i_up])
    lo_wit, up_wit = U_lo[i_lo] / half, U_up[i_up] / half

    # reliability proxy: gap between the best value and the quartile-ranked
    # one -- near zero when a solid fraction of restarts agree on the optimum
    k = max(1, len(U0) // 4)
    lo_sorted = np.sort(lo_vals)
    up_sorted = np.sort(up_vals)[::-1]
    spread_lo = float((lo_sorted[k] - lo_sorted[0]) / max(lo_val, 1e-300))
    spread_up = float((up_sorted[0] - up_sorted[k]) / max(up_val, 1e-300))

    # Cauchy-Schwarz bridge: both L1 constants sit below sqrt(window) x the
    # matching weighted-L2 constants.
    L = setup.window[1] - setup.window[0]
    tol = 1e-9 * max(sur_up, 1.0)
    if lo_val > math.sqrt(L) * sur_lo + tol:
        raise ObsInvariantError(f"lower-constant bridge violated: {lo_val!r}")
    if up_val > math.sqrt(L) * sur_up + tol:
        raise ObsInvariantError(f"upper-constant bridge violated: {up_val!r}")
    if lo_val > up_val + tol:
        raise ObsInvariantError(f"c_lower {lo_val!r} exceeds c_upper {up_val!r}")

    report = ObsReport(
        c_lower=lo_val,
        c_upper=up_val,
        witness_lower=lo_wit,
        witness_upper=up_wit,
        surrogate_lower=sur_lo,
        surrogate_upper=sur_up,
        spread_lower=spread_lo,
        spread_upper=spread_up,
        diagnostics={"n_restarts": len(U0), "window_length": L,
                     "iterations_lower": int(it_lo.max()),
                     "converged_lower": not bool(cap_lo[i_lo]),
                     "iterations_upper": int(it_up.max()),
                     "converged_upper": not bool(cap_up[i_up])},
    )
    # witness reproducibility
    for wit, val in ((lo_wit, lo_val), (up_wit, up_val)):
        re = obs_seminorm(setup, wit / max(hs_norm(setup.basis, wit, REF_EXPONENT), 1e-300))
        if abs(re - val) > 1e-9 * max(val, 1.0):
            raise ObsInvariantError(f"witness gives {re!r}, not the reported {val!r}")
    return report


def null_obs_constant(setup, n_restarts=24, rng=None):
    """Largest ratio ||phi(T') y0|| / obs(y0), with an unbounded-quotient flag.

    Surrogate: top eigenpair of the final-state form against the seminorm
    Gram.  Its two top eigendirections, the coordinate axes and seeded random
    fills start the batched majorize-minimize loop of ``_mm_loop`` on
    1/c_null = min obs(y0) / ||phi(T') y0||: each step takes the top
    eigenvector of the pencil (diag phi(T')^2, G_w) of the reweighted row
    Gram, which stays defined where phi(T') vanishes; same cost per step as
    ``two_sided_constants``, at most 200 steps.  The report carries the
    surrogate, the largest step count and whether the best restart stopped
    short of the cap.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    G, D = gram_matrix(setup)
    lamG, VG = np.linalg.eigh(G)
    report = {"quotient_unbounded": False, "iterations": 0, "converged": True}
    if lamG[0] <= 1e-14 * max(lamG[-1], 1e-300):
        # direction with (numerically) zero observation
        w = VG[:, 0]
        if obs_seminorm(setup, w) < 1e-12 * np.linalg.norm(w):
            report["quotient_unbounded"] = True
            return math.inf, SpectralVec(w), report
    half = setup.mass_matrix() ** 0.5
    phiT = setup.phi_win[:, -1]

    reg = 1e-13 * np.trace(G) * np.eye(len(G))
    lamF, V = _pencil_eigh(np.diag(phiT**2), G + reg)
    starts = _start_pool(V[:, -2:][:, ::-1].T * half, n_restarts, rng)

    U, iterations, capped = _mm_loop(setup, starts, 200, p=phiT / half)
    A = U / half
    num = np.linalg.norm(A * phiT, axis=1)
    den = obs_seminorm_many(setup, A)
    vals = np.divide(num, den, out=np.full(len(A), math.inf), where=den > 1e-300)
    best = int(np.argmax(vals))
    report["surrogate"] = float(math.sqrt(max(lamF[-1], 0.0)))
    report["iterations"] = int(iterations.max())
    report["converged"] = not bool(capped[best])
    return float(vals[best]), SpectralVec(A[best]), report


def relaxed_inequality_fit(setup, rng=None):
    """Largest C with C ||y0||_ref <= obs(y0) + ||y0||_{ref-2} on a sampled sphere.

    256 samples: surrogate eigendirections, coordinate directions, seeded
    random.
    Returns (C, share) where share is the seminorm's fraction of the minimal
    combined value (small share means the compactness term is doing the work).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    A = _start_pool(setup.pencil()[1].T, 256, rng)
    obs = obs_seminorm_many(setup, A)
    ev = setup.basis.eigenvalues
    ref = np.sqrt(A**2 @ ev**REF_EXPONENT)
    low = np.sqrt(A**2 @ ev ** (REF_EXPONENT - 2.0))
    vals = (obs + low) / ref
    i = int(np.argmin(vals))
    share = float(obs[i] / (obs[i] + low[i])) if obs[i] + low[i] > 0 else 0.0
    return float(vals[i]), share


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def bump_vector(basis, center, half_width, n_modes=None, laplacian_power=0,
                profile_power=4, zero_mean=False):
    """Smooth compactly supported bump, projected and optionally roughened.

    Profile (1 - u^2)^profile_power on |x - center| <= half_width (times a
    mean-cancelling quadratic factor when zero_mean is set), projected to the
    first n_modes coefficients, normalized to unit L2, then multiplied by the
    diagonal (-eta)^laplacian_power.

    Projection uses a dedicated panel quadrature over the support (the basis
    grid rule is far too noisy for high modes, and generator powers amplify
    that noise); coefficients at roundoff level are zeroed exactly so the
    roughened vector stays a resolved smooth bump.
    """
    lo = max(center - half_width, 0.0)
    hi = min(center + half_width, 1.0)
    xg, wg = np.polynomial.legendre.leggauss(8)
    n_panels = 128
    edges = np.linspace(lo, hi, n_panels + 1)
    h = 0.5 * (edges[1:] - edges[:-1])
    nodes = (edges[:-1, None] + h[:, None] * (xg[None, :] + 1.0)).ravel()
    wq = (h[:, None] * wg[None, :]).ravel()
    u = (nodes - center) / half_width
    prof = np.where(np.abs(u) < 1.0, (1.0 - u**2) ** profile_power, 0.0)
    if zero_mean:
        c = np.sum(wq * prof) / np.sum(wq * prof * u**2)
        prof = prof * (1.0 - c * u**2)
    j = np.arange(1, basis.J + 1)
    a = np.sqrt(2.0) * np.sin(np.pi * np.outer(j, nodes)) @ (wq * prof)
    if n_modes is not None:
        a[n_modes:] = 0.0
    a[np.abs(a) <= 1e-13 * np.abs(a).max()] = 0.0
    nrm = np.linalg.norm(a)
    if nrm == 0.0:
        raise ValueError("bump vanishes after projection; widen it")
    a /= nrm
    if laplacian_power:
        a = (-basis.eigenvalues) ** laplacian_power * a
    return SpectralVec(a)


def _early_cylinder_depth(setup, x_lo, x_hi):
    """Largest eps0 with (0, eps0) x (x_lo, x_hi) inside the mask."""
    mask = setup.mask
    cols = (mask.x_mid > x_lo) & (mask.x_mid < x_hi)
    if not cols.any():
        return 0.0
    full = np.all(mask.cells[:, cols], axis=1)
    return (mask.n_t if full.all() else int(np.argmin(full))) * mask.dt


def alpha_probe(setup, k_list, omega=(0.25, 0.75), laplacian_power=2):
    """Quotient trajectory of concentrating bumps under the time weight.

    Bumps of shrinking support in omega (projected to a growing mode count,
    capped at a quarter of the grid) are roughened by an integer power of the
    generator and scored by obs / reference-norm.  Under the critical weight
    exponent the trajectory degrades as concentration sharpens; at exponent 2
    it stays controlled.

    Returns list of records (k, width, n_modes, quotient).
    """
    basis = setup.basis
    x_lo, x_hi = omega
    eps0 = _early_cylinder_depth(setup, x_lo, x_hi)
    if eps0 <= 0.0:
        raise ValueError("mask contains no early cylinder over omega")
    center = 0.5 * (x_lo + x_hi)
    n_cap = len(basis.x) // 4
    records = []
    for k in k_list:
        width = 0.5 * (x_hi - x_lo) / k
        n_modes = min(basis.J, n_cap, 4 + 2 * k)
        v = bump_vector(basis, center, width, n_modes=n_modes,
                        laplacian_power=laplacian_power)
        q = obs_seminorm(setup, v) / hs_norm(basis, v, REF_EXPONENT)
        records.append({"k": int(k), "width": width, "n_modes": int(n_modes),
                        "quotient": float(q)})
    return records


def missing_ball_probe(setup, x_star, r, J_index, k_list):
    """Final-state vs observation quotients for bumps hidden in an unobserved ball.

    The mask must exclude the cylinder (0, T') x B(x_star, r).  Probe vectors
    are (J_index+1)-th generator powers of unit bumps supported in the half
    ball; the quotient ||phi(T') z_k|| / obs(z_k) grows as the bump sharpens
    while ||phi(T') z_k|| approaches the absolute value of the first active
    multiplier coefficient at time T'.

    The observation window starts 25 e-foldings of the last retained mode
    after the setup window opens: earlier times only see the truncation tail
    of the roughened datum, an artifact with no continuum counterpart (the
    exact datum vanishes identically on the observed region).  The bump
    profile (power 8) is mean-cancelled: a nonzero-mean profile leaks through
    its low-mode content at a rate that masks the degeneracy at desk
    truncations.

    Returns list of records (k, width, quotient, final_norm, obs, aliased).
    """
    basis = setup.basis
    table = setup.table
    S, T_hi = setup.window
    t_cut = max(S, 25.0 / float(basis.eigenvalues[-1]))
    win = ObsSetup(table, setup.mask, alpha=setup.alpha, window=(t_cut, T_hi))
    records = []
    dx = basis.x[1] - basis.x[0]
    for k in k_list:
        width = min(0.5 * r * (4.0 / (k + 2.0)) ** 0.6, 0.5 * r)
        v = bump_vector(basis, x_star, width, laplacian_power=J_index + 1,
                        profile_power=8, zero_mean=True)
        final = flow_apply(table, win.i1, v)
        fn = float(np.linalg.norm(final.coeffs))
        obs = obs_seminorm(win, v)
        records.append({
            "k": int(k),
            "width": width,
            "final_norm": fn,
            "obs": float(obs),
            "quotient": float(fn / obs) if obs > 0 else math.inf,
            "aliased": bool(width < 4.0 * dx),
        })
    return records


def heat_local_probe(basis, x0, r, s_exponents=(0.0, -2.0, -4.0),
                     t_list=(0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0),
                     half_widths=(0.4, 0.2, 0.1, 0.05)):
    """Uniformity of the pure-heat leak outside a ball for inside bumps.

    For bumps supported in B(x0, r/2), measures
    sup_t || e^{tA} z ||_{L2 outside B(x0, r)} / ||z||_{H^s}; the bound is
    uniform in the bump width.  Returns per-exponent tables and maxima.
    """
    out = {}
    keep = np.abs(basis.x - x0) > r
    for s in s_exponents:
        rows = []
        for hw in half_widths:
            z = bump_vector(basis, x0, min(hw, 0.5 * r) * 0.999)
            denom = hs_norm(basis, z, s)
            worst = 0.0
            for t in t_list:
                a = np.exp(-basis.eigenvalues * t) * z.coeffs
                fld = a @ basis.funcs
                outside = math.sqrt(float(np.sum(basis.weights[keep] * fld[keep]**2)))
                worst = max(worst, outside / denom)
            rows.append({"half_width": hw, "ratio": worst})
        out[s] = {"rows": rows, "max_ratio": max(r_["ratio"] for r_ in rows)}
    return out


def unique_continuation_rank(setup):
    """Rank and smallest singular value of the discrete observation map.

    Full rank of the seminorm Gram against the reference mass certifies that
    no truncated initial state is invisible on the mask.  Reads the setup's
    surrogate pencil (``ObsSetup.pencil``).
    """
    lam = setup.pencil()[0]
    top = max(lam[-1], 0.0)
    rank = int(np.sum(lam > 1e-12 * max(top, 1e-300)))
    sigma_min = math.sqrt(max(lam[0], 0.0))
    return rank, sigma_min
