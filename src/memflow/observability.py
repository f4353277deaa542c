"""Observability functionals, constant estimation, and degeneracy probes.

The central object is the masked, time-weighted observation seminorm

    obs(y0) = int_S^T' || chi_Q(t, .) y(t, .; y0) ||_{L2}  w(t) dt,

with w(t) = t^alpha on windows starting at 0 and w = 1 otherwise.  Every
functional here is built on one discrete operator, the masked-row operator
``_MaskedRows`` that ``ObsSetup`` is: ``fields`` takes mode coefficients to
the window x grid field, ``adjoint`` is its transpose and ``masked`` applies
the masked spatial quadrature.  Each run r of window rows with equal mask
weights (a cylinder has one past its start; one scan of the weights finds
the runs when the operator is built) has one masked spatial Gram
S_r = E diag(w_r) E^T (``_spatial_grams``) and one triangular factor R_r with
R_r^T R_r = S_r (``_spatial_factors``).  The row factors L_i = R_r(i)
diag(phi_i) give the masked spatial norm of time row i as r_i(a) = ||L_i a||,
so that obs(y0) = sum_i cw_i ||L_i a||; ``time_profiles`` evaluates it, for
the reported seminorm and the constant optimizers alike.  A time-weighted
Gram (``gram``) is contracted run by run, sum_r S_r o (P_r^T diag(coef_r)
P_r), in O(n_times J^2) without a per-row stack.  A Gram or a reported
seminorm that overflows (a propagator that stays finite while its square
does not) raises ``flow.NonFinitePropagatorError``.  Control through the mask is
observation of the adjoint (HUM duality): ``inverse_control`` builds the same
operator from the influence rows and the raster, and solves on its ``gram``.

Constants over the unit reference-norm sphere start from an exact eigensolve of
an L2-in-time surrogate and refine the true L1-in-time objective with one
batched majorize-minimize loop over many restarts (``_mm_loop``).  Each step
reweights the row Grams at the iterate and scores up to three candidates: the
monotone MM step (a generalized eigenvector for the lower and null constants,
the linearized ascent, f being convex, for the upper one), a saddle-free Newton
step on the sphere and the half step toward it; the best is kept.  The Newton
eigenproblem is solved on the (J-1)-dimensional tangent space.  The descent
loops solve for their MM candidate only on restarts whose last step was not a
Newton or half step, or whose Newton and half steps both fail.  At J=12 a
restart takes about 4-17 steps in the lower and null loops, where the MM step
alone took 14-142, and 4-46 in the upper one (median 8-9 in all three).
A step advances all restarts with one stacked (J-1) x (J-1) eigensolve, plus
one (lower) or two (null) stacked J x J eigensolves on the restarts that need
the MM candidate, and a few products with the row-factor and row-Gram
stacks, O(n_restarts n_times J^2); it needs no step size.  The restart
spread, the step counts and a convergence flag are reported.  Blow-up
statements from the theory are rendered as finite trend probes, never as
limits.
"""

from __future__ import annotations

import math

import numpy as np

from .flow import NonFinitePropagatorError
from .spectral import gauss_legendre, hs_norm

__all__ = [
    "ObsSetup",
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


# coefficient rows per batch of ``time_profiles``; bounds its product scratch
_PROFILE_CHUNK = 16
# rows per product of ``_MaskedRows.gram``; fixes its summation order
_GRAM_BLOCK = 64
# H^s exponent of the reference norm: weights eta_j^REF_EXPONENT
REF_EXPONENT = -4.0


class ObsInvariantError(RuntimeError):
    """An estimated constant breaks a relation it must satisfy."""


class _MaskedRows:
    """The masked-row operator X[i, x] = W[i, x] sum_j a_j P[i, j] F[j, x]:
    time profiles P (n, J), spatial functions F (J, n_x) and weight rows W
    (n, n_x).  Observation is this operator with P the window's propagators,
    F the eigenfunctions and W the masked grid weights (``ObsSetup``);
    control through the mask is the same operator with P the influence rows,
    F the cell indicators' mode coefficients and W the mask cells
    (``inverse_control.min_norm_control``).  The runs of rows with equal
    weights are found once, by one scan of W; the masked spatial Grams (one
    per run) and the row-factor stack are built once, on first use; ``gram``
    contracts by runs and needs no stack.
    """

    def __init__(self, P, F, W):
        self.P, self.F, self.W = P, F, W
        new = np.ones(len(W), dtype=bool)
        new[1:] = np.any(W[1:] != W[:-1], axis=1)
        self._starts = np.flatnonzero(new)  # first row of each run
        self._spatial = None
        self._row_factors = None

    def fields(self, A):
        """Fields of coefficients A: (J,) -> (n, n_x), or a batch
        (n_vec, J) -> (n_vec, n, n_x)."""
        A = np.asarray(A, dtype=float)
        return (A[..., None, :] * self.P) @ self.F

    def adjoint(self, X):
        """Transpose of ``fields``: sum(fields(a) * X) = a @ adjoint(X)."""
        return np.einsum("ij,ij->j", X @ self.F.T, self.P)

    def masked(self, X):
        """X times the weight rows (sum over x of masked(X) * Y is the masked
        L2 product per row)."""
        return X * self.W

    def spatial_grams(self):
        """Stack S of ``_spatial_grams``: one masked spatial Gram per run of
        rows with equal weights.  Built once, read-only."""
        if self._spatial is None:
            S = _spatial_grams(self.F, self.W[self._starts])
            S.setflags(write=False)
            self._spatial = S
        return self._spatial

    def row_factors(self):
        """Stack L (n, J, J) of row factors L_i = R_r(i) diag(p_i), R_r the
        factor of ``_spatial_factors`` of the run that row i is in: ||L_i a||
        is the masked spatial norm of row i of fields(a), and
        L_i^T L_i = (p_i p_i^T) o S_r(i) is its row Gram.  Built once,
        read-only."""
        if self._row_factors is None:
            R = _spatial_factors(self.F, self.W[self._starts])
            counts = np.diff([*self._starts.tolist(), len(self.P)])
            L = np.repeat(R, counts, axis=0) * self.P[:, None, :]
            L.setflags(write=False)
            self._row_factors = L
        return self._row_factors

    def gram(self, coef):
        """Gram sum_i coef_i L_i^T L_i of the operator under row weights coef
        (n,), contracted per run r of rows with one spatial Gram S_r:
        sum_r S_r o (P_r^T diag(coef_r) P_r), P_r the run's rows of P, each
        run in blocks of _GRAM_BLOCK rows summed in order, so that no product
        reduces over a length whose split follows the BLAS thread count.
        O(n J^2 + n_runs J^2), symmetrized."""
        starts, S = self._starts, self.spatial_grams()
        P = self.P
        Pc = P * coef[:, None]
        G = np.zeros(S.shape[1:])
        for lo, hi, S_r in zip(starts.tolist(), [*starts[1:].tolist(), len(P)], S):
            for b in range(lo, hi, _GRAM_BLOCK):
                e = min(b + _GRAM_BLOCK, hi)
                G += S_r * (Pc[b:e].T @ P[b:e])
        return _finite(0.5 * (G + G.T), "masked-row Gram")


class ObsSetup(_MaskedRows):
    """Flow table, mask, window and weighting, and the masked observation
    operator on (window rows of the time grid) x (basis grid): the
    ``_MaskedRows`` of the window's propagators phi_win^T, the eigenfunctions
    and the masked grid weights.

    The weight t^alpha is applied only when the window starts at 0 (the
    weighted-estimate regime); windows with S > 0 are unweighted.
    ``quad_weights`` is the trapezoid rule in time, ``masked_weights`` the
    grid rule restricted to the mask.  Only the operator methods combine
    propagators, eigenfunctions and mask.  The surrogate Gram pair and its
    pencil's eigenpairs are built once per setup, on first use.
    """

    ref_exponent = REF_EXPONENT  # read off a setup by perfbench/checks.py

    def __init__(self, table, mask, alpha=None, window=None):
        self.table = table
        self.mask = mask
        self.alpha = alpha
        S, T_hi = window if window is not None else (0.0, table.T)
        if not (0.0 <= S < T_hi <= table.T + 1e-12):
            raise ValueError("window must satisfy 0 <= S < T' <= table horizon")
        self.window = (float(S), float(T_hi))
        self.weighted = alpha is not None and S == 0.0
        if self.weighted and alpha < 0:
            raise ValueError("alpha must be >= 0: the weight t^alpha is infinite at t = 0")

        tg = table.tgrid
        i0 = int(np.searchsorted(tg, S - 1e-12, side="left"))
        i1 = int(np.searchsorted(tg, T_hi + 1e-12, side="right")) - 1
        if i1 <= i0:
            raise ValueError("window too narrow for the table grid")
        self.times = tg[i0:i1 + 1]
        n_used = i1 - i0 + 1
        wt = np.full(n_used, table.dt)
        wt[0] = wt[-1] = 0.5 * table.dt
        # fractional closing of the window against the grid
        wt[0] += max(0.0, self.times[0] - S)
        wt[-1] += max(0.0, T_hi - self.times[-1])
        self.quad_weights = wt
        self.time_weight = self.times ** alpha if self.weighted else np.ones(n_used)

        basis = table.basis
        # two gathers, the columns on the raster's few rows and then whole
        # rows, cost a third of one np.ix_ gather of the same cells
        cells = mask.cells[:, mask.columns_at(basis.x)][mask.rows_at(self.times)]
        self.masked_weights = np.where(cells, basis.weights[None, :], 0.0)
        self.phi_win = table.phi[:, i0:i1 + 1]
        super().__init__(self.phi_win.T, basis.funcs, self.masked_weights)
        self._surrogate = None
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

    def l2_norm(self, F):
        """L2 norm over the observed part of the window of a field F
        (n_times, n_x): trapezoid in time, masked grid rule in space."""
        return math.sqrt(float(self.quad_weights
                               @ np.einsum("ik,ik->i", self.masked(F), F)))

    def time_profiles(self, A):
        """Masked spatial norms r[v, i] = ||L_i a_v|| of the coefficient rows
        a_v of A (n_vec, J), L_i the row factors: one product with the
        stacked factors per chunk of rows."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        L = self.row_factors()
        L_rows = L.reshape(-1, L.shape[2])
        out = np.empty((A.shape[0], len(L)))
        for lo in range(0, A.shape[0], _PROFILE_CHUNK):
            Y = (A[lo:lo + _PROFILE_CHUNK] @ L_rows.T).reshape(-1, *L.shape[:2])
            out[lo:lo + len(Y)] = np.sqrt(np.einsum("vij,vij->vi", Y, Y))
        return out


def _finite(X, what):
    """X, or NonFinitePropagatorError when an entry is inf or NaN: a
    propagator that stays finite can still overflow in its square.  The
    optimizers read ``time_profiles``, which is unchecked, and score such a
    candidate as q = inf."""
    if not np.isfinite(X).all():
        raise NonFinitePropagatorError(f"{what} is not finite: the propagator "
                                       f"overflows the float range in its square")
    return X


def _spatial_grams(F, W):
    """Masked spatial Grams S_r = F diag(w_r) F^T of the functions F (J, n_x)
    under the weight rows w_r of W (n_runs, n_x), one per run of equal
    consecutive rows (a cylinder mask needs one past its start): the stack
    (n_runs, J, J), symmetrized so that every S_r is exactly symmetric.
    """
    S = (W[:, None, :] * F) @ F.T
    return 0.5 * (S + S.transpose(0, 2, 1))


def _spatial_factors(F, W):
    """Triangular factors of the Grams of ``_spatial_grams`` under the
    nonnegative run weights W (n_runs, n_x): the stack of R_r (J, J) with
    R_r^T R_r = F diag(w_r) F^T, the R of the QR of sqrt(w_r) F^T.
    """
    return np.linalg.qr(np.sqrt(W)[:, :, None] * F.T, mode="r")


def obs_seminorm_many(setup, A):
    """Seminorm of every coefficient row of A (n_vec, J) at once."""
    r = setup.time_profiles(A)
    return _finite(r @ (setup.quad_weights * setup.time_weight), "observation seminorm")


def obs_seminorm(setup, v):
    """Weighted time integral of the masked spatial norm along the flow of v."""
    a = np.asarray(v, dtype=float)
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
    enlarging the mask never shrinks G.  Built once per setup and kept on it,
    read-only.
    """
    if setup._surrogate is None:
        w2 = setup.times ** (2 * setup.alpha) if setup.weighted else np.ones_like(setup.times)
        pair = setup.gram(setup.quad_weights * w2), np.diag(setup.mass_matrix())
        for M in pair:
            M.setflags(write=False)
        setup._surrogate = pair
    return setup._surrogate


# ---------------------------------------------------------------------------
# constants over the unit reference sphere
# ---------------------------------------------------------------------------

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
    """Saddle-free Newton step on the unit sphere from the unit rows U for a
    function F that vanishes there, with gradients g and Hessians H of F:
    u - d with d = |P H P|^+ P g, P = I - u u^T.  As F(u) = 0 (so u^T g = 0
    for F homogeneous of degree one), P H P is the Riemannian Hessian and
    this is the Riemannian Newton step with the Hessian's eigenvalues taken
    in absolute value, so that d points downhill; eigenvalues are floored at
    roundoff.  The eigenproblem is solved on the tangent space u-perp, in
    the orthonormal basis B of the last J - 1 columns of the Householder
    reflector that takes u to a multiple of e_1: B^T H B has the eigenpairs
    of P H P other than (0, u), so d = B |B^T H B|^+ B^T g is tangent by
    construction.  For J = 1 the tangent space is empty and the step is u.
    """
    J = U.shape[1]
    if J == 1:
        return U.copy()
    v = U.copy()
    v[:, 0] += np.where(U[:, 0] < 0.0, -1.0, 1.0)
    beta = 2.0 / np.sum(v * v, axis=1)
    B = np.eye(J)[:, 1:] - beta[:, None, None] * v[:, :, None] * v[:, None, 1:]
    lam, Q = np.linalg.eigh(np.swapaxes(B, 1, 2) @ H @ B)
    lam = np.abs(lam)
    floor = np.finfo(float).eps * lam.max(axis=1, keepdims=True) + np.finfo(float).tiny
    BQ = B @ Q
    c = np.einsum("rjk,rj->rk", BQ, g) / np.maximum(lam, floor)
    return U - np.einsum("rjk,rk->rj", BQ, c)


def _mm_loop(setup, U0, n_iter, p=None, ascend=False):
    """Batched majorize-minimize on the reference sphere, every restart at once.

    In reference-normalized coordinates u = D^{1/2} a the seminorm is
    f(u) = sum_i cw_i r_i(u), r_i(u) = ||L_i D^{-1/2} u|| the masked spatial
    norm of time row i for the row factors L_i of ``ObsSetup.row_factors``.
    Every candidate is scored by ``ObsSetup.time_profiles``, the evaluator of
    ``obs_seminorm_many``, so the loop accepts and stops on the values it
    reports.  The row Grams K_i = D^{-1/2} L_i^T L_i D^{-1/2}, formed once per
    call, serve only the squared maths: at the iterate u_k they reweight to
    G_w = sum_i (cw_i / r_i) K_i, and Cauchy-Schwarz gives
    f(u)^2 <= f(u_k) u^T G_w u with equality at u_k.

    The loop minimizes q(u) = sense f(u) / h(u), h = ||p u|| (p = None:
    ||u||), sense = -1 for the ascent that maximizes f.  Its monotone step
    is, for descent, the top eigenvector of the pencil (diag p^2, G_w) and,
    for ascent, the linearized one u <- G_w u / ||G_w u|| (f is convex and
    positively homogeneous).  Both gain only a constant factor per step, so
    every step also tries the saddle-free Newton step n on the sphere
    (``_newton_on_sphere``) for F = sense f - q(u_k) h, which vanishes at
    u_k and has the minimizers of q as its own; its Hessian is
    sense (G_w - sum_i (cw_i / r_i) v_i v_i^T) - q(u_k) (diag p^2 -
    grad h grad h^T) / h, with v_i = K_i u / r_i bounded by Cauchy-Schwarz
    even where r_i is tiny.  The half step u + (n - u) / 2 is scored with
    them, at no eigensolve; it leaves ridges where the full Newton step
    overshoots and the MM step crawls.  The descent's MM candidate costs one
    (lower) or two (null) eigensolves, so a restart whose last step was a
    Newton or half step forms it only if both of those fail, in the same
    step.  The best candidate is kept.  A step is taken only if q does not
    get worse, and a restart stops when no candidate improves q or after
    n_iter steps.

    Returns (U, iterations, capped): the unit iterates, the steps taken by
    each restart and whether it was still improving at the cap.
    """
    L = setup.row_factors()
    n, J = len(L), L.shape[2]
    half = setup.mass_matrix() ** 0.5
    K = np.einsum("ikj,ikl->ijl", L, L) / np.outer(half, half)
    K_rows = K.reshape(n * J, J)
    K_flat = K.reshape(n, J * J)
    cw = setup.quad_weights * setup.time_weight
    p2 = np.ones(J) if p is None else p**2
    sense = -1.0 if ascend else 1.0

    def evaluate(U):
        r = setup.time_profiles(U / half)
        den = np.sqrt(U**2 @ p2)
        q = np.divide(sense * (r @ cw), den, out=np.full(len(U), np.inf), where=den > 0)
        return q, r

    def score(C, Ui):
        # unit candidates C (k, m, J) turned toward the iterates Ui, with
        # their q (k, m) and r (k, m, n); a zero or NaN row scores q = inf
        norm = np.linalg.norm(C, axis=2, keepdims=True)
        C = np.divide(C, norm, out=np.full_like(C, np.nan), where=norm > 0)
        C *= np.where(np.sum(C * Ui, axis=2) < 0.0, -1.0, 1.0)[..., None]
        qs, rs = evaluate(C.reshape(-1, J))
        return C, qs.reshape(C.shape[:2]), rs.reshape(*C.shape[:2], n)

    U = U0 / np.linalg.norm(U0, axis=1, keepdims=True)
    q, r = evaluate(U)
    iterations = np.zeros(len(U), dtype=int)
    active = np.ones(len(U), dtype=bool)
    newton_led = np.zeros(len(U), dtype=bool)  # last step Newton or half
    for _ in range(n_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        m, Ui, ri, qi = idx.size, U[idx], r[idx], q[idx]
        W = np.divide(cw, ri, out=np.zeros((m, n)), where=ri > 0)
        G = (W @ K_flat).reshape(m, J, J)
        g = np.einsum("rjk,rk->rj", G, Ui)
        # Newton candidate, with rows X_i = sqrt(cw_i / r_i) v_i; restarts
        # with q = inf (h = 0) have none
        scale = np.divide(np.sqrt(W), ri, out=np.zeros_like(W), where=ri > 0)
        X = (Ui @ K_rows.T).reshape(m, n, J) * scale[:, :, None]
        H = G - np.swapaxes(X, 1, 2) @ X
        ok = np.isfinite(qi)
        h = np.where(ok, np.sqrt(Ui**2 @ p2), 1.0)
        qk = np.where(ok, qi, 0.0)
        dh = p2 * Ui / h[:, None]
        ddh = (np.diag(p2) - dh[:, :, None] * dh[:, None, :]) / h[:, None, None]
        newton = _newton_on_sphere(Ui, sense * g - qk[:, None] * dh,
                                   sense * H - qk[:, None, None] * ddh)
        newton[~ok] = np.nan
        # candidates: MM, Newton and the half step toward Newton; the
        # descent's MM eigensolve waits until Newton and the half step of a
        # Newton-led restart both fail
        cands = np.stack([np.full_like(Ui, np.nan), newton, 0.5 * (Ui + newton)])
        lazy = np.zeros(m, dtype=bool) if ascend else newton_led[idx]
        cands[0, ~lazy] = g if ascend else _pencil_top(G[~lazy], p)
        cands, qs, rs = score(cands, Ui)
        late = lazy & (qs.min(axis=0) >= qi)
        if late.any():
            cands[:1, late], qs[:1, late], rs[:1, late] = score(
                _pencil_top(G[late], p)[None], Ui[late])
        pick = np.argmin(qs, axis=0)
        cols = np.arange(m)
        C, qc, rc = cands[pick, cols], qs[pick, cols], rs[pick, cols]
        keep, improved = qc <= qi, qc < qi
        take = idx[keep]
        U[take], q[take], r[take] = C[keep], qc[keep], rc[keep]
        newton_led[take] = pick[keep] > 0
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

    Every start of the pool (surrogate eigendirections, coordinate axes, seeded
    random) runs both batched loops of ``_mm_loop``: each step keeps the best
    of the MM candidate (for the lower constant the smallest eigenvector of the
    reweighted row Gram, for the upper one the linearized ascent), a
    saddle-free Newton step on the sphere and the half step toward it.  A step
    costs one (J-1) x (J-1) eigensolve per restart for the Newton step, one
    J x J eigensolve for the lower MM candidate where a restart needs it, and
    a few products with the row-Gram stack, O(n_times J^2); each restart takes
    at most 250 steps (about 4-16 for the lower constant and 4-46 for the
    upper one at J=12, median 8 and 9).
    Returns one report dict: the constants c_lower and c_upper with their
    witnesses (coefficient arrays), the surrogate constants, the restart
    spread as a stagnation proxy and, per constant, the largest step count
    and whether the best restart stopped short of the cap.
    Raises ObsInvariantError if a constant breaks the Cauchy-Schwarz bridge to
    the surrogate constants, if c_lower > c_upper, or if a witness does not
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

    # witness reproducibility
    for wit, val in ((lo_wit, lo_val), (up_wit, up_val)):
        re = obs_seminorm(setup, wit / max(hs_norm(setup.basis, wit, REF_EXPONENT), 1e-300))
        if abs(re - val) > 1e-9 * max(val, 1.0):
            raise ObsInvariantError(f"witness gives {re!r}, not the reported {val!r}")
    return {"c_lower": lo_val, "c_upper": up_val,
            "witness_lower": lo_wit, "witness_upper": up_wit,
            "surrogate_lower": sur_lo, "surrogate_upper": sur_up,
            "spread_lower": spread_lo, "spread_upper": spread_up,
            "n_restarts": len(U0), "window_length": L,
            "iterations_lower": int(it_lo.max()),
            "converged_lower": not bool(cap_lo[i_lo]),
            "iterations_upper": int(it_up.max()),
            "converged_upper": not bool(cap_up[i_up])}


def null_obs_constant(setup, n_restarts=24, rng=None):
    """Largest ratio ||phi(T') y0|| / obs(y0), with an unbounded-quotient flag.

    Surrogate: top eigenpair of the final-state form against the seminorm
    Gram.  Its two top eigendirections, the coordinate axes and seeded random
    fills start the batched majorize-minimize loop of ``_mm_loop`` on
    1/c_null = min obs(y0) / ||phi(T') y0||: each step keeps the best of
    the top eigenvector of the pencil (diag phi(T')^2, G_w) of the
    reweighted row Gram, which stays defined where phi(T') vanishes, a
    saddle-free Newton step on the sphere and the half step toward it.  A
    step costs one (J-1) x (J-1) eigensolve per restart for the Newton step,
    two J x J eigensolves for the pencil where a restart needs it (its last
    step was not a Newton or half step, or both of those fail), and a few
    products with the row-Gram stack; each restart takes at most 200 steps
    (about 4-17 at J=12, median 8).  Returns (c_null, witness, report): the
    witness is the coefficient array of the best restart (a zero-observation
    direction when the quotient is unbounded), and the report carries the
    surrogate, the largest step count and whether the best restart stopped
    short of the cap.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    G = gram_matrix(setup)[0]
    lamG, VG = np.linalg.eigh(G)
    report = {"quotient_unbounded": False, "iterations": 0, "converged": True}
    if lamG[0] <= 1e-14 * max(lamG[-1], 1e-300):
        # direction with (numerically) zero observation
        w = VG[:, 0]
        if obs_seminorm(setup, w) < 1e-12 * np.linalg.norm(w):
            report["quotient_unbounded"] = True
            return math.inf, w, report
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
    return float(vals[best]), A[best], report


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
    diagonal (-eta)^laplacian_power.  Returns the basis.J coefficients.

    Projection uses a dedicated panel quadrature over the support (the basis
    grid rule is far too noisy for high modes, and generator powers amplify
    that noise); coefficients at roundoff level are zeroed exactly so the
    roughened vector stays a resolved smooth bump.
    """
    lo = max(center - half_width, 0.0)
    hi = min(center + half_width, 1.0)
    xg, wg = gauss_legendre(8)
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
    # sines only for the kept modes, built in place; the zero rows keep the
    # product's shape
    sines = np.zeros((basis.J, len(nodes)))
    kept = sines[:n_modes]
    np.outer(np.arange(1, len(kept) + 1), nodes, out=kept)
    kept *= np.pi
    np.sin(kept, out=kept)
    a = np.sqrt(2.0) * sines @ (wq * prof)
    a[np.abs(a) <= 1e-13 * np.abs(a).max()] = 0.0
    nrm = np.linalg.norm(a)
    if nrm == 0.0:
        raise ValueError("bump vanishes after projection; widen it")
    a /= nrm
    if laplacian_power:
        a = (-basis.eigenvalues) ** laplacian_power * a
    return a


def alpha_probe(setup, k_list, omega=(0.25, 0.75)):
    """Quotient trajectory of concentrating bumps under the time weight.

    Bumps of shrinking support in omega (projected to a growing mode count,
    capped at a quarter of the grid) are roughened by the square of the
    generator and scored by obs / reference-norm.  Under the critical weight
    exponent the trajectory degrades as concentration sharpens; at exponent 2
    it stays controlled.

    Returns list of records (k, width, n_modes, quotient).
    """
    basis = setup.basis
    x_lo, x_hi = omega
    mask = setup.mask
    cols = (mask.x_mid > x_lo) & (mask.x_mid < x_hi)
    # some (0, eps0) x omega lies in the mask: the first raster row observes
    # every column inside omega
    if not (cols.any() and mask.cells[0, cols].all()):
        raise ValueError("mask contains no early cylinder over omega")
    center = 0.5 * (x_lo + x_hi)
    n_cap = len(basis.x) // 4
    records = []
    for k in k_list:
        width = 0.5 * (x_hi - x_lo) / k
        n_modes = min(basis.J, n_cap, 4 + 2 * k)
        v = bump_vector(basis, center, width, n_modes=n_modes, laplacian_power=2)
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
    S, T_hi = setup.window
    t_cut = max(S, 25.0 / float(basis.eigenvalues[-1]))
    win = ObsSetup(setup.table, setup.mask, alpha=setup.alpha, window=(t_cut, T_hi))
    records = []
    dx = basis.x[1] - basis.x[0]
    for k in k_list:
        width = min(0.5 * r * (4.0 / (k + 2.0)) ** 0.6, 0.5 * r)
        v = bump_vector(basis, x_star, width, laplacian_power=J_index + 1,
                        profile_power=8, zero_mean=True)
        fn = float(np.linalg.norm(win.phi_win[:, -1] * v))
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
                a = np.exp(-basis.eigenvalues * t) * z
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
    surrogate pencil (``ObsSetup.pencil``), whose Gram is t^{2 alpha}-weighted
    in the weighted regime: there it is not the plain L2 map that
    ``reconstruct_y0`` inverts (that function reports its own pencil).
    """
    lam = setup.pencil()[0]
    top = max(lam[-1], 0.0)
    rank = int(np.sum(lam > 1e-12 * max(top, 1e-300)))
    sigma_min = math.sqrt(max(lam[0], 0.0))
    return rank, sigma_min
