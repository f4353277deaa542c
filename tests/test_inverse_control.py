import math

import numpy as np
import pytest

from memflow.flow import build_flow_table
from memflow.geometry import Mask, cylinder_mask, random_rects_mask, zigzag_mask
from memflow.inverse_control import (
    _cholesky_solve,
    _influence_rows,
    SingularSystemError,
    add_noise,
    duality_range_test,
    min_norm_control,
    reachable_difference_check,
    reconstruct_y0,
    synthesize_observation,
)
from memflow.kernels import ExpPolyFn, parse_kernel
from memflow.observability import ObsSetup, two_sided_constants
from memflow.spectral import hs_norm, interval_basis

from dense_refs import (
    forced_solution,
    observation_operator,
    reachability_matrix,
    row_lengths,
)

KERNEL = parse_kernel("exp(-1*t)")


@pytest.fixture(scope="module")
def setup12():
    basis = interval_basis(12, 64)
    table = build_flow_table(KERNEL, basis, 1.3, 1300)
    mask = zigzag_mask(0.1, 1.3, 130, 64)
    return ObsSetup(table, mask, alpha=None, window=(0.0, 1.3))


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_noiseless_round_trip(setup12, rng):
    truth = rng.standard_normal(12)
    truth /= np.linalg.norm(truth)
    data = synthesize_observation(setup12, truth)
    rec, diag = reconstruct_y0(setup12, data)
    assert isinstance(rec, np.ndarray) and rec.shape == (12,)
    rel = hs_norm(setup12.basis, rec - truth, -4.0) / hs_norm(setup12.basis, truth, -4.0)
    assert rel <= 1e-6
    assert diag["rank"] == 12


def test_zero_data_with_regularization(setup12):
    data = np.zeros((len(setup12.times), len(setup12.basis.x)))
    rec, _ = reconstruct_y0(setup12, data, lam=1e-3)
    assert np.allclose(rec, 0.0)


def test_noisy_round_trip_discrepancy(setup12, rng):
    truth = rng.standard_normal(12)
    truth /= np.linalg.norm(truth)
    clean = synthesize_observation(setup12, truth)
    noisy = add_noise(setup12, clean, 0.01, np.random.default_rng(5))
    _, sq = observation_operator(setup12)
    noise_norm = float(np.linalg.norm(((noisy - clean) * sq).ravel()))
    rec, diag = reconstruct_y0(setup12, noisy, noise_norm=noise_norm)
    rel = hs_norm(setup12.basis, rec - truth, -4.0) / hs_norm(setup12.basis, truth, -4.0)
    assert rel <= 0.10


def _dense_sweep(setup, noisy, noise_norm):
    """The discrepancy sweep on the dense normal equations of
    ``observation_operator``: (lam, a) at the first lam of the x10 grid from
    1e-14 max(trace, 1) whose residual reaches 0.9 noise_norm, with the
    number of steps taken; after 60 misses, the solve at the 61st grid lam."""
    O, sq = observation_operator(setup)
    d = (noisy * sq).ravel()
    A, rhs, Dm = O.T @ O, O.T @ d, np.diag(setup.mass_matrix())
    lam = 1e-14 * max(float(np.trace(A)), 1.0)
    for k in range(61):
        a = np.linalg.solve(A + lam * Dm, rhs)
        if k == 60 or np.linalg.norm(O @ a - d) >= 0.9 * noise_norm:
            return lam, a, k
        lam *= 10.0


def _noisy_zigzag(setup):
    truth = np.random.default_rng(3).standard_normal(12)
    truth /= np.linalg.norm(truth)
    clean = synthesize_observation(setup, truth)
    noisy = add_noise(setup, clean, 0.01, np.random.default_rng(5))
    return noisy, setup.l2_norm(noisy - clean)


@pytest.mark.parametrize("inflation", [2.0, None], ids=["steps", "cap"])
def test_discrepancy_sweep_matches_the_dense_grid(setup12, inflation):
    """An inflated noise level moves the sweep past its first step (the
    residual at lam_0 is about ||noise|| sqrt(1 - J/N), already above
    0.9 ||noise||); one out of reach runs it to its cap, the solve at
    lam_0 10^60.  Both agree with the dense normal equations on the same grid."""
    noisy, noise = _noisy_zigzag(setup12)
    # the residual never exceeds ||data||, so 10 ||data|| is out of reach
    noise_norm = inflation * noise if inflation else 10.0 * setup12.l2_norm(noisy)
    lam_ref, a_ref, steps = _dense_sweep(setup12, noisy, noise_norm)
    assert steps >= 2 if inflation else steps == 60
    rec, diag = reconstruct_y0(setup12, noisy, noise_norm=noise_norm)
    assert diag["lambda"] == pytest.approx(lam_ref, rel=1e-12)
    assert np.max(np.abs(rec - a_ref)) <= 1e-9 * np.max(np.abs(a_ref))
    assert diag["residual"] == pytest.approx(setup12.l2_norm(setup12.fields(rec) - noisy),
                                             rel=1e-12)


@pytest.mark.parametrize("lam, noise_norm, want", [(None, None, 0.0), (1e-6, 1.0, 1e-6)],
                         ids=["no-noise", "explicit"])
def test_lambda_rule(setup12, lam, noise_norm, want):
    """lam = None means 0 without a noise level, and a given lam is used as
    it is: the noise level is read only by the discrepancy principle."""
    noisy, _ = _noisy_zigzag(setup12)
    assert reconstruct_y0(setup12, noisy, lam=lam, noise_norm=noise_norm)[1]["lambda"] == want


def test_singular_system_names_direction():
    basis = interval_basis(4, 32)
    table = build_flow_table(KERNEL, basis, 1.0, 500)
    empty = Mask(T=1.0, n_t=10, n_x=8, cells=np.zeros((10, 8), dtype=bool))
    setup = ObsSetup(table, empty, alpha=None)
    data = np.zeros((len(setup.times), 32))
    with pytest.raises(SingularSystemError) as err:
        reconstruct_y0(setup, data, lam=0.0)
    assert err.value.null_direction is not None


def test_indefinite_normal_equations_raise(setup12):
    data = np.zeros((len(setup12.times), len(setup12.basis.x)))
    with pytest.raises(np.linalg.LinAlgError):
        reconstruct_y0(setup12, data, lam=-1e30)


def test_data_shape_validation(setup12):
    with pytest.raises(ValueError):
        reconstruct_y0(setup12, np.zeros((3, 3)))


def test_reconstruction_leaves_the_data_writable(setup12):
    data = synthesize_observation(setup12, np.ones(12))
    reconstruct_y0(setup12, data)
    assert data.flags.writeable


def test_reconstruction_reports_the_pencil_it_inverts():
    """sigma_min and rank describe the pencil (O^T O, reference mass) of the
    map being inverted, also where the setup's surrogate pencil is
    t^{2 alpha}-weighted (alpha set, window from 0)."""
    import scipy.linalg as sla

    basis = interval_basis(8, 64)
    table = build_flow_table(KERNEL, basis, 1.0, 800)
    setup = ObsSetup(table, cylinder_mask(1.0, 80, 64, 0.2, 0.7), alpha=2.0)
    _, rep = reconstruct_y0(setup, synthesize_observation(setup, np.ones(8)))
    O, _ = observation_operator(setup)
    lam = sla.eigh(O.T @ O, np.diag(setup.mass_matrix()), eigvals_only=True)
    assert rep["sigma_min"] == pytest.approx(math.sqrt(lam[0]), rel=1e-8)
    assert rep["rank"] == np.sum(lam > 1e-12 * lam[-1]) == 8


def test_reconstruction_sigma_min_matches_the_dense_svd():
    """sigma_min is the smallest singular value of the observation map
    whitened by the reference mass, O D^{-1/2}, to roundoff: the norm of O on
    the pencil's bottom eigenvector keeps the digits that the square root of
    the smallest eigenvalue loses (4.4e-10 off here)."""
    basis = interval_basis(32, 128)
    table = build_flow_table(parse_kernel("exp(-0.8*t)"), basis, 1.0, 250)
    setup = ObsSetup(table, cylinder_mask(1.0, 250, 128, 0.2, 0.8), alpha=None)
    _, rep = reconstruct_y0(setup, synthesize_observation(setup, np.ones(32)))
    O, _ = observation_operator(setup)
    want = np.linalg.svd(O / setup.mass_matrix() ** 0.5, compute_uv=False)[-1]
    assert abs(rep["sigma_min"] - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------

def test_zero_to_zero_control():
    basis = interval_basis(6, 32)
    mask = cylinder_mask(1.0, 50, 32)
    u, rep = min_norm_control(KERNEL, basis, mask, 1.0, np.zeros(6), np.zeros(6))
    assert np.allclose(u, 0.0)
    assert rep["final_error"] < 1e-12


@pytest.mark.parametrize("mask_kind, n_y0", [
    pytest.param("full", 12, id="full"),
    pytest.param("zigzag", 12, id="zigzag"),
    pytest.param("zigzag", 8, id="zigzag-short-y0"),  # padded with zeros to J = 12
])
def test_control_round_trip(mask_kind, n_y0, rng):
    basis = interval_basis(12, 64)
    mask = (cylinder_mask(1.0, 100, 64) if mask_kind == "full"
            else zigzag_mask(0.1, 1.0, 100, 64))
    y0 = rng.standard_normal(n_y0)
    y1 = basis.eigenvalues**-3.0
    u, rep = min_norm_control(KERNEL, basis, mask, 1.0, y0, y1)
    assert rep["final_error"] <= 1e-6
    traj = forced_solution(KERNEL, basis, np.pad(y0, (0, 12 - n_y0)), u, mask, 1.0)
    assert np.abs(traj[-1] - y1).max() <= 1e-6
    # support honoured bit-exactly: +0.0 outside the mask
    assert np.all(u[~mask.cells] == 0.0) and not np.signbit(u[~mask.cells]).any()


def test_control_first_order_optimality(rng):
    basis = interval_basis(8, 48)
    mask = zigzag_mask(0.15, 1.0, 80, 48)
    y0 = rng.standard_normal(8)
    y1 = basis.eigenvalues**-3.0
    u, _ = min_norm_control(KERNEL, basis, mask, 1.0, y0, y1)
    G, dof = reachability_matrix(KERNEL, basis, mask, 1.0)
    u_dof = u[dof[:, 0], dof[:, 1]]
    _, _, Vt = np.linalg.svd(G, full_matrices=True)
    null = Vt[8:]
    rng2 = np.random.default_rng(9)
    for _ in range(10):
        z = rng2.standard_normal(null.shape[0]) @ null
        for eps in (1e-3, 1.0):
            assert np.linalg.norm(u_dof + eps * z) >= np.linalg.norm(u_dof) - 1e-8
    # least-norm solution is orthogonal to the null space
    assert np.abs(null @ u_dof).max() < 1e-8 * max(np.linalg.norm(u_dof), 1.0)


def test_weighted_regime(rng):
    basis = interval_basis(8, 48)
    mask = cylinder_mask(1.0, 80, 48)
    y0 = rng.standard_normal(8)
    y1 = basis.eigenvalues**-3.0
    u, rep = min_norm_control(KERNEL, basis, mask, 1.0, y0, y1,
                              regime="weighted_linf", alpha=2.0)
    assert rep["final_error"] <= 1e-6
    tm = (np.arange(mask.n_t) + 0.5) * mask.dt
    prof = np.sqrt((u**2).sum(axis=1) * mask.dx) * (1.0 - tm) ** -2.0
    ess_sup = prof.max()
    assert np.isfinite(ess_sup)
    assert ess_sup <= 10.0 * rep["objective"]
    assert rep["objective"] <= 10.0 * ess_sup


def test_weighted_regime_reports_convergence():
    basis = interval_basis(8, 48)
    y0 = np.random.default_rng(20240811).standard_normal(8)
    _, rep = min_norm_control(
        KERNEL, basis, cylinder_mask(1.0, 80, 48), 1.0, y0,
        basis.eigenvalues**-3.0,
        regime="weighted_linf", alpha=2.0)
    assert rep["irls_converged"] is True
    assert rep["irls_iterations"] < 40


def test_weighted_regime_stops_when_no_row_carries_control():
    """y0 = y1 = 0 needs no control: the first solve gives u = 0, so every
    row weight vanishes and the reweighting stops after one iteration."""
    basis = interval_basis(6, 48)
    u, rep = min_norm_control(KERNEL, basis, cylinder_mask(1.0, 80, 48, 0.2, 0.8), 1.0,
                              np.zeros(6), np.zeros(6), regime="weighted_linf", alpha=2.0)
    assert not u.any()
    assert rep["irls_iterations"] == 1 and rep["irls_converged"] is True
    assert rep["objective"] == 0.0 and rep["final_error"] == 0.0


CONTROL_MASKS = {
    # mask rows 0-9 empty, then one band: two runs of equal rows
    "cylinder-late": lambda: cylinder_mask(1.0, 80, 48, 0.2, 0.7, S=0.125),
    "zigzag": lambda: zigzag_mask(0.15, 1.0, 80, 48),
    "rects": lambda: random_rects_mask(3, 6, 1.0, 80, 48),
}


@pytest.mark.parametrize("mask_kind", sorted(CONTROL_MASKS))
def test_per_row_reachability_grams_match_the_dense_gram(mask_kind):
    """The control operator's gram(c) = G diag(c) G^T for c = 1 and for
    Lawson-style row weights: per mask row t it adds c_t (k_t k_t^T) o S_t,
    contracted per run of equal mask rows."""
    basis = interval_basis(8, 48)
    mask = CONTROL_MASKS[mask_kind]()
    op, _, _ = _influence_rows(KERNEL, basis, mask, 1.0)
    G, dof = reachability_matrix(KERNEL, basis, mask, 1.0)
    t_mid = (np.arange(mask.n_t) + 0.5) * mask.dt
    omega = np.random.default_rng(4).random(mask.n_t) + 0.01
    for c in (np.ones(mask.n_t), (1.0 - t_mid) ** 4 / omega):
        want = (G * c[dof[:, 0]]) @ G.T
        got = op.gram(c)
        assert np.array_equal(got, got.T)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _dense_control(kernel, basis, mask, T_hat, y0, y1, regime, alpha):
    """Reference moment solve on the dof columns of the rows before T_hat:
    (u_dof, irls_iterations, converged), with the normal matrices formed as
    G diag(1/w) G^T, G from the scipy row maps of ``reachability_matrix``
    and phi(T_hat) from a one-step exact table.  The l2 weight of a row is
    mask.dt over its length; the weighted regime's t is the midpoint of a
    row's part before T_hat."""
    G, dof = reachability_matrix(kernel, basis, mask, T_hat)
    phi = build_flow_table(kernel, basis, T_hat, 1, method="exact").phi[:, 1]
    target = y1 - phi * y0
    lengths = row_lengths(mask, T_hat)
    cells = dof[:, 0]
    gram = G @ G.T
    jitter = 1e-14 * np.trace(gram) * np.eye(len(gram))
    if regime == "l2":
        c = (mask.dt / lengths)[cells]
        return c * (G.T @ _cholesky_solve((G * c) @ G.T + jitter, target)), 0, True
    t_mid = np.arange(len(lengths)) * mask.dt + 0.5 * lengths
    rho = (T_hat - t_mid) ** (-alpha)
    omega = np.ones(len(lengths))
    for n_irls in range(1, 41):
        Gw = G / (rho[cells] ** 2 * omega[cells])[None, :]
        u_dof = Gw.T @ _cholesky_solve(G @ Gw.T + jitter, target)
        gamma = np.zeros(len(lengths))
        np.add.at(gamma, cells, u_dof**2 * mask.dx)
        gamma = np.sqrt(gamma) * rho
        new = np.where(gamma > 0, omega * gamma, 0.0)
        new /= new.sum()
        done = np.abs(new - omega / omega.sum()).max() < 1e-12
        omega = new
        if done:
            return u_dof, n_irls, True
    return u_dof, 40, False


@pytest.mark.parametrize("regime", ["l2", "weighted_linf"])
@pytest.mark.parametrize("mask_kind", sorted(CONTROL_MASKS))
def test_control_matches_the_dense_moment_solve(regime, mask_kind):
    basis = interval_basis(8, 48)
    mask = CONTROL_MASKS[mask_kind]()
    y0 = np.random.default_rng(12).standard_normal(8)
    args = (KERNEL, basis, mask, 1.0, y0, basis.eigenvalues**-3.0, regime, 2.0)
    u, rep = min_norm_control(*args)
    want, n_irls, converged = _dense_control(*args)
    it, ix = np.nonzero(mask.cells)
    u = u[it, ix]
    assert np.abs(u - want).max() <= 1e-9 * np.abs(want).max()
    assert rep["irls_iterations"] == n_irls
    assert rep["irls_converged"] is converged


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("regime", ["l2", "weighted_linf"])
@pytest.mark.parametrize("T_hat", [0.93, 1.1], ids=["cut", "stretched"])
def test_control_with_T_hat_off_the_raster(T_hat, regime):
    """T_hat inside a mask row cuts that row and drops the rows after it;
    past mask.T it stretches the last row.  Both regimes match the dense
    moment solve on those rows (at alpha = 2.5 the weight of a row past
    T_hat would be a negative number to a fractional power), leave the
    dropped rows at +0.0, and land where the scipy row maps replay them."""
    basis = interval_basis(8, 48)
    mask = zigzag_mask(0.15, 1.0, 80, 48)
    y0 = np.random.default_rng(13).standard_normal(8)
    y1 = basis.eigenvalues**-3.0
    args = (KERNEL, basis, mask, T_hat, y0, y1, regime, 2.5)
    u, rep = min_norm_control(*args)
    want, n_irls, converged = _dense_control(*args)
    R = len(row_lengths(mask, T_hat))
    assert R == (75 if T_hat < 1.0 else 80)
    it, ix = np.nonzero(mask.cells[:R])
    assert np.abs(u[it, ix] - want).max() <= 1e-9 * np.abs(want).max()
    assert (rep["irls_iterations"], rep["irls_converged"]) == (n_irls, converged)
    assert np.all(u[R:] == 0.0) and not np.signbit(u[R:]).any()
    final = forced_solution(KERNEL, basis, y0, u, mask, T_hat)[-1]
    assert abs(np.linalg.norm(final - y1) - rep["final_error"]) <= 1e-12
    assert rep["final_error"] <= 1e-6


def test_weighted_regime_rejects_small_alpha(rng):
    basis = interval_basis(4, 16)
    mask = cylinder_mask(1.0, 40, 16)
    with pytest.raises(ValueError):
        min_norm_control(KERNEL, basis, mask, 1.0, np.zeros(4), np.zeros(4),
                         regime="weighted_linf", alpha=1.0)
    with pytest.raises(ValueError):
        min_norm_control(KERNEL, basis, mask, 1.0, np.zeros(4), np.zeros(4),
                         regime="bogus")


def test_reachable_set_shift_identity(rng):
    # a control steering the memoryless system, replayed through the memory
    # system, lands on target + (memory gap of that same control)
    basis = interval_basis(8, 48)
    mask = cylinder_mask(1.0, 80, 48)
    y0 = rng.standard_normal(8)
    y1 = basis.eigenvalues**-3.0
    u0, rep0 = min_norm_control(ExpPolyFn.zero(), basis, mask, 1.0, y0, y1)
    assert rep0["final_error"] <= 1e-9
    traj_m = forced_solution(KERNEL, basis, y0, u0, mask, 1.0)
    traj_0 = forced_solution(ExpPolyFn.zero(), basis, y0, u0, mask, 1.0)
    gap = traj_m[-1] - traj_0[-1]
    assert np.abs(traj_m[-1] - (y1 + gap)).max() <= 1e-9


# ---------------------------------------------------------------------------
# memory-vs-heat endpoint gap
# ---------------------------------------------------------------------------

def test_gap_single_mode(rng):
    basis = interval_basis(8, 48)
    mask = cylinder_mask(1.0, 40, 48)
    y0 = np.array([1.0] + [0.0] * 7)
    out = reachable_difference_check(KERNEL, basis, y0,
                                     np.zeros((40, 48)), mask, 1.0)
    assert np.abs(out["gap_coeffs"][1:]).max() < 1e-12
    assert out["smooth_norm"] > 0


def test_gap_vanishes_without_memory(rng):
    basis = interval_basis(6, 32)
    mask = cylinder_mask(1.0, 40, 32)
    u = rng.standard_normal((40, 32))
    out = reachable_difference_check(ExpPolyFn.zero(), basis,
                                     rng.standard_normal(6), u,
                                     mask, 1.0)
    assert out["smooth_norm"] == 0.0


def test_gap_partial_sums_flatten(rng):
    basis = interval_basis(32, 128)
    mask = cylinder_mask(1.0, 80, 64)
    u = rng.standard_normal((80, 64))
    y0 = 1.0 / np.arange(1, 33)
    out = reachable_difference_check(KERNEL, basis, y0, u, mask, 1.0)
    assert out["tail_quartile_growth"] < 0.05


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_duality_identity():
    C2, res, C1 = duality_range_test(np.eye(3), np.eye(3),
                                     [np.array([1.0, 2.0, -1.0])])
    assert C1 == pytest.approx(1.0, rel=1e-12)
    assert C2 == pytest.approx(1.0, rel=1e-12)


def test_duality_diagonal_closed_form():
    R = np.eye(2)
    O = np.diag([1.0, 0.5])
    C2, res, C1 = duality_range_test(R, O, [np.array([1.0, 0.0]),
                                            np.array([0.0, 1.0])])
    assert C1 == pytest.approx(2.0, rel=1e-12)
    assert C2 == pytest.approx(2.0, rel=1e-12)
    assert res.max() < 1e-12


def test_duality_inconsistent_system_raises():
    # O has a genuinely smaller column space than R requires
    R = np.eye(2)
    O = np.array([[1.0, 0.0]])  # maps R^2 -> R^1, O^T y* spans only e_1
    with pytest.raises(ValueError, match="adjoint range equation inconsistent"):
        duality_range_test(R, O, [np.array([0.0, 1.0])])


def test_duality_singular_observation_consistent_xstar():
    # O^T O is singular, but x* = e_1 lies in the range of O^T
    C2, res, C1 = duality_range_test(np.eye(2), np.array([[1.0, 0.0]]),
                                     [np.array([1.0, 0.0])])
    assert C1 == math.inf
    assert res.max() <= 1e-15
    assert C2 == pytest.approx(1.0, rel=1e-12)


def test_duality_observability_instance(rng):
    basis = interval_basis(6, 32)
    table = build_flow_table(KERNEL, basis, 1.0, 800)
    setup = ObsSetup(table, cylinder_mask(1.0, 80, 32), alpha=2.0)
    from memflow.observability import gram_matrix
    G, D = gram_matrix(setup)
    L = np.linalg.cholesky(G + 1e-13 * np.trace(G) * np.eye(6))
    R = np.diag(setup.mass_matrix() ** 0.5)
    import scipy.linalg as sla
    lam, V = sla.eigh(R.T @ R, G)
    xs = [rng.standard_normal(6) for _ in range(6)] + [V[:, -1]]
    C2, _, C1 = duality_range_test(R, L.T, xs)
    assert C2 == pytest.approx(C1, rel=1e-6)
    rep = two_sided_constants(setup, n_restarts=12, rng=rng)
    assert 0.5 <= C2 * rep["c_lower"] <= 2.0
