import math

import numpy as np
import pytest

from memflow.flow import build_flow_table
from memflow.geometry import Mask, cylinder_mask, zigzag_mask
from memflow.inverse_control import (
    ControlProblem,
    ReconstructionProblem,
    SingularSystemError,
    discrepancy_lambda,
    duality_range_test,
    min_norm_control,
    observation_operator,
    reachability_matrix,
    reachable_difference_check,
    reconstruct_y0,
    synthesize_observation,
)
from memflow.kernels import ExpPolyFn, parse_kernel
from memflow.observability import ObsSetup, two_sided_constants
from memflow.spectral import SpectralVec, hs_norm, interval_basis

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
    rec, diag = reconstruct_y0(ReconstructionProblem(setup12, data))
    rel = hs_norm(setup12.basis, SpectralVec(rec.coeffs - truth), -4.0) \
        / hs_norm(setup12.basis, SpectralVec(truth), -4.0)
    assert rel <= 1e-6
    assert diag["rank"] == 12


def test_zero_data_with_regularization(setup12):
    data = np.zeros((len(setup12.times), len(setup12.basis.x)))
    rec, _ = reconstruct_y0(ReconstructionProblem(setup12, data, lam=1e-3))
    assert np.allclose(rec.coeffs, 0.0)


def test_noisy_round_trip_discrepancy(setup12, rng):
    truth = rng.standard_normal(12)
    truth /= np.linalg.norm(truth)
    clean = synthesize_observation(setup12, truth)
    noisy = synthesize_observation(setup12, truth, noise=0.01,
                                   rng=np.random.default_rng(5))
    _, sq = observation_operator(setup12)
    noise_norm = float(np.linalg.norm(((noisy - clean) * sq).ravel()))
    lam = discrepancy_lambda(setup12, noisy, noise_norm)
    rec, diag = reconstruct_y0(ReconstructionProblem(setup12, noisy, lam=lam))
    rel = hs_norm(setup12.basis, SpectralVec(rec.coeffs - truth), -4.0) \
        / hs_norm(setup12.basis, SpectralVec(truth), -4.0)
    assert rel <= 0.10


def test_singular_system_names_direction():
    basis = interval_basis(4, 32)
    table = build_flow_table(KERNEL, basis, 1.0, 500)
    empty = Mask(T=1.0, n_t=10, n_x=8, cells=np.zeros((10, 8), dtype=bool))
    setup = ObsSetup(table, empty, alpha=None)
    data = np.zeros((len(setup.times), 32))
    with pytest.raises(SingularSystemError) as err:
        reconstruct_y0(ReconstructionProblem(setup, data, lam=0.0))
    assert err.value.null_direction is not None


def test_indefinite_normal_equations_raise(setup12):
    data = np.zeros((len(setup12.times), len(setup12.basis.x)))
    with pytest.raises(np.linalg.LinAlgError):
        reconstruct_y0(ReconstructionProblem(setup12, data, lam=-1e30))


def test_data_shape_validation(setup12):
    with pytest.raises(ValueError):
        ReconstructionProblem(setup12, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------

def test_zero_to_zero_control():
    basis = interval_basis(6, 32)
    mask = cylinder_mask(1.0, 50, 32)
    prob = ControlProblem(KERNEL, basis, mask, 1.0,
                          SpectralVec(np.zeros(6)), SpectralVec(np.zeros(6)),
                          n_steps=500)
    res = min_norm_control(prob)
    assert np.allclose(res.u, 0.0)
    assert res.final_error < 1e-12


@pytest.mark.parametrize("mask_kind", ["full", "zigzag"])
def test_control_round_trip(mask_kind, rng):
    basis = interval_basis(12, 64)
    mask = (cylinder_mask(1.0, 100, 64) if mask_kind == "full"
            else zigzag_mask(0.1, 1.0, 100, 64))
    y0 = SpectralVec(rng.standard_normal(12))
    y1 = SpectralVec(basis.eigenvalues**-3.0, s=4.0)
    res = min_norm_control(ControlProblem(KERNEL, basis, mask, 1.0, y0, y1,
                                          n_steps=1000))
    assert res.final_error <= 1e-6
    # support honoured bit-exactly
    assert np.all(res.u[~mask.cells] == 0.0)


def test_control_first_order_optimality(rng):
    basis = interval_basis(8, 48)
    mask = zigzag_mask(0.15, 1.0, 80, 48)
    y0 = SpectralVec(rng.standard_normal(8))
    y1 = SpectralVec(basis.eigenvalues**-3.0, s=4.0)
    res = min_norm_control(ControlProblem(KERNEL, basis, mask, 1.0, y0, y1,
                                          n_steps=800))
    G, dof = reachability_matrix(KERNEL, basis, mask, 1.0, 800)
    u_dof = res.u[dof[:, 0], dof[:, 1]]
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
    y0 = SpectralVec(rng.standard_normal(8))
    y1 = SpectralVec(basis.eigenvalues**-3.0, s=4.0)
    prob = ControlProblem(KERNEL, basis, mask, 1.0, y0, y1,
                          regime="weighted_linf", alpha=2.0, n_steps=800)
    res = min_norm_control(prob)
    assert res.final_error <= 1e-6
    tm = (np.arange(mask.n_t) + 0.5) * mask.dt
    prof = np.sqrt((res.u**2).sum(axis=1) * mask.dx) * (1.0 - tm) ** -2.0
    ess_sup = prof.max()
    assert np.isfinite(ess_sup)
    assert ess_sup <= 10.0 * res.diagnostics["objective"]
    assert res.diagnostics["objective"] <= 10.0 * ess_sup


def test_weighted_regime_reports_convergence():
    basis = interval_basis(8, 48)
    y0 = SpectralVec(np.random.default_rng(20240811).standard_normal(8))
    res = min_norm_control(ControlProblem(
        KERNEL, basis, cylinder_mask(1.0, 80, 48), 1.0, y0,
        SpectralVec(basis.eigenvalues**-3.0, s=4.0),
        regime="weighted_linf", alpha=2.0, n_steps=800))
    assert res.diagnostics["irls_converged"] is True
    assert res.diagnostics["irls_iterations"] < 40


def test_control_job_sweeps_the_unforced_grid_once(rng, monkeypatch):
    """phi(T_hat) for the moment target and the replay's superposition check
    share one unforced stepper sweep; the replay adds one forced run."""
    import memflow.flow as flow
    import memflow.inverse_control as ic

    runs = []
    stepper = flow.volterra_modes

    def counted(M, etas, T, n_steps, y0=None, forcing=None):
        runs.append((n_steps, forcing is None))
        return stepper(M, etas, T, n_steps, y0=y0, forcing=forcing)

    monkeypatch.setattr(flow, "volterra_modes", counted)
    monkeypatch.setattr(ic, "volterra_modes", counted)
    basis = interval_basis(16, 64)  # substeps: eta_16 dt = 2.5 at n_steps = 1000
    mask = zigzag_mask(0.15, 1.0, 80, 64)
    res = min_norm_control(ControlProblem(
        KERNEL, basis, mask, 1.0, SpectralVec(rng.standard_normal(16)),
        SpectralVec(basis.eigenvalues**-3.0, s=4.0), n_steps=1000))
    nf = res.diagnostics["n_steps_fine"]
    assert nf == 2000
    assert sorted(runs) == [(nf, False), (nf, True)]


def test_weighted_regime_rejects_small_alpha(rng):
    basis = interval_basis(4, 16)
    mask = cylinder_mask(1.0, 40, 16)
    prob = ControlProblem(KERNEL, basis, mask, 1.0,
                          SpectralVec(np.zeros(4)), SpectralVec(np.zeros(4)),
                          regime="weighted_linf", alpha=1.0)
    with pytest.raises(ValueError):
        min_norm_control(prob)
    with pytest.raises(ValueError):
        min_norm_control(ControlProblem(KERNEL, basis, mask, 1.0,
                                        SpectralVec(np.zeros(4)),
                                        SpectralVec(np.zeros(4)),
                                        regime="bogus"))


def test_reachable_set_shift_identity(rng):
    # a control steering the memoryless system, replayed through the memory
    # system, lands on target + (memory gap of that same control)
    basis = interval_basis(8, 48)
    mask = cylinder_mask(1.0, 80, 48)
    y0 = SpectralVec(rng.standard_normal(8))
    y1 = SpectralVec(basis.eigenvalues**-3.0, s=4.0)
    res0 = min_norm_control(ControlProblem(ExpPolyFn.zero(), basis, mask, 1.0,
                                           y0, y1, n_steps=800))
    assert res0.final_error <= 1e-9
    from memflow.flow import forced_solution
    traj_m, _ = forced_solution(KERNEL, basis, y0.coeffs, res0.u, mask, 1.0, 800)
    traj_0, _ = forced_solution(ExpPolyFn.zero(), basis, y0.coeffs, res0.u,
                                mask, 1.0, 800)
    gap = traj_m[-1] - traj_0[-1]
    assert np.abs(traj_m[-1] - (y1.coeffs + gap)).max() <= 1e-9


# ---------------------------------------------------------------------------
# memory-vs-heat endpoint gap
# ---------------------------------------------------------------------------

def test_gap_single_mode(rng):
    basis = interval_basis(8, 48)
    mask = cylinder_mask(1.0, 40, 48)
    y0 = SpectralVec(np.array([1.0] + [0.0] * 7))
    out = reachable_difference_check(KERNEL, basis, y0,
                                     np.zeros((40, 48)), mask, 1.0, n_steps=400)
    assert np.abs(out["gap_coeffs"][1:]).max() < 1e-12
    assert out["smooth_norm"] > 0


def test_gap_vanishes_without_memory(rng):
    basis = interval_basis(6, 32)
    mask = cylinder_mask(1.0, 40, 32)
    u = rng.standard_normal((40, 32))
    out = reachable_difference_check(ExpPolyFn.zero(), basis,
                                     SpectralVec(rng.standard_normal(6)), u,
                                     mask, 1.0, n_steps=400)
    assert out["smooth_norm"] == 0.0


def test_gap_partial_sums_flatten(rng):
    basis = interval_basis(32, 128)
    mask = cylinder_mask(1.0, 80, 64)
    u = rng.standard_normal((80, 64))
    y0 = SpectralVec(1.0 / np.arange(1, 33))
    out = reachable_difference_check(KERNEL, basis, y0, u, mask, 1.0,
                                     n_steps=1000)
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
    assert 0.5 <= C2 * rep.c_lower <= 2.0
