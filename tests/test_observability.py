import dataclasses
import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from memflow import cli, observability

from memflow.flow import build_flow_table, first_nonzero_h_index
from memflow.geometry import (
    Mask,
    ball_complement_mask,
    cusp_mask,
    cylinder_mask,
    random_rects_mask,
    zigzag_mask,
)
from memflow.kernels import ExpPolyFn, h_coeff, parse_kernel
from memflow.observability import (
    ObsInvariantError,
    ObsSetup,
    alpha_probe,
    bump_vector,
    gram_matrix,
    heat_local_probe,
    missing_ball_probe,
    null_obs_constant,
    obs_seminorm,
    obs_seminorm_many,
    relaxed_inequality_fit,
    two_sided_constants,
    unique_continuation_rank,
)
from memflow.spectral import hs_norm, interval_basis

from dense_refs import observation_operator

ETA1 = math.pi**2


@pytest.fixture(scope="module")
def heat_table():
    return build_flow_table(ExpPolyFn.zero(), interval_basis(4, 64), 1.0, 1000)


@pytest.fixture(scope="module")
def mem_table():
    return build_flow_table(parse_kernel("exp(-1*t)"), interval_basis(4, 64),
                            1.0, 1000)


@pytest.fixture(scope="module")
def full_mask():
    return cylinder_mask(1.0, 100, 50)


@pytest.fixture(scope="module")
def empty_mask():
    return Mask(T=1.0, n_t=20, n_x=10, cells=np.zeros((20, 10), dtype=bool))


def _seminorm_and_grad(setup, a):
    """Value and (sub)gradient of the seminorm at coefficient vector a: the
    gradient reference for the optimizers, which contract the row Grams."""
    F = setup.fields(a)
    masked = setup.masked(F)
    r = np.sqrt(np.einsum("ik,ik->i", masked, F))
    cw = setup.quad_weights * setup.time_weight
    val = float(r @ cw)
    scale = np.divide(cw, r, out=np.zeros_like(r), where=r > 1e-300)
    grad = setup.adjoint(masked * scale[:, None])
    return val, grad


def e1(J=4):
    a = np.zeros(J)
    a[0] = 1.0
    return a


# ---------------------------------------------------------------------------
# seminorm
# ---------------------------------------------------------------------------

def test_seminorm_empty_mask(heat_table, empty_mask):
    setup = ObsSetup(heat_table, empty_mask, alpha=0.0)
    assert obs_seminorm(setup, e1()) == 0.0


def test_seminorm_closed_form(heat_table, full_mask):
    setup = ObsSetup(heat_table, full_mask, alpha=0.0)
    want = (1.0 - math.exp(-ETA1)) / ETA1
    assert obs_seminorm(setup, e1()) == pytest.approx(want, abs=5e-7)


def test_seminorm_homogeneity(mem_table, full_mask, rng):
    setup = ObsSetup(mem_table, full_mask, alpha=2.0)
    v = rng.standard_normal(4)
    assert obs_seminorm(setup, -2.5 * v) == pytest.approx(
        2.5 * obs_seminorm(setup, v), rel=1e-12)


def test_weight_only_applied_from_time_zero(mem_table, full_mask):
    weighted = ObsSetup(mem_table, full_mask, alpha=2.0, window=(0.0, 1.0))
    unweighted = ObsSetup(mem_table, full_mask, alpha=2.0, window=(0.3, 1.0))
    assert weighted.weighted and not unweighted.weighted


def test_negative_alpha_rejected_only_where_weighted(mem_table, full_mask):
    # t^alpha with alpha < 0 is infinite at t = 0
    with pytest.raises(ValueError, match="alpha"):
        ObsSetup(mem_table, full_mask, alpha=-1.0)
    assert not ObsSetup(mem_table, full_mask, alpha=-1.0, window=(0.3, 1.0)).weighted


def test_window_validation(mem_table, full_mask):
    with pytest.raises(ValueError):
        ObsSetup(mem_table, full_mask, window=(0.9, 0.2))
    with pytest.raises(ValueError):
        ObsSetup(mem_table, full_mask, window=(0.0, 2.0))


# ---------------------------------------------------------------------------
# gram matrix
# ---------------------------------------------------------------------------

def test_gram_empty(heat_table, empty_mask):
    G, D = gram_matrix(ObsSetup(heat_table, empty_mask, alpha=0.0))
    assert np.all(G == 0.0)
    assert np.allclose(np.diag(D), heat_table.basis.eigenvalues**-4.0)


def test_gram_symmetric_psd(mem_table, rng):
    mask = zigzag_mask(0.2, 1.0, 80, 40)
    G, _ = gram_matrix(ObsSetup(mem_table, mask, alpha=2.0))
    assert np.allclose(G, G.T)
    lam = np.linalg.eigvalsh(G)
    assert lam.min() >= -1e-12 * np.trace(G)


def test_gram_diagonal_closed_form(heat_table, full_mask):
    G, _ = gram_matrix(ObsSetup(heat_table, full_mask, alpha=0.0))
    off = np.abs(G - np.diag(np.diag(G)))
    assert off.max() < 1e-8
    etas = heat_table.basis.eigenvalues
    want = (1.0 - np.exp(-2 * etas)) / (2 * etas)
    assert np.abs(np.diag(G) - want).max() < 1e-4  # trapezoid-in-time accuracy


def test_gram_monotone_under_mask_growth(mem_table):
    small = cylinder_mask(1.0, 80, 40, x_lo=0.2, x_hi=0.6)
    big = cylinder_mask(1.0, 80, 40, x_lo=0.1, x_hi=0.8)
    Gs, _ = gram_matrix(ObsSetup(mem_table, small, alpha=2.0))
    Gb, _ = gram_matrix(ObsSetup(mem_table, big, alpha=2.0))
    lam = np.linalg.eigvalsh(Gb - Gs)
    assert lam.min() >= -1e-12 * np.trace(Gb)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_single_mode_constants(full_mask):
    table = build_flow_table(ExpPolyFn.zero(), interval_basis(1, 8), 1.0, 1000)
    setup = ObsSetup(table, full_mask, alpha=0.0)
    rep = two_sided_constants(setup, n_restarts=4)
    unit = e1(1) / ETA1**-2.0
    want = obs_seminorm(setup, unit)
    assert rep["c_lower"] == pytest.approx(want, rel=1e-9)
    assert rep["c_upper"] == pytest.approx(want, rel=1e-9)


def test_constants_ordering_and_witnesses(mem_table, rng):
    mask = zigzag_mask(0.2, 1.0, 80, 40)
    setup = ObsSetup(mem_table, mask, alpha=2.0)
    rep = two_sided_constants(setup, n_restarts=16, rng=rng)
    assert 0 < rep["c_lower"] <= rep["c_upper"]
    for wit, val in ((rep["witness_lower"], rep["c_lower"]),
                     (rep["witness_upper"], rep["c_upper"])):
        unit = wit / hs_norm(setup.basis, wit, -4.0)
        assert obs_seminorm(setup, unit) == pytest.approx(val, abs=1e-9 * max(1, val))


def test_quotient_scale_invariance(mem_table, full_mask, rng):
    setup = ObsSetup(mem_table, full_mask, alpha=2.0)
    v = rng.standard_normal(4)
    q1 = obs_seminorm(setup, v) / hs_norm(setup.basis, v, -4.0)
    q2 = obs_seminorm(setup, 777.0 * v) / hs_norm(setup.basis, 777.0 * v, -4.0)
    assert q1 == pytest.approx(q2, rel=1e-12)


def test_brute_force_sphere_two_modes(rng):
    table = build_flow_table(parse_kernel("exp(-1*t)"), interval_basis(2, 16),
                             1.0, 1000)
    setup = ObsSetup(table, cylinder_mask(1.0, 100, 50), alpha=2.0)
    th = np.deg2rad(np.arange(360))
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    A = U / setup.mass_matrix()[None, :] ** 0.5
    vals = obs_seminorm_many(setup, A)
    rep = two_sided_constants(setup, n_restarts=16, rng=rng)
    assert rep["c_lower"] == pytest.approx(vals.min(), rel=5e-3)
    assert rep["c_upper"] == pytest.approx(vals.max(), rel=5e-3)
    assert rep["spread_lower"] < 0.05


def test_null_constant_single_mode(full_mask):
    table = build_flow_table(ExpPolyFn.zero(), interval_basis(1, 8), 1.0, 2000)
    setup = ObsSetup(table, full_mask, alpha=2.0)
    val, wit, diag = null_obs_constant(setup, n_restarts=4)
    denom = 0.0
    ts = setup.times
    # closed form: e^{-eta T} / int_0^T e^{-eta t} t^2 dt
    from scipy.integrate import quad
    denom, _ = quad(lambda t: math.exp(-ETA1 * t) * t**2, 0, 1)
    assert val == pytest.approx(math.exp(-ETA1) / denom, rel=1e-3)


def test_null_constant_where_the_final_state_vanishes():
    # the discrete heat propagator of modes 9 to 12 underflows to 0 at T' = 1
    # (mode 9's is ((1 - eta dt/2) / (1 + eta dt/2))^1000, about 1e-368)
    table = build_flow_table(ExpPolyFn.zero(), interval_basis(12, 64), 1.0, 1000)
    setup = ObsSetup(table, cylinder_mask(1.0, 100, 50, x_lo=0.2, x_hi=0.7),
                     alpha=2.0)
    phiT = setup.phi_win[:, -1]
    assert np.sum(phiT == 0.0) == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, wit, diag = null_obs_constant(setup)
    assert isinstance(wit, np.ndarray) and wit.shape == (12,)
    assert np.all(np.isfinite(wit)) and diag["converged"]
    axes = max(abs(phiT[j]) / obs_seminorm(setup, e)
               for j, e in enumerate(np.eye(12)))
    assert axes <= val < math.inf
    assert val == pytest.approx(np.linalg.norm(phiT * wit)
                                / obs_seminorm(setup, wit), rel=1e-12)


def test_null_constant_unbounded_flag(mem_table, empty_mask):
    setup = ObsSetup(mem_table, empty_mask, alpha=0.0)
    val, wit, diag = null_obs_constant(setup)
    assert math.isinf(val) and diag["quotient_unbounded"]
    assert isinstance(wit, np.ndarray) and wit.shape == (setup.basis.J,)


def test_monotone_mask_lower_constant(mem_table, rng):
    small = cylinder_mask(1.0, 80, 40, x_lo=0.3, x_hi=0.6)
    big = cylinder_mask(1.0, 80, 40, x_lo=0.2, x_hi=0.8)
    lo = []
    for m in (small, big):
        setup = ObsSetup(mem_table, m, alpha=2.0)
        lo.append(two_sided_constants(setup, n_restarts=12, rng=rng)["c_lower"])
        _, sig = unique_continuation_rank(setup)
    assert lo[1] >= lo[0] - 1e-12
    sig_small = unique_continuation_rank(ObsSetup(mem_table, small, alpha=2.0))[1]
    sig_big = unique_continuation_rank(ObsSetup(mem_table, big, alpha=2.0))[1]
    assert sig_big >= sig_small - 1e-12


def test_window_reduction_sandwich(mem_table):
    # restricting to the window and weighting by t^2 sandwiches the plain
    # windowed seminorm between S^2 and T^2 multiples, per vector
    mask = zigzag_mask(0.2, 1.0, 80, 40)
    S, T = 0.4, 1.0
    win = ObsSetup(mem_table, mask, alpha=None, window=(S, T))
    restricted = Mask(T=mask.T, n_t=mask.n_t, n_x=mask.n_x,
                      cells=mask.cells & (mask.t_mid >= S)[:, None])
    wtd = ObsSetup(mem_table, restricted, alpha=2.0, window=(0.0, T))
    rng_ = np.random.default_rng(1)
    for _ in range(6):
        v = rng_.standard_normal(4)
        plain = obs_seminorm(win, v)
        weighted = obs_seminorm(wtd, v)
        assert S**2 * plain <= weighted * (1 + 1e-6) + 1e-12
        assert weighted <= T**2 * plain * (1 + 1e-6) + 1e-12


# ---------------------------------------------------------------------------
# relaxed inequality
# ---------------------------------------------------------------------------

def test_relaxed_fit_empty_mask(mem_table, empty_mask):
    setup = ObsSetup(mem_table, empty_mask, alpha=0.0)
    C, share = relaxed_inequality_fit(setup)
    assert C == pytest.approx(mem_table.basis.eigenvalues[-1] ** -1.0, rel=1e-12)
    assert share == 0.0


def test_relaxed_fit_dominates_lower_constant(mem_table, full_mask, rng):
    setup = ObsSetup(mem_table, full_mask, alpha=2.0)
    C, _ = relaxed_inequality_fit(setup, rng=rng)
    rep = two_sided_constants(setup, n_restarts=8, rng=rng)
    assert C >= rep["c_lower"] - 1e-12


def test_relaxed_fit_valid_on_fresh_samples(mem_table, rng):
    mask = zigzag_mask(0.2, 1.0, 80, 40)
    setup = ObsSetup(mem_table, mask, alpha=2.0)
    C, _ = relaxed_inequality_fit(setup, rng=rng)
    ev = setup.basis.eigenvalues
    for _ in range(64):
        a = rng.standard_normal(4)
        lhs = C * math.sqrt(float(a**2 @ ev**-4.0))
        rhs = obs_seminorm(setup, a) + math.sqrt(float(a**2 @ ev**-6.0))
        assert lhs <= rhs * (1 + 1e-9)


# ---------------------------------------------------------------------------
# rank / unique continuation
# ---------------------------------------------------------------------------

def test_rank_full_mask(mem_table, full_mask):
    rank, sig = unique_continuation_rank(ObsSetup(mem_table, full_mask, alpha=2.0))
    assert rank == 4 and sig > 0


def test_rank_empty_mask(mem_table, empty_mask):
    rank, sig = unique_continuation_rank(ObsSetup(mem_table, empty_mask, alpha=0.0))
    assert rank == 0 and sig == 0.0


def test_rank_zigzag_full(mem_table):
    mask = zigzag_mask(0.15, 1.0, 100, 50)
    rank, sig = unique_continuation_rank(ObsSetup(mem_table, mask, alpha=2.0))
    assert rank == 4 and sig > 0


def test_surrogate_pencil_solved_once_per_setup(mem_table, full_mask, monkeypatch):
    solves = []
    pencil_eigh = observability._pencil_eigh

    def counted(*args, **kwargs):
        solves.append(args)
        return pencil_eigh(*args, **kwargs)

    monkeypatch.setattr(observability, "_pencil_eigh", counted)
    setup = ObsSetup(mem_table, full_mask, alpha=2.0)
    rep = two_sided_constants(setup, n_restarts=8)
    relaxed_inequality_fit(setup)
    rank, sig = unique_continuation_rank(setup)
    assert len(solves) == 1
    assert all(np.array_equal(a, b) for a, b in zip(solves[0], gram_matrix(setup)))
    lam, V = setup.pencil()
    assert setup.pencil()[1] is V and not V.flags.writeable
    assert rep["surrogate_lower"] == math.sqrt(lam[0]) and sig == rep["surrogate_lower"]


def test_pencil_eigh_matches_scipy(mem_table, rng):
    G, D = gram_matrix(ObsSetup(mem_table, zigzag_mask(0.15, 1.0, 100, 50), alpha=2.0))
    X = rng.standard_normal((len(G), len(G)))
    for A, B in ((G, D), (np.diag(X[0] ** 2), G + 1e-13 * np.trace(G) * np.eye(len(G))),
                 (X + X.T, X @ X.T + np.eye(len(G)))):
        lam, V = observability._pencil_eigh(A, B)
        ref = scipy.linalg.eigh(A, B, eigvals_only=True)
        assert np.all(np.diff(lam) >= 0)
        assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(V.T @ B @ V - np.eye(len(G))).max() <= 1e-10
        assert np.abs(A @ V - (B @ V) * lam).max() <= 1e-10 * np.abs(A).max() * np.abs(V).max()
    with pytest.raises(np.linalg.LinAlgError):
        observability._pencil_eigh(G, np.diag([1.0, 0.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def test_bump_vector_basic():
    b = interval_basis(16, 128)
    v = bump_vector(b, 0.5, 0.1)
    assert isinstance(v, np.ndarray) and v.shape == (16,)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        bump_vector(b, 0.5, 0.1, n_modes=0)


def test_bump_zero_mean_kills_low_mode():
    b = interval_basis(16, 128)
    plain = bump_vector(b, 0.5, 0.05)
    killed = bump_vector(b, 0.5, 0.05, zero_mean=True)
    assert abs(killed[0]) < abs(plain[0]) * 0.02


def test_alpha_probe_requires_early_cylinder(mem_table):
    late = cylinder_mask(1.0, 80, 40, S=0.5)
    setup = ObsSetup(mem_table, late, alpha=1.0)
    with pytest.raises(ValueError):
        alpha_probe(setup, [1, 2], omega=(0.25, 0.75))


def test_alpha_probe_trajectory_structure(mem_table, full_mask):
    setup = ObsSetup(mem_table, full_mask, alpha=2.0)
    recs = alpha_probe(setup, [1, 2, 4], omega=(0.25, 0.75))
    assert [r["k"] for r in recs] == [1, 2, 4]
    assert all(r["quotient"] > 0 for r in recs)
    assert all(r["n_modes"] <= len(setup.basis.x) // 4 for r in recs)
    # k = 1 sanity: wide bump quotient equals a direct computation
    v = bump_vector(setup.basis, 0.5, 0.25, n_modes=recs[0]["n_modes"],
                    laplacian_power=2)
    direct = obs_seminorm(setup, v) / hs_norm(setup.basis, v, -4.0)
    assert recs[0]["quotient"] == pytest.approx(direct, rel=1e-12)


def test_alpha_probe_bounded_at_weight_two(mem_table, full_mask):
    setup = ObsSetup(mem_table, full_mask, alpha=2.0)
    recs = alpha_probe(setup, [1, 2, 4, 8, 16], omega=(0.25, 0.75))
    q = np.array([r["quotient"] for r in recs])
    assert q.max() / q.min() < 10.0


@pytest.fixture(scope="module")
def ball_setup():
    M = parse_kernel("exp(-1*t)")
    basis = interval_basis(48, 512)
    table = build_flow_table(M, basis, 1.0, 1000, method="exact")
    mask = ball_complement_mask(1.0, 100, 128, 0.5, 0.3)
    return ObsSetup(table, mask, alpha=None, window=(0.0, 1.0))


def test_missing_ball_probe_growth_and_limit(ball_setup):
    M = parse_kernel("exp(-1*t)")
    Jidx = first_nonzero_h_index(M, 1.0)
    recs = missing_ball_probe(ball_setup, 0.5, 0.3, Jidx, [2, 8, 32])
    q = [r["quotient"] for r in recs]
    assert q[-1] > q[0]  # degeneracy direction
    hJ = abs(h_coeff(M, Jidx).eval(1.0))
    assert 0.5 <= recs[-1]["final_norm"] / hJ <= 2.0
    assert not recs[0]["aliased"]


def test_missing_ball_probe_control_group(ball_setup):
    # same probes on the full mask stay bounded
    M = parse_kernel("exp(-1*t)")
    Jidx = first_nonzero_h_index(M, 1.0)
    full = cylinder_mask(1.0, 100, 128)
    setup = ObsSetup(ball_setup.table, full, alpha=None, window=(0.0, 1.0))
    recs = missing_ball_probe(setup, 0.5, 0.3, Jidx, [2, 8, 32])
    q = np.array([r["quotient"] for r in recs])
    assert q.max() / q.min() < 10.0


def test_heat_local_probe_uniformity():
    basis = interval_basis(48, 512)
    out = heat_local_probe(basis, 0.5, 0.2,
                           s_exponents=(0.0, -2.0, -4.0),
                           half_widths=(0.08, 0.04, 0.02, 0.01))
    for s, tbl in out.items():
        ratios = [r["ratio"] for r in tbl["rows"]]
        assert all(np.isfinite(ratios))
        # shrinking the bump 8x does not inflate the outside leak
        assert ratios[-1] < 2.0 * ratios[0] + 1e-12


def test_heat_local_probe_includes_t_zero():
    # at t = 0 only the projection tail of the bump lives outside the ball;
    # it is small and shrinks as the truncation refines
    r32 = heat_local_probe(interval_basis(32, 256), 0.5, 0.2,
                           s_exponents=(0.0,), t_list=(0.0,),
                           half_widths=(0.05,))[0.0]["max_ratio"]
    r64 = heat_local_probe(interval_basis(64, 512), 0.5, 0.2,
                           s_exponents=(0.0,), t_list=(0.0,),
                           half_widths=(0.05,))[0.0]["max_ratio"]
    assert r32 < 0.2
    assert r64 < r32


# ---------------------------------------------------------------------------
# the masked observation operator
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rects_setup(mem_table):
    return ObsSetup(mem_table, random_rects_mask(3, 5, 1.0, 80, 40), alpha=2.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_vec=st.integers(1, 5))
def test_operator_adjoint_identity(rects_setup, seed, n_vec):
    setup = rects_setup
    g = np.random.default_rng(seed)
    A = g.standard_normal((n_vec, setup.basis.J))
    rows = g.random(len(setup.times)) < 0.5
    W = np.zeros((len(setup.times), len(setup.basis.x)))
    W[rows] = g.standard_normal((int(rows.sum()), len(setup.basis.x)))
    batch = setup.fields(A)
    for a, F in zip(A, batch):
        np.testing.assert_allclose(setup.fields(a), F, rtol=1e-14, atol=1e-15)
        lhs = float(np.sum(F[rows] * W[rows]))
        rhs = float(a @ setup.adjoint(W))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(F[rows]) * np.linalg.norm(W)


@pytest.mark.parametrize("window", [None, (0.25, 0.9)])
def test_operator_gram_matches_materialized(mem_table, window):
    setup = ObsSetup(mem_table, zigzag_mask(0.2, 1.0, 80, 40), alpha=2.0,
                     window=window)
    O, sq = observation_operator(setup)
    want = O.T @ O
    G = setup.gram(setup.quad_weights)
    assert np.linalg.norm(G - want) <= 1e-12 * np.linalg.norm(want)
    # the reconstruction right-hand side O^T d_w through the adjoint
    D = np.random.default_rng(5).standard_normal(sq.shape)
    rhs = setup.adjoint(setup.quad_weights[:, None] * setup.masked(D))
    want = O.T @ (D * sq).ravel()
    assert np.linalg.norm(rhs - want) <= 1e-12 * np.linalg.norm(want)


ROW_GRAM_CASES = {
    # window from t = 0 over 80 mask rows, runs of 12 or 13 time rows per
    # mask row; mask row 0 is empty and row 1 is not
    "cylinder-from-0": (lambda: cylinder_mask(1.0, 80, 40, 0.2, 0.7, S=0.0125), None),
    "zigzag-from-0": (lambda: zigzag_mask(0.2, 1.0, 80, 40), None),
    # S = 0.2532 starts partway through mask row 20 of random_rects
    "rects-partway": (lambda: random_rects_mask(3, 5, 1.0, 80, 40), (0.2532, 1.0)),
    # mask rows before 0.3 and after 0.6 unmet
    "cusp-inner": (lambda: cusp_mask(0.4, 0.1, 1.0, 80, 40), (0.3, 0.6)),
    # 1500 mask rows over 1001 time rows: every other mask row or so unmet
    "rects-fine": (lambda: random_rects_mask(7, 6, 1.0, 1500, 40), (0.1, 0.9)),
    "empty": (lambda: Mask(T=1.0, n_t=20, n_x=10, cells=np.zeros((20, 10), dtype=bool)),
              (0.15, 0.7)),
}


@pytest.fixture(scope="module", params=sorted(ROW_GRAM_CASES))
def row_gram_case(request, mem_table):
    """(setup, dense row Grams O_i^T O_i / wt_i of ``observation_operator``)."""
    mask, window = ROW_GRAM_CASES[request.param]
    setup = ObsSetup(mem_table, mask(), alpha=2.0, window=window)
    O, _ = observation_operator(setup)
    O = O.reshape(len(setup.times), -1, setup.basis.J)
    dense = np.einsum("ikj,ikl->ijl", O, O) / setup.quad_weights[:, None, None]
    return setup, dense


def test_row_factors_match_the_dense_operator(row_gram_case):
    setup, dense = row_gram_case
    L = setup.row_factors()
    assert L.shape == dense.shape and not L.flags.writeable
    assert setup.row_factors() is L
    K = np.einsum("ikj,ikl->ijl", L, L)
    if not dense.any():
        assert not L.any()
    scale = np.linalg.norm(dense, axis=(1, 2))
    assert np.all(np.linalg.norm(K - dense, axis=(1, 2)) <= 1e-12 * scale)


def test_row_factors_give_the_masked_row_norms(row_gram_case):
    setup, _ = row_gram_case
    L = setup.row_factors()
    for seed in range(3):
        a = np.random.default_rng(seed).standard_normal(setup.basis.J)
        F = setup.fields(a)
        r2 = np.einsum("ik,ik->i", setup.masked(F), F)
        np.testing.assert_allclose(np.linalg.norm(L @ a, axis=1) ** 2, r2,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(setup.time_profiles(a)[0] ** 2, r2, rtol=1e-12, atol=0.0)


def test_gram_matches_the_dense_operator_under_time_weights(row_gram_case):
    """gram(coef) = O^T diag(coef / wt) O for the quadrature weights and for
    the t^{2 alpha} weights of ``gram_matrix``."""
    setup, dense = row_gram_case
    w2 = setup.times ** (2 * setup.alpha) if setup.weighted else np.ones_like(setup.times)
    for coef, G in ((setup.quad_weights, setup.gram(setup.quad_weights)),
                    (setup.quad_weights * w2, gram_matrix(setup)[0])):
        want = np.einsum("i,ijk->jk", coef, dense)
        assert np.array_equal(G, G.T)
        assert np.linalg.norm(G - want) <= 1e-12 * np.linalg.norm(want)


def test_seminorm_gradient_central_differences(mem_table):
    setup = ObsSetup(mem_table, zigzag_mask(0.2, 1.0, 80, 40), alpha=2.0)
    a = np.random.default_rng(11).standard_normal(4)
    val, grad = _seminorm_and_grad(setup, a)
    assert val == pytest.approx(obs_seminorm(setup, a), rel=1e-12)
    h = 1e-6
    fd = np.array([(_seminorm_and_grad(setup, a + h * e)[0]
                    - _seminorm_and_grad(setup, a - h * e)[0]) / (2 * h)
                   for e in np.eye(4)])
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9 * val)


def test_unreproduced_witness_raises_typed_error(mem_table, full_mask, monkeypatch):
    setup = ObsSetup(mem_table, full_mask, alpha=2.0)
    monkeypatch.setattr(observability, "obs_seminorm", lambda setup, v: 1e3)
    with pytest.raises(ObsInvariantError, match="witness"):
        two_sided_constants(setup, n_restarts=4)


# ---------------------------------------------------------------------------
# majorize-minimize against the projected-subgradient ascent it replaced
# ---------------------------------------------------------------------------

def ref_sphere_ascent(f, u0, n_iter):
    """Projected gradient ascent with backtracking on the unit sphere
    (reference: the optimizer of all three constants before majorize-
    minimize)."""
    u = u0 / np.linalg.norm(u0)
    val, g = f(u)
    step = 0.5
    for _ in range(n_iter):
        g_tan = g - (g @ u) * u
        gn = np.linalg.norm(g_tan)
        if not np.isfinite(val) or gn < 1e-15 * max(abs(val), 1e-300):
            break
        while step > 1e-14:
            cand = u + step * g_tan / max(gn, 1e-300)
            cand /= np.linalg.norm(cand)
            cval, cg = f(cand)
            if cval - val > 1e-16 * abs(val):
                u, val, g = cand, cval, cg
                step *= 1.3
                break
            step *= 0.5
        else:
            break
    return val, u


def ref_two_sided(setup, n_restarts=32, n_iter=250, rng=None):
    """(c_lower, c_upper) by the reference ascent from the same start pool."""
    half = setup.mass_matrix() ** 0.5
    V = setup.pencil()[1]
    starts = observability._start_pool(V.T * half, n_restarts, rng)

    def upward(u):
        val, grad = _seminorm_and_grad(setup, u / half)
        return val, grad / half

    def downward(u):
        val, grad = _seminorm_and_grad(setup, u / half)
        return -val, -grad / half

    lo = min(-ref_sphere_ascent(downward, u0, n_iter)[0] for u0 in starts)
    up = max(ref_sphere_ascent(upward, u0, n_iter)[0] for u0 in starts)
    return lo, up


def ref_null(setup, n_restarts=24, n_iter=200, rng=None):
    """c_null by the reference ascent of the log-ratio (bounded setups)."""
    G, _ = gram_matrix(setup)
    half = setup.mass_matrix() ** 0.5
    phiT = setup.phi_win[:, -1]

    def ratio_and_grad(u):
        a = u / half
        num = float(np.linalg.norm(phiT * a))
        den, gden = _seminorm_and_grad(setup, a)
        if den <= 1e-300:
            return math.inf, np.zeros_like(u)
        gnum = (phiT**2 * a) / max(num, 1e-300)
        g = (gnum / num - gden / den) / half
        return num / den, g

    reg = 1e-13 * np.trace(G) * np.eye(len(G))
    _, V = scipy.linalg.eigh(np.diag(phiT**2), G + reg)
    starts = [V[:, -1] * half, V[:, -2] * half]
    starts.extend(np.eye(setup.basis.J))
    while len(starts) < n_restarts:
        starts.append(rng.standard_normal(setup.basis.J))
    return max(ref_sphere_ascent(ratio_and_grad, u0, n_iter)[0] for u0 in starts)


def _constants_job(tmp_path_factory, index):
    """(config, setup) of the J=12 ``obsconst`` job of benchmark seed 701."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    _, _, cfg = workloads.make_job("constants", 701, index)
    p = tmp_path_factory.mktemp("cfg") / "c.json"
    p.write_text(json.dumps(cfg))
    cfg = cli.load_config(p)
    M = cli.parse_kernel_checked(cfg["kernel"])
    return cfg, cli._setup_from_cfg(cfg, M, J=12)


def _job_constants(cfg, setup):
    """c_lower, c_upper and c_null with the rng use of ``memflow obsconst``."""
    rng = np.random.default_rng([cfg["seed"], setup.basis.J])
    rep = two_sided_constants(setup, rng=rng)
    return np.array([rep["c_lower"], rep["c_upper"], null_obs_constant(setup, rng=rng)[0]])


@pytest.mark.parametrize("index", [0, 1, 2])
def test_mm_no_worse_than_reference_ascent(tmp_path_factory, index):
    cfg, setup = _constants_job(tmp_path_factory, index)
    lo, up, null = _job_constants(cfg, setup)
    rng = np.random.default_rng([cfg["seed"], setup.basis.J])
    ref_lo, ref_up = ref_two_sided(setup, rng=rng)
    ref_c_null = ref_null(setup, rng=rng)
    assert lo <= ref_lo * (1 + 1e-10)
    assert up >= ref_up * (1 - 1e-10)
    assert null >= ref_c_null * (1 - 1e-10)


# c_lower, c_upper and c_null of the first three jobs, as the loop without
# Newton candidates gave them
PINNED_CONSTANTS = {
    0: (0.01563847630986068, 0.14047618875652979, 36.61378540363061),
    1: (0.0988564381832229, 0.14802249708103904, 3.184687277333617),
    2: (0.0755974853339813, 0.24058599418107474, 5.286674742748659),
}


@pytest.mark.parametrize("index", [0, 1, 2])
def test_constants_pinned(tmp_path_factory, index):
    cfg, setup = _constants_job(tmp_path_factory, index)
    rng = np.random.default_rng([cfg["seed"], setup.basis.J])
    rep = two_sided_constants(setup, rng=rng)
    c_null, _, nd = null_obs_constant(setup, rng=rng)
    got = np.array([rep["c_lower"], rep["c_upper"], c_null])
    np.testing.assert_allclose(got, PINNED_CONSTANTS[index], rtol=1e-12, atol=0.0)
    if index == 2:
        # the MM step alone takes 25 and 24 steps here
        assert rep["iterations_lower"] <= 20
        assert nd["iterations"] <= 20


def test_constants_stable_under_roundoff_in_the_table(tmp_path_factory):
    cfg, setup = _constants_job(tmp_path_factory, 0)
    base = _job_constants(cfg, setup)
    table = setup.table
    for seed in range(4):
        noise = np.random.default_rng(seed).standard_normal(table.phi.shape)
        noisy = dataclasses.replace(table, phi=table.phi * (1 + 2.2e-16 * noise))
        moved = ObsSetup(noisy, setup.mask, alpha=setup.alpha, window=setup.window)
        drift = np.abs(_job_constants(cfg, moved) - base) / base
        assert drift.max() <= 1e-12, drift


@settings(max_examples=30, deadline=None)
@given(mask_seed=st.integers(0, 2**31 - 1), count=st.integers(1, 6),
       start_seed=st.integers(0, 2**31 - 1))
def test_mm_never_worse_than_its_start(mem_table, mask_seed, count, start_seed):
    # MM steps are accepted only when the quotient does not get worse; the
    # loop and the check score with the same evaluator, so the bound only
    # absorbs roundoff
    setup = ObsSetup(mem_table, random_rects_mask(mask_seed, count, 1.0, 40, 20),
                     alpha=2.0)
    half = setup.mass_matrix() ** 0.5
    u0 = np.random.default_rng(start_seed).standard_normal((1, setup.basis.J))
    u0 /= np.linalg.norm(u0)
    q0 = obs_seminorm_many(setup, u0 / half)[0]
    U, _, _ = observability._mm_loop(setup, u0, 100)
    assert obs_seminorm_many(setup, U / half)[0] <= q0 * (1 + 1e-12)
    U, _, _ = observability._mm_loop(setup, u0, 100, ascend=True)
    assert obs_seminorm_many(setup, U / half)[0] >= q0 * (1 - 1e-12)
    # the null loop minimizes f(u) / ||phi(T') u|| in the same coordinates
    p = setup.phi_win[:, -1] / half
    U, _, _ = observability._mm_loop(setup, u0, 100, p=p)
    assert (obs_seminorm_many(setup, U / half)[0] / np.linalg.norm(p * U[0])
            <= q0 / np.linalg.norm(p * u0[0]) * (1 + 1e-12))


@settings(max_examples=30, deadline=None)
@given(mask_seed=st.integers(0, 2**31 - 1), count=st.integers(1, 6),
       start_seed=st.integers(0, 2**31 - 1))
def test_mm_stops_only_where_no_candidate_improves(mem_table, mask_seed, count, start_seed):
    # the descent loops form their MM candidate only for restarts whose
    # Newton and half-step candidates fail; a restart that stops below the
    # cap must still be one that none of the three candidates improves.  The
    # loop scores its candidates with the seminorm's own evaluator, so the
    # bound only absorbs roundoff; a restart stopped early leaves gains of
    # 1e-4 and more
    setup = ObsSetup(mem_table, random_rects_mask(mask_seed, count, 1.0, 40, 20),
                     alpha=2.0)
    half = setup.mass_matrix() ** 0.5
    L = setup.row_factors()
    K = np.einsum("ikj,ikl->ijl", L, L) / np.outer(half, half)
    cw = setup.quad_weights * setup.time_weight
    U0 = np.random.default_rng(start_seed).standard_normal((4, setup.basis.J))
    for p, ascend in ((None, False), (None, True), (setup.phi_win[:, -1] / half, False)):
        sense = -1.0 if ascend else 1.0

        def q(U):
            h = np.linalg.norm(U if p is None else p * U, axis=1)
            return sense * obs_seminorm_many(setup, U / half) / h

        U, _, capped = observability._mm_loop(setup, U0, 100, p=p, ascend=ascend)
        stopped = ~capped & np.isfinite(q(U))
        q_end = q(U)[stopped]
        # one more step from the end point scores all three candidates
        U1, _, _ = observability._mm_loop(setup, U, 1, p=p, ascend=ascend)
        assert np.all(q(U1)[stopped] >= q_end - 1e-9 * np.abs(q_end))
        if not ascend:
            r = setup.time_profiles(U / half)
            W = np.divide(cw, r, out=np.zeros_like(r), where=r > 0)
            mm = observability._pencil_top(np.einsum("vi,ijk->vjk", W, K), p)
            assert np.all(q(mm)[stopped] >= q_end - 1e-9 * np.abs(q_end))


def test_mm_stop_rule_on_the_known_failing_example(mem_table):
    # failed while the loop stopped on the row-Gram quadratic form, which
    # was up to 8e-9 relative off the fields at this example's end points
    test_mm_stops_only_where_no_candidate_improves.hypothesis.inner_test(
        mem_table, mask_seed=7460, count=1, start_seed=1)


def test_time_profiles_match_the_fields_at_the_descent_end_points(mem_table):
    """At the end points of the lower loop on the known failing example of
    the stop-rule test, where the observation is tiny, the factored row norms
    agree with the masked field norms (7e-13 per row and 1.2e-13 on the
    seminorm at most); the row-Gram quadratic form was 3-6e-8 off per row and
    2.4-8.1e-9 off on the seminorm there."""
    setup = ObsSetup(mem_table, random_rects_mask(7460, 1, 1.0, 40, 20), alpha=2.0)
    half = setup.mass_matrix() ** 0.5
    U0 = np.random.default_rng(1).standard_normal((4, setup.basis.J))
    U, _, _ = observability._mm_loop(setup, U0, 100)
    cw = setup.quad_weights * setup.time_weight
    for a, r in zip(U / half, setup.time_profiles(U / half)):
        F = setup.fields(a)
        want = np.sqrt(np.einsum("ik,ik->i", setup.masked(F), F))
        assert np.all(np.abs(r - want) <= 1e-11 * want)
        assert abs(r @ cw - want @ cw) <= 1e-12 * (want @ cw)


def _dense_newton_on_sphere(U, g, H):
    """Saddle-free Newton step from the eigenpairs of the J x J projected
    Hessian P H P, P = I - u u^T (the reference for the tangent-space
    solve)."""
    J = U.shape[1]
    P = np.eye(J) - U[:, :, None] * U[:, None, :]
    lam, Q = np.linalg.eigh(P @ H @ P)
    lam = np.abs(lam)
    floor = np.finfo(float).eps * lam.max(axis=1, keepdims=True) + np.finfo(float).tiny
    PQ = P @ Q
    c = np.einsum("rjk,rj->rk", PQ, g) / np.maximum(lam, floor)
    return U - np.einsum("rjk,rk->rj", PQ, c)


@pytest.mark.parametrize("J", [1, 2, 12])
def test_tangent_newton_step_matches_the_dense_reference(J):
    g_rng = np.random.default_rng(J)
    U = g_rng.standard_normal((40, J))
    U[:3] = 0.0
    U[0, 0], U[1, 0], U[2, -1] = 1.0, -1.0, 1.0  # +-e_1 and a zero first entry
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    A = g_rng.standard_normal((40, J, J))
    H = A + np.swapaxes(A, 1, 2)
    g = g_rng.standard_normal((40, J))
    got = observability._newton_on_sphere(U, g, H)
    want = _dense_newton_on_sphere(U, g, H)
    if J == 1:
        assert np.array_equal(got, U)
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= 1e-12 * np.maximum(np.linalg.norm(want - U, axis=1), 1.0))


def test_ascent_leaves_the_cusp_ridge():
    # acceptance 07a's J = 4 cusp setup: one c_upper restart crawled along a
    # ridge to the 250-step cap, gaining about 7e-11 per step, until the
    # half step toward the Newton point was scored
    table = build_flow_table(parse_kernel("exp(-1*t)"), interval_basis(4, 64), 1.0, 1000)
    setup = ObsSetup(table, cusp_mask(0.5, 0.3, 1.0, 200, 101), alpha=None,
                     window=(0.3, 1.0))
    rep = two_sided_constants(setup, n_restarts=20, rng=np.random.default_rng(0))
    assert rep["iterations_upper"] <= 50
    assert rep["converged_upper"]
    np.testing.assert_allclose([rep["c_lower"], rep["c_upper"]],
                               [0.27636226088308397, 0.3740167331827168],
                               rtol=1e-12, atol=0.0)
