import math

import numpy as np
import pytest

from memflow.geometry import (
    Mask,
    _locate_zeros,
    analytic_lower_bound_check,
    ball_average,
    ball_complement_mask,
    column_integrals,
    cusp_mask,
    cylinder_mask,
    mask_from_text,
    mask_generate,
    mask_to_text,
    moc_functional,
    random_rects_mask,
    slice_measure,
    weighted_slice,
    zigzag_mask,
)
from memflow.kernels import parse_kernel


@pytest.fixture(scope="module")
def zig():
    return zigzag_mask(0.1, T=1.3, n_t=130, n_x=64)


@pytest.fixture(scope="module")
def rects():
    return random_rects_mask(seed=3, count=6, T=1.0, n_t=100, n_x=50)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_cylinder_full():
    m = cylinder_mask(1.0, 50, 40)
    assert m.cells.all()


@pytest.mark.parametrize("window", [(0.0, 1.0), (0.13, 0.65)])
def test_equal_columns_give_equal_slice_measures(window):
    # a matrix product summed the last two of these 30 equal columns in
    # another order (1.0000000000000013 against 0.9999999999999998)
    m = cylinder_mask(1.0, 60, 30)
    measures = {slice_measure(m, ix, *window) for ix in range(m.n_x)}
    assert len(measures) == 1
    assert moc_functional(m, *window) in measures


def test_cylinder_band():
    m = cylinder_mask(1.0, 50, 40, x_lo=0.25, x_hi=0.5, S=0.2)
    assert not m.is_empty()
    assert slice_measure(m, m.column_at(0.1)) == 0.0
    assert slice_measure(m, m.column_at(0.3)) == pytest.approx(0.8, abs=m.dt)


def test_cell_lookup_at_edges_and_horizon():
    m = cylinder_mask(2.0, 8, 4)  # rows 0.25 wide in t, columns 0.25 wide in x
    t = np.array([0.0, 0.1, 0.2, 0.25, 0.5, 1.75, 1.999, 2.0])
    assert m.rows_at(t).tolist() == [0, 0, 0, 1, 2, 7, 7, 7]
    x = np.array([0.0, 0.2, 0.25, 0.5, 0.75, 0.99, 1.0])
    assert m.columns_at(x).tolist() == [0, 0, 1, 2, 3, 3, 3]
    assert [m.column_at(v) for v in x] == m.columns_at(x).tolist()
    assert isinstance(m.column_at(0.5), int) and m.rows_at(2.0) == 7


def test_zigzag_slice_measures(zig):
    # every column is observed for a total time eps once T > 1 + eps
    for x in (0.1, 0.25, 0.4, 0.6, 0.9):
        assert slice_measure(zig, zig.column_at(x)) == pytest.approx(0.1, abs=zig.dt)


def test_cusp_column_at_tip_empty():
    m = cusp_mask(0.5, S=0.2, T=1.0, n_t=200, n_x=101)
    assert slice_measure(m, m.column_at(0.5), 0.2, 1.0) == 0.0
    assert moc_functional(m, 0.2, 1.0) == 0.0


def test_cusp_off_tip_nonempty():
    m = cusp_mask(0.5, S=0.2, T=1.0, n_t=200, n_x=101)
    assert slice_measure(m, m.column_at(0.9), 0.2, 1.0) > 0.2


def test_random_rects_reproducible():
    a = random_rects_mask(7, 4, 1.0, 60, 30)
    b = random_rects_mask(7, 4, 1.0, 60, 30)
    assert np.array_equal(a.cells, b.cells)


def test_mask_generate_dispatch():
    m = mask_generate("zigzag", eps=0.2, T=1.5, n_t=60, n_x=30)
    assert m.provenance.startswith("zigzag")
    with pytest.raises(ValueError):
        mask_generate("nope")
    with pytest.raises(ValueError):
        mask_generate("zigzag", eps=-1.0, T=1.0, n_t=10, n_x=10)
    with pytest.raises(ValueError):
        mask_generate("cylinder", T=1.0, n_t=10, n_x=10, x_lo=0.5, x_hi=0.5)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def test_moc_full_cylinder_exact():
    m = cylinder_mask(1.0, 100, 40)
    assert moc_functional(m, 0.2, 0.9) == pytest.approx(0.7, abs=1e-12)


def test_moc_zigzag(zig):
    assert moc_functional(zig, 0.0, 1.2) == pytest.approx(0.1, abs=zig.dt)


def test_moc_is_column_minimum(zig):
    vals = [slice_measure(zig, ix, 0.0, 1.2) for ix in range(zig.n_x)]
    assert moc_functional(zig, 0.0, 1.2) == pytest.approx(min(vals), abs=1e-15)


def test_fractional_window_weights():
    m = cylinder_mask(1.0, 10, 4)  # dt = 0.1
    # window (0.05, 0.25) covers half of cell 0, all of cell 1, half of cell 2
    assert slice_measure(m, 0, 0.05, 0.25) == pytest.approx(0.2, abs=1e-14)


def test_ball_average_full():
    m = cylinder_mask(1.0, 50, 40)
    assert ball_average(m, 0.1) == pytest.approx(1.0, abs=1e-12)


def test_ball_average_missing_ball():
    m = ball_complement_mask(1.0, 50, 80, x_star=0.5, r=0.2)
    assert ball_average(m, 0.15) == 0.0
    assert ball_average(m, 0.5) > 0.0


def test_ball_average_zigzag_column_constant(zig):
    for r in (0.05, 0.2):
        assert ball_average(zig, r, 1.2) == pytest.approx(0.1, abs=2 * zig.dt)


def test_moc_implies_ball_average_dominance(rng):
    for seed in rng.integers(0, 10_000, size=50):
        m = random_rects_mask(int(seed), 5, 1.0, 60, 30)
        mv = moc_functional(m)
        for r in (0.07, 0.21):
            assert ball_average(m, r) >= mv - 1e-12


def test_monotone_under_enlargement(rects):
    extra = cylinder_mask(1.0, rects.n_t, rects.n_x, 0.4, 0.7)
    bigger = Mask(T=1.0, n_t=rects.n_t, n_x=rects.n_x,
                  cells=rects.cells | extra.cells)
    assert moc_functional(bigger) >= moc_functional(rects)
    assert ball_average(bigger, 0.1) >= ball_average(rects, 0.1)
    M = parse_kernel("exp(-1*t)")
    for ix in (3, 17, 29):
        assert weighted_slice(bigger, M, 0.0, 1.0, ix) >= \
            weighted_slice(rects, M, 0.0, 1.0, ix) - 1e-12


def test_weighted_slice_constant_kernel(zig):
    one = parse_kernel("1")
    for ix in (5, 20, 40):
        assert weighted_slice(zig, one, 0.0, 1.3, ix) == pytest.approx(
            slice_measure(zig, ix, 0.0, 1.3), rel=1e-12)


def test_weighted_slice_empty_column():
    m = cusp_mask(0.5, S=0.2, T=1.0, n_t=200, n_x=101)
    M = parse_kernel("sin(1*t)")
    assert weighted_slice(m, M, 0.2, 1.0, m.column_at(0.5)) == 0.0


def test_weighted_slice_quadrature_accuracy():
    m = cylinder_mask(1.0, 100, 10)
    M = parse_kernel("exp(-1*t)")
    got = weighted_slice(m, M, 0.0, 1.0, 4)
    assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)


def ref_weighted_slice(mask, M, S, T_hi, x_cell):
    """One column's int chi |M| dt by 4-point Gauss per active cell, the loop
    that column_integrals batches over all columns."""
    dt = mask.dt
    idx = np.flatnonzero(mask.cells[:, x_cell]
                         & (np.arange(mask.n_t) * dt < T_hi) & ((np.arange(mask.n_t) + 1) * dt > S))
    lo, hi = np.maximum(idx * dt, S), np.minimum((idx + 1) * dt, T_hi)
    xg, wg = np.polynomial.legendre.leggauss(4)
    h = 0.5 * (hi - lo)
    return sum(hk * sum(wk * abs(M.eval(lk + hk * (xk + 1.0))) for xk, wk in zip(xg, wg))
               for lk, hk in zip(lo, h))


@pytest.mark.parametrize("mask", [cylinder_mask(1.0, 60, 30), zigzag_mask(0.2, 1.3, 60, 30),
                                  random_rects_mask(3, 5, 1.0, 64, 32)])
@pytest.mark.parametrize("window", [(0.0, 1.0), (0.13, 0.65)])
def test_column_integrals_match_per_column_loop(mask, window):
    M = parse_kernel("exp(-0.8668*t) + 0.7431*t*exp(-2.2246*t)")
    mu, weighted = column_integrals(mask, M, *window)
    want = [ref_weighted_slice(mask, M, *window, ix) for ix in range(mask.n_x)]
    assert np.max(np.abs(weighted - want)) <= 1e-15 * max(want)
    # the slice measures are the ones moc_functional takes the minimum of
    assert mu.min() == moc_functional(mask, *window)
    assert [slice_measure(mask, ix, *window) for ix in range(mask.n_x)] == mu.tolist()
    assert [weighted_slice(mask, M, *window, ix) for ix in range(mask.n_x)] == weighted.tolist()


def test_cusp_weighted_slice_cube_root_fit():
    # columns near the tip: integral of |M| over the late window behaves like
    # a positive multiple of |x - x0|^(1/3) when M does not vanish at T
    T = 1.0
    m = cusp_mask(0.5, S=0.0, T=T, n_t=400, n_x=201)
    M = parse_kernel("sin(1.5707963267948966*t)")  # vanishes nowhere on (0,1]... peak at t=1
    vals, dists = [], []
    for x in (0.52, 0.56, 0.62, 0.7):
        ix = m.column_at(x)
        d = abs(m.x_mid[ix] - 0.5)
        vals.append(weighted_slice(m, M, 0.0, T, ix))
        dists.append(d)
    ratios = np.array(vals) / np.array(dists) ** (1.0 / 3.0)
    assert ratios.min() > 0.05  # c0-fit exists at raster scale


# ---------------------------------------------------------------------------
# analytic lower bound
# ---------------------------------------------------------------------------

def test_analytic_bound_constant(zig):
    C, beta, ok, _ = analytic_lower_bound_check(zig, parse_kernel("1"), 0.0, 1.3)
    assert beta == 0 and ok and C <= 1.0


def test_analytic_bound_linear_zero(rects):
    f = parse_kernel("t + -0.5")
    C, beta, ok, _ = analytic_lower_bound_check(rects, f, 0.0, 1.0)
    assert beta == 1 and ok


def test_analytic_bound_sine_full_period():
    z = zigzag_mask(0.15, T=2 * math.pi, n_t=300, n_x=64)
    C, beta, ok, _ = analytic_lower_bound_check(z, parse_kernel("sin(1*t)"),
                                                0.0, 2 * math.pi)
    assert beta == 1 and ok and C > 0


def test_analytic_bound_double_zero(rects):
    f = parse_kernel("t^2*exp(-1*t)")
    C, beta, ok, _ = analytic_lower_bound_check(rects, f, 0.0, 1.0)
    assert beta == 2 and ok


def test_analytic_bound_all_test_kernels(kernels4, zig, rects):
    for M in kernels4.values():
        for m in (zig, rects):
            C, beta, ok, _ = analytic_lower_bound_check(m, M, 0.0, m.T)
            assert ok, (C, beta)


@pytest.mark.parametrize("text, T, root, order", [
    ("exp(-1*t) + -0.5", 1.0, math.log(2.0), 1),  # bisection moves the lower end
    ("t^2 + -0.5*t + 0.0625", 1.1, 0.25, 2),       # even order: f' changes sign
    ("cos(6*t) + 1", 1.0, math.pi / 6.0, 2),
    # f'(0.9) = e^-18 is tiny against the sup of f' on [0, 1], not against
    # the moduli of the terms of f' at 0.9
    ("t*exp(-20*t) + -0.9*exp(-20*t)", 1.0, 0.9, 1),
    ("t*exp(-30*t) + -0.9*exp(-30*t)", 1.0, 0.9, 1),
    ("exp(-40*t)*cos(3*t)", 1.0, math.pi / 6.0, 1),
], ids=["simple", "double-polynomial", "double-cosine", "small-slope-20", "small-slope-30",
        "damped-cosine"])
def test_zero_located_off_the_sample_grid(text, T, root, order):
    """A zero between the 4096 samples of [0, T] is refined to roundoff and
    gets its order."""
    (t0, d), = _locate_zeros(parse_kernel(text), 0.0, T)
    assert d == order and abs(t0 - root) <= 1e-15


def test_small_values_without_a_zero_are_not_zeros():
    """exp(-30 t) is e^-30 at t = 1, tiny against its value at 0 but not
    against its own term there."""
    assert _locate_zeros(parse_kernel("exp(-30*t)"), 0.0, 1.0) == []


def test_every_zero_of_a_fast_oscillation():
    """cos(20000 t) has 6366 simple zeros (k + 1/2) pi / 20000 on [0, 1]; the
    scan takes at least 8 cells per period, so it sees each one."""
    zeros = _locate_zeros(parse_kernel("cos(20000*t)"), 0.0, 1.0)
    t0 = np.array([t for t, _ in zeros])
    assert len(zeros) == 6366 and all(d == 1 for _, d in zeros)
    assert np.abs(t0 - (np.arange(6366) + 0.5) * math.pi / 20000.0).max() <= 1e-15


def test_triple_zero_off_the_sample_grid():
    """Bisection on (t - 1/4)^3 stops inside the band where the cubic rounds
    to 0, 7.6e-7 off, where f'' clears its threshold; f'' changes sign within
    the sample cell, so the zero moves to its root and gets order 3, and the
    slice lower bound takes beta = 3."""
    f = parse_kernel("t^3 + -0.75*t^2 + 0.1875*t + -0.015625")
    for T in (1.0, 1.1):  # 1/4 is a sample of [0, 1], not of [0, 1.1]
        (t0, d), = _locate_zeros(f, 0.0, T)
        assert d == 3 and abs(t0 - 0.25) <= 1e-12
    _, beta, ok, _ = analytic_lower_bound_check(zigzag_mask(0.2, 1.1, 60, 30), f, 0.0, 1.1)
    assert beta == 3 and ok


def test_close_simple_zeros_keep_their_order():
    """(t - 1/4)^2 - 1e-8 has simple zeros 1e-4 either side of 1/4, both
    within one sample cell of the root of f'; f is -1e-8 there, no zero, so
    neither moves to it."""
    zeros = _locate_zeros(parse_kernel("t^2 + -0.5*t + 0.06249999"), 0.0, 1.1)
    assert [d for _, d in zeros] == [1, 1]
    assert np.allclose([t0 for t0, _ in zeros], [0.2499, 0.2501], rtol=0, atol=1e-13)


def test_analytic_bound_rejects_zero_function(zig):
    from memflow.kernels import ExpPolyFn
    with pytest.raises(ValueError):
        analytic_lower_bound_check(zig, ExpPolyFn.zero(), 0.0, 1.0)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_text_round_trip(zig):
    again = mask_from_text(mask_to_text(zig))
    assert again.T == zig.T
    assert again.n_t == zig.n_t and again.n_x == zig.n_x
    assert np.array_equal(again.cells, zig.cells)


def test_text_header():
    m = cylinder_mask(2.0, 8, 4)
    head = mask_to_text(m).split("\n")[0]
    assert head == "MEMFLOW-MASK v1 8 4 2.0"


def test_text_errors():
    with pytest.raises(ValueError):
        mask_from_text("BAD HEADER\n01\n10\n")
    good = mask_to_text(cylinder_mask(1.0, 4, 2))
    lines = good.strip().split("\n")
    with pytest.raises(ValueError):
        mask_from_text("\n".join(lines[:-1]))  # missing a column
    broken = lines[:]
    broken[1] = "01x1"
    with pytest.raises(ValueError):
        mask_from_text("\n".join(broken))


@pytest.mark.parametrize("make", [
    lambda: cylinder_mask(1.0, 0, 8),
    lambda: zigzag_mask(0.2, 1.0, 8, 0),
    lambda: cusp_mask(0.5, 0.0, 1.0, 8, 0),
    lambda: random_rects_mask(0, 3, 1.0, 0, 8),
    lambda: cylinder_mask(0.0, 8, 8),
    lambda: Mask(T=1.0, n_t=0, n_x=2, cells=np.zeros((0, 2), dtype=bool)),
    lambda: mask_from_text("MEMFLOW-MASK v1 4 1 0.0\n0000\n"),
    lambda: cusp_mask(0.5, 0.0, 1.0, 8, 8, exponent=-1.0),
], ids=["n_t-zero", "n_x-zero", "cusp-n_x-zero", "rects-n_t-zero", "T-zero", "mask-n_t-zero",
        "file-T-zero", "cusp-exponent-negative"])
def test_degenerate_sizes_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_save_load(tmp_path, zig):
    from memflow.geometry import load_mask, mask_to_text
    p = tmp_path / "m.mask"
    p.write_text(mask_to_text(zig))
    again = load_mask(p)
    assert np.array_equal(again.cells, zig.cells)


def test_refinement_study_zigzag():
    # doubling the raster moves the functionals by at most a fine cell
    coarse = zigzag_mask(0.1, 1.3, 130, 64)
    fine = zigzag_mask(0.1, 1.3, 260, 128)
    assert abs(moc_functional(coarse, 0.0, 1.2) -
               moc_functional(fine, 0.0, 1.2)) <= coarse.dt
    assert abs(ball_average(coarse, 0.2, 1.2) -
               ball_average(fine, 0.2, 1.2)) <= coarse.dt


def test_mask_cells_immutable(zig):
    with pytest.raises(ValueError):
        zig.cells[0, 0] = True
