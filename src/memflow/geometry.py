"""Measurable space-time observation sets as boolean rasters over [0,T] x [0,1].

A cell belongs to the set iff its midpoint does; the essential infimum over
space of slice time-measures becomes a minimum over raster columns.  Cells cut
by a time window [S, T'] contribute fractional measure by linear overlap.
Masks are immutable after generation and every functional here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import kernel_c_norm
from .spectral import gauss_legendre

__all__ = [
    "Mask",
    "mask_generate",
    "cylinder_mask",
    "zigzag_mask",
    "cusp_mask",
    "random_rects_mask",
    "ball_complement_mask",
    "load_mask",
    "mask_to_text",
    "mask_from_text",
    "slice_measure",
    "moc_functional",
    "ball_average",
    "weighted_slice",
    "column_integrals",
    "analytic_lower_bound_check",
    "RootIsolationError",
]

MASK_MAGIC = "MEMFLOW-MASK"


@dataclass(frozen=True)
class Mask:
    """Boolean raster over [0, T] x [0, 1]; cells[i_t, i_x] midpoint semantics."""

    T: float
    n_t: int
    n_x: int
    cells: np.ndarray
    provenance: str = "custom"

    def __post_init__(self):
        _check_sizes(self.T, self.n_t, self.n_x)
        c = np.asarray(self.cells, dtype=bool)
        if c.shape != (self.n_t, self.n_x):
            raise ValueError(f"cells must have shape ({self.n_t}, {self.n_x})")
        object.__setattr__(self, "cells", c)
        c.setflags(write=False)

    @property
    def dt(self):
        return self.T / self.n_t

    @property
    def dx(self):
        return 1.0 / self.n_x

    @property
    def t_mid(self):
        return (np.arange(self.n_t) + 0.5) * self.dt

    @property
    def x_mid(self):
        return (np.arange(self.n_x) + 0.5) * self.dx

    def is_empty(self):
        return not bool(self.cells.any())

    def rows_at(self, t):
        """Raster row of each time t (an edge opens a row; t = T is in the last)."""
        return np.clip((np.asarray(t) / self.T * self.n_t).astype(int), 0, self.n_t - 1)

    def columns_at(self, x):
        """Raster column of each position x (an edge opens a column; x = 1 is in the last)."""
        return np.clip((np.asarray(x) * self.n_x).astype(int), 0, self.n_x - 1)

    def column_at(self, x):
        """Raster column index containing spatial position x."""
        return int(self.columns_at(x))


def _check_sizes(T, n_t, n_x):
    if not (T > 0 and n_t >= 1 and n_x >= 1):
        raise ValueError(f"need T > 0, n_t >= 1 and n_x >= 1 (got {T}, {n_t}, {n_x})")


def _from_predicate(T, n_t, n_x, pred, provenance):
    """The raster whose cells are those with pred(t, x) at their midpoint."""
    _check_sizes(T, n_t, n_x)
    tm, xm = (np.arange(n_t) + 0.5) * (T / n_t), (np.arange(n_x) + 0.5) / n_x
    cells = np.broadcast_to(pred(tm[:, None], xm[None, :]), (n_t, n_x)).copy()
    return Mask(T=T, n_t=n_t, n_x=n_x, cells=cells, provenance=provenance)


def cylinder_mask(T, n_t, n_x, x_lo=0.0, x_hi=1.0, S=0.0):
    """Time slab [S, T] times the spatial band (x_lo, x_hi)."""
    if x_hi <= x_lo:
        raise ValueError("empty spatial band")
    return _from_predicate(
        T, n_t, n_x,
        lambda t, x: (t > S) & (x > x_lo) & (x < x_hi),
        f"cylinder(x_lo={x_lo},x_hi={x_hi},S={S},t_hi={T})",
    )


def zigzag_mask(eps, T, n_t, n_x):
    """Slanted strip of vertical thickness eps over the tent profile.

    The strip sits between the tent map f(x) (slopes +-2, peak 1 at x = 1/2)
    and f(x) + eps, so every spatial column is observed for a total time eps
    once T >= 1 + eps, yet no fixed spatial band is observed over any time
    interval.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")

    def pred(t, x):
        tent = np.where(x < 0.5, 2.0 * x, 2.0 - 2.0 * x)
        return (t > tent) & (t < tent + eps)

    return _from_predicate(T, n_t, n_x, pred, f"zigzag(eps={eps})")


def cusp_mask(x0, S, T, n_t, n_x, exponent=1.0 / 3.0):
    """Late-time cusp {(t, x) : S < t < T, t >= T - |x - x0|^exponent}.

    x0 is snapped to the nearest cell midpoint so the touching column really
    has zero slice measure at raster resolution.
    """
    if not (0.0 <= S < T and exponent > 0):
        raise ValueError("need 0 <= S < T and exponent > 0")
    _check_sizes(T, n_t, n_x)
    dx = 1.0 / n_x
    x0s = (math.floor(x0 / dx) + 0.5) * dx
    x0s = min(max(x0s, 0.5 * dx), 1.0 - 0.5 * dx)
    return _from_predicate(
        T, n_t, n_x,
        lambda t, x: (t > S) & (t >= T - np.abs(x - x0s) ** exponent),
        f"cusp(x0={x0s},S={S},exponent={exponent})",
    )


def ball_complement_mask(T, n_t, n_x, x_star, r):
    """Everything except the space-time cylinder (0, T) x B(x_star, r)."""
    return _from_predicate(
        T, n_t, n_x,
        lambda t, x: np.abs(x - x_star) > r,
        f"ball_complement(x={x_star},r={r})",
    )


def random_rects_mask(seed, count, T, n_t, n_x):
    """Union of `count` axis-aligned random rectangles (seeded, reproducible)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    rects = [(np.sort(rng.uniform(0.0, T, size=2)), np.sort(rng.uniform(0.0, 1.0, size=2)))
             for _ in range(count)]
    return _from_predicate(
        T, n_t, n_x,
        lambda t, x: np.any([(t > t0) & (t < t1) & (x > x0) & (x < x1)
                             for (t0, t1), (x0, x1) in rects], axis=0),
        f"random_rects(seed={seed},count={count})",
    )


MASK_KINDS = ("cylinder", "zigzag", "cusp", "random_rects", "ball_complement", "file")


def mask_generate(kind, **params):
    """Dispatch constructor: ``kind`` is one of MASK_KINDS."""
    if kind not in MASK_KINDS:
        raise ValueError(f"unknown mask kind {kind!r}")
    makers = (cylinder_mask, zigzag_mask, cusp_mask, random_rects_mask,
              ball_complement_mask, load_mask)  # in the order of MASK_KINDS
    return makers[MASK_KINDS.index(kind)](**params)


# ---------------------------------------------------------------------------
# text format (bit exact)
# ---------------------------------------------------------------------------

def mask_to_text(mask):
    """v1 text form: header line, then one '0'/'1' line per x-column, time-major."""
    lines = [f"{MASK_MAGIC} v1 {mask.n_t} {mask.n_x} {mask.T!r}"]
    for ix in range(mask.n_x):
        lines.append("".join("1" if b else "0" for b in mask.cells[:, ix]))
    return "\n".join(lines) + "\n"


def mask_from_text(text):
    lines = text.strip().split("\n")
    head = lines[0].split()
    if len(head) != 5 or head[0] != MASK_MAGIC or head[1] != "v1":
        raise ValueError(f"bad mask header {lines[0]!r}")
    n_t, n_x, T = int(head[2]), int(head[3]), float(head[4])
    if len(lines) != 1 + n_x:
        raise ValueError(f"expected {n_x} column lines, got {len(lines) - 1}")
    cells = np.zeros((n_t, n_x), dtype=bool)
    for ix, line in enumerate(lines[1:]):
        if len(line) != n_t or set(line) - {"0", "1"}:
            raise ValueError(f"bad column line {ix}")
        cells[:, ix] = np.frombuffer(line.encode(), dtype=np.uint8) == ord("1")
    return Mask(T=T, n_t=n_t, n_x=n_x, cells=cells, provenance="file")


def load_mask(path):
    with open(path) as fh:
        return mask_from_text(fh.read())


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def _window_weights(mask, S, T_hi):
    """Per-time-cell overlap length with [S, T_hi] (fractional at the ends)."""
    if not (0.0 <= S < T_hi <= mask.T + 1e-12):
        raise ValueError("need 0 <= S < T' <= mask horizon")
    dt = mask.dt
    lo = np.arange(mask.n_t) * dt
    hi = lo + dt
    return np.clip(np.minimum(hi, T_hi) - np.maximum(lo, S), 0.0, dt)


def _slice_measures(mask, w):
    """Per-column sums of the window weights w over the mask cells.  Each
    column sums its own cells in time order, so equal columns give equal
    values (a matrix product may sum some columns in another order)."""
    return np.add.reduce(w[:, None] * mask.cells, axis=0)


def slice_measure(mask, x_cell, S=0.0, T_hi=None):
    """Time measure of the column slice within [S, T']."""
    T_hi = mask.T if T_hi is None else T_hi
    return float(_slice_measures(mask, _window_weights(mask, S, T_hi))[x_cell])


def moc_functional(mask, S=0.0, T_hi=None):
    """Minimum over spatial columns of the slice time-measure on [S, T'].

    Positivity is the moving-observation condition at raster resolution.
    """
    T_hi = mask.T if T_hi is None else T_hi
    return float(np.min(_slice_measures(mask, _window_weights(mask, S, T_hi))))


def ball_average(mask, r, T_hi=None):
    """Worst ball-averaged cumulative observation time.

    For every center on the spatial grid, average the per-column values
    int_0^T' chi(t, x) dt over the ball of radius r clipped to [0, 1]; return
    the infimum over centers.
    """
    if r <= 0:
        raise ValueError("r must be > 0")
    T_hi = mask.T if T_hi is None else T_hi
    col = _slice_measures(mask, _window_weights(mask, 0.0, T_hi))
    xm = mask.x_mid
    best = math.inf
    for c in xm:
        sel = np.abs(xm - c) <= r
        best = min(best, float(np.mean(col[sel])))
    return best


def weighted_slice(mask, M, S, T_hi, x_cell):
    """int_S^T' chi(t, x) |M(t)| dt for one column, by 4-point Gauss quadrature
    per cell."""
    return float(column_integrals(mask, M, S, T_hi)[1][x_cell])


def column_integrals(mask, f, S, T_hi):
    """Per-column slice measures int_S^T' chi(t, x) dt and integrals
    int_S^T' chi(t, x) |f(t)| dt, from one set of window weights and one
    4-point Gauss rule per time cell that meets the window."""
    w = _window_weights(mask, S, T_hi)
    live = np.flatnonzero(w > 0)
    lo = np.maximum(live * mask.dt, S)
    hi = np.minimum((live + 1) * mask.dt, T_hi)
    xg, wg = gauss_legendre(4)
    h = 0.5 * (hi - lo)
    nodes = lo[:, None] + h[:, None] * (xg[None, :] + 1.0)
    cell = np.zeros(mask.n_t)
    cell[live] = h * (np.abs(f.eval(nodes.ravel())).reshape(nodes.shape) @ wg)
    # each column sums its own active cells in time order, as it would alone
    active = mask.cells & (w > 0)[:, None]
    return (_slice_measures(mask, w),
            np.array([np.sum(cell[active[:, ix]]) for ix in range(mask.n_x)]))


# ---------------------------------------------------------------------------
# lower bound through zeros of an analytic factor
# ---------------------------------------------------------------------------

class RootIsolationError(RuntimeError):
    """Root isolation failed on the reported interval."""


def _refine_root(f, lo, hi):
    flo = f.eval(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f.eval(mid)
        if fm == 0.0 or hi - lo < 1e-15 * max(1.0, abs(hi)):
            return mid
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _locate_zeros(f, S, T):
    """Zeros of an exponential polynomial on [S, T] with multiplicities.

    Sign changes of f give odd-order roots; sign changes of f' where |f| dips
    to the noise floor give even-order roots.  Orders come from the first
    derivative that clears a scale-relative threshold.
    """
    samples = 4096
    ts = np.linspace(S, T, samples + 1)
    vals = f.eval(ts)
    scale0 = kernel_c_norm(f, 0, max(T, 1e-12))
    roots = []
    sgn = np.sign(vals)
    for i in range(samples):
        if sgn[i] == 0.0:
            roots.append(ts[i])
        elif sgn[i] * sgn[i + 1] < 0:
            roots.append(_refine_root(f, ts[i], ts[i + 1]))
    # endpoint roots need no sign change inside the interval
    for t_end in (ts[0], ts[-1]):
        if abs(f.eval(t_end)) <= 1e-11 * max(scale0, 1e-300):
            roots.append(t_end)
    # even-order roots: stationary points of f where f nearly vanishes
    fp = f.derivative(1)
    dvals = fp.eval(ts)
    dsgn = np.sign(dvals)
    for i in range(samples):
        if dsgn[i] * dsgn[i + 1] < 0:
            t0 = _refine_root(fp, ts[i], ts[i + 1])
            if abs(f.eval(t0)) <= 1e-11 * max(scale0, 1e-300):
                roots.append(t0)
    # dedupe
    roots = sorted(roots)
    merged = []
    for t0 in roots:
        if not merged or t0 - merged[-1] > 1e-9 * max(1.0, T):
            merged.append(t0)
    out = []
    for t0 in merged:
        order = None
        for k in range(1, 13):
            thresh = 1e-9 * max(kernel_c_norm(f, k, max(T, 1e-12)), 1e-300)
            if abs(f.derivative(k).eval(t0)) > thresh:
                order = k
                break
        if order is None:
            raise RootIsolationError(
                f"cannot determine root order near t = {t0} on "
                f"[{max(S, t0 - 1e-3)}, {min(T, t0 + 1e-3)}]"
            )
        out.append((float(t0), order))
    return out


def analytic_lower_bound_check(mask, f, S, T_hi):
    """Constant and exponent for the slice lower bound through zeros of f.

    Finds the zeros of f on [S, T'] with orders, sets beta to the largest
    order (0 when f has no zero there), builds a constant C such that

        int chi(t,x) |f(t)| dt  >=  C * (int chi(t,x) dt)^(beta+1)

    holds for every column (C is 0.9 times the derived constant), then
    verifies the inequality column by column.

    Returns (C, beta, verified, per-column margins).
    """
    if f.is_zero():
        raise ValueError("f must not vanish identically")
    zeros = _locate_zeros(f, S, T_hi)
    ts = np.linspace(S, T_hi, 8193)
    absf = np.abs(f.eval(ts))
    Tscale = max(T_hi, 1e-12)
    if not zeros:
        beta = 0
        C = 0.9 * float(np.min(absf))
    else:
        beta = max(d for _, d in zeros)
        # |f(t)| >= C1 * min_j |t - t_j|^{d_j}: take the sampled minimum of the
        # ratio, with the exact limit value |f^(d)}(t_j)| / d_j! at each zero.
        dmin = np.full_like(ts, np.inf)
        for t0, d in zeros:
            dmin = np.minimum(dmin, np.abs(ts - t0) ** d)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dmin > 0, absf / dmin, np.inf)
        C1 = float(np.min(ratio))
        for t0, d in zeros:
            C1 = min(C1, abs(f.derivative(d).eval(t0)) / math.factorial(d))
        C2 = C1 * min(Tscale ** (d - beta) for _, d in zeros)
        m = len(zeros)
        C = 0.9 * 2.0 * C2 / (beta + 1.0) / (2.0 * m) ** (beta + 1.0)
    mu, lhs = column_integrals(mask, f, S, T_hi)
    rhs = C * mu ** (beta + 1.0)
    return C, beta, not np.any(lhs < rhs * (1.0 - 1e-9) - 1e-300), lhs - rhs
