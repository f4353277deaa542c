"""Measurable space-time observation sets as boolean rasters over [0,T] x [0,1].

A cell belongs to the set iff its midpoint does; the essential infimum over
space of slice time-measures becomes a minimum over raster columns.  Cells cut
by a time window [S, T'] contribute fractional measure by linear overlap.
Masks are immutable after generation and every functional here is pure.
The slice lower bound finds the zeros of the kernel with one array scan;
whether it vanishes at a point is decided by ``kernels._vanishes`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _cells, _vanishes
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


def _bisect(f, lo, hi):
    """Roots of f in the brackets [lo, hi] (arrays; f changes sign across
    each), bisected all at once.  A bracket stops at a midpoint where f is
    exactly 0, or at its midpoint once narrower than 1e-15 max(1, |hi|)."""
    out, idx, flo = np.empty(len(lo)), np.arange(len(lo)), f.eval(lo)
    while idx.size:
        mid = 0.5 * (lo + hi)
        fm = f.eval(mid)
        stop = (fm == 0.0) | (hi - lo < 1e-15 * np.maximum(1.0, np.abs(hi)))
        out[idx[stop]] = mid[stop]
        left = (flo < 0) != (fm < 0)  # the root is in [lo, mid]
        lo, hi, flo = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, flo, fm)
        idx, lo, hi, flo = idx[~stop], lo[~stop], hi[~stop], flo[~stop]
    return out


def _locate_zeros(f, S, T):
    """Zeros of an exponential polynomial on [S, T], a sorted list of (t, order).

    One array scan on ``kernels._cells(f, T - S, 4096)`` equal cells finds
    the samples where f is exactly 0, the roots across which f changes sign,
    and the roots of f' (where f' changes sign) and ends of [S, T] at which f
    vanishes (``kernels._vanishes`` at 1e-11).  All brackets are bisected at
    once; a zero within 1e-9 max(1, T) of a smaller one is dropped.
    """
    cells = _cells(f, T - S, 4096)
    ts = np.linspace(S, T, cells + 1)
    fp = f.derivative(1)
    sgn, dsgn = np.sign(f.eval(ts)), np.sign(fp.eval(ts))
    odd, crit = (np.flatnonzero(s[:-1] * s[1:] < 0) for s in (sgn, dsgn))
    stat, ends = _bisect(fp, ts[crit], ts[crit + 1]), ts[[0, -1]]
    t0 = np.sort(np.concatenate([ts[:-1][sgn[:-1] == 0.0], _bisect(f, ts[odd], ts[odd + 1]),
                                 ends[_vanishes(f, ends, 1e-11)],
                                 stat[_vanishes(f, stat, 1e-11)]]))
    t0 = t0[np.diff(t0, prepend=-np.inf) > 1e-9 * max(1.0, T)]
    order = _zero_order(f, t0)
    # a zero refined where f evaluates to 0 may sit off a higher-order zero
    # (the band of a triple zero where the cubic rounds to 0): when f^(d)
    # changes sign within a sample cell, the zero moves to f^(d)'s root if f
    # vanishes there and the order rises
    cell = (T - S) / cells
    lo, hi = np.maximum(S, t0 - cell), np.minimum(T, t0 + cell)
    moves = np.zeros(len(t0), dtype=bool)
    for d in np.unique(order[order > 0]).tolist():
        g, at = f.derivative(d), order == d
        moves[at] = np.sign(g.eval(lo[at])) * np.sign(g.eval(hi[at])) < 0
    for i in np.flatnonzero(moves).tolist():
        g = f.derivative(int(order[i]))
        while np.sign(g.eval(lo[i])) * np.sign(g.eval(hi[i])) < 0:
            t1 = _bisect(g, lo[i:i + 1], hi[i:i + 1])
            d1 = _zero_order(f, t1)[0] if _vanishes(f, t1[0], 1e-11) else 0
            if d1 <= order[i]:
                break
            t0[i], order[i], g = t1[0], d1, f.derivative(int(d1))
    if not order.all():
        t_bad = float(t0[np.argmin(order)])
        raise RootIsolationError(f"cannot determine root order near t = {t_bad} on "
                                 f"[{max(S, t_bad - 1e-3)}, {min(T, t_bad + 1e-3)}]")
    return list(zip(t0.tolist(), order.tolist()))


def _zero_order(f, t0):
    """For each t of the array t0, the first k <= 12 at which f^(k) does not
    vanish (``kernels._vanishes`` at 1e-9), or 0 when there is none."""
    order = np.zeros(len(t0), dtype=int)
    for k in range(1, 13):
        if order.all():
            break
        order[(order == 0) & ~_vanishes(f.derivative(k), t0, 1e-9)] = k
    return order


def analytic_lower_bound_check(mask, f, S, T_hi):
    """Constant and exponent for the slice lower bound through zeros of f.

    Finds the zeros t_j of f on [S, T'] with orders d_j, sets beta to the
    largest order (0 when f has no zero there), builds a constant C such that

        int chi(t,x) |f(t)| dt  >=  C * (int chi(t,x) dt)^(beta+1)

    holds for every column (C is 0.9 times the derived constant), then
    verifies the inequality column by column.  It rests on C1 with
    |f(t)| >= C1 min_j |t - t_j|^{d_j}: the least ratio on
    ``kernels._cells(f, T' - S, 8192)`` equal cells (each order's nearest
    zero by ``searchsorted``) or exact limit |f^(d)(t_j)| / d! at a zero.

    Returns (C, beta, verified, per-column margins).
    """
    if f.is_zero():
        raise ValueError("f must not vanish identically")
    zeros = _locate_zeros(f, S, T_hi)
    ts = np.linspace(S, T_hi, _cells(f, T_hi - S, 8192) + 1)
    absf = np.abs(f.eval(ts))
    if not zeros:
        beta = 0
        C = 0.9 * float(np.min(absf))
    else:
        t0, d = (np.array(v) for v in zip(*zeros))
        orders = np.unique(d).tolist()
        beta = orders[-1]
        dmin, C1 = np.full_like(ts, np.inf), math.inf
        for k in orders:
            tk = np.concatenate([[-np.inf], t0[d == k], [np.inf]])
            j = np.searchsorted(tk, ts)  # tk[j - 1] < ts <= tk[j]
            dmin = np.minimum(dmin, np.minimum(ts - tk[j - 1], tk[j] - ts) ** k)
            C1 = min(C1, float(np.abs(f.derivative(k).eval(tk[1:-1])).min()) / math.factorial(k))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dmin > 0, absf / dmin, np.inf)
        C1 = min(float(np.min(ratio)), C1)
        C2 = C1 * min(max(T_hi, 1e-12) ** (k - beta) for k in orders)
        C = 0.9 * 2.0 * C2 / (beta + 1.0) / (2.0 * len(zeros)) ** (beta + 1.0)
    mu, lhs = column_integrals(mask, f, S, T_hi)
    rhs = C * mu ** (beta + 1.0)
    return C, beta, not np.any(lhs < rhs * (1.0 - 1e-9) - 1e-300), lhs - rhs
