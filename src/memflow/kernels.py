"""Exact algebra of exponential polynomials.

Memory kernels and everything derived from them (derivatives, convolution
powers, the coefficient sequences of the flow decomposition, the bivariate
series kernel) live in the family

    f(t) = sum_k  c_k * t^{m_k} * exp(a_k t) * {cos, sin}(b_k t),

which is closed under differentiation, pointwise products and finite
convolution on [0, inf).  All values are immutable and all operations pure.

An ExpPolyFn stores one form: the distinct rates z and an array C[z, m] with

    f(t) = Re sum_z e^{z t} sum_m C[z, m] t^m.

Rates have Im z >= 0 (a conjugate pair is folded into one rate, its
coefficient doubled) and are sorted by (Re z, Im z); C is real when every
rate is.  At z = a + ib the cos and sin coefficients of t^m e^{a t} are
Re C[z, m] and -Im C[z, m].  Sums, derivatives, products and convolutions
work on these rows; (c, m, a, b, phase) tuples are only what the
constructors take and what the printer writes.  Convolution with g is one
linear map on the rows (``_conv_map``, from the partial-fraction principal
parts), so the convolution powers M^{*j} come from one precomputed step
per kernel: ``_power_table`` applies M's map to each power in turn, one
real matrix-vector product per power, and holds the first 40 powers (the
terms the flow routes sum) in one array T[j-1, z, m].  The series kernel
K(t, s) = sum_j ((-s)^j / j!) M^{*j}(t-s), cut at a fixed number of terms
with no a-priori bound on the rest, reads that table as one array
C[z, p, m] = (-1)^p T[p-1, z, m] over (s^p / p!) (t-s)^m, on which d/ds is
exact.  The flow decomposition is integration by parts in s:
h_l(t) = d^l/ds^l K(t, 0), p_l(t) = -d^l/ds^l K(t, t), and R_N integrates
d^N/ds^N K.  h_l and R_N are read off that array; p_l is a polynomial
whose coefficients are power-series products of the Taylor data of M at
0.  The rows are also the memory states of the state-space realization
M(t) = c^T e^{A t} b (``realization``), from which every propagator of
the flow starts.  One evaluator, ``_eval_compiled``, serves every value
of a kernel and of the series kernel: it forms the powers of t-s and of
s by running products and meets them with Re C and Im C in real matrix
products, so e^{z(t-s)} is its only complex arithmetic.  The objects
derived from a kernel (the power table, convolution powers, h_l, p_l,
``km_partial``, the sups behind the C^N norms) are kept in a memo on the
kernel and live as long as it does.
"""

from __future__ import annotations

import functools
import math
import operator
import re

import numpy as np

__all__ = [
    "ExpPolyFn",
    "KernelParseError",
    "conv_power",
    "h_coeff",
    "p_coeff",
    "kernel_c_norm",
    "BivariateKernel",
    "km_partial",
    "realization",
    "parse_kernel",
    "format_kernel",
]

# Relative magnitude below which a coefficient is treated as cancellation noise.
CANCEL_TOL = 1e-15
# Series terms the flow routes sum; the power table holds at least this many.
SERIES_TERMS = 40


def _kept_on_kernel(fn):
    """Memoize fn(M, *args) in the memo of the ExpPolyFn M."""
    @functools.wraps(fn)
    def kept(M, *args, **kwargs):
        key = (fn.__name__, *args, *sorted(kwargs.items()))
        hit = M._memo.get(key)
        if hit is None:
            hit = M._memo[key] = fn(M, *args, **kwargs)
        return hit
    return kept


class ExpPolyFn:
    """A real exponential polynomial, stored as the rows (rates, C) of the
    module docstring.

    Stored form: no two rows share a rate, cos and sin coefficients at or
    below 1e-15 of the largest one are dropped (resonant convolutions
    generate near-cancelling pairs), and there are no zero rows and no
    trailing zero columns.  ``ExpPolyFn(terms)`` takes tuples
    (c, m, a, b, phase), each the term c t^m e^{a t} phase(b t) with phase
    "cos" or "sin".
    """

    __slots__ = ("rates", "C", "_memo")

    def __init__(self, terms=()):
        rows = []
        for c, m, a, b, phase in terms:
            row = np.zeros(int(m) + 1, dtype=complex)
            row[-1] = -1j * c if phase == "sin" else c
            rows.append((complex(a, b), row))
        self._store(rows)

    @staticmethod
    def _of_rows(rows):
        f = object.__new__(ExpPolyFn)
        f._store(rows)
        return f

    def _store(self, rows):
        """Set the stored form of sum Re e^{z t} sum_m row[m] t^m over the
        (z, row) pairs, which may repeat a rate or have Im z < 0."""
        rows = list(rows)
        rates = np.array([z for z, _ in rows], dtype=complex)
        C = np.zeros((len(rows), max((len(row) for _, row in rows), default=1)),
                     dtype=complex)
        for k, (_, row) in enumerate(rows):
            C[k, :len(row)] = row
        low = rates.imag < 0.0  # Re(c e^{conj(z) t}) = Re(conj(c) e^{z t})
        rates[low], C[low] = rates[low].conj(), C[low].conj()
        C.imag[rates.imag == 0.0] = 0.0
        rates, slot = np.unique(rates, return_inverse=True)
        packed, C = C, np.zeros((len(rates), C.shape[1]), dtype=complex)
        np.add.at(C, slot, packed)
        cos, sin = C.real, C.imag  # views: Re C and -Im C are the cos and sin terms
        tol = CANCEL_TOL * max(np.abs(cos).max(initial=0.0), np.abs(sin).max(initial=0.0))
        cos[np.abs(cos) <= tol] = sin[np.abs(sin) <= tol] = 0.0
        live = C.any(axis=1)
        cols = np.flatnonzero(C.any(axis=0))
        rates, C = rates[live], C[live, :cols[-1] + 1 if cols.size else 1]
        if not rates.imag.any():
            rates, C = rates.real.copy(), C.real.copy()
        rates.flags.writeable = C.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, *a):  # immutable
        raise AttributeError("ExpPolyFn is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return ExpPolyFn()

    @staticmethod
    def const(c):
        return ExpPolyFn([(float(c), 0, 0.0, 0.0, "cos")])

    @staticmethod
    def term(coeff=1.0, power=0, rate=0.0, freq=0.0, phase="cos"):
        return ExpPolyFn([(coeff, power, rate, freq, phase)])

    # -- basics --------------------------------------------------------------

    def is_zero(self):
        return self.rates.size == 0

    def eval(self, t):
        return _eval_compiled(self.rates, self.C[:, None, :], t)

    __call__ = eval

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = ExpPolyFn.const(other)
        return ExpPolyFn._of_rows([*zip(self.rates, self.C), *zip(other.rates, other.C)])

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return ExpPolyFn._of_rows(zip(self.rates, other * self.C))
        # Re(F) g = Re(F g) for real g: rates add, coefficient rows multiply
        return ExpPolyFn._of_rows((z + w, np.convolve(a, b))
                                  for z, a in zip(self.rates, self.C)
                                  for w, b in _unfolded(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"ExpPolyFn({format_kernel(self)!r})"

    # -- calculus ------------------------------------------------------------

    @_kept_on_kernel
    def derivative(self, k=1):
        """Exact k-th derivative: C'[z, m] = z C[z, m] + (m+1) C[z, m+1]."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        if k == 0:
            return self
        f = self.derivative(k - 1)
        C = f.rates[:, None] * f.C
        C[:, :-1] += np.arange(1, C.shape[1]) * f.C[:, 1:]
        return ExpPolyFn._of_rows(zip(f.rates, C))

    def convolve(self, other):
        """Exact convolution (f*g)(t) = int_0^t f(t-u) g(u) du: g's linear
        step (``_conv_map``) applied once to the rows of f."""
        rates, G = _conv_map(self.rates, other, self.C.shape[1])
        y = G @ _to_layout(self.rates, self.C).ravel()
        width = self.C.shape[1] + other.C.shape[1]
        return ExpPolyFn._of_rows(zip(rates, _from_layout(rates, y.reshape(width, -1))))


def _unfolded(g):
    """Rows (w, b) of g with sum_w e^{w t} b(t) = g(t): each complex row
    split into itself and its conjugate, each with half the coefficient."""
    for w, b in zip(g.rates, g.C):
        if w.imag == 0.0:
            yield w, b
        else:
            yield w, 0.5 * b
            yield w.conjugate(), 0.5 * b.conj()


@functools.cache
def _pascal(size):
    """Read-only table of the binomials C(i, j), i, j < size, as floats: rows
    of Pascal's rule on Python integers, rounded once."""
    rows, row = [], [1]
    for _ in range(size):
        rows.append(row + [0] * (size - len(row)))
        row = [1, *map(operator.add, row, row[1:]), 1]
    table = np.array(rows, dtype=float)
    table.flags.writeable = False
    return table


def _binomials(n):
    """A table of the binomials C(i, j) for i, j < n at least; its size is a
    power of two, so the cache holds a few tables."""
    return _pascal(max(64, 1 << (n - 1).bit_length()))


def _im_slots(rates):
    """The real layout x[m, slot] of rows C[z, m] on ``rates``: slot k holds
    Re C[k], and the slots after them hold Im C of the complex rates in
    order; the slot of Im C[k] (-1 for a real rate)."""
    cplx = np.asarray(rates).imag != 0.0
    return np.where(cplx, len(cplx) + np.cumsum(cplx) - 1, -1)


def _to_layout(rates, C):
    """Rows C[z, m] on ``rates`` as their real layout x[m, slot]."""
    return np.concatenate([C.real, C.imag[_im_slots(rates) >= 0]]).T


def _from_layout(rates, x):
    """Rows C[..., z, m] on ``rates`` of the real layout x[..., m, slot]; real
    when every rate is."""
    cplx = _im_slots(rates) >= 0
    C = np.swapaxes(x[..., :len(cplx)], -1, -2)
    if cplx.any():
        C = C + 0j
        C[..., cplx, :] += 1j * np.swapaxes(x[..., len(cplx):], -1, -2)
    return C


def _falling(w, n):
    """v[i] = i! / w^(i+1), i < n, by running products (never forming i! alone)."""
    ratios = np.arange(n) / w
    ratios[0] = 1.0 / w
    return np.cumprod(ratios)


def _conv_map(zs, g, width):
    """The linear step a -> a * g on coefficient rows a of the given width
    on the rates zs.  Returns the rates of the result (zs and g's rates) and
    the step as a real matrix from the real layout (``_im_slots``) of rows of
    that width to the real layout of rows of width + Q, Q being g's row
    width: it maps the flattened x[i, slot] to the flattened y[n, slot], so
    rows of a width P < ``width`` take its leading block of P columns of x
    and P + Q rows of y.

    Re(F) * g = Re(F * g) for real g, so each row (z, a) meets each row
    (w, b) of g and of its conjugate (``_unfolded``) once.  Rates closer
    than 1e-12 (relative) are resonant: t^p * t^q under e^{z t} is
    p! q! / (p+q+1)! t^(p+q+1).  Otherwise the result is the partial-fraction
    principal parts at z and at w; at z

        r[n] = sum_k C(n+k, k) a[n+k] (-1)^k sum_q b[q] (q+k)! / (z-w)^(q+k+1),

    the Laplace principal part of the two factors (the second one expanded in
    powers of s - z), and at w the same with (z, a) and (w, b) swapped; a
    row at Im w < 0 is conjugated onto conj(w).  Rate gaps that are tiny but
    above the threshold are inherently ill-conditioned in this representation
    (the closed form divides by powers of the gap).  The entries read by rows
    narrower than ``width`` are exactly those of a map built for them; past
    them, the i! / w^(i+1) factors may overflow.
    """
    Q = g.C.shape[1]
    rates = np.unique(np.concatenate([zs, g.rates]))
    where = {z: k for k, z in enumerate(rates.tolist())}
    im_out, im_in = _im_slots(rates), _im_slots(zs)
    n_out, n_in = len(rates) + np.sum(im_out >= 0), len(zs) + np.sum(im_in >= 0)
    G = np.zeros((width + Q, n_out, width, n_in))

    def put(X, t, z, sign=1.0):
        """Add the complex block X (rows at rate t, columns at input rate z),
        conjugated when sign is -1."""
        block, ti, zi = G[:X.shape[0], :, :X.shape[1]], im_out[t], im_in[z]
        block[:, t, :, z] += X.real
        if zi >= 0:
            block[:, t, :, zi] -= X.imag
        if ti >= 0:
            block[:, ti, :, z] += sign * X.imag
            if zi >= 0:
                block[:, ti, :, zi] += sign * X.real

    binom = _binomials(max(width, Q) + Q)
    i, q = np.arange(width), np.arange(Q)
    alt = (-1.0) ** np.arange(max(width, Q))
    for zi, z in enumerate(zs.tolist()):
        h = np.zeros(width, dtype=complex)  # the principal part at z, summed over w
        for w, b in _unfolded(g):
            if abs(w - z) <= 1e-12 * max(1.0, abs(z), abs(w)):
                X = np.zeros((width + Q, width), dtype=complex)
                p = i[:, None]
                X[p + q + 1, p] = b / ((p + q + 1) * binom[p + q, p])
                put(X, where[z], zi)
                continue
            h += alt[:width] * (_falling(z - w, width + Q - 1)[i[:, None] + q] @ b)
            nk, b_ext = q[:, None] + q, np.concatenate([b, np.zeros(Q)])
            X = (binom[nk, q] * b_ext[nk]) @ (
                alt[:Q, None] * _falling(w - z, width + Q - 1)[q[:, None] + i])
            low = w.imag < 0
            put(X, where[w.conjugate() if low else w], zi, -1.0 if low else 1.0)
        d = np.abs(i - i[:, None])  # r[n] = sum_i C(i, i-n) h[i-n] a[i]
        put(np.triu(binom[i, d] * h[d]), where[z], zi)
    return rates, G.reshape((width + Q) * n_out, width * n_in)


def _powers(x, n):
    """Rows x^0, ..., x^(n-1) of the 1-D x by running products in doubling
    blocks, x^(k+j) = x^k x^j for j < k: about log2(n) array products (and
    roundings per entry), no float pow."""
    table = np.empty((n, len(x)))
    table[0] = 1.0
    k = 1
    while k < n:
        np.multiply(table[:min(k, n - k)], table[k - 1] * x, out=table[k:2 * k])
        k *= 2
    return table


@functools.cache
def _factorials(n):
    """Read-only column of 0!, ..., (n-1)!."""
    column = np.cumprod(np.maximum(np.arange(n), 1.0))[:, None]
    column.flags.writeable = False
    return column


def _eval_compiled(rates, C, u, s=0.0):
    """Re sum_z e^{z u} sum_{p,m} C[z, p, m] (s^p / p!) u^m, elementwise over
    the broadcast of u and s; a float for scalar input.

    All arithmetic but e^{z u} is real: Re C and Im C, stacked and divided
    by p!, meet the power table of u in one real matrix product and the power
    table of s in a two-operand contraction over p, and
    Re(e P) = Re e Re P - Im e Im P.
    """
    u, s = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(s, dtype=float))
    shape, u, s = u.shape, u.ravel(), s.ravel()
    _, n_p, n_m = C.shape
    C = C / _factorials(n_p)
    e = np.exp(np.multiply.outer(rates, u))
    if np.iscomplexobj(C):
        C, e = np.concatenate([C.real, C.imag]), np.concatenate([e.real, -e.imag])
    poly = (C.reshape(-1, n_m) @ _powers(u, n_m)).reshape(len(C), n_p, len(u))
    out = np.einsum("zn,zn->n", e.real, np.einsum("zpn,pn->zn", poly, _powers(s, n_p)))
    return out.reshape(shape) if shape else float(out[0])


# ---------------------------------------------------------------------------
# the state-space realization
# ---------------------------------------------------------------------------

@_kept_on_kernel
def realization(M):
    """A real (A, b, c) with M(t) = c^T e^{A t} b, a view of the stored rows.

    One memory state per stored row and power p up to the row's top power:
    Z_{z,p}(t) = int_0^t (t-u)^p e^{z(t-u)} y(u) du, so that Z' = A Z + b y
    and (M * y) = Re(c . Z).  A is block diagonal, one block zI + N per row
    (N[p, p-1] = p), b picks the first state of each block, and c holds the
    row's coefficients.  When a rate is complex the states split into their
    real and imaginary parts, all real parts first: A becomes
    [[Re A, -Im A], [Im A, Re A]], b (b, 0) and c (Re c, -Im c).  Read-only
    arrays, kept on M.
    """
    rows = [(z, row[:np.flatnonzero(row)[-1] + 1]) for z, row in zip(M.rates, M.C)]
    z = np.array([z for z, row in rows for _ in row], dtype=M.rates.dtype)
    p = np.array([q for _, row in rows for q in range(len(row))], dtype=float)
    c = np.concatenate([row for _, row in rows] or [np.zeros(0, M.C.dtype)])
    A = np.diag(z) + np.diag(p[1:], -1)  # p is 0 where a block starts
    b = (p == 0.0).astype(float)
    if np.iscomplexobj(A):
        A = np.block([[A.real, -A.imag], [A.imag, A.real]])
        b, c = np.concatenate([b, 0.0 * b]), np.concatenate([c.real, -c.imag])
    for arr in (A, b, c):
        arr.flags.writeable = False
    return A, b, c


# ---------------------------------------------------------------------------
# convolution powers and the decomposition coefficients
# ---------------------------------------------------------------------------

@_kept_on_kernel
def _power_table(M, n):
    """Read-only T[j-1, z, m] = C[z, m] of M^{*j}, 1 <= j <= n, on the rates
    of M (a power's rates are among them).

    The step a -> a * M is one linear map (``_conv_map``).  Step j applies
    its leading block for the current row width P, one real matrix-vector
    product, and then the 1e-15 cancellation rule of ``ExpPolyFn._store``,
    so the rows are those of repeated ``convolve`` calls up to the order of
    summation.  The map is built as wide as the binomial table that step j
    reads allows (``_binomials(P + Q)``, P + Q rounded up to a power of two)
    and rebuilt wider only when the rows outgrow it: cancellation and
    underflow keep the rows far narrower than the bound (n-1) Q, and at that
    bound the binomials and the i! / w^(i+1) factors can overflow (t^13).
    """
    Q, rates, x = M.C.shape[1], M.rates, _to_layout(M.rates, M.C)
    n_slots = x.shape[1]
    X = np.zeros((n, n * Q, n_slots))
    X[0, :Q] = x
    P, width, top = Q, 0, Q
    for j in range(1, n):
        if P > width:
            width = min((n - 1) * Q, len(_binomials(P + Q)) - Q)
            with np.errstate(over="ignore", invalid="ignore"):  # past the block read
                G = _conv_map(rates, M, width)[1]
        y = G[:(P + Q) * n_slots, :P * n_slots] @ X[j - 1, :P].ravel()
        y[np.abs(y) <= CANCEL_TOL * np.abs(y).max(initial=0.0)] = 0.0
        live = np.flatnonzero(y)
        P = int(live[-1]) // n_slots + 1 if live.size else 1
        X[j, :P] = y[:P * n_slots].reshape(P, n_slots)
        top = max(top, P)
    T = _from_layout(rates, X[:, :top])
    T.flags.writeable = False
    return T


def _powers_up_to(M, n):
    """The first n rows of the power table, their trailing zero columns cut;
    every n up to SERIES_TERMS reads one table."""
    T = _power_table(M, max(n, SERIES_TERMS))[:n]
    cols = np.flatnonzero(T.any(axis=(0, 1)))
    return T[:, :, :cols[-1] + 1 if cols.size else 1]


@_kept_on_kernel
def conv_power(M, j):
    """j-fold convolution M * ... * M, read off row j of M's power table
    (``_power_table``, shared with the series kernel); the zero function for
    j = 0."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return ExpPolyFn.zero()
    return ExpPolyFn._of_rows(zip(M.rates, _powers_up_to(M, j)[j - 1]))


@_kept_on_kernel
def h_coeff(M, l):
    """Coefficient of the instantaneous (wave-like) flow part at inverse-Laplacian
    order l+1, h_l(t) = d^l/ds^l K(t, 0), where the series terms past the l-th
    vanish.  h_0 is identically zero; h_1 = -M."""
    if l < 0:
        raise ValueError("l must be >= 0")
    rates, C = BivariateKernel(M, l, max(l, 1))._form  # K(t, 0) = 0
    return ExpPolyFn._of_rows(zip(rates, C[:, 0]))


@_kept_on_kernel
def p_coeff(M, l):
    """Polynomial coefficient of the smoothing (heat-like) flow part at order l+1,
    p_l(t) = -d^l/ds^l K(t, s) at s = t:

        p_l(t) = (-1)^(l+1) sum_j sum_m C(l, d) (M^{*j})^(d)(0) (-t)^m / m!,

    d = l - j + m, over 1 <= j <= l+1 and max(0, 2j - l - 1) <= m <= j.
    Convolution multiplies Laplace transforms, M-hat^j = s^-j A(1/s)^j with
    A(x) = sum_k M^(k)(0) x^k, so (M^{*j})^(d)(0) is the x^(d-j+1)
    coefficient of A(x)^j: a truncated power-series product of the Taylor
    data of M at 0, no convolution power.  So p_l(0) = -h_l(0) is a check
    between two separate computations.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    a = np.array([M.derivative(k).eval(0.0) for k in range(l + 1)])
    row, power = np.zeros(l + 2), np.ones(1)
    factorial = _factorials(l + 2)[:, 0]
    for j in range(1, l + 2):
        power = np.convolve(power, a)[:l + 1]  # A(x)^j up to x^l
        m = np.arange(max(0, 2 * j - l - 1), j + 1)
        d = l - j + m  # in [0, l]
        row[m] += _binomials(l + 1)[l, d] * power[d - j + 1] * (-1.0) ** m / factorial[m]
    return ExpPolyFn._of_rows([(0.0, (-1.0) ** (l + 1) * row)])


# ---------------------------------------------------------------------------
# grids, zero tests and the C^N-type norm sum_{k<=N} sup |M^(k)| on [0, t]
# ---------------------------------------------------------------------------

def _cells(f, span, least):
    """Cells of an equal grid over a length span: at least `least`, and at
    least 8 per period of f's fastest oscillation (its largest |Im z|)."""
    freq = np.abs(np.imag(f.rates)).max(initial=0.0)
    return max(least, math.ceil(8.0 * freq * span / (2.0 * math.pi)))


def _vanishes(f, t, rel):
    """Whether |f(t)| <= rel times the sum of the moduli of f's terms at t
    (the scale of ``eval``'s rounding, as in ``BivariateKernel.eval_abs``)."""
    return np.abs(f.eval(t)) <= rel * _eval_compiled(f.rates.real, np.abs(f.C)[:, None, :], t)


def _max_abs(f, lo, hi):
    """sup |f| on [lo, h], a float for a scalar hi = h and an array for a 1-D
    array hi of right ends h > lo (any order, repeats allowed).

    The sup is taken at the ends or at a critical point of f.  Those points
    are found once for every h: cells of [lo, max hi] (``_cells(f, max hi -
    lo, 1024)`` of them) where the sign of f' changes or f' meets 0 exactly,
    each placed by linear interpolation of f' and one Newton step on f'
    (kept only when it stays in its cell, so a step with f'' = 0 keeps the
    interpolated point).  Each h then takes every point at or below it (lo,
    the ends, the critical points): four array evaluations of f, f' and f''
    in all, whatever the number of h.
    """
    h = np.ravel(hi).astype(float)
    xs = np.linspace(lo, h.max(), _cells(f, h.max() - lo, 1024) + 1)
    fp = f.derivative(1)
    d = fp.eval(xs)
    i = np.flatnonzero(np.sign(d[:-1]) != np.sign(d[1:]))
    a, b = xs[i], xs[i + 1]
    x = a + (b - a) * (d[i] / (d[i] - d[i + 1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = x - fp.eval(x) / f.derivative(2).eval(x)
    x = np.where((a <= newton) & (newton <= b), newton, x)
    points = np.concatenate([[lo], h, x])
    vals = np.abs(f.eval(points))
    sup = np.where(points <= h[:, None], vals, 0.0).max(axis=1)
    return float(sup[0]) if np.ndim(hi) == 0 else sup


@_kept_on_kernel
def _sup_abs(M, k, ts):
    """sup_{[0,t]} |M^(k)| for each t of the tuple ts, kept on M per (k, ts)."""
    return _max_abs(M.derivative(k), 0.0, ts)


def kernel_c_norm(M, N, t):
    """sum_{k<=N} sup_{[0,t]} |M^(k)| for a scalar t > 0 (a float) or for each
    t of an array (an array of its shape).  Each sup is exact up to the
    location of the critical points of M^(k) (``_max_abs``), and one scan
    per order k serves every t."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts <= 0):
        raise ValueError("t must be > 0")
    norm = sum(_sup_abs(M, k, tuple(ts.ravel().tolist())) for k in range(N + 1))
    return float(norm[0]) if ts.ndim == 0 else norm.reshape(ts.shape)


# ---------------------------------------------------------------------------
# the bivariate series kernel and its s-derivatives
# ---------------------------------------------------------------------------

class BivariateKernel:
    """Partial sums of the series kernel K(t, s) = sum_j ((-s)^j / j!) M^{*j}(t-s)
    differentiated deriv_order times in s, valid on t >= s >= 0.

    The J = ``truncation_order`` terms are the first J rows of M's power
    table (``_power_table``; J <= 40 reads the one table the routes use),
    set into one compiled array C[z, p, m] = (-1)^p T[p-1, z, m] over
    (s^p / p!) (t-s)^m, which ``_s_derivative`` differentiates exactly.
    Read off it are h_l(t) = d^l/ds^l K(t, 0) (``h_coeff``) and the remainder
    R_N = int eta e^{-eta s} d^N/ds^N K ds; p_l(t) = -d^l/ds^l K(t, t) comes
    from the Taylor data of M at 0 (``p_coeff``).  Nothing bounds the
    omitted terms; the flow routes sum 40 of them.
    """

    def __init__(self, M, deriv_order, truncation_order):
        if truncation_order < 1:
            raise ValueError("truncation_order must be >= 1")
        if deriv_order < 0:
            raise ValueError("deriv_order must be >= 0")
        T = _powers_up_to(M, truncation_order)
        C = np.zeros((len(M.rates), truncation_order + 1, T.shape[2]), dtype=T.dtype)
        C[:, 1:] = np.moveaxis(T, 0, 1) * (-1.0) ** np.arange(1, truncation_order + 1)[:, None]
        self._form = _s_derivative((M.rates, C), int(deriv_order))

    def eval(self, t, s):
        """Partial-sum value at (t, s); s may be an array (with scalar t)."""
        s = np.asarray(s, dtype=float)
        return _eval_compiled(*self._form, t - s, s)

    def eval_abs(self, t, s):
        """Sum of the moduli of the folded terms at (t, s), the scale of the
        rounding in ``eval``; s may be an array (with scalar t)."""
        s = np.asarray(s, dtype=float)
        rates, C = self._form
        return _eval_compiled(rates.real, np.abs(C), t - s, s)


def _s_derivative(form, n):
    """n-th d/ds at fixed t of a form (rates, C[z, p, m]) over (s^p / p!) u^m e^{zu},
    u = t - s: C'[z, p, m] = C[z, p+1, m] - (m+1) C[z, p, m+1] - z C[z, p, m], exact
    and of the same shape (d/ds shifts p, so the terms keep their exact +-1)."""
    rates, C = form
    for _ in range(n):
        D = -rates[:, None, None] * C
        D[:, :-1] += C[:, 1:]
        D[:, :, :-1] -= np.arange(1, C.shape[2]) * C[:, :, 1:]
        C = D
    return rates, C


@_kept_on_kernel
def km_partial(M, N, J_max):
    """Evaluator for the J_max-term partial sum of the N-th s-derivative of the
    series kernel; kept on M per (N, J_max)."""
    return BivariateKernel(M, N, J_max)


# ---------------------------------------------------------------------------
# kernel specification strings
# ---------------------------------------------------------------------------

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUM_RE = re.compile(rf"^{_NUM}$")
_TPOW_RE = re.compile(r"^t(?:\^(\d+))?$")
_FUNC_RE = re.compile(rf"^(exp|cos|sin)\(\s*(?:({_NUM})\s*\*?\s*)?([+-]?)t\s*\)$")


def _split_top(s, sep):
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        # a '+' right after the e of a number is its exponent's sign
        sign = ch == "+" and len(cur) > 1 and cur[-1] in "eE" and cur[-2] in "0123456789."
        if ch == sep and depth == 0 and not sign:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


class KernelParseError(ValueError):
    """Raised with the offending fragment when a kernel string is malformed."""


def _parse_factor(tok):
    """Return (coeff, power, rate, freq, phase-or-None) delta for one factor."""
    tok = tok.strip()
    if _NUM_RE.match(tok):
        return (float(tok), 0, 0.0, 0.0, None)
    m = _TPOW_RE.match(tok)
    if m:
        return (1.0, int(m.group(1) or 1), 0.0, 0.0, None)
    m = _FUNC_RE.match(tok)
    if m:
        fn, num, sign = m.group(1), m.group(2), m.group(3)
        val = float(num) if num else 1.0
        if sign == "-":
            val = -val
        if fn == "exp":
            return (1.0, 0, val, 0.0, None)
        return (1.0, 0, 0.0, val, fn)
    raise KernelParseError(f"unrecognized factor {tok!r}")


def parse_kernel(text):
    """Parse a kernel specification string into an ExpPolyFn.

    Grammar: terms joined by '+', each term a '*'-product of factors drawn
    from  <number> | t | t^m | exp(a*t) | cos(b*t) | sin(b*t).
    Examples: "1", "exp(-1*t)", "t^2*exp(0.5*t)*cos(2*t)", "0".
    """
    text = text.strip()
    if not text:
        raise KernelParseError("empty kernel string")
    terms = []
    for pos, chunk in enumerate(_split_top(text, "+")):
        chunk = chunk.strip()
        if not chunk:
            raise KernelParseError(f"empty term at position {pos} in {text!r}")
        coeff, power, rate, freq, phase = 1.0, 0, 0.0, 0.0, None
        if chunk.startswith("-") and not chunk[1:2].isdigit() and chunk[1:2] != ".":
            coeff = -1.0
            chunk = chunk[1:]
        for tok in _split_top(chunk, "*"):
            try:
                c, dm, da, db, ph = _parse_factor(tok)
            except KernelParseError as e:
                raise KernelParseError(f"term {pos}: {e}") from None
            coeff *= c
            power += dm
            rate += da
            if ph is not None:
                if phase is not None:
                    raise KernelParseError(
                        f"term {pos}: more than one cos/sin factor in {chunk!r}"
                    )
                phase = ph
                freq = db
        if not all(map(math.isfinite, (coeff, rate, freq))):
            raise KernelParseError(f"term {pos}: non-finite number in {chunk!r}")
        terms.append((coeff, power, rate, freq, phase or "cos"))
    return ExpPolyFn(terms)


def format_kernel(f):
    """Canonical printer, terms in (power, rate, freq, phase) order; the output
    parses back to an eval-identical function."""
    terms = sorted((m, float(z.real), float(z.imag), phase, coeff)
                   for z, row in zip(f.rates, f.C) for m, c in enumerate(row)
                   for phase, coeff in (("cos", c.real), ("sin", -c.imag)) if coeff != 0.0)
    parts = []
    for power, rate, freq, phase, coeff in terms:
        factors = [repr(float(coeff))]
        if power == 1:
            factors.append("t")
        elif power > 1:
            factors.append(f"t^{power}")
        if rate != 0.0:
            factors.append(f"exp({float(rate)!r}*t)")
        if freq != 0.0:
            factors.append(f"{phase}({float(freq)!r}*t)")
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"
