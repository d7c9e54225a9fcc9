"""Bessel-function machinery for Fourier-Bessel expansions on (0, 1).

Evaluates J_nu and the scaled e^-z I_nu for orders nu > -1 and arguments
z >= 0, the positive zeros lambda_{n,nu} of J_nu, and the normalizing
constants

    d_{n,nu} = sqrt(2) / |lambda_{n,nu}^{1/2} J_{nu+1}(lambda_{n,nu})|.

Two branches cover the argument range of J_nu:

- z < max(16, 2 nu^2): Chebyshev interpolants of degree 18 on pieces
  [2.5 k, 2.5 (k + 1)), evaluated by Clenshaw's recurrence in double
  precision, of J_nu(z) / z^nu below z = 10 (bessel_j multiplies by z^nu)
  and of J_nu from there.  An order's pieces are built at its first use,
  in extended precision, from the ascending series below 10 and by Taylor
  steps of Bessel's equation (DLMF 10.2.1) past it; those of the
  _PIECE_ORDERS most recently used orders are kept.
- z >= max(16, 2 nu^2): Hankel's expansion (DLMF 10.17.3) in double
  precision, by hankel_table, the one Hankel routine.  It takes a table
  z = lambda_n x_p as its two factors: each term s_m z^-m of P and Q is a
  row factor s_m lambda_n^-m times a column factor x_p^-m, so P and Q are
  one einsum contraction with the terms outermost, summed term by term
  from m = 0 in every entry.  An entry is expanded where x_p >= cut /
  lambda_n, cut = max(16, 2 nu^2), with all 33 terms, which stop at or
  before the smallest term for every z past the cut, and where x_p >=
  4 cut / lambda_n with the pairs of terms that hold the fewest whose
  omitted terms sum to under 2^-56 (12 at nu = 0).  Both quotients are
  rounded doubles, so the branch and the number of terms depend on
  lambda_n and x_p alone, and for x_p = 1 they are z >= cut and
  z >= 4 cut.  cos z and sin z come from one t = tan(z/2), z = lambda_n x_p
  as it rounds, as (1 - t^2) / (1 + t^2) and 2t / (1 + t^2), and enter
  only through cos(z - c) and sin(z - c), c = (nu/2 + 1/4) pi; z - c is
  never formed.  bessel_j and bessel_j_over_power call it with their
  points as rows and one column of 1; mode tables call it on the zeros
  and the nodes.

e^-z I_nu comes from the same ascending series, in extended precision,
under z = 30, and from its asymptotic series (DLMF 10.40.1) past it.

No value depends on the other arguments of its call, nor on which
orders were evaluated before it; no entry of a hankel_table on the other
rows and columns.
Against mpmath, |J - J_nu| / max(1, |J_nu|) stays below 1e-15 past
z = 10 and below 5e-15 under it.

zero_table brackets the zeros by sign changes of J_nu from max(1e-9, nu):
past z = 10 J_nu is accurate to 1e-15 absolute, which does not resolve
its sign where |J_nu| is smaller, as it is for z well below nu at large nu.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_LD = np.longdouble

_SERIES_CUT = 10.0
_HANKEL_CUT = 16.0
_SERIES_TERMS = 64
# terms between stop tests of the ascending series and of the Taylor steps:
# a test costs about as much as two terms
_STOP_EVERY = 8
# m = 0..32 of Hankel's expansion: at z >= 16 its smallest term has m >= 32
_HANKEL_TERMS = 33
# from _FAR times the Hankel cut on, Hankel's P and Q drop the last terms
# whose sum stays below _FAR_TAIL there
_FAR = 4.0
_FAR_TAIL = 2.0 ** -56
_PIECE_WIDTH = 2.5      # 10 / _PIECE_WIDTH pieces lie below _SERIES_CUT
_PIECE_DEGREE = 18
_PIECE_ORDERS = 8       # orders whose pieces are kept
_I_SERIES_CUT = 30.0
# |J_nu(lam)| <= _RESIDUAL_TOL * max(1, |J_nu'(lam)|) accepts a zero
_RESIDUAL_TOL = 1e-10
_ZERO_STEP = 1.0        # scan step of zero_table: below the least zero gap
# bisection alone narrows a unit bracket to 2 ulps of any zero past 1e-9
# in 81 steps
_NEWTON_CAP = 100
# terms of a Taylor step before it is given up (184 at nu = 170, z0 = 10)
_TAYLOR_CAP = 400
_ORDER_MAX = 170.624   # Gamma(nu + 1) overflows a double from 170.6244 on


class ZeroFindingError(RuntimeError):
    """Raised when a Bessel zero cannot be pinned down; carries the bracket."""

    def __init__(self, nu, n, bracket, detail=""):
        self.nu = nu
        self.n = n
        self.bracket = bracket
        msg = (f"zero {n} of J_nu (nu={nu}) did not converge in bracket "
               f"[{bracket[0]:.8f}, {bracket[1]:.8f}]")
        if detail:
            msg += ": " + detail
        super().__init__(msg)


def _check_order(nu):
    nu = float(nu)
    if not -1.0 < nu < _ORDER_MAX:      # NaN and inf fail too
        raise ValueError(f"Bessel order must satisfy -1 < nu < {_ORDER_MAX} "
                         f"(Gamma(nu + 1) overflows past it), got nu={nu}")
    return nu


def _hankel_cut(nu):
    """Where Hankel's expansion takes over from the Chebyshev pieces."""
    return max(_HANKEL_CUT, 2.0 * nu * nu)


def _value_at_zero(nu):
    """J_nu(0) = I_nu(0): 1 at nu = 0, 0 for nu > 0, inf for nu < 0."""
    return 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else math.inf)


def _as_nonneg_array(z):
    arr = np.asarray(z, dtype=float)
    if arr.size and float(np.min(arr)) < 0.0:
        raise ValueError("Bessel argument must be nonnegative")
    return arr


def _series_sum(nu, z, sign):
    """Sum_k (sign z^2/4)^k / (k! (nu+1)_k) over k <= _SERIES_TERMS, so that
    J_nu (sign -1) and I_nu (sign +1) are (z/2)^nu / Gamma(nu+1) times it;
    nu is one order, or an order per point.

    A point stops once its terms shrink (k (nu+k) > z^2/4) and its term is
    below |total| 2^-66, under a quarter ulp of the extended-precision
    total: every later term is smaller still and leaves the total as it
    is, so the value is the full sum's to the bit and depends on no other
    point.  The test runs every _STOP_EVERY terms, on the points still
    active."""
    q = sign * np.asarray(z, dtype=_LD) ** 2 / _LD(4)
    nu = np.broadcast_to(np.asarray(nu, dtype=_LD), q.shape)
    total = np.empty_like(q)
    idx = np.arange(q.size)
    term, acc = np.ones_like(q), np.ones_like(q)
    tiny = _LD(2.0 ** -66)
    for k in range(1, _SERIES_TERMS + 1):
        div = _LD(k) * (nu + _LD(k))
        term = term * q / div
        acc = acc + term
        if k % _STOP_EVERY:
            continue
        keep = (np.abs(q) >= div) | (np.abs(term) >= np.abs(acc) * tiny)
        if not keep.all():
            total[idx[~keep]] = acc[~keep]
            idx, nu, q, term, acc = (v[keep] for v in (idx, nu, q, term, acc))
            if not idx.size:
                break
    total[idx] = acc
    return total


def _taylor_steps(nu, left, t):
    """[edge, solution, column] Taylor sums, in extended precision, of the
    solutions of Bessel's equation (DLMF 10.2.1) with (y, W y') = (1, 0)
    and (0, 1) at each edge z0 of `left`, W = _PIECE_WIDTH: y(z0 + W t) for
    each t in (0, 1), y(z0 + W) and W y'(z0 + W).  They add one by one the
    terms b_k t^k of y = sum_k b_k ((z - z0) / W)^k, where
        z0^2 (k+1)(k+2) b_{k+2} = -(k+1)(2k+1) z0 W b_{k+1}
            - (k^2 + z0^2 - nu^2) W^2 b_k - 2 z0 W^3 b_{k-1} - W^4 b_{k-2}.
    Every _STOP_EVERY terms an edge stops once its last two terms (one can
    vanish by parity) are below 2^-66 of every sum; past _TAYLOR_CAP terms
    it raises ArithmeticError."""
    r = _LD(_PIECE_WIDTH) / np.asarray(left, dtype=_LD)
    w2 = _LD(_PIECE_WIDTH) ** 2
    # [edge, 3] @ [k, 3, 4]: the factors of b_{k-2}, ..., b_{k+1} in b_{k+2}
    per_edge = np.stack([r, r * r, w2 - _LD(nu) ** 2 * r * r], axis=1)
    k = np.arange(_TAYLOR_CAP, dtype=_LD)
    s, o = -_LD(1) / ((k + 1) * (k + 2)), np.zeros_like(k)
    factors = np.array([[o, 2 * s * w2, o, s * (k + 1) * (2 * k + 1)],
                        [s * w2, o, s * k * k, o],
                        [o, o, s, o]]).transpose(2, 0, 1)
    # row k: the weights t^k, 1 and k of term k in the columns
    t = np.append(np.asarray(t, dtype=_LD), 1)
    weights = np.column_stack([np.vstack([np.ones_like(t), np.cumprod(
        np.tile(t, (_TAYLOR_CAP - 1, 1)), axis=0)]), k])
    # b_{k0-2}, ..., b_{k0+_STOP_EVERY+1}; the sums before and after each term
    b = np.zeros((r.size, 2, _STOP_EVERY + 4), dtype=_LD)
    b[:, 0, 2] = b[:, 1, 3] = 1
    acc = np.zeros((r.size, 2, _STOP_EVERY + 1, t.size + 1), dtype=_LD)
    total, idx = np.empty_like(acc[:, :, 0]), np.arange(r.size)
    for k0 in range(0, _TAYLOR_CAP, _STOP_EVERY):
        f = (per_edge @ factors[k0:k0 + _STOP_EVERY])[..., None]
        for i in range(_STOP_EVERY):
            np.matmul(b[:, :, i:i + 4], f[i], out=b[:, :, i + 4:i + 5])
        np.multiply(b[:, :, 2:-2, None], weights[k0:k0 + _STOP_EVERY],
                    out=acc[:, :, 1:])
        last = np.abs(acc[:, :, -2:]) * _LD(2.0 ** 66)
        np.add.accumulate(acc, axis=2, out=acc)
        keep = (last >= np.abs(acc[:, :, -1:])).any(axis=(1, 2, 3))
        acc[:, :, 0], b[:, :, :4] = acc[:, :, -1], b[:, :, -4:]
        if not keep.all():
            total[idx[~keep]] = acc[~keep, :, 0]
            idx, per_edge, acc, b = (v[keep] for v in (idx, per_edge, acc, b))
            if not idx.size:
                return total
    raise ArithmeticError(f"Taylor steps for nu={nu} did not converge")


def _node_values(nu, t):
    """[piece, offset] values at z = 2.5 (k + t) on every piece k below the
    Hankel cut, in extended precision: J_nu(z) / z^nu from the ascending
    series left of 10, J_nu past it, carried by _taylor_steps from edge to
    edge, one 2 x 2 product each, from J_nu and J_nu' at 10 by the series."""
    w = _LD(_PIECE_WIDTH)
    left = w * np.arange(math.ceil(_hankel_cut(nu) / _PIECE_WIDTH))
    low = int(_SERIES_CUT / _PIECE_WIDTH)
    pref = _LD(2) ** _LD(-nu) / _LD(math.gamma(nu + 1.0))
    # the nodes left of 10, then 10 for J_nu and for J_{nu+1}
    z = np.append(left[:low, None] + w * t, [_SERIES_CUT, _SERIES_CUT])
    sums = _series_sum(np.append(np.full(z.size - 1, nu), nu + 1.0), z, -1)
    # J_nu(10) = c S_nu, J_{nu+1}(10) = 5 c S_{nu+1} / (nu + 1), c = pref 10^nu
    j, j_next = pref * _LD(10) ** _LD(nu) * sums[-2:] * [1, _LD(5) / (nu + 1)]
    steps = _taylor_steps(nu, left[low:], t)
    y = np.empty((len(steps), 2), dtype=_LD)          # (J_nu, W J_nu')
    y[0] = j, w * (_LD(nu) / _LD(_SERIES_CUT) * j - j_next)   # DLMF 10.6.2
    for p in range(1, len(y)):
        y[p] = y[p - 1] @ steps[p - 1, :, -2:]
    chain = (y[:, :, None] * steps[:, :, :-2]).sum(axis=1)
    return np.vstack([pref * sums[:-2].reshape(low, -1), chain])


# order -> coefficients [degree, piece]; least recently used first, at most
# _PIECE_ORDERS orders
_pieces = {}


def _piece_table(nu):
    """[degree, piece] Chebyshev coefficients of order nu on every piece
    [2.5 k, 2.5 (k + 1)) below the Hankel cut, interpolating _node_values
    at the Chebyshev points of the first kind.  All pieces of an order are
    built at its first use, so no value depends on what was evaluated first."""
    coef = _pieces.pop(nu, None)
    if coef is None:
        n = _PIECE_DEGREE + 1
        theta = (np.arange(n, dtype=_LD) + _LD(0.5)) * _LD(math.pi) / _LD(n)
        values = _node_values(nu, (np.cos(theta) + 1) * _LD(0.5))
        coef = np.cos(np.arange(n)[:, None] * theta) @ values.T * _LD(2.0 / n)
        coef[0] /= 2
        coef = coef.astype(float)
    _pieces[nu] = coef
    if len(_pieces) > _PIECE_ORDERS:
        del _pieces[next(iter(_pieces))]
    return coef


def _piece_values(nu, z):
    """Clenshaw's recurrence on the piece that holds each point, all points
    at once with the coefficients of their own pieces: J_nu(z) / z^nu for
    z < 10, J_nu(z) from there to the Hankel cut."""
    k = (z // _PIECE_WIDTH).astype(int)
    coef = _piece_table(nu)
    t = (z - _PIECE_WIDTH * k) * (2.0 / _PIECE_WIDTH) - 1.0
    t2 = 2.0 * t
    b1, b2 = coef[_PIECE_DEGREE][k], np.zeros_like(t)
    for j in range(_PIECE_DEGREE - 1, 0, -1):
        b1, b2 = coef[j][k] + t2 * b1 - b2, b1
    return coef[0][k] + t * b1 - b2


def _asymptotic_sum(nu, z, terms):
    """sum_m (-1)^m t_m with t_m = prod_{k<=m} (4 nu^2 - (2k-1)^2) / (8 k z),
    the series of I_nu (DLMF 10.40.1).  Each point stops at its own
    smallest term or after its first term below 1e-22; the loop runs on
    the points still active."""
    zl = np.asarray(z, dtype=_LD)
    total = np.empty_like(zl)
    idx = np.arange(zl.size)
    inv2z = _LD(0.5) / zl
    four_nu2 = _LD(4.0 * nu * nu)
    t, prev = np.ones_like(zl), np.ones_like(zl)
    acc = np.ones_like(zl)                      # sums of the active points
    for m in range(1, terms):
        t = t * (four_nu2 - _LD((2 * m - 1) ** 2)) / _LD(4 * m) * inv2z
        mag = np.abs(t)
        add = mag < prev
        term = np.where(add, t, _LD(0))
        acc = acc - term if m % 2 else acc + term
        keep = add & (mag >= 1e-22)
        if not keep.all():
            total[idx[~keep]] = acc[~keep]
            idx, t, mag, inv2z, acc = (
                v[keep] for v in (idx, t, mag, inv2z, acc))
            if not idx.size:
                break
        prev = mag
    total[idx] = acc
    return total


def _far_terms(coeffs, z):
    """The fewest leading terms of Hankel's P and Q whose omitted terms
    |coeffs[m]| z^-m sum to at most _FAR_TAIL, and at least 2, so that Q
    keeps a term.  Each omitted term shrinks as z grows, so the count holds
    for every larger z.  hankel_table gives it to every x_p >= fl(z /
    lam_n), whose product can lie an ulp under z: each omitted term is then
    larger by under 2^-47 of itself, which leaves their sum far below the
    rounding of P and Q."""
    size = np.abs(coeffs) / z ** np.arange(len(coeffs))
    tail = np.append(np.cumsum(size[::-1])[::-1], 0.0)     # sum over m >= k
    return max(2, int(np.argmax(tail <= _FAR_TAIL)))


def _powers(first, ratio, terms):
    """[terms, len(first)] first * ratio^k, k < terms, by repeated
    products, in C order: the terms outermost."""
    out = np.empty((terms, len(first)))
    out[0] = first
    for k in range(1, terms):
        np.multiply(out[k - 1], ratio, out=out[k])
    return out


@lru_cache(maxsize=_PIECE_ORDERS)
def _hankel_terms(nu):
    """[k, (P, Q)] coefficients s_2k, s_2k+1 of hankel_table, read-only,
    and the pairs of them that hold the _far_terms counted at _FAR times
    the cut."""
    s = asymptotic_coefficients(nu, _HANKEL_TERMS)
    short = (_far_terms(s, _FAR * _hankel_cut(nu)) + 1) // 2
    s = np.append(s, 0.0).reshape(-1, 2)
    s.flags.writeable = False
    return s, short


def hankel_table(order, lam, weight, x, power, out, rows):
    """Hankel's expansion (DLMF 10.17.3) of the [len(lam), len(x)] table

        weight_n x_p^-power (lam_n x_p)^(1/2) J_nu(lam_n x_p)
            = weight_n x_p^-power sqrt(2/pi) (P cos(z - c) - Q sin(z - c)),

    z = lam_n x_p and c = (nu/2 + 1/4) pi, written into `out` wherever
    x_p >= cut / lam_n, the quotient of the Hankel cut rounded to a double;
    x ascending, without NaN.  Returns each row's first such column,
    searchsorted(x, cut / lam); left of it `out` holds scratch values.

    P and Q come from the two factors, not from z: their terms s_m z^-m,
    m = 2k and 2k + 1, are (weight_n lam_n^-2k) (sqrt(2/pi) x_p^-power
    x_p^-2k s_m), times 1 / (lam_n x_p) for Q, so both are one contraction
    of a [k, row] table with a [k, column, (P, Q)] table, and Q takes its
    1 / lam_n after.  The contraction is einsum's with k
    outermost in both tables, which adds each entry's terms one by one
    from k = 0, whatever the shape of the call.  Entries with x_p >=
    _FAR cut / lam_n take the pairs of terms that hold the _far_terms
    counted at _FAR times the cut; the others add the other pairs, summed
    on their own.
    With t = tan(z/2),

        (1 + t^2) cos(z - c) = (1 - t^2) cos c + 2t sin c = g,
        (1 + t^2) sin(z - c) = 2t cos c - (1 - t^2) sin c = h,

    so one tan replaces cos z and sin z, and z - c is never formed.  The
    column table starts at the table's first Hankel column: nearer 0,
    x^-k can overflow, and where a coefficient vanishes, as at half-integer
    orders, 0 * inf would be NaN.  The rows go in plain blocks of at most
    `rows` consecutive rows, each computed on the rectangle from its least
    first column in one shared workspace, and no entry depends on the
    others."""
    nu = _check_order(order)
    cut = _hankel_cut(nu)
    first = np.searchsorted(x, cut / lam)
    start = int(first.min(initial=len(x)))
    if start == len(x):
        return first
    far = np.searchsorted(x, _FAR * cut / lam)
    s, short = _hankel_terms(nu)
    xs = x[start:]
    inv = 1.0 / lam
    row_f = _powers(weight, inv * inv, len(s))
    col_f = np.empty((len(s), len(xs), 2))
    col_f[:, :, 0] = _powers(math.sqrt(2.0 / math.pi) * xs ** -power,
                             1.0 / (xs * xs), len(s))
    np.divide(col_f[:, :, 0], xs, out=col_f[:, :, 1])
    col_f *= s[:, None, :]
    half = 0.5 * lam
    c = (0.5 * nu + 0.25) * math.pi
    cos_c, sin_c = math.cos(c), math.sin(c)
    rows = min(rows, len(lam))
    work = np.empty(4 * rows * len(xs))
    for a in range(0, len(lam), rows):
        r = slice(a, a + rows)
        c0 = int(first[r].min())
        if c0 == len(x):
            continue
        # (P, Q) and then (t, scratch) of the block's rectangle, laid out
        # columns-major when there are more rows than columns, so that
        # every pass runs along the longer side
        m, w = len(first[r]), len(x) - c0
        pq, aux = work[:2 * m * w], work[2 * m * w:4 * m * w]
        if w >= m:
            pq, tail = pq.reshape(m, w, 2), aux.reshape(m, w, 2)
            t, u = aux.reshape(2, m, w)
        else:
            pq = pq.reshape(w, 2, m).transpose(2, 0, 1)
            tail = aux.reshape(w, 2, m).transpose(2, 0, 1)
            t, u = aux.reshape(2, w, m).transpose(0, 2, 1)
        np.einsum("kn,kps->nps", row_f[:short, r],
                  col_f[:short, c0 - start:], out=pq, optimize=False)
        c1 = int(far[r].max())
        if c1 > c0 and short < len(s):
            near = slice(0, c1 - c0)
            np.einsum("kn,kps->nps", row_f[short:, r],
                      col_f[short:, c0 - start:c1 - start],
                      out=tail[:, near], optimize=False)
            np.add(pq[:, near], tail[:, near], out=pq[:, near],
                   where=(np.arange(c0, c1) < far[r, None])[:, :, None])
        p, q = pq[:, :, 0], pq[:, :, 1]
        np.multiply(half[r, None], x[c0:], out=t)
        np.tan(t, out=t)
        np.multiply(t, -cos_c, out=u)
        u += 2.0 * sin_c
        u *= t
        u += cos_c                                          # g
        p *= u
        np.multiply(t, sin_c, out=u)
        u += 2.0 * cos_c
        u *= t
        u -= sin_c                                          # h
        u *= inv[r, None]
        q *= u
        p -= q
        t *= t
        t += 1.0
        np.divide(p, t, out=out[r, c0:])
    return first


def _evaluate(order, z, values, *args):
    """values(nu, flat, *args) on the flattened arguments, returned in the
    shape of z, or as a float for scalar z."""
    nu = _check_order(order)
    arr = _as_nonneg_array(z)
    out = values(nu, np.atleast_1d(arr).ravel(), *args)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _j_values(nu, flat, over_power):
    """J_nu, or J_nu / z^nu with over_power, at the points of flat: below
    the Hankel cut from the pieces, past it from hankel_table with the
    points as rows and one column of 1."""
    out = np.full(flat.shape, np.nan)       # a NaN argument gives NaN
    cut = _hankel_cut(nu)
    at = flat < cut
    if np.any(at):
        # J_nu / z^nu below _SERIES_CUT, J_nu from there
        zz = flat[at]
        val = _piece_values(nu, zz)
        mid = zz >= _SERIES_CUT
        if over_power:
            val[mid] *= zz[mid] ** (-nu)
        else:
            zero = zz == 0.0
            lo = ~(mid | zero)
            val[lo] *= zz[lo] ** nu
            val[zero] = _value_at_zero(nu)
        out[at] = val
    at = flat >= cut
    if np.any(at):
        z = flat[at]
        col = np.empty((z.size, 1))
        hankel_table(nu, z, z ** (-(nu if over_power else 0.0) - 0.5),
                     np.ones(1), 0.0, col, z.size)
        out[at] = col[:, 0]
    return out


def bessel_j(order, z):
    """Bessel function of the first kind J_order(z).

    Parameters
    ----------
    order : float, must exceed -1
    z : float or ndarray, nonnegative

    Returns
    -------
    float or ndarray matching the shape of z.
    """
    return _evaluate(order, z, _j_values, False)


def bessel_j_over_power(order, z):
    """J_order(z) / z^order, continuous at z = 0 (value 2^-nu / Gamma(nu+1)).

    This is the stable way to evaluate J_nu(lam x) x^-nu near x = 0: the
    power is cancelled analytically instead of dividing small numbers.
    """
    return _evaluate(order, z, _j_values, True)


def _j_deriv(nu, z, j, j_next=None):
    """J_nu'(z) = (nu/z) J_nu(z) - J_{nu+1}(z), from j = J_nu(z) and, when
    given, j_next = J_{nu+1}(z)."""
    if j_next is None:
        j_next = bessel_j(nu + 1.0, z)
    return (nu / z) * j - j_next


def _i_scaled_values(nu, flat):
    out = np.empty(flat.shape, dtype=float)
    zero = flat == 0.0
    out[zero] = _value_at_zero(nu)

    lo = (~zero) & (flat < _I_SERIES_CUT)
    hi = (~zero) & ~lo
    if np.any(lo):
        zl = flat[lo].astype(_LD)
        pref = np.exp(_LD(nu) * np.log(zl / _LD(2))) \
            / _LD(math.gamma(nu + 1.0))
        out[lo] = (pref * _series_sum(nu, zl, 1) * np.exp(-zl)).astype(float)
    if np.any(hi):
        zz = flat[hi]
        vals = _asymptotic_sum(nu, zz, 80) \
            / np.sqrt(_LD(2.0 * math.pi) * zz.astype(_LD))
        out[hi] = vals.astype(float)
    return out


def bessel_i_scaled(order, z):
    """Scaled modified Bessel function e^-z I_order(z).

    The scaling keeps heat-kernel work at small times free of overflow.
    """
    return _evaluate(order, z, _i_scaled_values)


def mcmahon_guess(order, n):
    """First-order McMahon approximation pi (n + nu/2 - 1/4) to lambda_{n,nu}."""
    nu = _check_order(order)
    return math.pi * (np.asarray(n, dtype=float) + 0.5 * nu - 0.25)


@dataclass
class ZeroTable:
    """Positive zeros lambda_{1,nu} < lambda_{2,nu} < ... of J_nu."""

    nu: float
    zeros: np.ndarray

    @property
    def count(self):
        return len(self.zeros)

    @cached_property
    def values(self):
        """(J_nu, J_{nu+1}) at the zeros, evaluated once for validate, the
        residuals and the normalizers."""
        return bessel_j(self.nu, self.zeros), bessel_j(self.nu + 1.0, self.zeros)

    def residuals(self):
        return np.abs(self.values[0])

    def mcmahon_gaps(self):
        n = np.arange(1, self.count + 1)
        return np.abs(self.zeros - mcmahon_guess(self.nu, n))

    def validate(self):
        lam = self.zeros
        if np.any(lam <= 0) or np.any(np.diff(lam) < _ZERO_STEP):
            raise ZeroFindingError(
                self.nu, 0, (float(lam[0]), float(lam[-1])),
                f"zeros not positive and increasing by at least {_ZERO_STEP}")
        j, j_next = self.values
        res = np.abs(j)
        jp = np.abs(_j_deriv(self.nu, lam, j, j_next))
        bad = res > _RESIDUAL_TOL * np.maximum(1.0, jp)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ZeroFindingError(self.nu, i + 1,
                                   (float(lam[i]) - 0.5, float(lam[i]) + 0.5),
                                   f"residual {res[i]:.3e}")
        return True


def zero_table(order, count):
    """Table of the first `count` positive zeros of J_order, in three steps.

    1. Scan the sign of J_nu on steps of _ZERO_STEP from max(1e-9, nu) to
       past McMahon's guess for the last zero.  Consecutive zeros lie more
       than 3.11 apart and the first lies past nu (DLMF 10.21), so the
       k-th sign change brackets the k-th zero.
    2. Run one vectorized Newton iteration from the secant point of each
       bracket.  Each value of J_nu shrinks its bracket, and a step that
       leaves the bracket is replaced by bisection.  An entry retires once
       its step is at most 2 ulps, or once its bracket is at most 2 ulps
       wide: near nu = -1 rounding of J_nu hides the zero from Newton.
    3. Validate the table: ZeroFindingError unless its zeros are positive,
       at least _ZERO_STEP apart and of small residual.
    """
    nu = _check_order(order)
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    start = max(1e-9, nu)
    stop = float(mcmahon_guess(nu, count)) + math.pi
    steps = math.ceil((stop - start) / _ZERO_STEP)
    z = start + _ZERO_STEP * np.arange(steps + 1)
    f = bessel_j(nu, z)
    cell = np.flatnonzero((f[:-1] > 0) != (f[1:] > 0))[:count]
    if cell.size < count:
        raise ZeroFindingError(nu, cell.size + 1, (start, stop),
                               f"only {cell.size} sign changes")
    lo, hi = z[cell], z[cell + 1]
    lo_positive = f[cell] > 0
    x = lo - f[cell] * (hi - lo) / (f[cell + 1] - f[cell])
    lam = np.empty(count)
    idx = np.arange(count)
    for _ in range(_NEWTON_CAP):
        J = bessel_j(nu, x)
        step = J / _j_deriv(nu, x, J)
        left = (J > 0) == lo_positive
        lo, hi = np.where(left, x, lo), np.where(left, hi, x)
        new = x - step
        tol = 2.0 * np.spacing(x)
        converged = np.abs(step) <= tol
        done = converged | (hi - lo <= tol)
        lam[idx[done]] = np.where(converged, new, x)[done]
        x = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
        keep = ~done
        if not keep.any():
            break
        idx, x, lo, hi, lo_positive = (
            v[keep] for v in (idx, x, lo, hi, lo_positive))
    else:
        raise ZeroFindingError(nu, int(idx[0]) + 1,
                               (float(lo[0]), float(hi[0])),
                               "iteration cap reached")
    table = ZeroTable(nu, lam)
    table.validate()
    return table


def norm_consts(table):
    """Fourier-Bessel normalizers d_{n,nu} = sqrt2 / |lam^1/2 J_{nu+1}(lam)|
    at the zeros of a ZeroTable, from the J_{nu+1} values it holds."""
    return math.sqrt(2.0) / np.abs(np.sqrt(table.zeros) * table.values[1])


def asymptotic_coefficients(order, terms):
    """Coefficients s_m, m < terms, of Hankel's expansion (DLMF 10.17.3):

        J_nu(z) ~ sqrt(2/(pi z)) (P cos(z - c) - Q sin(z - c)),
        P = sum_{m even} s_m z^-m,  Q = sum_{m odd} s_m z^-m,

    with c = (nu/2 + 1/4) pi and s_m = (-1)^(m//2) a_m(nu), where
    a_m(nu) = prod_{k<=m} (4 nu^2 - (2k-1)^2) / (8 k) (DLMF 10.17.1).
    """
    nu = _check_order(order)
    out = np.empty(terms)
    a = 1.0
    for m in range(terms):
        if m:
            a = a * (4.0 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m)
        out[m] = -a if (m // 2) % 2 else a
    return out
