"""Bessel-function machinery for Fourier-Bessel expansions on (0, 1).

Evaluates J_nu and I_nu for orders nu > -1 and arguments z >= 0, the
positive zeros lambda_{n,nu} of J_nu, and the normalizing constants

    d_{n,nu} = sqrt(2) / |lambda_{n,nu}^{1/2} J_{nu+1}(lambda_{n,nu})|.

Three branches cover the argument range: the ascending power series for
z < 10, the integral representation J_nu(z) = (1/pi) int_0^pi
cos(z sin h - nu h) dh - sin(nu pi)/pi int_0^oo exp(-z sinh t - nu t) dt
for the midrange, and Hankel's large-argument expansion for
z >= max(16, 2 nu^2), summed for each argument to its own smallest term
or its first term below 1e-22.  No value depends on the other arguments
of its call.  All sums but the small midrange tail run in extended
precision, which keeps the double-precision results within ~1e-13
relative error for z <= 50, away from zeros of J_nu where relative error
is meaningless.

Zeros are found by Newton iteration started from the McMahon guess
pi (n + nu/2 - 1/4), safeguarded by bisection on a bracket of width pi
around the guess.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import composite_rule

_LD = np.longdouble

_SERIES_CUT = 10.0
_HANKEL_CUT = 16.0
_BRACKET_HALF = 0.5 * math.pi * (1.0 - 1e-12)
_SERIES_TERMS = 64
_MID_BLOCK = 512
_I_SERIES_CUT = 30.0
_I_OVERFLOW = 700.0


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
    if not math.isfinite(nu) or not nu > -1.0:
        raise ValueError(f"Bessel order must satisfy nu > -1, got nu={nu}")
    return nu


def _value_at_zero(nu):
    """J_nu(0) = I_nu(0): 1 at nu = 0, 0 for nu > 0, inf for nu < 0."""
    return 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else math.inf)


def _as_nonneg_array(z):
    arr = np.asarray(z, dtype=float)
    if arr.size and float(np.min(arr)) < 0.0:
        raise ValueError("Bessel argument must be nonnegative")
    return arr


def _j_series_scaled(nu, z):
    """Sum_k (-1)^k (z^2/4)^k / (k! (nu+1)_k), so that J = (z/2)^nu/Gamma(nu+1) * this."""
    q = np.asarray(z, dtype=_LD) ** 2 / _LD(4)
    total = np.ones_like(q)
    term = np.ones_like(q)
    for k in range(1, _SERIES_TERMS + 1):
        term = term * (-q) / _LD(k * (nu + k))
        total = total + term
    return total


def _j_series(nu, z):
    zl = np.asarray(z, dtype=_LD)
    pref = np.exp(_LD(nu) * np.log(zl / _LD(2))) / _LD(math.gamma(nu + 1.0))
    return pref * _j_series_scaled(nu, zl)


def _j_integral(nu, z):
    """DLMF 10.9.6; accurate on the midrange where neither series nor
    asymptotics reach full precision in extended arithmetic.

    The theta rule is sized for the branch limit max(16, 2 nu^2) and the
    tail, at most ~1/z and summed in double precision, is cut at
    T = asinh(80 / max(z, 1)) for each point.  Blocks of _MID_BLOCK points
    keep the [points x nodes] arrays small."""
    zl = np.asarray(z, dtype=_LD)
    n_cells = max(4, int(math.ceil(max(_HANKEL_CUT, 2.0 * nu * nu) / 4.0)))
    th, wth = composite_rule(
        np.linspace(0.0, math.pi, n_cells + 1).astype(_LD), 16)
    sin_th = np.sin(th)
    s = math.sin(math.pi * nu)
    tail = abs(s) > 1e-16
    if tail:
        # rule on [0, 1], stretched to [0, T] for each point
        unit = np.concatenate(([0.0], 2.0 ** np.arange(-9.0, 1.0)))
        tu, wu = (v.astype(float) for v in composite_rule(unit.astype(_LD), 12))
    out = np.empty_like(zl)
    for a in range(0, zl.size, _MID_BLOCK):
        zb = zl[a:a + _MID_BLOCK, None]
        phase = zb * sin_th[None, :] - _LD(nu) * th[None, :]
        val = (np.cos(phase) * wth[None, :]).sum(axis=1) / _LD(math.pi)
        if tail:
            zf = zb.astype(float)
            T = np.arcsinh(80.0 / np.maximum(zf, 1.0))
            tt = T * tu[None, :]
            expo = -zf * np.sinh(tt) - nu * tt
            integral = (np.exp(expo) * (T * wu[None, :])).sum(axis=1)
            val = val - _LD(s / math.pi) * integral.astype(_LD)
        out[a:a + _MID_BLOCK] = val
    return out


def _asymptotic_sums(nu, z, terms, hankel):
    """Sums of t_m = prod_{k<=m} (4 nu^2 - (2k-1)^2) / (8 k z), as a pair of
    arrays: Hankel's P and Q (DLMF 10.17.3) take the even and odd terms with
    sign (-1)^(m//2); for I_nu (DLMF 10.40.1, hankel=False) the first array
    is sum (-1)^m t_m.  Each point stops at its own smallest term or after
    its first term below 1e-22; the loop runs on the points still active."""
    zl = np.asarray(z, dtype=_LD)
    sums = [np.empty_like(zl), np.empty_like(zl)]
    idx = np.arange(zl.size)
    inv2z = _LD(0.5) / zl
    four_nu2 = _LD(4.0 * nu * nu)
    t, prev = np.ones_like(zl), np.ones_like(zl)
    acc = [np.ones_like(zl), np.zeros_like(zl)]     # sums of the active points
    for m in range(1, terms):
        t = t * (four_nu2 - _LD((2 * m - 1) ** 2)) / _LD(4 * m) * inv2z
        mag = np.abs(t)
        add = mag < prev
        term = np.where(add, t, _LD(0))
        if (m // 2 if hankel else m) % 2:
            term = -term
        row = m % 2 if hankel else 0
        acc[row] = acc[row] + term
        keep = add & (mag >= 1e-22)
        if not keep.all():
            for total, part in zip(sums, acc):
                total[idx[~keep]] = part[~keep]
            idx, t, mag, inv2z, *acc = (
                v[keep] for v in (idx, t, mag, inv2z, *acc))
            if not idx.size:
                break
        prev = mag
    for total, part in zip(sums, acc):
        total[idx] = part
    return sums


def _j_hankel(nu, z):
    zl = np.asarray(z, dtype=_LD)
    P, Q = _asymptotic_sums(nu, zl, 60, hankel=True)
    omega = zl - _LD((0.5 * nu + 0.25) * math.pi)
    amp = np.sqrt(_LD(2.0 / math.pi) / zl)
    return amp * (np.cos(omega) * P - np.sin(omega) * Q)


def _evaluate(order, z, values, *args):
    """values(nu, flat, *args) on the flattened arguments, returned in the
    shape of z, or as a float for scalar z."""
    nu = _check_order(order)
    arr = _as_nonneg_array(z)
    out = values(nu, np.atleast_1d(arr).ravel().astype(float), *args)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _j_values(nu, flat):
    out = np.empty(flat.shape, dtype=float)
    zero = flat == 0.0
    out[zero] = _value_at_zero(nu)

    hankel_cut = max(_HANKEL_CUT, 2.0 * nu * nu)
    lo = (~zero) & (flat < _SERIES_CUT)
    hi = (~zero) & (flat >= hankel_cut)
    mid = (~zero) & ~lo & ~hi
    if np.any(lo):
        out[lo] = _j_series(nu, flat[lo]).astype(float)
    if np.any(mid):
        out[mid] = _j_integral(nu, flat[mid]).astype(float)
    if np.any(hi):
        out[hi] = _j_hankel(nu, flat[hi]).astype(float)
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
    return _evaluate(order, z, _j_values)


def _j_over_power_values(nu, flat):
    out = np.empty(flat.shape, dtype=float)
    lo = flat < _SERIES_CUT
    if np.any(lo):
        pref = _LD(2.0 ** (-nu) / math.gamma(nu + 1.0))
        out[lo] = (pref * _j_series_scaled(nu, flat[lo])).astype(float)
    if np.any(~lo):
        zz = flat[~lo]
        out[~lo] = _j_values(nu, zz) * zz ** (-nu)
    return out


def bessel_j_over_power(order, z):
    """J_order(z) / z^order, continuous at z = 0 (value 2^-nu / Gamma(nu+1)).

    This is the stable way to evaluate J_nu(lam x) x^-nu near x = 0: the
    power is cancelled analytically instead of dividing small numbers.
    """
    return _evaluate(order, z, _j_over_power_values)


def bessel_j_deriv(order, z):
    """d/dz J_order(z) for z > 0, via (nu/z) J_nu - J_{nu+1}."""
    nu = _check_order(order)
    arr = np.asarray(z, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("derivative evaluation needs z > 0")
    return (nu / arr) * bessel_j(nu, arr) - bessel_j(nu + 1.0, arr)


def _i_series(nu, z):
    zl = np.asarray(z, dtype=_LD)
    q = zl * zl / _LD(4)
    total = np.ones_like(q)
    term = np.ones_like(q)
    for k in range(1, 140):
        term = term * q / _LD(k * (nu + k))
        total = total + term
        if float(np.max(term)) < 1e-22 * float(np.max(total)):
            break
    pref = np.exp(_LD(nu) * np.log(zl / _LD(2))) / _LD(math.gamma(nu + 1.0))
    return pref * total


def _i_values(nu, flat, scaled):
    out = np.empty(flat.shape, dtype=float)
    zero = flat == 0.0
    out[zero] = _value_at_zero(nu)

    lo = (~zero) & (flat < _I_SERIES_CUT)
    hi = (~zero) & ~lo
    if np.any(lo):
        vals = _i_series(nu, flat[lo])
        if scaled:
            vals = vals * np.exp(-flat[lo].astype(_LD))
        out[lo] = vals.astype(float)
    if np.any(hi):
        zz = flat[hi]
        if not scaled and float(np.max(zz)) > _I_OVERFLOW:
            raise OverflowError(
                f"I_nu overflows for z > {_I_OVERFLOW}; use scaled=True")
        vals = _asymptotic_sums(nu, zz, 80, hankel=False)[0] \
            / np.sqrt(_LD(2.0 * math.pi) * zz.astype(_LD))
        if not scaled:
            vals = vals * np.exp(zz.astype(_LD))
        out[hi] = vals.astype(float)
    return out


def bessel_i(order, z, scaled=False):
    """Modified Bessel function I_order(z); scaled=True returns e^-z I_order(z).

    The scaled form avoids overflow in heat-kernel work at small times.
    Raises OverflowError for the unscaled value once e^z overflows.
    """
    return _evaluate(order, z, _i_values, scaled)


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

    def residuals(self):
        return np.abs(bessel_j(self.nu, self.zeros))

    def mcmahon_gaps(self):
        n = np.arange(1, self.count + 1)
        return np.abs(self.zeros - mcmahon_guess(self.nu, n))

    def validate(self, residual_tol=1e-10):
        lam = self.zeros
        if np.any(lam <= 0) or np.any(np.diff(lam) <= 0):
            raise ZeroFindingError(self.nu, 0, (float(lam[0]), float(lam[-1])),
                                   "zeros not strictly increasing positive")
        res = self.residuals()
        jp = np.abs(bessel_j_deriv(self.nu, lam))
        bad = res > residual_tol * np.maximum(1.0, jp)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ZeroFindingError(self.nu, i + 1,
                                   (float(lam[i]) - 0.5, float(lam[i]) + 0.5),
                                   f"residual {res[i]:.3e}")
        return True


def _zero_scalar(nu, n, guess, lower_floor):
    lo = max(guess - _BRACKET_HALF, lower_floor)
    hi = guess + _BRACKET_HALF
    flo = bessel_j(nu, lo)
    fhi = bessel_j(nu, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        # widen with a fine scan; the n-th zero is the first sign change
        # past the previous one
        xs = np.linspace(max(lower_floor, 1e-9), guess + 2.0 * math.pi, 513)
        vals = bessel_j(nu, xs)
        sign_flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if len(sign_flip) == 0:
            raise ZeroFindingError(nu, n, (lo, hi), "no sign change located")
        k = sign_flip[0]
        lo, hi = float(xs[k]), float(xs[k + 1])
        flo = float(vals[k])
    x = min(max(guess, lo), hi)
    for _ in range(120):
        J = bessel_j(nu, x)
        Jp = bessel_j_deriv(nu, x)
        if abs(J) <= 1e-13 * max(1.0, abs(Jp)):
            return x
        if math.copysign(1.0, J) == math.copysign(1.0, flo):
            lo = x
        else:
            hi = x
        xn = x - J / Jp if Jp != 0.0 else 0.5 * (lo + hi)
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if xn == x:
            return x
        x = xn
    raise ZeroFindingError(nu, n, (lo, hi), "iteration cap reached")


def zero_table(order, count, residual_tol=1e-10):
    """Table of the first `count` positive zeros of J_order.

    Vectorized Newton from the McMahon guesses does the bulk; entries that
    fail validation are redone one by one with a bisection-safeguarded
    scalar solver.
    """
    nu = _check_order(order)
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    n = np.arange(1, count + 1)
    guess = mcmahon_guess(nu, n)
    lam = guess.copy()
    lo = np.maximum(guess - _BRACKET_HALF, 1e-9)
    hi = guess + _BRACKET_HALF
    for _ in range(16):
        J = bessel_j(nu, lam)
        Jp = bessel_j_deriv(nu, lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(Jp != 0.0, J / Jp, 0.0)
        step = np.clip(step, -1.0, 1.0)
        lam = np.clip(lam - step, lo, hi)
        if float(np.max(np.abs(step))) < 1e-15 * float(np.max(lam)):
            break

    res = np.abs(bessel_j(nu, lam))
    jp = np.abs(bessel_j_deriv(nu, lam))
    ok = res <= residual_tol * np.maximum(1.0, jp)
    ok &= lam > 0
    if np.any(~ok) or np.any(np.diff(lam) <= 0):
        prev = 0.0
        for i in range(count):
            if not ok[i] or (i > 0 and lam[i] <= lam[i - 1]):
                lam[i] = _zero_scalar(nu, i + 1, float(guess[i]),
                                      prev + 1e-9 if i else 1e-9)
            prev = lam[i]
    table = ZeroTable(nu, lam)
    table.validate(residual_tol)
    return table


_zero_cache = {}


def _cached_table(nu, count):
    key = float(nu)
    tab = _zero_cache.get(key)
    if tab is None or tab.count < count:
        tab = zero_table(nu, max(count, 64))
        _zero_cache[key] = tab
    return tab


def bessel_zero(order, n):
    """n-th positive zero lambda_{n,nu} of J_order (n >= 1)."""
    nu = _check_order(order)
    n = int(n)
    if n < 1:
        raise ValueError("zero index must be >= 1")
    return float(_cached_table(nu, n).zeros[n - 1])


def norm_const(order, n, zero=None):
    """Fourier-Bessel normalizer d_{n,nu} = sqrt2 / |lam^1/2 J_{nu+1}(lam)|."""
    lam = bessel_zero(order, n) if zero is None else float(zero)
    return float(norm_consts(order, [lam])[0])


def norm_consts(order, zeros):
    nu = _check_order(order)
    lam = np.asarray(zeros, dtype=float)
    vals = np.sqrt(lam) * bessel_j(nu + 1.0, lam)
    return math.sqrt(2.0) / np.abs(vals)


def asymptotic_coefficients(order, terms):
    """Coefficients A_j, B_j with sqrt(z) J_nu(z) ~ sum_j (A_j sin z + B_j cos z)/z^j.

    Derived from the Hankel expansion by expanding cos/sin of
    (z - (nu/2 + 1/4) pi); used to probe the large-argument behaviour.
    """
    nu = _check_order(order)
    phi0 = (0.5 * nu + 0.25) * math.pi
    A = np.zeros(terms + 1)
    B = np.zeros(terms + 1)
    coeff = 1.0  # (nu, m) / 2^m accumulated as t_m without the z power
    scale = math.sqrt(2.0 / math.pi)
    for j in range(terms + 1):
        if j > 0:
            coeff = coeff * (4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j)
        sgn = -1.0 if (j // 2) % 2 else 1.0
        if j % 2 == 0:
            p_j, q_j = sgn * coeff, 0.0
        else:
            p_j, q_j = 0.0, sgn * coeff
        A[j] = scale * (p_j * math.sin(phi0) - q_j * math.cos(phi0))
        B[j] = scale * (p_j * math.cos(phi0) + q_j * math.sin(phi0))
    return A, B
