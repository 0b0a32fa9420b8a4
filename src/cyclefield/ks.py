"""Kolmogorov-Smirnov test of a sample against N(0, 1), without SciPy.

:func:`ndtr` and :func:`kolmogorov` are plain-``math`` ports of the
formulas behind ``scipy.special.ndtr`` and ``scipy.special.kolmogorov``,
and give their bits: Cephes' rational approximations of erf and erfc
(S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989)
and Kolmogorov's two series (G. Marsaglia, W. W. Tsang, J. Wang,
"Evaluating Kolmogorov's distribution", *J. Stat. Softw.* 8(18), 2003).
Python floats round each operation on its own, as the C code does, and
``math.exp`` and ``**`` are libm's ``exp`` and ``pow``.

:func:`normal_ks` calls :func:`ndtr` only on the few values that can hold
the statistic (a NumPy port, :func:`_ndtr_array`, bounds the rest), so it
keeps SciPy's bits at about the cost of a vectorized ``ndtr``.
"""

from __future__ import annotations

import math

import numpy as np

# Cephes ndtr.c: erf(x) = x T(x^2)/U(x^2) for |x| <= 1; erfc(x) = exp(-x^2) P(x)/Q(x)
# for 1 <= x < 8 and exp(-x^2) R(x)/S(x) from 8 on.  U, Q and S have a leading 1.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # erfc(x) is 0 where x^2 > _MAXLOG
_SQRT1_2 = 0.70710678118654752440
_KS_TINY = math.pi / math.sqrt(746.0 * 8.0)  # below it the theta series' first term underflows
_KS_CUTOVER = 0.82  # the theta series up to here, the alternating series above
_STRIDE = 32  # sorted values per knot in normal_ks
_SLACK = 1e-14  # far above _ndtr_array's error, far below a score's spread


def _polevl(x, coef):
    """``coef[0] x^N + ... + coef[N]`` by Horner's rule, on a float or an array."""
    y = coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _p1evl(x, coef):
    """:func:`_polevl` with an implicit leading coefficient 1."""
    y = x + coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _erf_small(x):
    """Cephes erf for ``|x| <= 1``."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def ndtr(a: float) -> float:
    """The standard normal distribution function, ``scipy.special.ndtr``'s bits.

    ``0.5 + 0.5 erf(a/sqrt2)`` where ``|a/sqrt2| < 1``, else
    ``0.5 erfc(|a|/sqrt2)`` reflected for ``a > 0``.  NaN gives NaN.
    """
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        return 0.5 + 0.5 * _erf_small(x)
    e = -z * z
    if e < -_MAXLOG:  # erfc underflows
        y = 0.0
    elif z < 8.0:
        y = 0.5 * (math.exp(e) * _polevl(z, _P) / _p1evl(z, _Q))
    else:
        y = 0.5 * (math.exp(e) * _polevl(z, _R) / _p1evl(z, _S))  # NaN lands here
    return 1.0 - y if x > 0.0 else y


def kolmogorov(x: float) -> float:
    """Kolmogorov's survival function ``P(sqrt(n) D_n > x)`` as n grows, ``scipy.special.kolmogorov``'s bits.

    Up to 0.82 it is one minus the theta series ``(sqrt(2 pi)/x) u (1 + u^8
    + u^24 + u^48)``, ``u = exp(-pi^2/(8 x^2))``; above, ``2v(1 - v^3(1 -
    v^5(1 - v^7)))`` with ``v = exp(-2 x^2)``.  Clipped to [0, 1]; NaN
    gives NaN.
    """
    if x != x:
        return math.nan
    if x <= _KS_TINY:
        return 1.0
    if x <= _KS_CUTOVER:
        w = math.sqrt(2.0 * math.pi) / x
        log_u8 = -math.pi * math.pi / (x * x)
        u, u8 = math.exp(log_u8 / 8.0), math.exp(log_u8)  # where u underflows, 1 - cdf is 1 all the same
        cdf = 1.0 + u8 ** 3.0
        cdf = 1.0 + u8 * u8 * cdf
        cdf = 1.0 + u8 * cdf
        sf = 1.0 - w * u * cdf
    else:
        v = math.exp(-2.0 * x * x)
        v3 = v ** 3.0
        sf = 1.0 - v3 * v3 * v
        sf = 1.0 - v3 * (v * v) * sf
        sf = 1.0 - v3 * sf
        sf = 2.0 * v * sf
    return min(max(sf, 0.0), 1.0)


def _ndtr_array(a: np.ndarray) -> np.ndarray:
    """:func:`ndtr` on an array, in NumPy: within 3 ulp of it (``np.exp`` is not libm's ``exp``), so only a bound."""
    x = a * _SQRT1_2
    y = 0.5 + 0.5 * _erf_small(np.clip(x, -1.0, 1.0))
    far = np.flatnonzero(np.abs(x) >= 1.0)
    if far.size:
        z = np.abs(x[far])
        c = np.minimum(z, 27.0)  # erfc underflows from sqrt(_MAXLOG) < 27 on: no inf/inf at infinity
        ratio = np.where(c < 8.0, _polevl(c, _P) / _p1evl(c, _Q), _polevl(c, _R) / _p1evl(c, _S))
        tail = np.where(z * z > _MAXLOG, 0.0, 0.5 * (np.exp(-c * c) * ratio))
        y[far] = np.where(x[far] > 0.0, 1.0 - tail, tail)
    return y


def normal_ks(z: np.ndarray) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value of a sample against N(0, 1).

    ``z`` holds the standardised values sorted ascending.  The statistic is
    ``D = max_i max(i/n - Phi(z_i), Phi(z_i) - (i/n - 1/n))`` with
    ``Phi`` = :func:`ndtr` and each operation rounded as the NumPy block
    ``grid - ndtr(z)`` would round it; the p-value is :func:`kolmogorov` of
    ``D (sqrt(n) + 0.12 + 0.11/sqrt(n))`` (Stephens' finite-n scaling).  A
    NaN in ``z`` gives NaN for both.

    ``Phi`` is monotone, so between two knots (every ``_STRIDE``-th value and
    the last) a value scores at most ``i/n`` at the upper knot less ``Phi``
    at the lower one, or ``Phi`` at the upper knot less ``(i-1)/n`` at the
    lower one.  :func:`_ndtr_array` scores the knots, then every value of
    the blocks whose bound comes within ``_SLACK`` of the knots' best, and
    :func:`ndtr` re-scores the values within ``_SLACK`` of the top, which
    gives ``D``'s bits.
    """
    n = z.size
    if math.isnan(z[-1]):  # sorting puts NaN last
        return math.nan, math.nan
    step = 1.0 / n

    def score(i, phi):
        """``max(top - phi, phi - (top - 1/n))`` with ``top = (i + 1)/n``, on 0-based positions ``i``."""
        top = (i + 1.0) / n
        return np.maximum(top - phi, phi - (top - step))

    knots = np.arange(0, n - 1 + _STRIDE, _STRIDE)
    knots[-1] = n - 1
    phi = _ndtr_array(z[knots])
    top = (knots + 1.0) / n
    bound = np.maximum(top[1:] - phi[:-1], phi[1:] - (top[:-1] - step))
    inner = (knots[:-1][bound >= np.max(score(knots, phi)) - _SLACK, None] + np.arange(1, _STRIDE)).ravel()
    inner = inner[inner < n - 1]
    pos = np.concatenate((knots, inner))
    scores = score(pos, np.concatenate((phi, _ndtr_array(z[inner]))))
    D = float(max(score(i, ndtr(float(z[i]))) for i in pos[scores >= np.max(scores) - _SLACK].tolist()))
    return D, kolmogorov(D * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)))
