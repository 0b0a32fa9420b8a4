"""The endpoint CSV rows of ``mc-validate --export``, formatted a block at a time.

:func:`rows` returns the text of ``ROW % (i, C[i], K[i], A[i])`` for a block
of paths, computed with NumPy array arithmetic instead of one ``%`` per row.
A value with 1e-4 <= |x| < 1e17 is printed in fixed notation from N, its 17
significant digits: x's exact value scaled by 10**(16 - d) and rounded half
to even, as ``%.17g`` rounds (D. M. Gay's correctly rounded conversion).

1. ``floor(log|x| / log 10)`` guesses the decimal exponent d.
2. ``|x| * 10**(16 - d)`` is exactly ``p + e`` by Dekker's two-product; the
   powers of ten for d in [-4, 16] are exact doubles.  d moves by one where
   ``p + e`` falls outside [1e16, 1e17).
3. ``p`` is then an even integer, so ``N = p + rint(e)`` rounds half to even.
4. N and the path ids are split exactly into 4-digit groups, which become
   ASCII through a table, and are laid out with sign, point and commas in a
   fixed-width byte matrix.  The cells a row does not use (the id's leading
   zeros, an absent sign, the stripped trailing zeros) hold NUL, and
   ``bytes.translate`` drops them.

A row with any other value (zero, |x| < 1e-4 or >= 1e17, NaN, infinity), or
whose N carries to 1e17, is written with ``ROW`` itself.  ``ROW`` is also the
tests' oracle.

Memory: the CLI imports this module only when it writes an export.  The
kernel keeps to the kinds of NumPy operation the sampler and the report
already run (float arithmetic, gathers, copies; no integer arithmetic), so
an export maps no NumPy code of its own: each new kind of operation would
add 64 kB or more of resident code to the process.
"""

from __future__ import annotations

import math

import numpy as np

ROW = "%d,%.17g,%.17g,%.17g\n"

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_SCALE = np.array([float(10**k) for k in range(20, -1, -1)])  # 10**(16 - d) at d + 4, d = -4 .. 16
_SCALE_HI = _SCALE * _SPLIT - (_SCALE * _SPLIT - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
_LN10 = math.log(10.0)
_WIDTH = 22  # "0.000" and 17 digits, the widest fixed-notation |x|
_tables = None  # per k < 10**4: "%04d" % k as one uint32, and k's trailing zeros (4 for 0)


def _groups(x, count: int) -> list:
    """The integer-valued floats ``x`` < 10**(4 * count) as 4-digit groups, most significant first."""
    groups = []
    for _ in range(count - 1):
        top = np.floor(x / 1e4)  # exact: x is an integer below 2**53
        groups.append(x - top * 1e4)
        x = top
    return [x] + groups[::-1]


def _ascii(groups):
    """ASCII of 4-digit groups, zero-padded, and per group the index into the tables."""
    global _tables
    if _tables is None:
        k = np.arange(100.0)
        tens = np.floor(k / 10)
        pairs = (np.stack([tens, k - 10 * tens], axis=1) + 48).astype(np.uint8)
        text = np.empty((100, 100, 4), np.uint8)
        text[:, :, :2], text[:, :, 2:] = pairs[:, None], pairs[None, :]
        zeros = np.where(k == 0, 2.0, np.where(tens * 10 == k, 1.0, 0.0))
        zeros = np.where(k[None, :] == 0, 2 + zeros[:, None], zeros).astype(np.uint8)
        _tables = text.view(np.uint32).ravel(), zeros.ravel()
    text = np.empty((groups[0].size, len(groups)), np.uint32)
    index = [g.astype(np.intp) for g in groups]
    for j, i in enumerate(index):
        text[:, j] = _tables[0][i]
    return text.view(np.uint8), index


def _product(a, i):
    """``(p, e)`` with ``p + e == a * _SCALE[i]`` exactly (Dekker's two-product)."""
    p = a * _SCALE[i]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    s_hi, s_lo = _SCALE_HI[i], _SCALE_LO[i]
    return p, ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo


def _place(out, digits, d: int) -> None:
    """Lay out 17 digits with decimal exponent ``d`` in fixed notation, left-aligned, NUL-padded."""
    if d < 0:
        out[:, : 1 - d] = np.frombuffer(b"0.000"[: 1 - d], np.uint8)
        out[:, 1 - d : 18 - d] = digits
        out[:, 18 - d :] = 0
    elif d < 16:
        out[:, : d + 1] = digits[:, : d + 1]
        out[:, d + 1] = ord(".")
        out[:, d + 2 : 18] = digits[:, d + 1 :]
        out[:, 18:] = 0
    else:
        out[:, :17] = digits
        out[:, 17:] = 0


def _fixed(x, out):
    """Write ``|x|`` in ``%.17g``'s fixed notation into ``out`` (rows by ``_WIDTH``), NUL-padded.

    Returns the mask of the rows it wrote; the other rows of ``out`` are junk.
    """
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e17)
    a = np.where(ok, a, 1.0)
    d = np.clip(np.floor(np.log(a) / _LN10), -4, 16)
    i = (d + 4).astype(np.intp)
    p, e = _product(a, i)
    up, down = (p > 1e17) | (p == 1e17) & (e >= 0), (p < 1e16) | (p == 1e16) & (e < 0)
    if (up | down).any():
        d = np.where(up, d + 1, np.where(down, d - 1, d))
        i = (d + 4).astype(np.intp)
        p, e = _product(a, i)
    # N = hi * 1e8 + lo exactly; p / 1e8 rounds at most up to the next integer
    hi = np.floor(p / 1e8)
    lo = p - hi * 1e8 + np.rint(e)
    under, over = lo < 0, lo >= 1e8
    hi = np.where(under, hi - 1, np.where(over, hi + 1, hi))
    lo = np.where(under, lo + 1e8, np.where(over, lo - 1e8, lo))
    ok &= hi < 1e9  # a carry to 1e17: left to the template
    groups = _groups(hi, 3) + _groups(lo, 2)
    text, index = _ascii(groups)
    digits = text[:, 3:]
    # the most common exponent is laid out on every row, each other one over it
    counts = np.bincount(i, minlength=21).tolist()
    common = max(range(21), key=counts.__getitem__) - 4
    _place(out, digits, common)
    for other in range(-4, 17):
        if counts[other + 4] and other != common:
            block = np.empty_like(out)
            _place(block, digits, other)
            np.copyto(out, block, where=(d == other)[:, None])
    # strip the fraction's trailing zeros, and the point if nothing follows it
    zeros, tail = _tables[1][index[4]].astype(np.float64), groups[4] == 0
    for j in (3, 2, 1):
        zeros = np.where(tail, zeros + _tables[1][index[j]], zeros)
        tail &= groups[j] == 0
    fraction = 16 - d
    strip = np.where(zeros < fraction, zeros, np.where(fraction > 0, fraction + 1, 0))
    length = np.where(d < 0, 18 - d, np.where(d == 16, 17, 18)) - strip
    for j in range(int(length.min()), _WIDTH):
        np.copyto(out[:, j], 0, where=length <= j)
    return ok


def rows(first: int, C, K, A) -> str:
    """``ROW`` for paths ``first, first + 1, ...`` with endpoints ``C``, ``K``, ``A``."""
    cols = [np.asarray(v, dtype=np.float64) for v in (C, K, A)]
    n = cols[0].size
    at = 4 * ((len(str(first + n - 1)) + 3) // 4)
    ids = _ascii(_groups(np.arange(first, first + n, dtype=np.float64), at // 4))[0]
    for k in range(1, at):  # the ids below 10**k, a run of leading rows, have at - k leading zeros
        ids[: max(0, min(n, 10**k - first)), : at - k] = 0
    mat = np.empty((n, at + 3 * (_WIDTH + 2) + 1), np.uint8)
    mat[:, :at] = ids
    fixed = np.ones(n, bool)
    for x in cols:
        mat[:, at] = ord(",")
        mat[:, at + 1] = np.where(np.signbit(x), ord("-"), 0)
        fixed &= _fixed(x, mat[:, at + 2 : at + 2 + _WIDTH])
        at += _WIDTH + 2
    mat[:, at] = ord("\n")
    parts, start = [], 0
    for i in np.flatnonzero(~fixed).tolist():
        parts += [_text(mat[start:i]), ROW % (first + i, cols[0][i], cols[1][i], cols[2][i])]
        start = i + 1
    parts.append(_text(mat[start:]))
    return "".join(parts)


def _text(mat) -> str:
    return mat.tobytes().translate(None, b"\0").decode("ascii")
