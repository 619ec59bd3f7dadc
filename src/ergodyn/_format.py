"""Kernel-file records as text, formatted by array arithmetic.

``records`` returns, for a block of records, the bytes of
``"%d %d %.17g\\n" % (row, col, x)`` record after record, or None when it
cannot certify one of the block's probabilities. The caller then formats
that block with CPython's ``%``, so the text is the same either way.

Digits. For x in [1e-292, 10), let E be its decimal exponent and
V = x 10^(16-E) in [10^16, 10^17); the 17 significant digits are
N = round-half-even(V). E starts as floor(log10 x) and moves by one where V
falls outside the decade. The power 10^(16-E) is a table pair hi + lo within
2^-105 of it, relative; x hi is split exactly into p + e by Dekker's
two-product with a Veltkamp split (no fused multiply-add: each ufunc rounds
on its own), and r = e + x lo. Since p >= 2^53 is an integer,
floor(V) = p + floor(r), and the computed r is within 2^-47 of V - p: the
table contributes 2^-48.5, the product x lo and the sum e + x lo 2^-49 each.
A fraction of r within ``_TIE_BAND`` = 2^-40 of 1/2 is not certified, so
every exact tie goes to ``%``, and every other rounding is decided exactly.
N = 10^17 (V rounds up into the next decade) is written as 10^16 at E + 1.

Layout. C's ``%g`` with precision 17: fixed notation (``d.ddd``,
``0.000ddd``) for -4 <= E <= 0 and ``d.ddde-XX`` below, with the trailing
zeros of the fraction and a bare point removed. Each record is a row of six
8-byte words in a C-contiguous block: the row and the column field (indices
of up to 7 digits), a head word (``0.`` prefix, first digit, point), the 16
further digits as four 4-digit table entries, and a tail word (exponent,
newline). Every field is taken whole from a table, with NUL bytes where the
text has no character (leading zeros, stripped zeros, padding); one
``block[block != 0]`` then joins the records. No table is built at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: Smallest decimal exponent with a table power: 10^(16 - E) stays finite.
_E_MIN = -292
#: A fraction this close to 1/2 leaves the rounding to ``%`` (the error bound is 2^-47).
_TIE_BAND = 2.0**-40
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into 26-bit halves
_P16, _P17 = 10**16, 10**17


@cache
def _powers():
    """Per -E in [0, 292]: 10^(16 - E) as hi + lo, and hi split into halves."""
    exact = [10 ** (16 - e) for e in range(0, _E_MIN - 1, -1)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(float(v))) for v in exact])
    # split hi scaled down by 2^-60, so that 2^27 hi cannot overflow
    scaled = np.ldexp(hi, -60)
    c = scaled * _SPLIT
    top = c - (c - scaled)
    return hi, lo, np.ldexp(top, 60), np.ldexp(scaled - top, 60)


def _floor_scaled(x, e):
    """floor(x 10^(16 - e)) as int64, the fraction left over, and whether p
    lies in [2^53, 2^62), where both are exact."""
    hi, lo, top, bottom = (t[-e] for t in _powers())
    c = x * _SPLIT
    xt = c - (c - x)
    xb = x - xt
    p = x * hi
    r = ((xt * top - p) + xt * bottom + xb * top) + xb * bottom
    r += x * lo
    whole = np.floor(r)
    r -= whole
    ok = (p >= 2.0**53) & (p < 2.0**62)
    f = np.where(ok, p, 0.0).astype(np.int64)
    f += whole.astype(np.int64)
    return f, r, ok


def _significand(x):
    """(N, E) per probability with N the 17 digits as an integer, or None if
    any is not certified."""
    if not np.all((x >= 1e-292) & (x < 10.0)):  # also false for NaN
        return None
    e = np.floor(np.log10(x)).astype(np.int64)
    if e.min() < _E_MIN:
        return None
    f, frac, ok = _floor_scaled(x, e)
    if not ok.all():
        return None
    low, high = f < _P16, f >= _P17
    moved = np.flatnonzero(low | high)
    if moved.size:  # log10 was off by one next to a power of ten
        em = e[moved] - low[moved] + high[moved]
        if em.min() < _E_MIN or em.max() > 0:
            return None
        fm, frac[moved], ok = _floor_scaled(x[moved], em)
        if not (ok.all() and np.all((fm >= _P16) & (fm < _P17))):
            return None
        e[moved], f[moved] = em, fm
    if np.any(np.abs(frac - 0.5) <= _TIE_BAND):
        return None
    f += frac > 0.5
    carry = f == _P17
    if carry.any():
        f[carry] = _P16
        e += carry
        if e.max() > 0:
            return None
    return f, e


def _words(rows: np.ndarray) -> np.ndarray:
    """Byte rows of a multiple of 8 as native 64-bit words."""
    return np.ascontiguousarray(rows).view(np.uint64)


@cache
def _digit_tables():
    """The 4-digit chunks, the head words and the tail words.

    Chunk c is entry c (all four digits) or entry 10000 + c (its trailing
    zeros as NUL, for a chunk with only zeros after it). The head word of
    (-E, first digit, fraction nonzero) holds ``0.`` and ``0``s for
    -4 <= E < 0, the first digit, and the point unless -4 <= E < 0 or the
    fraction is all zeros; the tail word of -E holds ``e-XX`` for E < -4 and
    the newline.
    """
    c = np.arange(10000)
    digits = ((c[:, None] // np.array([1000, 100, 10, 1])) % 10 + 48).astype(np.uint8)
    stripped = digits.copy()
    stripped[np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1]] = 0
    chunks = np.concatenate((digits, stripped)).view(np.uint32).ravel()
    n_e = 1 - _E_MIN
    head = np.zeros((n_e, 10, 2, 8), np.uint8)
    tail = np.zeros((n_e, 8), np.uint8)
    for i in range(n_e):
        prefix = b"0." + b"0" * (i - 1) if 1 <= i <= 4 else b""
        head[i, :, :, 5 - len(prefix):5] = np.frombuffer(prefix, np.uint8)
        head[i, :, :, 5] = 48 + np.arange(10)[:, None]
        if not prefix:
            head[i, :, 1, 6] = ord(".")
        suffix = b"e-%02d\n" % i if i > 4 else b"\n"
        tail[i, :len(suffix)] = np.frombuffer(suffix, np.uint8)
    return chunks, _words(head.reshape(-1, 8)).ravel(), _words(tail).ravel()


def int_fields(k: int) -> np.ndarray | None:
    """``"%d "`` of 0..k-1 as one 64-bit word each: the digits right-aligned
    before the space, NUL bytes before them; None past 7 digits."""
    width = len(str(max(k - 1, 0)))
    if width > 7:
        return None
    i = np.arange(k)
    powers = 10 ** np.arange(width - 1, -1, -1)
    text = np.zeros((k, 8), np.uint8)
    digits = text[:, 7 - width:7]
    digits[:] = (i[:, None] // powers) % 10 + 48
    digits[:, :-1][i[:, None] < powers[:-1]] = 0  # leading zeros
    text[:, 7] = ord(" ")
    return _words(text).ravel()


def records(fields: np.ndarray | None, rows, cols, x) -> np.ndarray | None:
    """The text of records (row, col, x) as a uint8 array, or None if a
    probability is not certified or ``fields``, ``int_fields(K)``, is None."""
    got = None if fields is None else _significand(x)
    if got is None:
        return None
    sig, e = got
    chunks, head, tail = _digit_tables()
    block = np.empty((x.size, 6), np.uint64)
    block[:, 0] = fields[rows]
    block[:, 1] = fields[cols]
    first = sig // _P16
    rest = sig - first * _P16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    c = np.empty((x.size, 4), np.int64)
    np.floor_divide(upper, 10000, out=c[:, 0])
    np.subtract(upper, c[:, 0] * 10000, out=c[:, 1])
    np.floor_divide(lower, 10000, out=c[:, 2])
    np.subtract(lower, c[:, 2] * 10000, out=c[:, 3])
    # a chunk followed by zeros only loses its trailing zeros, a zero one all
    c[:, 0] += 10000 * ((c[:, 1] == 0) & (lower == 0))
    c[:, 1] += 10000 * (lower == 0)
    c[:, 2] += 10000 * (c[:, 3] == 0)
    c[:, 3] += 10000
    block[:, 2] = head[-e * 20 + first * 2 + (rest != 0)]
    block[:, 3:5].view(np.uint32)[:] = chunks[c]
    block[:, 5] = tail[-e]
    text = block.view(np.uint8)
    return text[text != 0]
