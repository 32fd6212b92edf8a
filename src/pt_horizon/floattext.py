"""`FLOAT_FORMAT` for whole float64 arrays, byte for byte as Python's `%`.

`float_fields(x)` renders each double into one row of a `uint8` matrix,
padded with zero bytes: dropping a row's zeros leaves `FLOAT_FORMAT % x`.
Most values take a numpy path that releases the GIL.  It rounds
y = |x| * 10^(16 - k), k = floor(log10 |x|), to the 17-digit integer D and
lays D out by `%g`'s rules.  Every value whose D that path cannot prove to
be the correctly rounded one is formatted by `FLOAT_FORMAT % x` itself.
"""
from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

FLOAT_FORMAT = "%.17g"
DIGITS = 17
# fast-path range of |x|: 10^j for j = 16 - k stays far from overflow and
# every partial product below far from underflow
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_J_MIN, _J_MAX = 16 - 252, 16 + 252     # log10 may put k one off the truth
_SPLIT = 2.0 ** 27 + 1.0                # Dekker's splitter for 53-bit doubles
# fractions of y this close to 1/2 round by the fallback; the error of y is
# below 2^-45 (see `_rounded_digits`), so every other rounding is certain
_TIE_BAND = 2.0 ** -30


def _split(a):
    """Dekker's split a = hi + lo, each with at most 26 significant bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


@functools.lru_cache(maxsize=None)
def _pow10_table():
    """10^j = hi + lo (+ < 2^-106 * 10^j) for j in [_J_MIN, _J_MAX], and hi split.

    Built exactly from Python ints on first use, not at import: int and
    `Fraction` to float conversions are correctly rounded.
    """
    hi, lo = [], []
    for j in range(_J_MIN, _J_MAX + 1):
        exact = Fraction(10) ** j
        h = float(exact)
        hi.append(h)
        lo.append(float(exact - Fraction(h)))
    hi, lo = np.array(hi), np.array(lo)
    hi_hi, hi_lo = _split(hi)
    for a in (hi, hi_hi, hi_lo, lo):
        a.flags.writeable = False
    return hi, hi_hi, hi_lo, lo


# Error of y, for |x| in [_FAST_MIN, _FAST_MAX] and 10^16 - 32 <= y < 10^17
# (any other y fails the range test below).  Write 10^j = H + L + r with
# |L| <= 2^-53 H and |r| <= 2^-53 |L|, from the exact table.  Dekker's
# TwoProd gives |x| H = p + e exactly (its partial products neither overflow
# nor underflow on this range); p = fl(|x| H) >= 2^53 is an integer, and
# p < 2^57 gives |e| <= ulp(p) / 2 <= 8.  Then s = fl(e + fl(|x| L)), y = p + s:
#   * |x| L <= 2^-53 |x| H < 16, so fl(|x| L) is off by <= 2^-49;
#   * |e + fl(|x| L)| < 24 < 32, so the sum is off by <= 2^-49;
#   * the dropped |x| r <= 2^-106 * 2^57 = 2^-49.
# Total: 3 * 2^-49 < 2^-47, below 2^-45.  Rounding y half to even changes
# only at fractions of 1/2, and the fast path takes no fraction within
# _TIE_BAND = 2^-30 of it, so its D is the correctly rounded one.
# D >= 10^16 is checked on floor(y), not on D: a y just below 10^16 (k one
# too high) can round up to 10^16, and its digits belong to exponent k - 1.
def _rounded_digits(x):
    """(D, k, fast) of each double.  Where `fast` is False (zero, NaN, inf,
    |x| off the range, y near a tie, or k one off) D lies in (0, 10^18) but
    is not the answer: `FLOAT_FORMAT % x` formats that value."""
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)      # False on 0, nan and inf
    ax = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(ax)).astype(np.int64)
    row = 16 - k - _J_MIN          # of 10^(16 - k) in the table
    hi, hi_hi, hi_lo, lo = (t[row] for t in _pow10_table())
    p = ax * hi
    a_hi, a_lo = _split(ax)
    e = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    s = e + ax * lo
    s_floor = np.floor(s)
    frac = s - s_floor                         # exact: |s| < 32
    y_floor = p.astype(np.int64) + s_floor.astype(np.int64)
    D = y_floor + (frac > 0.5)
    fast &= ((np.abs(frac - 0.5) >= _TIE_BAND)
             & (y_floor >= 10 ** (DIGITS - 1)) & (D < 10 ** DIGITS))
    return D, k, fast


# Every field is one template of slots; a slot a value does not use holds 0:
#   sign | "0" "." and three "0"s of fixed notation below 1 |
#   17 digits, each but the last followed by a point slot | "e" sign ddd
# Its 44 slots also hold any fallback text whole: the longest FLOAT_FORMAT
# text of a double, "-2.2250738585072014e-308", has 24 characters.
_SIGN, _PREFIX, _DIGIT, _POINT, _EXP = 0, 1, 6, 7, 39
FIELD_WIDTH = _EXP + 5
_QUADS = 5          # "000" + the 17 digits, as 4-digit groups


@functools.lru_cache(maxsize=None)
def _quad_table():
    """The texts "0000" to "9999" as uint32, ASCII bytes in memory order."""
    quads = np.array([b"%04d" % i for i in range(10 ** 4)], "S4").view(np.uint32)
    quads.flags.writeable = False
    return quads


_DIGIT_INDEX = np.arange(DIGITS, dtype=np.uint8)


def _digit_text(D, before_point):
    """The 17 digits of each D as uint8 text, and the count up to the last
    nonzero one.  Zeros after both that and `before_point` digits become 0."""
    groups = np.empty((len(D), _QUADS), np.intp)
    q = D
    for i in range(_QUADS - 1, 0, -1):
        q10 = q // 10 ** 4
        groups[:, i] = q - q10 * 10 ** 4
        q = q10
    groups[:, 0] = q
    text = _quad_table()[groups].view(np.uint8)[:, 3:]
    n_digits = DIGITS - np.argmax(text[:, ::-1] != ord("0"), axis=1)    # D > 0
    n_kept = np.maximum(n_digits, before_point).astype(np.uint8)
    return text * (_DIGIT_INDEX < n_kept[:, None]), n_digits


def text_rows(texts: list, width: int) -> np.ndarray:
    """ASCII `texts` as rows of a `uint8` (len, width) matrix, zero-padded."""
    return np.array([t.encode("ascii") for t in texts],
                    dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


def float_fields(x: np.ndarray) -> np.ndarray:
    """`FLOAT_FORMAT % v` of each double, as a zero-padded (n, FIELD_WIDTH) uint8."""
    x = np.asarray(x, np.float64).ravel()
    D, k, fast = _rounded_digits(x)

    # %g: fixed notation for -4 <= k < 17, else d.ddde+dd; the fraction's
    # trailing zeros are dropped, and the point with them
    fixed = (k >= -4) & (k < DIGITS)
    before_point = np.where(fixed, np.maximum(k + 1, 0), 1)
    digits, n_digits = _digit_text(D, before_point)
    out = np.zeros((len(x), FIELD_WIDTH), np.uint8)
    out[:, _SIGN] = (x < 0) * np.uint8(ord("-"))
    out[:, _DIGIT:_EXP:2] = digits
    rows = np.flatnonzero((n_digits > before_point) & (before_point > 0))
    out[rows, _POINT + 2 * (before_point[rows] - 1)] = ord(".")
    rows = np.flatnonzero(fixed & (k < 0))
    out[rows, _PREFIX:_PREFIX + 2] = (ord("0"), ord("."))
    for zeros in (1, 2, 3):
        out[rows[k[rows] < -zeros], _PREFIX + 1 + zeros] = ord("0")
    rows = np.flatnonzero(~fixed)
    e = np.abs(k[rows])
    out[rows, _EXP] = ord("e")
    out[rows, _EXP + 1] = np.where(k[rows] < 0, ord("-"), ord("+"))
    out[rows, _EXP + 2] = np.where(e >= 100, ord("0") + e // 100, 0)
    out[rows, _EXP + 3] = ord("0") + e // 10 % 10
    out[rows, _EXP + 4] = ord("0") + e % 10

    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = text_rows([FLOAT_FORMAT % v for v in x[slow].tolist()], FIELD_WIDTH)
    return out
