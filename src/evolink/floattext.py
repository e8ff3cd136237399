"""Python's ``repr`` of float64 values, a whole array at a time.

``repr_rows(x)`` gives one row of ``WIDTH`` bytes per value: the ASCII text
of ``repr(float(v))`` with NUL bytes among and after its characters.
Dropping every NUL (``bytes.translate(None, b"\\0")``) leaves the text
itself, so the rows can be laid into a wider byte matrix and all of it
written at once.

The digits are those of ``repr`` (David Gay's dtoa in mode 0): the shortest
decimal that reads back as the value, and of those the nearest to it, ties
going to the even last digit. They are found by Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020), the algorithm of Java's
``Double.toString`` without Java's rule that a result has at least two
digits. For v = c 2^q it scales v and the two ends of its rounding interval
by g 2^r, an approximation of 10^-k with 2^125 < g <= 2^126, rounding the
products to odd with two bits below the unit. The interval, scaled, is less
than 10 units wide: it holds at most one multiple of 10, which if it is
there is the shortest decimal; else the answer is the nearer of floor(v
10^-k) and the next integer that lies in it. The products are computed
exactly from 32-bit limbs in ``uint64`` arrays, then rounded as the
paper's code rounds them. Subnormals take the same path as normal values.
The layout is ``repr``'s: positional when the decimal point falls after
digit -3 to 16 (``0.001``, ``123.0``), else ``d.ddde±XX``; ±0.0, NaN and
±inf are constant rows.

The code stays within the rules of numpy 1.24, the oldest numpy evolink
accepts: every integer array is ``uint64``, or ``int64``/``intp`` for
indices, by explicit dtype; no operation mixes signed and unsigned operands,
and no ``np.uint64`` scalar meets a Python int, since 1.24 promotes both to
float64; no ``np.strings`` or ``StringDType``. It relies on these
behaviours, all older than 1.24:

* ``uint64`` array arithmetic is modulo 2^64 and never warns: the
  products of 32-bit limbs stay below 2^64, and the one overflow meant is
  ``mid << 32``, which keeps the low 64 bits of g1 cp;
* a ``uint64`` array shifts by ``uint64`` counts, element by element;
* a float64 array ``view``s as ``uint64`` with its IEEE 754 bits, and a
  ``<u8`` array as its eight little-endian bytes.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

U64 = np.uint64
WIDTH = 48  # bytes a row: see the layout in _tables()
K_MIN, K_MAX = -324, 292  # the decimal exponents k of the 10^-k table
DECPT_MIN, DECPT_MAX = -323, 309  # where the point falls: 5e-324 is 0.5 x 10^-323
# the rows that are not a decimal's digits, by the code repr_rows gives them
SPECIAL_TEXT = (b"nan", b"inf", b"-inf", b"0.0", b"-0.0")

_M32 = U64(0xFFFFFFFF)
_M63 = U64((1 << 63) - 1)
_MANTISSA = U64((1 << 52) - 1)
_HIDDEN = U64(1 << 52)
_EXPONENT = U64(0x7FF)
_P4, _P8, _P16 = U64(10**4), U64(10**8), U64(10**16)


def g_table() -> list[int]:
    """g(k) for k from ``K_MIN`` to ``K_MAX``: with 10^-k = beta 2^r and
    2^125 <= beta < 2^126, g(k) = floor(beta) + 1, so that
    (g - 1) 2^r <= 10^-k < g 2^r."""
    table = []
    for k in range(K_MIN, K_MAX + 1):
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        t = num.bit_length() - den.bit_length()
        if (num << max(0, -t)) < (den << max(0, t)):
            t -= 1  # now 2^t <= 10^-k < 2^(t+1), and r = t - 125
        if t <= 125:
            table.append((num << (125 - t)) // den + 1)
        else:
            table.append(num // (den << (t - 125)) + 1)
    return table


def floor_log10_pow2(q, three_quarters=False):
    """floor(log10(2^q)), or floor(log10(3/4 2^q)), for |q| <= 1100."""
    return (q * 661_971_961_083 - (274_743_187_321 if three_quarters else 0)) >> 41


def floor_log2_pow10(k):
    """floor(log2(10^k)), for |k| <= 400."""
    return (k * 913_124_641_741) >> 38


class _Tables(NamedTuple):
    """The constants of ``repr_rows``. The per-exponent ones are indexed by
    the biased exponent, plus 2048 for a value whose significand is a power
    of two and so whose lower neighbour is nearer (irregular spacing)."""

    limbs: tuple  # g's four 32-bit limbs, as _round_to_odd_product takes them
    k: np.ndarray
    shift: np.ndarray  # h + 2, which takes c to cb << h
    down: np.ndarray  # from cb << h down to the rounding interval's lower end,
    up: np.ndarray  # and up to its upper end
    frames: np.ndarray
    suffixes: np.ndarray
    digits: np.ndarray
    specials: np.ndarray
    pow10: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """Built once, from Python ints."""
    g = np.array([[x & 0xFFFFFFFF, (x >> 32) & 0x7FFFFFFF, (x >> 63) & 0xFFFFFFFF, x >> 95]
                  for x in g_table()], dtype=np.uint64)
    be = np.arange(4096, dtype=np.int64) % 2048
    q = np.maximum(be, 1) - 1075
    irregular = (np.arange(4096) >= 2048) & (be > 1)
    k = np.where(irregular, floor_log10_pow2(q, True), floor_log10_pow2(q))
    h = q + floor_log2_pow10(-k) + 2
    limbs = tuple(np.ascontiguousarray(column) for column in g[k - K_MIN].T)

    # A row is six 8-byte words: the sign, "0." and up to three zeros, the
    # first digit and a slot for the point after it; the other 16 digits,
    # each followed by a slot for the point; the exponent. A frame holds
    # the first five words' characters that are not digits, by where the
    # point falls (from -4, and every exponent layout, to 17) and whether
    # the first digit is the only one.
    frames = np.zeros((2, 22, 40), dtype=np.uint8)
    for only_one in (0, 1):
        for i, decpt in enumerate(range(-4, 18)):
            row = frames[only_one, i]
            if -4 < decpt <= 0:
                row[1 : 3 - decpt] = np.frombuffer(b"0." + b"0" * -decpt, np.uint8)
            elif 0 < decpt <= 16:
                row[5 + 2 * decpt] = ord(".")
                # the digits up to the point and one after it, should the
                # value's own end before (123.0); ORed onto the digits
                row[8 : 8 + 2 * decpt : 2] = ord("0")
            elif not only_one:
                row[7] = ord(".")
    frames = frames.reshape(44, 40).view("<u8")
    suffixes = _words([b"" if -4 < d <= 16 else b"e%+03d" % (d - 1)
                       for d in range(DECPT_MIN, DECPT_MAX + 1)])
    # the four digits of 0..9999 in every other byte; from 10^4 on with
    # their trailing zeros left out, for the last group of four that is not 0
    groups = np.arange(10**4, dtype=np.uint64)
    whole, trimmed = np.zeros_like(groups), np.zeros_like(groups)
    more = np.zeros(len(groups), dtype=bool)  # a digit from this one on is not 0
    for i in (3, 2, 1, 0):
        digit = groups // U64(10 ** (3 - i)) % U64(10)
        char = (digit + U64(ord("0"))) << U64(16 * i)
        more |= digit != U64(0)
        whole |= char
        trimmed |= np.where(more, char, U64(0))
    digits = np.concatenate((whole, trimmed))
    specials = _words(SPECIAL_TEXT)
    return _Tables(
        limbs=limbs, k=k, shift=(h + 2).astype(np.uint64),
        down=(np.where(irregular, 1, 2) << h).astype(np.uint64),
        up=(2 << h).astype(np.uint64), frames=frames, suffixes=suffixes, digits=digits,
        specials=specials, pow10=np.array([10**i for i in range(18)], dtype=np.uint64),
    )


def _words(texts) -> np.ndarray:
    """Each text of at most 8 bytes as the ``uint64`` whose little-endian
    bytes are the text and then NULs."""
    return np.array(texts, dtype="S8").view("<u8").astype(np.uint64)


def _round_to_odd_product(limbs, cp):
    """Schubfach's rop(g, cp): about g cp / 2^127, rounded to odd.

    g is 126 bits, g1 2^63 + g0 with g1, g0 < 2^63, given as 32-bit limbs
    (g0 low, g0 high, g1 low, g1 high); cp < 2^63. As in the paper, the bits
    of g0 cp below 2^64, and the lowest bit of g1 cp, are left out of the
    rounding: the result is floor(y / 2^63), with its lowest bit set when
    y mod 2^63 is not 0, for y = floor(g1 cp / 2) + floor(g0 cp / 2^64).
    """
    c0, c1 = cp & _M32, cp >> U64(32)
    a0, a1, b0, b1 = limbs
    # x1 = floor(g0 cp / 2^64)
    a1c0, a0c1 = a1 * c0, a0 * c1
    x1 = ((a0 * c0) >> U64(32)) + (a1c0 & _M32) + (a0c1 & _M32)
    x1 = (x1 >> U64(32)) + (a1c0 >> U64(32)) + (a0c1 >> U64(32)) + a1 * c1
    # y1 2^64 + y0 = g1 cp
    b0c0, b1c0, b0c1 = b0 * c0, b1 * c0, b0 * c1
    mid = (b0c0 >> U64(32)) + (b1c0 & _M32) + (b0c1 & _M32)
    y0 = (b0c0 & _M32) | (mid << U64(32))
    y1 = (mid >> U64(32)) + (b1c0 >> U64(32)) + (b0c1 >> U64(32)) + b1 * c1
    z = (y0 >> U64(1)) + x1
    return (y1 + (z >> U64(63))) | ((z & _M63) != U64(0)).astype(np.uint64)


def shortest_digits(bits: np.ndarray):
    """(f, k): f 10^k is ``repr``'s decimal for each finite nonzero float64
    whose bits are ``bits``, with f < 10^17. f may end in zeros, which are
    not among the decimal's digits."""
    t = _tables()
    fraction = bits & _MANTISSA
    be = (bits >> U64(52)) & _EXPONENT
    key = be.astype(np.intp)
    key[(fraction == U64(0)) & (be > U64(1))] += 2048
    c = fraction | np.where(be != U64(0), _HIDDEN, U64(0))
    cb = c << np.take(t.shift, key)
    # the value, and the ends of its rounding interval, each times 4 10^-k
    cp = np.stack([cb, cb - np.take(t.down, key), cb + np.take(t.up, key)])
    vb, vbl, vbr = _round_to_odd_product([np.take(limb, key) for limb in t.limbs], cp)
    out = c & U64(1)  # an odd significand's interval leaves its ends out
    vbl += out
    s = vb >> U64(2)
    sp10 = (s // U64(10)) * U64(10)
    tp10 = sp10 + U64(10)
    upin = vbl <= sp10 << U64(2)
    wpin = (tp10 << U64(2)) + out <= vbr
    s1 = s + U64(1)
    uin = vbl <= s << U64(2)
    win = (s1 << U64(2)) + out <= vbr
    mid = (s + s1) << U64(1)
    nearer_s = (vb < mid) | ((vb == mid) & ((s & U64(1)) == U64(0)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(uin != win, np.where(uin, s, s1), np.where(nearer_s, s, s1)))
    return f, np.take(t.k, key)


def repr_rows(x: np.ndarray) -> np.ndarray:
    """``(len(x), WIDTH)`` uint8: row i is ``repr(float(x[i]))`` in ASCII,
    with NUL bytes among and after its characters."""
    t = _tables()
    x = np.ascontiguousarray(x, dtype=np.float64)
    special = ~np.isfinite(x) | (x == 0.0)
    bits = x.view(np.uint64)
    if special.any():
        bits = np.where(special, U64(0x3FF0000000000000), bits)  # 1.0, replaced below
    f, k = shortest_digits(bits)
    n_digits = np.searchsorted(t.pow10, f, side="right")
    decpt = k + n_digits  # the value is 0.d1d2... times 10^decpt
    first, rest = np.divmod(f * np.take(t.pow10, 17 - n_digits), _P16)
    high, low = np.divmod(rest, _P8)
    groups = (*np.divmod(high, _P4), *np.divmod(low, _P4))  # the other 16 digits

    rows = np.empty((len(x), WIDTH // 8), dtype="<u8")
    more = np.zeros(len(x), dtype=bool)  # a digit after this group is not 0
    for i in (3, 2, 1, 0):
        # the last group with a digit other than 0 leaves out its trailing zeros
        rows[:, 1 + i] = np.take(t.digits, groups[i].astype(np.intp) + np.where(more, 0, 10**4))
        more |= groups[i] != U64(0)
    frame = np.take(t.frames, np.clip(decpt, -4, 17) + np.where(more, 4, 26), axis=0)
    rows[:, 0] = frame[:, 0] | ((first | U64(0x30)) << U64(48)) | (bits >> U64(63)) * U64(0x2D)
    rows[:, 1:5] |= frame[:, 1:]
    rows[:, 5] = np.take(t.suffixes, decpt - DECPT_MIN)
    if special.any():
        where = np.flatnonzero(special)
        value = x[where]
        code = np.select([np.isnan(value), value > 0, value < 0, np.signbit(value)],
                         [0, 1, 2, 4], 3)
        rows[where] = 0
        rows[where, 0] = t.specials[code]
    return rows.view(np.uint8)
