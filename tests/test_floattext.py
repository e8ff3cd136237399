"""``floattext.repr_rows`` is ``repr`` byte for byte: the edges of the
binary and decimal grids, the shortest-digit ties, Hypothesis' floats and
bit patterns, and a seeded sweep of random bit patterns."""

import math
import struct
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evolink import floattext

BLOCK = 1 << 16


def rendered(values):
    """The kernel's rows, one per line, NULs dropped."""
    x = np.asarray(values, dtype=np.float64)
    lines = []
    for start in range(0, len(x), BLOCK):
        rows = floattext.repr_rows(x[start : start + BLOCK])
        assert rows.shape == (len(rows), floattext.WIDTH) and rows.dtype == np.uint8
        newline = np.full((len(rows), 1), ord("\n"), dtype=np.uint8)
        lines.append(np.concatenate([rows, newline], axis=1).tobytes().translate(None, b"\0"))
    return b"".join(lines)


def expected(values):
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def assert_repr(values):
    got, want = rendered(values), expected(values)
    if got != want:
        pairs = zip(got.decode().splitlines(), want.decode().splitlines())
        bad = [(g, w) for g, w in pairs if g != w]
        raise AssertionError(f"{len(bad)} values differ, first (kernel, repr): {bad[:5]}")


def floats_of_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def test_special_values():
    assert_repr([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -1.0])
    assert rendered([-0.0, math.nan, -math.inf]) == b"-0.0\nnan\n-inf\n"


def test_every_power_of_two_and_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_repr(np.concatenate([values, -values]))


def test_powers_of_ten_their_neighbours_and_multiples():
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    multiples = [float(f"{d}e{k}") for d in range(1, 10) for k in range(-324, 309)]
    values = np.array(tens + multiples)
    values = values[np.isfinite(values) & (values != 0)]
    assert_repr(np.concatenate([values, np.nextafter(values, 0.0),
                                np.nextafter(values, np.inf), -values]))


def test_integers_and_layout_edges():
    values = [float(i) for i in range(1, 10**5 + 1)]
    # where repr switches between the positional and the exponent layouts
    values += [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 0.001, 123.0, 0.5]
    values += [2.0**53, 2.0**53 + 2, 1.7976931348623157e308, 2.2250738585072014e-308]
    assert_repr(values)
    assert_repr([-v for v in values])


def test_subnormals():
    bits = np.concatenate([np.arange(1, 5000), (1 << 52) - np.arange(1, 5000)])
    assert_repr(floats_of_bits(bits))


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2**64, size=1 << 20, dtype=np.uint64)
    values = floats_of_bits(bits)
    assert_repr(values[np.isfinite(values)])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_hypothesis_floats(values):
    assert_repr(values)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_hypothesis_bit_patterns(bits):
    assert_repr([struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits])


def test_ten_to_the_minus_k_table_is_exact():
    table = floattext.g_table()
    assert len(table) == floattext.K_MAX - floattext.K_MIN + 1 == 617
    for k, g in zip(range(floattext.K_MIN, floattext.K_MAX + 1), table):
        ten = Fraction(10) ** -k
        # 10^-k = beta 2^r with 2^125 <= beta < 2^126, and g = floor(beta) + 1
        r = ten.numerator.bit_length() - ten.denominator.bit_length() - 126
        beta = ten / Fraction(2) ** r
        while beta >= 2**126:
            r, beta = r + 1, beta / 2
        assert 2**125 <= beta < 2**126
        assert g == math.floor(beta) + 1, k


def test_floor_logarithms():
    for q in range(-1100, 1101):
        two = Fraction(2) ** q
        k = floattext.floor_log10_pow2(q)
        assert Fraction(10) ** k <= two < Fraction(10) ** (k + 1), q
        k = floattext.floor_log10_pow2(q, three_quarters=True)
        assert Fraction(10) ** k <= two * Fraction(3, 4) < Fraction(10) ** (k + 1), q
        if abs(q) <= 400:
            t = floattext.floor_log2_pow10(q)
            assert Fraction(2) ** t <= Fraction(10) ** q < Fraction(2) ** (t + 1), q


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def test_tables_of_words_match_their_text():
    """The suffix, digit and special tables are the words of their text,
    built here one Python int at a time."""
    tables = floattext._tables()
    suffixes = [_word(b"" if -4 < d <= 16 else b"e%+03d" % (d - 1))
                for d in range(floattext.DECPT_MIN, floattext.DECPT_MAX + 1)]
    groups = [b"".join(b"%c\0" % ch for ch in b"%04d" % y) for y in range(10**4)]
    digits = [_word(text) for text in groups] + [_word(text.rstrip(b"0\0")) for text in groups]
    specials = [_word(text) for text in floattext.SPECIAL_TEXT]
    for table, words in ((tables.suffixes, suffixes), (tables.digits, digits),
                         (tables.specials, specials)):
        assert table.dtype == np.uint64
        assert table.tolist() == words
