"""The `%.18e` kernel against Python's own formatting, cell by cell."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from warpfill import _fmt
from warpfill._fmt import format_e18


def _from_bits(bits):
    return float(np.uint64(bits).view(np.float64))


def assert_cells_match(x):
    """format_e18(x) equals "%.18e" % v for every cell, with rotating end bytes."""
    x = np.asarray(x, dtype=np.float64)
    ends = np.resize(np.frombuffer(b", \n", dtype=np.uint8), x.size)
    expected = b"".join(("%.18e" % v).encode() + bytes([e])
                        for v, e in zip(x.tolist(), ends.tolist()))
    got = format_e18(x, ends)
    if got != expected:
        cells = [("%.18e" % v).encode() for v in x.tolist()]
        for v, cell in zip(x.tolist(), cells):
            assert format_e18(np.array([v]), np.array([10])) == cell + b"\n", float.hex(v)
    assert got == expected


def _exact_ties(rng, per_scale=400):
    """Doubles m 2^-j whose exact decimal expansion has 20 significant digits,
    the last a 5: each lies exactly halfway between two 19-digit neighbours."""
    ties = []
    for j in range(5, 28):
        lo = -(-10 ** 19 // 5 ** j)
        hi = min(10 ** 20 // 5 ** j, 1 << 53)
        m = rng.integers(lo, hi, per_scale) | 1  # odd, so the expansion ends in 5
        m = m[m < hi]
        ties.append(np.ldexp(m.astype(float), -j))
    ties = np.concatenate(ties)
    assert all(len(Decimal(v).as_tuple().digits) == 20 for v in ties[::97].tolist())
    return ties


def test_bulk_against_python_formatting():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2 ** 64, 120_000, dtype=np.uint64, endpoint=False)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    neighbours = [powers]
    for direction in (math.inf, -math.inf):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, direction)
            neighbours.append(step)
    neighbours = np.concatenate(neighbours)
    ties = _exact_ties(rng)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1.7976931348623157e308, 21089332485663.016,
               9.9999999999999999e22, 1e23, 0.5, 9.5]
    for x in (bits.view(np.float64), neighbours, -neighbours, ties, -ties, special):
        assert_cells_match(x)


@given(st.lists(st.one_of(st.floats(), st.integers(0, 2 ** 64 - 1).map(_from_bits)),
                min_size=1, max_size=40))
def test_every_float64_matches_python_formatting(values):
    # NaN payloads, both signs of zero and of infinity, subnormals, any bits
    assert_cells_match(values)


def _table_entry(q):
    i = q - _fmt._Q_MIN
    return sum(int(limb[i]) << (32 * j) for j, limb in enumerate(_fmt._P)), int(_fmt._S_BASE[i])


def test_power_table_brackets_every_power_of_ten():
    # P_q 2^-s_q <= 10^q < (P_q + 1) 2^-s_q with P_q in [2^127, 2^128)
    for q in range(_fmt._Q_MIN, _fmt._Q_MAX + 1):
        P, s = _table_entry(q)
        assert 1 << 127 <= P < 1 << 128, q
        assert Fraction(P, 1) <= Fraction(10) ** q * Fraction(2) ** s < P + 1, q


def test_scaled_product_matches_integer_arithmetic():
    # the limb product and the bit window against Python integers
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2 ** 63, 4000, dtype=np.uint64).view(np.float64)  # sign bit clear
    x = x[np.isfinite(x) & (x > 0)]
    mant, e2 = np.frexp(x)
    m = (mant * 2.0 ** 53).astype(np.uint64)
    e2 = e2.astype(np.int64) - 53
    E = np.floor(np.log10(x)).astype(np.int64)
    N, F, over = _fmt._scaled(m, e2, E)
    for k in range(x.size):
        P, s = _table_entry(18 - int(E[k]))
        s -= int(e2[k])
        R = int(m[k]) * P
        assert not over[k]
        assert (int(N[k]), int(F[k])) == (R >> s, (R >> (s - 64)) & (2 ** 64 - 1)), x[k]


def test_empty_input():
    assert format_e18(np.empty(0), np.empty(0, dtype=np.uint8)) == b""
