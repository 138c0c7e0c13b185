"""Exact `%.18e` text for float64 arrays, in numpy integer arithmetic.

`format_e18(x, ends)` returns the bytes of `"%.18e" % v` for every value of
x, each followed by one end byte, which is what `np.savetxt(fmt="%.18e")`
writes. Python's own formatting runs a bignum dtoa per value, because 19
significant digits are beyond its fast path; this module reaches the same
digits with the fixed-precision method of Ryu printf (Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019), done on whole
arrays with 32-bit limbs held in uint64.

For a finite nonzero x = m 2^e2 (m in [2^52, 2^53)) and E = floor(log10|x|),
the 19 digits are N = round(|x| 10^q) with q = 18 - E, so N lies in
[10^18, 10^19). 10^q is read from a table as a 128-bit P_q and a binary
exponent k_q, with 10^q = (P_q + delta) 2^k_q and 0 <= delta < 1. The
product m P_q shifted right by s = -(e2 + k_q) gives the integer part of
|x| 10^q and the next 64 bits F of its fraction. Since P_q >= 2^127 and N <
10^19, the dropped delta and the bits below F cost less than 2.1 units of
F, so F > 2^63 rounds up exactly and F <= 2^63 - 3 rounds down exactly.
The few cells in between (mostly exact ties such as 21089332485663.016),
non-finite values, and cells whose estimate of E is still off after one
retry are formatted by `"%.18e" % v`, one cell at a time.
"""

from __future__ import annotations

import numpy as np

_Q_MIN, _Q_MAX = -292, 343  # q = 18 - E for every finite nonzero double, plus one retry
_E_MIN, _E_MAX = -330, 330  # exponents the text tables cover, beyond [-325, 310]
_MASK32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(1 << 63)
_E8, _E16, _E18, _E19 = (np.uint64(10 ** k) for k in (8, 16, 18, 19))
_E4 = np.uint32(10 ** 4)
_CELL_WORDS = 8  # 32 bytes per cell: sign, "d.dd", 4 x "dddd", "e+dd", [digit, end]


def _power_table():
    """The 32-bit limbs of P_q, low first, and s_q = -k_q for q in [_Q_MIN, _Q_MAX]."""
    limbs, s_base = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            v = 10 ** q
            k = v.bit_length() - 128
            p = v >> k if k >= 0 else v << -k
        else:
            d = 10 ** -q
            j = 127 + d.bit_length()  # 2^j / d lies in (2^127, 2^128)
            p, k = (1 << j) // d, -j
        limbs.append([(p >> (32 * i)) & 0xFFFFFFFF for i in range(4)])
        s_base.append(-k)
    limbs = tuple(np.array(col, dtype=np.uint64) for col in zip(*limbs))
    return limbs, np.array(s_base, dtype=np.int64)


def _words(texts) -> np.ndarray:
    return np.frombuffer(b"".join(texts), dtype="<u4")


_P, _S_BASE = _power_table()
_DIGITS4 = _words(b"%04d" % i for i in range(10000))
_LEAD = _words(b"%d.%02d" % divmod(i, 100) for i in range(1000))  # "d.dd"
_EXP_TEXT = [b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)]
_EXP_WORD = _words(t[:4] for t in _EXP_TEXT)
_EXP_TAIL = np.array([t[4] if len(t) > 4 else 0 for t in _EXP_TEXT], dtype=np.uint32)
_MINUS = np.uint32(ord("-") << 24)


def _scaled(m: np.ndarray, e2: np.ndarray, E: np.ndarray):
    """floor(m 2^e2 10^(18 - E)) as uint64, the next 64 bits of its fraction,
    and a mask of cells whose integer part does not fit in 64 bits."""
    i = 18 - E - _Q_MIN
    # m P_q lies in [2^179, 2^181) and its integer part in [10^17, 10^20) when
    # E is off by at most one, so s lies in [113, 125) and no shift below
    # reaches 64 bits
    s = (_S_BASE[i] - e2).astype(np.uint64)
    a0, a1 = m & _MASK32, m >> np.uint64(32)
    b0, b1, b2, b3 = (limb[i] for limb in _P)
    t0, t1, t2, t3 = a0 * b0, a0 * b1, a0 * b2, a0 * b3
    # schoolbook product m * P_q: column j takes the low half of t_j, the high
    # half of t_(j-1), a1 * b_(j-1) (below 2^53) and the carry; limb 0 only
    # feeds its carry, and no bit of it reaches F because s - 64 >= 32
    c1 = (t1 & _MASK32) + (t0 >> np.uint64(32)) + a1 * b0
    c2 = (t2 & _MASK32) + (t1 >> np.uint64(32)) + a1 * b1 + (c1 >> np.uint64(32))
    c3 = (t3 & _MASK32) + (t2 >> np.uint64(32)) + a1 * b2 + (c2 >> np.uint64(32))
    hi = (t3 >> np.uint64(32)) + a1 * b3 + (c3 >> np.uint64(32))  # bits 128 and up
    mid = ((c3 & _MASK32) << np.uint64(32)) | (c2 & _MASK32)     # bits 64..127
    up, down = np.uint64(128) - s, s - np.uint64(64)             # [1, 32], [32, 63]
    N = (hi << up) | (mid >> down)
    F = (mid << up) | ((c1 & _MASK32) >> (s - np.uint64(96)))
    return N, F, (hi >> down) != 0


def _digits(x: np.ndarray):
    """The 19 digits N and the decimal exponent E of every cell (N = E = 0 for
    a zero), and the mask of cells left to Python's formatting."""
    ax = np.abs(x)
    finite = np.isfinite(x)
    nonzero = finite & (ax != 0.0)
    ax = np.where(nonzero, ax, 1.0)
    mant, e2 = np.frexp(ax)
    m = (mant * 2.0 ** 53).astype(np.uint64)
    e2 = e2.astype(np.int64) - 53
    E = np.floor(np.log10(ax)).astype(np.int64)  # exact except next to a power of 10
    N, F, over = _scaled(m, e2, E)
    low, high = N < _E18, over | (N >= _E19)
    retry = np.flatnonzero(nonzero & (low | high))
    if retry.size:
        E[retry] += np.where(high[retry], 1, -1)
        N[retry], F[retry], over_r = _scaled(m[retry], e2[retry], E[retry])
        high[retry] = over_r | (N[retry] >= _E19)
        low[retry] = N[retry] < _E18
    up = F > _HALF
    fallback = ~finite | (nonzero & (low | high | (~up & (F > _HALF - np.uint64(3)))))
    N = np.where(nonzero, N + up, 0)
    E = np.where(nonzero, E, 0)
    carry = N == _E19  # rounded up to 10^19: one more decade
    N[carry] = _E18
    E[carry] += 1
    return N, E, fallback


def format_e18(x: np.ndarray, ends: np.ndarray) -> bytes:
    """`"%.18e" % v` for every value v of the 1-D float64 array x, each
    followed by the byte ends[i] (an integer array of x's length)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    N, E, fallback = _digits(x)
    E = E - _E_MIN
    # N = lead_two 10^16 + hi 10^8 + lo: "d.dd", then 4-digit words
    lead_two = N // _E16
    rest = N - lead_two * _E16
    hi = rest // _E8
    lo = (rest - hi * _E8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    cells = np.empty((x.size, _CELL_WORDS), dtype="<u4")
    cells[:, 0] = np.where(np.signbit(x), _MINUS, np.uint32(0))
    cells[:, 1] = _LEAD[lead_two]
    for col, part in ((2, hi), (4, lo)):
        upper = part // _E4
        cells[:, col] = _DIGITS4[upper]
        cells[:, col + 1] = _DIGITS4[part - upper * _E4]
    cells[:, 6] = _EXP_WORD[E]
    cells[:, 7] = _EXP_TAIL[E] | (np.asarray(ends, dtype=np.uint32) << np.uint32(8))
    for k in np.flatnonzero(fallback):
        text = ("%.18e" % x[k]).encode("ascii") + bytes([int(ends[k])])
        cells[k] = np.frombuffer(text.ljust(4 * _CELL_WORDS, b"\0"), dtype="<u4")
    raw = cells.view(np.uint8).ravel()
    return raw[raw != 0].tobytes()
