"""A numpy kernel that writes the bytes '%.17g' % v writes, a block of values at a time.

Each value becomes a 32-byte record of four little-endian words holding its
characters in order, with zero bytes between them; deleting the zero bytes of
a block of records gives its text.

    byte 0        the sign;
    bytes 1-5     "0.", then up to three zeros, when -4 <= E < 0;
    bytes 8-25    the 17 digits with the point inserted, trailing zeros of
                  the fraction dropped;
    bytes 26-30   the exponent, "e+XX" to "e-XXX";
    byte 31       zero, left for a separator.

E is the decimal exponent after rounding to 17 digits; '%g' writes fixed
notation for -4 <= E <= 16 and an exponent otherwise.

The digits are |v| 10^(16-E) rounded half to even.  With hi the double
nearest 10^k and lo the double nearest 10^k - hi, v hi is exactly p + e
(Dekker's two-product), p is an integer because it exceeds 2^53, and the
fraction of e + v lo is off by under 2^-47: the roundings of v lo and of the
sum are each under 2^-49, and so is the dropped v (10^k - hi - lo).  A value
whose fraction lies within MARGIN of one half, or that lies outside
[1e-290, 1e290) where the split could overflow, is formatted by '%.17g'
instead; so is every non-finite value.  The bytes are therefore those of
'%.17g' for every float64.

io_cli imports this module on its first trajectory write, and the tables are
built then, so neither adds to start-up.
"""

from __future__ import annotations

import functools

import numpy as np

K_RANGE = (-280, 308)  # the 10^k table's exponents
E_MAX = 300            # the exponent tables cover -E_MAX..E_MAX
MARGIN = 2.0 ** -30
SPLIT = 134217729.0    # 2^27 + 1, Veltkamp's splitter


@functools.cache
def tables() -> tuple:
    """The kernel's lookup tables."""
    hi, lo = [], []
    for k in range(K_RANGE[0], K_RANGE[1] + 1):
        if k >= 0:
            h = float(10 ** k)
            hi.append(h)
            lo.append(float(10 ** k - int(h)))
        else:  # int / int rounds correctly, so both are the nearest doubles
            h = 1 / 10 ** -k
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * 10 ** -k) / (10 ** -k * den))
    hi, lo = np.array(hi), np.array(lo)
    mant, ex = np.frexp(hi)  # split the mantissa, where 2^27 + 1 cannot overflow
    c = mant * SPLIT
    top = c - (c - mant)
    p10 = (hi, lo, np.ldexp(top, ex), np.ldexp(mant - top, ex))

    q = np.arange(10000, dtype=np.uint16)
    quads = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + 48
    quads = quads.astype(np.uint8).view("<u4").ravel().astype("<u8")
    trailing = np.zeros(q.size, dtype=np.int8)  # trailing zeros of each quad
    trailing[0] = 4
    for d in (10, 100, 1000):
        trailing[(q % d == 0) & (q > 0)] += 1

    E = np.arange(-E_MAX, E_MAX + 1)
    fixed = (E >= -4) & (E <= 16)
    small = fixed & (E < 0)
    lead = np.zeros((E.size, 8), dtype=np.uint8)
    lead[small, 1:3] = [ord("0"), ord(".")]
    for i in range(3):
        lead[small & (-E - 1 > i), 3 + i] = ord("0")
    tail = np.zeros((E.size, 8), dtype=np.uint8)
    sci, mag = ~fixed, np.abs(E[~fixed])
    tail[sci, 2] = ord("e")
    tail[sci, 3] = np.where(E[sci] < 0, ord("-"), ord("+"))
    tail[sci, 4] = np.where(mag >= 100, 48 + mag // 100, 0)
    tail[sci, 5] = 48 + mag // 10 % 10
    tail[sci, 6] = 48 + mag % 10
    # the index of the last digit before the point: E in fixed notation, 0
    # with an exponent, and 17 (past the digits) when "0.000" carries the point
    point = np.where(fixed, np.where(small, 17, E), 0)

    # body masks per class point * 18 + L, L the significant digits: digit j
    # stays at byte j up to the point, '.' follows, and the fraction's digits
    # come from the body shifted one byte
    P, L = np.divmod(np.arange(18 * 18), 18)
    shown = np.where(P == 17, L, np.maximum(L, P + 1))
    J = np.arange(24)
    keep = (J <= P[:, None]) & (J < shown[:, None])
    dot = (J == P[:, None] + 1) & (shown[:, None] > P[:, None] + 1)
    shift = (J > P[:, None] + 1) & (J <= shown[:, None])
    masks = [np.ascontiguousarray((b * np.uint8(c)).view("<u8").T)
             for b, c in ((keep, 255), (shift, 255), (dot, ord(".")))]
    return (p10, quads, trailing, lead.view("<u8").ravel(), tail.view("<u8").ravel(),
            point, masks)


def _scaled(a: np.ndarray, k: np.ndarray, p10) -> tuple[np.ndarray, np.ndarray]:
    """floor(a 10^k) as int64 and its fraction, for a 10^k near [1e16, 1e17)."""
    i = k - K_RANGE[0]
    hi, lo, hh, hl = (t[i] for t in p10)
    c = a * SPLIT
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    ft = np.floor(t)
    return p.astype(np.int64) + ft.astype(np.int64), t - ft


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, E, slow): the 17 digits of each |v| as an int64 (0 for a zero), the
    exponent, and where the kernel leaves the value to '%.17g'."""
    p10 = tables()[0]
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 1e-290) & (a < 1e290)
    a = np.where(fast, a, 1.0)
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, k, p10)
    # log10 can miss E by one next to a power of ten: rescale those values
    off = (n < 10 ** 16).astype(np.int64) - (n >= 10 ** 17)
    if off.any():
        redo = np.flatnonzero(off)
        k[redo] += off[redo]
        n[redo], frac[redo] = _scaled(a[redo], k[redo], p10)
    d = n + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    E = 16 - k + carry
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < MARGIN) | (d < 10 ** 16) | (d > 10 ** 17)
    d[zero] = 0
    E[zero] = 0
    return d, E, slow


def records(v: np.ndarray) -> np.ndarray:
    """'%.17g' % x for each x of the 1-D float64 array v, as (v.size, 4) records."""
    _, quads, trailing, lead, tail, point, masks = tables()
    d, E, slow = _digits(v)
    hi9, lo8 = np.divmod(d, 10 ** 8)
    d0, mid8 = np.divmod(hi9, 10 ** 8)
    c1, c2 = np.divmod(mid8, 10 ** 4)
    c3, c4 = np.divmod(lo8, 10 ** 4)
    zeros = trailing[c4]
    run = c4 == 0
    for c in (c3, c2, c1):
        zeros += run * trailing[c]
        run &= c == 0
    zeros += run & (d0 == 0)
    row = E + E_MAX
    cls = point[row] * 18 + np.maximum(17 - zeros, 1)

    def body(w, digits, shifted):  # word w of the digits, the point inserted
        keep, shift, dot = (m[w][cls] for m in masks)
        return digits & keep | shifted & shift | dot

    q0 = d0.astype("<u8") + 48
    q1, q2, q3, q4 = quads[c1], quads[c2], quads[c3], quads[c4]
    out = np.empty((v.size, 4), dtype="<u8")
    out[:, 0] = lead[row] | np.signbit(v) * np.uint64(ord("-"))
    out[:, 1] = body(0, q0 | q1 << 8 | q2 << 40, q0 << 8 | q1 << 16 | q2 << 48)
    out[:, 2] = body(1, q2 >> 24 | q3 << 8 | q4 << 40, q2 >> 16 | q3 << 16 | q4 << 48)
    out[:, 3] = body(2, q4 >> 24, q4 >> 16) | tail[row]
    if slow.any():
        idx = np.flatnonzero(slow)
        out[idx] = padded([b"%.17g" % x for x in v[idx].tolist()])
    return out


def padded(cells: list[bytes]) -> np.ndarray:
    """Byte strings of at most 32 bytes as (len(cells), 4) zero-padded records."""
    return np.frombuffer(b"".join(c.ljust(32, b"\0") for c in cells),
                         dtype="<u8").reshape(-1, 4)
