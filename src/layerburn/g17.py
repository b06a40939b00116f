"""Numpy kernels that write the bytes '%.17g' % v writes, and read such text back.

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

parse() reads cells back, float(cell) bit for bit.  A cell -?m[e+-DD[D]]
whose mantissa m is 1 to 24 bytes of digits and at most one point is read
from three unaligned words that end at m's last byte: the bytes before m are
masked, the bytes before the point move up one over it, and Lemire's
multiply-shift steps turn each word's digits into an integer, so the cell is
M 10^k with M < 10^17.  With a = fl(M), da = M - a exactly and a hi = prod + e
exactly (Dekker), X = prod + (e + a lo + da hi) is within 2^-100 |M 10^k| of
the cell's value, under 2^-46 of an ulp of r = fl(X), and the residual X - r
is exact.  float(cell) decides the cell instead when that residual is within
MARGIN of half an ulp on its side (below a power of two the ulp is half the
one above), when k lies outside [-291, 290] (below -291 lo is subnormal, above
290 M hi could overflow), when r is not zero and lies outside [1e-290, 1e290),
and for any other form of cell; GRAMMAR says which of those float() and
np.loadtxt read alike.  The values are therefore those of float(cell) for
every cell.  (numpy shifts a uint64 by 64 or more bits to 0, which the masks
rely on.)

io_cli imports this module on its first trajectory write or read, and the
tables are built then, so neither adds to start-up.
"""

from __future__ import annotations

import functools
import re

import numpy as np

K_RANGE = (-291, 308)  # the 10^k table's exponents; below -291 lo is subnormal
E_MAX = 300            # the exponent tables cover -E_MAX..E_MAX
MARGIN = 2.0 ** -30
SPLIT = 134217729.0    # 2^27 + 1, Veltkamp's splitter
PAD = 32               # bytes parse() may read before a cell (29)
CELL_BLOCK = 4096      # cells _decide() takes at a time


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


# the cells parse() reads: decimals that float() and np.loadtxt read alike
GRAMMAR = re.compile(rb"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_U = np.uint64
ZEROS, LOW7, HIGH = _U(0x30 * 0x0101010101010101), _U(0x7F7F7F7F7F7F7F7F), _U(0x8080808080808080)
NINES, DOTS, ALL = _U(0x76 * 0x0101010101010101), _U(0x1E * 0x0101010101010101), _U(2**64 - 1)
EXPONENT = _U(0x7FF0000000000000)
OFFSETS = np.array([[-24], [-16], [-8]])  # the mantissa's words, from its end
WORD_BITS = np.array([[0], [64], [128]])


def _eight(x: np.ndarray) -> np.ndarray:
    """Words holding eight digit values, the first the most significant, as
    integers, in place (Lemire's multiply-shift steps)."""
    t = x >> _U(8)
    x *= _U(10)
    x += t
    np.right_shift(x, _U(16), out=t)
    t &= _U(0xFF000000FF)
    t *= _U(1 + (10**4 << 32))
    x &= _U(0xFF000000FF)
    x *= _U(100 + (10**6 << 32))
    x += t
    x >>= _U(32)
    return x


def _fields(data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(M, k, neg, ok): where a cell reads -?mantissa[e+-DD[D]], its mantissa
    1 to 24 bytes of digits with at most one point that make an integer
    M < 10^17, ok holds and the cell is -1^neg M 10^k."""
    words = np.ndarray((data.size - 7,), dtype="<u8", buffer=data, strides=(1,))
    tail = words[ends - 8]
    # the exponent: "e" and a sign 4 or 5 bytes from the end, then 2 or 3 digits
    e4 = tail & _U(0xFF << 32) == _U(ord("e") << 32)
    e5 = (tail & _U(0xFF << 24) == _U(ord("e") << 24)) & ~e4
    ex = e4 * 4 + e5 * 5
    sign = tail >> (72 - 8 * ex).astype(_U) & _U(0xFF)
    neg = data[starts] == ord("-")
    mend = ends - ex
    mlen = mend - starts - neg

    # four words of digit values: the mantissa's last 24 bytes, the bytes
    # before it zero, and the exponent's digits
    x = np.empty((4, ends.size), dtype=_U)
    m = x[:3]
    np.bitwise_xor(words[mend + OFFSETS], ZEROS, out=m)
    m &= ALL << np.maximum(192 - 8 * mlen - WORD_BITS, 0).view(_U)
    x[3] = (tail ^ ZEROS) & (e4 * _U(0xFFFF << 48) | e5 * _U(0xFFFFFF << 40))
    # the point: dot holds the top bit of its byte; after, -(dot << 1) over
    # 192 bits, the bytes after it, or all of them when there is none
    dot = m ^ DOTS
    dot = ~((dot & LOW7) + LOW7 | dot) & HIGH
    has = (dot[0] | dot[1] | dot[2]) != 0
    after = dot << _U(1)
    after[1:] |= dot[:-1] >> _U(63)
    after[0] |= ~has
    c1 = after[0] == 0
    c2 = c1 & (after[1] == 0)
    np.invert(after, out=after)
    after[0] += _U(1)
    after[1] += c1
    after[2] += c2
    p = np.bitwise_count(after).sum(axis=0, dtype=np.int64) >> 3
    # close the gap: the bytes before the point move up one
    up = np.left_shift(m, _U(8), out=dot)
    up[1:] |= m[:-1] >> _U(56)
    m ^= up
    m &= after
    m ^= up

    ok = np.bitwise_or.reduce((x & LOW7) + NINES | x, axis=0) & HIGH == 0
    d = _eight(x)
    ok &= (d[0] < 10) & (mlen >= 1) & (mlen - has >= 1) & (mlen <= 24)
    ok &= (ex == 0) | (sign == ord("+")) | (sign == ord("-"))
    k = d[3].astype(np.int64)
    k[sign == ord("-")] *= -1
    k -= p * has
    return (d[0] * _U(10**8) + d[1]) * _U(10**8) + d[2], k, neg, ok


def _decide(data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(values, fast): the cells data[starts:ends] that the kernel decides, and
    their values, bit for bit those of float(cell).  A cell is decided when
    _fields reads it, 10^k is in the table, the value lies in [1e-290, 1e290)
    or is zero, and its residual is not within MARGIN of half an ulp."""
    M, k, neg, fast = _fields(data, starts, ends)
    k -= K_RANGE[0]
    fast &= (k >= 0) & (k <= 290 - K_RANGE[0])
    M *= fast
    k *= fast
    # M 10^k as a double-double prod + t (Dekker), rounded once to r
    hi, lo, hh, hl = (t[k] for t in tables()[0])
    a = M.astype(np.float64)
    da = (M.view(np.int64) - a.astype(np.int64)).astype(np.float64)
    c = a * SPLIT
    ah = c - (c - a)
    al = a - ah
    prod = a * hi
    t = ((ah * hh - prod) + ah * hl + al * hh) + al * hl + (a * lo + da * hi)
    r = prod + t
    err = t - (r - prod)  # exact: |prod| >= |t|
    # half an ulp on err's side: below a power of two the ulp halves
    half = (r.view(_U) & EXPONENT).view(np.float64)
    half *= np.where((r == half) & (err < 0), 2.0**-54, 2.0**-53)
    fast &= (np.abs(err) <= half * (1 - MARGIN)) & ((r >= 1e-290) & (r < 1e290) | (M == 0))
    r[neg] *= -1
    return r, fast


def parse(data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(values, foreign): each cell data[starts[i]:ends[i]] as the float64
    float(cell) reads, and where the cell is outside GRAMMAR (value 0).  The
    uint8 array data holds PAD bytes before the first cell."""
    values = np.empty(ends.size)
    fast = np.empty(ends.size, dtype=bool)
    for j in range(0, ends.size, CELL_BLOCK):  # a block's temporaries stay in cache
        cut = slice(j, j + CELL_BLOCK)
        values[cut], fast[cut] = _decide(data, starts[cut], ends[cut])
    foreign = np.zeros(values.size, dtype=bool)
    for j in np.flatnonzero(~fast).tolist():
        cell = data[starts[j] : ends[j]].tobytes()
        if GRAMMAR.fullmatch(cell):
            values[j] = float(cell)
        else:
            values[j], foreign[j] = 0.0, True
    return values, foreign
