"""The snapshot writer's '%.17g' kernel and its reader against CPython.

g17.records renders a block of values with numpy; every value must come out
as format(v, ".17g") does.  g17.parse reads cells back; every cell in its
grammar must read as float(cell) does, bit for bit, and every other cell
(nan, inf, stray bytes) must be reported as outside it.  No numpy
floating-point warning may fire on the way, whatever the value.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from layerburn.g17 import PAD, _decide, parse, records


def _rendered(values) -> list[str]:
    values = np.asarray(values, dtype=float)
    with np.errstate(all="raise"):
        recs = records(values)
    recs[:, 3] |= np.uint64(ord("\n")) << np.uint64(56)
    return recs.tobytes().translate(None, b"\0").decode().splitlines()


def _expected(values) -> list[str]:
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]


def _random_bit_patterns() -> np.ndarray:
    bits = np.random.default_rng(20).integers(0, 2**64 - 1, 2**20, dtype=np.uint64,
                                              endpoint=True)
    return bits.view(np.float64)


def _near(powers) -> np.ndarray:
    """+-4 ulps around each of the powers."""
    powers = np.asarray(powers, dtype=float)
    return np.concatenate([(powers.view(np.int64) + d).view(np.float64) for d in range(-4, 5)])


def _cells(cells: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data, starts, ends) of the cells after PAD bytes, each ended by ','."""
    lens = np.array([len(c) for c in cells], dtype=np.int64)
    starts = PAD + np.concatenate([[0], np.cumsum(lens + 1)[:-1]]).astype(np.int64)
    data = np.frombuffer(b"\n" * PAD + b"".join(c + b"," for c in cells), dtype=np.uint8)
    return data, starts, starts + lens


def _read(cells: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(all="raise"):
        return parse(*_cells(cells))


def _assert_reads_back(cells: list[str]) -> None:
    """parse reads every decimal cell with float(cell)'s bits, and reports the
    others, "nan", "inf" and "-inf", as outside its grammar."""
    cells = [c.encode() for c in cells]
    values, foreign = _read(cells)
    words = np.array([c.lstrip(b"-").isalpha() for c in cells])
    assert np.array_equal(foreign, words)
    expected = np.array([0.0 if w else float(c) for c, w in zip(cells, words)])
    assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_kernel_formats_any_float(values):
    assert _rendered(values) == _expected(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_parser_reads_back_any_float(values):
    _assert_reads_back(_rendered(values))


def test_kernel_formats_random_bit_patterns():
    values = _random_bit_patterns()
    assert _rendered(values) == _expected(values)


def test_kernel_formats_powers_of_ten_and_exact_ties():
    # +-4 ulps around every 10^e: where log10 misses E by one
    near = _near([float(f"1e{e}") for e in range(-300, 300)])
    # N / 2^j with N 5^j of 18 digits ends in 5: an exact tie at 17 digits
    rng = np.random.default_rng(21)
    ties = []
    for j in range(3, 60):
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        if lo < hi:
            ties += [(N | 1) / 2**j for N in rng.integers(lo, hi, 200).tolist() if N | 1 < hi]
    assert format(ties[0], ".18g")[-1] == "5"
    values = np.concatenate([near, ties, np.negative(ties)])
    assert _rendered(values) == _expected(values)


def test_parser_reads_back_bit_patterns_and_binade_edges():
    # every 10^e and every 2^e, the edges of the decades and the binades
    edges = _near([float(f"1e{e}") for e in range(-323, 309)] + [2.0**e for e in range(-1074, 1024)])
    values = np.concatenate([_random_bit_patterns(), edges])
    cells = _rendered(values)
    _assert_reads_back(cells)
    # 17 digits lie within 0.45 ulp of the value, on either side of a power of
    # two, so the kernel decides every cell whose 10^k is in its table
    _, fast = _decide(*_cells([c.encode() for c in cells]))
    with np.errstate(invalid="ignore"):
        assert fast[(np.abs(values) >= 1e-274) & (np.abs(values) < 1e290) | (values == 0)].all()


def test_parser_reads_cells_the_writer_never_writes():
    values = np.random.default_rng(22).standard_normal(200) * 10.0 ** np.arange(-100, 100)
    values = np.concatenate([values, 2.0 ** np.arange(-960, 960)])
    shortest = [repr(v) for v in values.tolist()]  # shortest round-trip digits
    # these lie up to half an ulp from the value: above a power of two the
    # kernel must still weigh them against the ulp above, not the one below
    _, fast = _decide(*_cells([c.encode() for c in shortest]))
    assert fast[(np.abs(values) >= 1e-274) & (np.abs(values) < 1e290)].all()
    _assert_reads_back(shortest + [
        "1.5", "+1.5", "1e+05", "1E5", "12", "-0", "0", "-0.0", ".5", "5.", "1e-5",
        "0.00012345678901234567", "123456789012345678901", "1e+400", "-1e-400"])


def test_parser_reports_cells_outside_its_grammar():
    cells = [b"", b"-", b".", b"-.", b"e+05", b"1e", b"1e+", b"1..2", b"1.2.3", b"--1",
             b"1-", b"abc", b"1 5", b" 1", b"1\r", b"1'5", b"1_0", b"0x10", b"nan",
             b"-inf", b"Infinity", b"1.5e+0x", b"1.5f+05"]
    values, foreign = _read(cells)
    assert foreign.all() and not values.any()


def test_parser_leaves_exact_ties_to_float():
    """A cell halfway between two doubles is float()'s to round: no residual
    the kernel forms can place it on a side."""
    rng = np.random.default_rng(23)
    ties = []
    for k in range(1, 23):
        # q 2^k, q odd, a multiple of 5^k and in [2^53, 2^54), lies halfway
        # between two doubles of [2^(53+k), 2^(54+k)), which are 2^(k+1) apart
        five = 5**k
        for j in rng.integers(-(-2**53 // five), 2**54 // five, 40).tolist():
            q = j * five + five * (j % 2 == 0)
            if q < 2**54:
                digits = str(q * 2**k).rstrip("0")
                ties.append(f"{digits[0]}.{digits[1:]}e+{len(str(q * 2**k)) - 1:02d}")
    # halfway below a power of two, where the ulp below is half the one above
    # (2^53 - 1/2, 2^54 - 1, 2^55 - 2, 2^56 - 4), and halfway above one
    ties += ["9007199254740991.5", "18014398509481983", "1.8014398509481983e+16",
             "36028797018963966", "72057594037927932", "18014398509481986"]
    _, fast = _decide(*_cells([t.encode() for t in ties]))
    assert not fast.any()
    _assert_reads_back(ties)
