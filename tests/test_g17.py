"""The snapshot writer's '%.17g' kernel against CPython's own formatting.

g17.records renders a block of values with numpy; every value must come out
as format(v, ".17g") does, and no numpy floating-point warning may fire on
the way, whatever the value.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from layerburn.g17 import records


def _rendered(values) -> list[str]:
    values = np.asarray(values, dtype=float)
    with np.errstate(all="raise"):
        recs = records(values)
    recs[:, 3] |= np.uint64(ord("\n")) << np.uint64(56)
    return recs.tobytes().translate(None, b"\0").decode().splitlines()


def _expected(values) -> list[str]:
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_kernel_formats_any_float(values):
    assert _rendered(values) == _expected(values)


def test_kernel_formats_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64 - 1, 2**20, dtype=np.uint64,
                                              endpoint=True)
    values = bits.view(np.float64)
    assert _rendered(values) == _expected(values)


def test_kernel_formats_powers_of_ten_and_exact_ties():
    # +-4 ulps around every 10^e: where log10 misses E by one
    tens = np.array([float(f"1e{e}") for e in range(-300, 300)])
    near = [(tens.view(np.int64) + d).view(np.float64) for d in range(-4, 5)]
    # N / 2^j with N 5^j of 18 digits ends in 5: an exact tie at 17 digits
    rng = np.random.default_rng(21)
    ties = []
    for j in range(3, 60):
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        if lo < hi:
            ties += [(N | 1) / 2**j for N in rng.integers(lo, hi, 200).tolist() if N | 1 < hi]
    assert format(ties[0], ".18g")[-1] == "5"
    values = np.concatenate(near + [ties, np.negative(ties)])
    assert _rendered(values) == _expected(values)
