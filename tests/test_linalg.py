from __future__ import annotations

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from moment2d.linalg import fro_norm

#: Entries whose squares overflow (``1e154 ** 2`` is above ``DBL_MAX``), or
#: nearly do, next to ones that are not finite at all.
_EDGE = [0.0, -0.0, 1e154, -1.3e154, 1.35e154, 9.9e153, np.inf, -np.inf,
         np.nan, 5e-324, 1e-200]

_FLOATS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_EDGE),
                    st.floats(allow_nan=True, allow_infinity=True))

_DTYPES = [np.float64, np.complex128, np.int64, np.int32, np.bool_]


def _element(dtype):
    kind = np.dtype(dtype).kind
    if kind == "c":
        return st.builds(complex, _FLOATS, _FLOATS)
    if kind == "f":
        return _FLOATS
    if kind == "b":
        return st.booleans()
    return st.integers(-2 ** 20, 2 ** 20)


@st.composite
def _arrays(draw):
    """Arrays of 1-3 dimensions (sides 0-7) in one of the layouts numpy's
    ``ravel(order="K")`` treats differently."""
    dtype = draw(st.sampled_from(_DTYPES))
    a = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3,
                                                min_side=0, max_side=7),
                        elements=_element(dtype)))
    layout = draw(st.sampled_from(["C", "F", "T", "strided", "reversed",
                                   "read-only"]))
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "T":
        a = a.T
    elif layout == "strided":
        a = a[::2]
    elif layout == "reversed":
        a = a[..., ::-1]
    elif layout == "read-only":
        a.flags.writeable = False
    return a


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=400, deadline=None)
@given(_arrays())
@example(np.random.default_rng(0).normal(size=(5, 7)))
@example(np.random.default_rng(1).normal(size=(4, 6))
         + 1j * np.random.default_rng(2).normal(size=(4, 6)))
@example(np.random.default_rng(3).normal(size=(3, 4, 5)).transpose(2, 0, 1))
@example(np.full((2, 3), 1e154))
@example(np.array([], dtype=complex))
def test_fro_norm_is_numpys_norm_bit_for_bit(a):
    with np.errstate(over="ignore", invalid="ignore"):
        want = float(np.linalg.norm(a))
        got = fro_norm(a)
    assert type(got) is float
    assert _bits(got) == _bits(want), (got, want)
