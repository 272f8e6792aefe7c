"""Property tests of the partition engine over d = 1..5 and N = 2..12.

Systems are drawn with repeated entries and exact zeros as well as generic
values, so rank drops and repeated singular values come up often.  The
examples are derandomized, so every run checks the same systems.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from kinpart import compute_partition, partition_batch  # noqa: E402
from kinpart._batch import BATCH_FIELDS, TERMS  # noqa: E402

ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(0.01, 4.0),
    st.floats(-4.0, -0.01),
)
SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def systems(draw):
    """One system: (Z, Zdot) of shape (d, N), Z not identically zero."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2, 12))
    z = draw(arrays(np.float64, (d, n), elements=ENTRIES))
    zdot = draw(arrays(np.float64, (d, n), elements=ENTRIES))
    assume(np.any(z != 0.0))
    return z, zdot


def row_bytes(res, i):
    return b"".join(res[name][i:i + 1].tobytes() for name in BATCH_FIELDS + ("degenerate",))


def layouts(stack):
    """The same (B, d, n) values in C order, Fortran order, particle-major
    order (the sampler's) and as a strided view into a larger array."""
    nsys, d, n = stack.shape
    particle_major = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
    big = np.zeros((nsys, d + 1, 2 * n))
    big[:, 1:, ::2] = stack
    return (np.ascontiguousarray(stack), np.asfortranarray(stack),
            particle_major, big[:, 1:, ::2])


@SETTINGS
@given(systems(), st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_row_bits_do_not_depend_on_batch_or_layout(system, before, after, seed):
    z, zdot = system
    alone = row_bytes(partition_batch(2.0, z[None], zdot[None]), 0)
    rng = np.random.default_rng(seed)
    d, n = z.shape
    fill_z = rng.standard_normal((before + after, d, n))
    fill_zdot = rng.standard_normal((before + after, d, n))
    stack_z = np.concatenate([fill_z[:before], z[None], fill_z[before:]])
    stack_zdot = np.concatenate([fill_zdot[:before], zdot[None], fill_zdot[before:]])
    for bz, bzdot in zip(layouts(stack_z), layouts(stack_zdot)):
        assert row_bytes(partition_batch(2.0, bz, bzdot), before) == alone


@SETTINGS
@given(systems(), st.integers(-499, 499), st.integers(-499, 499))
def test_term_ratios_do_not_depend_on_scale(system, z_exp, zdot_exp):
    # 2^-499 is about 6e-151 and 2^499 about 1.6e150
    z, zdot = system
    assume(np.any(zdot != 0.0))
    unit = compute_partition(2.0, z, zdot)
    scaled = compute_partition(2.0, np.ldexp(z, z_exp), np.ldexp(zdot, zdot_exp))
    assert scaled.degenerate == unit.degenerate
    for name in TERMS:
        want = getattr(unit, name) / unit.T
        got = getattr(scaled, name) / scaled.T
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), name
