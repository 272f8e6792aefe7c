"""Bit-for-bit checks of the sampler and thin-SVD data movement.

The production code centres, normalises and sorts in place, in the memory
layout that keeps numpy's summation order (see the ensemble and _batch
module docstrings).  The reference functions below are the plain
out-of-place versions of the same arithmetic; any change of a reduction's
order shows up here as a changed bit, which would also change the bytes of
every simulate CSV.
"""

import numpy as np
import pytest

from kinpart import sample_system_block, substream
from kinpart._batch import _frame_rates, _thin_svd
from kinpart.ensemble import (
    RANDOM_MASSES, TOTAL_MASS, _UNDERFLOW, _ball_points, _ball_size, _draw_ball,
)
from kinpart.linalg import _COLUMN_FREEZE, jacobi_orthogonalize

DIMENSIONS = (1, 2, 3, 4)
PARTICLES = (2, 3, 5, 17, 100)
MODES = ("equal", "random")


def reference_sample(d, N, mode, rng, count):
    """Same draws as sample_system_block, centred and scaled out of place."""
    def ball():
        buf = np.empty(_ball_size(count * N, d))
        return _ball_points(*_draw_ball(rng, count * N, d, buf), d).reshape(count, N, d)

    w = ball()
    wdot = ball()
    if mode == RANDOM_MASSES:
        eta = rng.uniform(size=(count, N))
        assert not np.any(eta < _UNDERFLOW)
        masses = TOTAL_MASS * eta / np.sum(eta, axis=1)[:, None]
    else:
        masses = np.full((count, N), TOTAL_MASS / N)
    g = w - np.mean(w, axis=1, keepdims=True)
    gdot = wdot - np.mean(wdot, axis=1, keepdims=True)
    if mode == RANDOM_MASSES:
        scale = 1.0 / np.sqrt(masses)
        g = g * scale[:, :, None]
        gdot = gdot * scale[:, :, None]
    gnorm = np.sqrt(np.sum(g * g, axis=(1, 2)))
    gdnorm = np.sqrt(np.sum(gdot * gdot, axis=(1, 2)))
    assert not np.any((gnorm < _UNDERFLOW) | (gdnorm < _UNDERFLOW))
    z = np.transpose(g, (0, 2, 1)) / gnorm[:, None, None]
    zdot = np.transpose(gdot, (0, 2, 1)) / gdnorm[:, None, None]
    return z, zdot, masses


def reference_thin_svd(z):
    """Thin factors sorted with take_along_axis and normalised by np.where."""
    _, d, n = z.shape
    if d <= n:
        rotated, vacc = jacobi_orthogonalize(np.transpose(z, (0, 2, 1)))
    else:
        rotated, vacc = jacobi_orthogonalize(z)
    xi = np.sqrt(np.sum(rotated * rotated, axis=1))
    order = np.argsort(-xi, axis=1, kind="stable")
    xi = np.take_along_axis(xi, order, axis=1)
    vacc = np.take_along_axis(vacc, order[:, None, :], axis=2)
    rotated = np.take_along_axis(rotated, order[:, None, :], axis=2)
    cut = _COLUMN_FREEZE * np.sqrt(np.sum(xi * xi, axis=1))
    keep = xi > cut[:, None]
    thin = np.where(
        keep[:, None, :],
        rotated / np.where(xi > 0.0, xi, 1.0)[:, None, :],
        0.0,
    )
    if d <= n:
        return xi, vacc, thin
    return xi, thin, vacc


def memory_layout(a):
    """Strides of the axes that have more than one element."""
    return [stride for stride, size in zip(a.strides, a.shape) if size > 1]


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(want).view(np.uint64))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n_particles", PARTICLES)
@pytest.mark.parametrize("d", DIMENSIONS)
def test_sampler_and_thin_svd_match_reference_bits(d, n_particles, mode):
    for count in (1, 40):
        key = (7, d, n_particles, MODES.index(mode), count)
        z, zdot, masses = sample_system_block(d, n_particles, mode, substream(*key), count)
        rz, rzdot, rmasses = reference_sample(d, n_particles, mode, substream(*key), count)
        # The engine's full-stack sums run in memory order, so the layout
        # of z is part of the contract, not only its values.
        assert memory_layout(z) == memory_layout(rz)
        assert memory_layout(zdot) == memory_layout(rzdot)
        for got, want in ((z, rz), (zdot, rzdot), (masses, rmasses)):
            assert_same_bits(got, want)

        factors = _thin_svd(z)
        ref_factors = reference_thin_svd(z)
        for got, want in zip(factors, ref_factors):
            assert_same_bits(np.ascontiguousarray(got), want)
        for got, want in zip(_frame_rates(z, zdot, *factors[1:]),
                             _frame_rates(z, zdot, *ref_factors[1:])):
            assert_same_bits(got, want)
