"""Bit-for-bit checks of the sampler and the engine's data movement.

The production code keeps a batch in lane arrays, with the system index
last, and takes every sum through linalg._lane_sum.  The reference
functions below are the plain (B, d, n) numpy versions of the same
arithmetic, summing with np.sum and np.cumsum; any change of a reduction's
order shows up here as a changed bit, which would also change the bytes of
every simulate CSV.
"""

from dataclasses import astuple

import numpy as np
import pytest

from kinpart import compute_partition, partition_batch, sample_system_block, substream
from kinpart._batch import BATCH_FIELDS, _frame_rates, _lanes, _slab_sum, _thin_svd
from kinpart.ensemble import (
    RANDOM_MASSES, TOTAL_MASS, _UNDERFLOW, _ball_points, _draw_ball, draw_systems,
)
from kinpart.linalg import _COLUMN_FREEZE, _JACOBI_TOL, _MAX_SWEEPS, jacobi_orthogonalize

DIMENSIONS = (1, 2, 3, 4)
PARTICLES = (2, 3, 5, 17, 100)
MODES = ("equal", "random")


def reference_sample(d, N, mode, rng, count):
    """Same draws as sample_system_block, centred and scaled out of place."""
    def ball():
        if d == 2:  # the angle run, then the kappa run
            sphere, kappa = rng.random(count * N) * (2.0 * np.pi), rng.random(count * N)
        else:
            sphere, kappa = _draw_ball(rng, count * N, d, np.empty(count * N * (d + 1)))
        points = _ball_points(sphere, kappa, d, N)
        return np.ascontiguousarray(points.transpose(2, 0, 1))

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


def reference_jacobi(cols, norm2):
    """One-sided Jacobi on a (B, L, m) stack of columns with squared
    Frobenius norms norm2 (B,)."""
    cols = np.array(cols, dtype=float, order="C")
    b, _, m = cols.shape
    v = np.zeros((b, m, m))
    v[:, np.arange(m), np.arange(m)] = 1.0
    if m < 2:
        return cols, v
    cut2 = _COLUMN_FREEZE**2 * norm2
    for _ in range(_MAX_SWEEPS):
        rotated_any = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                x = cols[:, :, p]
                y = cols[:, :, q]
                alpha = np.sum(x * x, axis=-1)
                beta = np.sum(y * y, axis=-1)
                gamma = np.sum(x * y, axis=-1)
                apply = ((np.abs(gamma) > _JACOBI_TOL * np.sqrt(alpha) * np.sqrt(beta))
                         & (alpha > cut2) & (beta > cut2))
                if not np.any(apply):
                    continue
                rotated_any = True
                zeta = (beta - alpha) / (2.0 * np.where(apply, gamma, 1.0))
                t = np.where(zeta == 0.0, 1.0,
                             np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = np.where(apply, c * t, 0.0)[:, None]
                c = np.where(apply, c, 1.0)[:, None]
                cols[:, :, p], cols[:, :, q] = c * x - s * y, s * x + c * y
                xv = v[:, :, p].copy()
                yv = v[:, :, q].copy()
                v[:, :, p], v[:, :, q] = c * xv - s * yv, s * xv + c * yv
        if not rotated_any:
            return cols, v
    raise RuntimeError("reference Jacobi did not converge")


def reference_thin_svd(z):
    """Thin factors (B, m), (B, d, m), (B, n, m) of a (B, d, n) stack,
    sorted with take_along_axis and normalised by np.where."""
    _, d, n = z.shape
    zt = np.ascontiguousarray(np.transpose(z, (0, 2, 1)))
    norm2 = np.sum(zt * zt, axis=(1, 2))  # particle-major
    rotated, vacc = reference_jacobi(zt if d <= n else z, norm2)
    m = rotated.shape[2]
    # Along the long side np.sum adds in order, except over a lone column.
    xi = np.sqrt(np.sum(rotated * rotated, axis=1) if m == 1
                 else np.cumsum(rotated * rotated, axis=1)[:, -1])
    order = np.argsort(-xi, axis=1, kind="stable")
    xi = np.take_along_axis(xi, order, axis=1)
    vacc = np.take_along_axis(vacc, order[:, None, :], axis=2)
    rotated = np.take_along_axis(rotated, order[:, None, :], axis=2)
    cut = _COLUMN_FREEZE * np.sqrt(np.sum(xi * xi, axis=1))
    keep = xi > cut[:, None]
    thin = np.where(keep[:, None, :],
                    rotated / np.where(xi > 0.0, xi, 1.0)[:, None, :], 0.0)
    if d <= n:
        return xi, vacc, thin
    return xi, thin, vacc


def reference_frame_rates(zdot, dmat, xmat):
    """W (B, m, m), rtail and stail (B, m) from (B, d, n) zdot and the
    (B, d, m), (B, n, m) thin factors."""
    _, d, n = zdot.shape
    if d > n:
        w, rtail, stail = reference_frame_rates(zdot.swapaxes(1, 2), xmat, dmat)
        return w.swapaxes(1, 2), stail, rtail
    dtzd = np.zeros((zdot.shape[0], d, n))
    for s in range(d):
        for i in range(d):
            dtzd[:, s] += dmat[:, i, s, None] * zdot[:, i]
    w = np.empty((zdot.shape[0], d, d))
    rtail = np.empty((zdot.shape[0], d))
    for s in range(d):
        for t in range(d):
            w[:, s, t] = np.sum(dtzd[:, s] * xmat[:, :, t], axis=-1)
        resid = dtzd[:, s].copy()
        for t in range(d):
            resid -= w[:, s, t, None] * xmat[:, :, t]
        rtail[:, s] = np.sum(resid * resid, axis=-1)
    return w, rtail, np.zeros_like(rtail)


def assert_same_bits(got, want):
    got = np.ascontiguousarray(got)
    want = np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n_particles", PARTICLES)
@pytest.mark.parametrize("d", DIMENSIONS)
def test_sampler_and_thin_svd_match_reference_bits(d, n_particles, mode):
    for count in (1, 40):
        key = (7, d, n_particles, MODES.index(mode), count)
        z, zdot, masses = sample_system_block(d, n_particles, mode, substream(*key), count)
        rz, rzdot, rmasses = reference_sample(d, n_particles, mode, substream(*key), count)
        for got, want in ((z, rz), (zdot, rzdot), (masses, rmasses)):
            assert_same_bits(got, want)

        # Lane factors are (m, B), (m, d, B) and (m, n, B).
        lanes = _lanes(z)
        xi, dmat, xmat = _thin_svd(lanes, _slab_sum(lanes, lanes))
        rxi, rdmat, rxmat = reference_thin_svd(rz)
        assert_same_bits(xi.T, rxi)
        assert_same_bits(dmat.transpose(2, 1, 0), rdmat)
        assert_same_bits(xmat.transpose(2, 1, 0), rxmat)
        w, rtail, stail = _frame_rates(_lanes(zdot), dmat, xmat)
        rw, rrtail, rstail = reference_frame_rates(rzdot, rdmat, rxmat)
        assert_same_bits(w.transpose(2, 0, 1), rw)
        assert_same_bits(rtail.T, rrtail)
        assert_same_bits(stail.T, rstail)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n_particles", (3, 100))
def test_planar_block_is_its_runs_drawn_in_turn(n_particles, mode):
    # At d = 2 each chunk draws its slices of the four uniform runs after a
    # jump; whole or in chunks of 7, the systems and the generator's final
    # state are those of the runs drawn one after another, then the masses.
    # A buffered 32-bit half, which no double draw touches, is kept.
    count = 40
    rngs = [substream(7, 2, n_particles, MODES.index(mode)) for _ in range(3)]
    for rng in rngs:
        rng.integers(2**32, dtype=np.uint32)
    whole = sample_system_block(2, n_particles, mode, rngs[0], count)
    chunks = list(draw_systems(2, n_particles, mode, rngs[1], count, 7))
    want = reference_sample(2, n_particles, mode, rngs[2], count)
    state = rngs[2].bit_generator.state
    assert state["has_uint32"] == 1
    assert rngs[0].bit_generator.state == state
    assert rngs[1].bit_generator.state == state
    for got, ref in zip(whole, want):
        assert_same_bits(got, ref)
    assert len(chunks) == 6
    for parts, ref in zip(zip(*chunks), want[:2 if mode == "equal" else 3]):
        assert_same_bits(np.concatenate(parts), ref)


def test_jacobi_exact_ties_match_reference_bits():
    # Columns (3, 4) and (0, -+5) have alpha == beta, so zeta is -0.0 for
    # gamma < 0 and +0.0 for gamma > 0; both take t = 1.
    cols = np.array([[[3.0, 3.0], [4.0, 4.0]], [[0.0, 0.0], [-5.0, 5.0]]])
    norm2 = np.full(2, 50.0)
    rotated, v = jacobi_orthogonalize(cols, norm2)
    want_rotated, want_v = reference_jacobi(cols.transpose(2, 1, 0), norm2)
    assert_same_bits(rotated.transpose(2, 1, 0), want_rotated)
    assert_same_bits(v.transpose(2, 1, 0), want_v)


@pytest.mark.parametrize("n_particles", (3, 8, 17, 50))
@pytest.mark.parametrize("d", (2, 3, 4))
def test_bits_do_not_depend_on_memory_layout(d, n_particles):
    z, zdot, _ = sample_system_block(d, n_particles, "random",
                                     substream(8, d, n_particles), 64)
    want = partition_batch(2.0, z, zdot)
    for layout in (np.ascontiguousarray, np.asfortranarray):
        got = partition_batch(2.0, layout(z), layout(zdot))
        for name in BATCH_FIELDS + ("degenerate",):
            assert got[name].tobytes() == want[name].tobytes(), (layout, name)
    for i in range(0, 64, 7):
        view = compute_partition(2.0, z[i], zdot[i])
        copy = compute_partition(2.0, z[i].copy(), zdot[i].copy())
        assert result_bytes(view) == result_bytes(copy)


def result_bytes(res):
    values = list(res.terms().values()) + list(astuple(res.momenta)) + [res.degenerate]
    return np.array(values, dtype=float).tobytes()
