import numpy as np
import pytest

from frames import reduction_frame
from kinpart import partition_batch, sample_system_block, substream
from kinpart import ensemble
from kinpart.ensemble import _ball_points, _draw_ball, _row_norms, draw_systems


def ball_points(rng, count, d, kappa=None):
    """count ball points as (count, d), through the sampler's own draw and
    geometry (count systems of one point each); a given kappa replaces
    every drawn one.  At d == 2 the angle and kappa runs are drawn here,
    as draw_systems draws each of them."""
    if d == 2:
        sphere, drawn = rng.random(count) * (2.0 * np.pi), rng.random(count)
    else:
        sphere, drawn = _draw_ball(rng, count, d, np.empty(count * (d + 1)))
    if kappa is not None:
        drawn[:] = kappa
    return _ball_points(sphere, drawn, d, 1)[0].T


def sphere_points(rng, count, d):
    """count sphere points, as ball points of radius kappa = 1."""
    return ball_points(rng, count, d, kappa=1.0)


def test_sphere_unit_norm():
    rng = substream(4, 0)
    for d in (1, 2, 3, 6):
        pts = sphere_points(rng, 200, d)
        norms = np.sqrt(np.sum(pts * pts, axis=1))
        assert np.max(np.abs(norms - 1.0)) <= 1e-14


def test_sphere_d1_is_fair_sign():
    # P(+1) = 1/2; binomial 3*SE at 10^4 draws = 0.015
    rng = substream(4, 1)
    pts = sphere_points(rng, 10_000, 1)
    assert set(np.unique(pts)) <= {-1.0, 1.0}
    assert abs(np.mean(pts > 0) - 0.5) <= 0.015


def test_sphere_d3_second_moment():
    # E[s3^2] = 1/3; Var(s3^2) = 3/15 - 1/9 = 4/45, 3*SE at 1e5 = 2.83e-3
    rng = substream(4, 2)
    pts = sphere_points(rng, 100_000, 3)
    assert abs(np.mean(pts[:, 2] ** 2) - 1.0 / 3.0) <= 2.83e-3


def test_ball_radius_bound_and_moment():
    # E[|w|^2] = 1/2 in d = 2; Var = 1/3 - 1/4 = 1/12, 3*SE at 1e5 = 2.74e-3
    rng = substream(4, 3)
    pts = ball_points(rng, 100_000, 2)
    r2 = np.sum(pts * pts, axis=1)
    assert np.max(r2) <= 1.0 + 1e-12
    assert abs(np.mean(r2) - 0.5) <= 2.74e-3


def test_ball_d1_mean_zero():
    # Var(w) = E[kappa^2] = 1/3, 3*SE at 1e5 = 5.48e-3
    rng = substream(4, 4)
    pts = ball_points(rng, 100_000, 1)
    assert abs(np.mean(pts)) <= 5.48e-3


def test_row_norms_in_slices_keep_each_row_bits(monkeypatch):
    # slices of 24 // d rows, most with a partial last slice, give each
    # row the bits of one np.sum over the whole array
    monkeypatch.setattr(ensemble, "CHUNK_ENTRIES", 24)
    rng = substream(4, 5)
    for d in (1, 3, 4, 9, 12):
        chi = rng.standard_normal((200, d))
        want = np.sqrt(np.sum(chi * chi, axis=1))
        assert _row_norms(chi).tobytes() == want.tobytes()


def test_system_invariants():
    rng = substream(4, 6)
    for d in (1, 2, 3):
        for n_particles in (2, 3, 7):
            for mode in ("equal", "random"):
                z, zdot, masses = sample_system_block(d, n_particles, mode, rng, 30)
                assert np.max(np.abs(np.sum(masses, axis=1) - 2.0)) <= 1e-12
                assert np.all(masses > 0.0)
                root = np.sqrt(masses)
                cm_z = np.einsum("bn,bin->bi", root, z)
                cm_zd = np.einsum("bn,bin->bi", root, zdot)
                assert np.max(np.abs(cm_z)) <= 1e-10
                assert np.max(np.abs(cm_zd)) <= 1e-10
                assert np.max(np.abs(np.sum(z * z, axis=(1, 2)) - 1.0)) <= 1e-12
                assert np.max(np.abs(np.sum(zdot * zdot, axis=(1, 2)) - 1.0)) <= 1e-12


def test_equal_masses_value():
    rng = substream(4, 7)
    z, _, masses = sample_system_block(2, 5, "equal", rng, 1)
    assert np.allclose(masses[0], 0.4, atol=0)
    assert z[0].shape == (2, 5)


def test_sampling_is_deterministic():
    a = sample_system_block(3, 4, "random", substream(123, 9), 1)
    b = sample_system_block(3, 4, "random", substream(123, 9), 1)
    for x, y in zip(a, b):
        assert np.array_equal(x[0], y[0])
    c = sample_system_block(3, 4, "random", substream(123, 10), 1)
    assert not np.array_equal(a[0][0], c[0][0])


def test_normalization_gives_unit_energy_and_radius():
    rng = substream(4, 8)
    z, zdot, _ = sample_system_block(3, 6, "random", rng, 10)
    res = partition_batch(2.0, z, zdot)
    assert np.max(np.abs(res["T"] - 1.0)) <= 1e-12


def test_mean_rotational_energy_three_on_plane():
    # closed form: mean T_rot at d=2, N=3, equal masses is 1/2
    rng = substream(4, 9)
    z, zdot, _ = sample_system_block(2, 3, "equal", rng, 40_000)
    t_rot = partition_batch(2.0, z, zdot)["T_rot"]
    se = np.std(t_rot) / np.sqrt(t_rot.size)
    assert abs(np.mean(t_rot) - 0.5) <= 4.0 * se


@pytest.mark.parametrize("d, n_particles, mode",
                         [(1, 3, "random"), (2, 3, "equal"), (3, 2, "random")])
def test_rows_in_chunks_match_one_block(monkeypatch, d, n_particles, mode):
    # A raised threshold makes zero-norm redraws common.  They come after
    # all of the block's draws, in index order, so any chunking of the rows
    # gives the same systems bit for bit.
    monkeypatch.setattr(ensemble, "_UNDERFLOW", 0.6)
    count = 50
    whole_rng = substream(4, 12, d)
    whole = sample_system_block(d, n_particles, mode, whole_rng, count)
    redraws = []
    sample = ensemble.sample_system_block
    monkeypatch.setattr(ensemble, "sample_system_block",
                        lambda *args: redraws.append(args[3]) or sample(*args))
    rng = substream(4, 12, d)
    chunks = list(draw_systems(d, n_particles, mode, rng, count, 7))
    assert [len(chunk[0]) for chunk in chunks] == [7] * 7 + [1]
    assert redraws and all(r is rng for r in redraws)  # something was redrawn
    assert rng.bit_generator.state == whole_rng.bit_generator.state
    for parts, want in zip(zip(*chunks), whole):
        if parts[0] is None:  # equal masses are left to sample_system_block
            assert mode == "equal"
            continue
        got = np.concatenate(parts)
        assert np.array_equal(got.view(np.uint64),
                              np.ascontiguousarray(want).view(np.uint64))


def test_bad_arguments():
    rng = substream(4, 10)
    with pytest.raises(ValueError):
        sample_system_block(2, 1, "equal", rng, 1)
    with pytest.raises(ValueError):
        sample_system_block(0, 3, "equal", rng, 1)
    with pytest.raises(ValueError):
        sample_system_block(2, 3, "gaussian", rng, 1)
    with pytest.raises(ValueError, match="count"):
        sample_system_block(2, 3, "equal", rng, 0)


def test_planar_draws_need_pcg64():
    # d = 2 reaches each chunk's variates by PCG64 jump-ahead, so another
    # bit generator is refused there; the Gaussian path takes any
    rng = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(ValueError, match="PCG64"):
        sample_system_block(2, 3, "equal", rng, 4)
    z, _, _ = sample_system_block(3, 3, "random", rng, 4)
    assert z.shape == (4, 3, 3)


def test_reduction_frame_properties():
    rng = substream(4, 11)
    masses = rng.uniform(0.1, 1.0, size=6)
    masses *= 2.0 / masses.sum()
    frame = reduction_frame(masses)
    assert np.max(np.abs(frame @ frame.T - np.eye(6))) <= 1e-12
    assert np.allclose(frame[-1], np.sqrt(masses / 2.0), atol=1e-15)
