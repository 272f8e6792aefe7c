import numpy as np
import pytest

from frames import haar
from kinpart import momenta_direct, momenta_fast, sample_system_block, substream

MASS = 2.0


def both_routes(z, zdot):
    """The oracle's momenta, with L^2 from svd_rates, and the engine's."""
    return momenta_direct(MASS, z, zdot), momenta_fast(MASS, z, zdot)


def test_parallel_velocity_kills_all_momenta():
    # exact binary entries and factor, so every minor cancels exactly
    z = np.array([[0.5, 0.25], [1.0, 2.0]])
    zdot = 0.5 * z
    direct, fast = both_routes(z, zdot)
    assert direct.Lambda2 == 0.0
    assert direct.J2 == 0.0 and direct.K2 == 0.0
    # L's minors go through the computed singular values, so only near-zero
    assert direct.L2 <= 1e-30
    assert fast.Lambda2 <= 1e-28 and fast.J2 <= 1e-28 and fast.K2 <= 1e-28


def test_two_particle_right_angle_momentum():
    # the two-particle system at 90 degrees has J^2 = 2 M rho^2 T_J = 4
    s = 1.0 / np.sqrt(2.0)
    z = np.array([[s, -s], [0.0, 0.0]])
    zdot = np.array([[0.0, 0.0], [s, -s]])
    direct, fast = both_routes(z, zdot)
    for mom in (direct, fast):
        assert abs(mom.J2 - 4.0) <= 1e-12
        assert mom.K2 <= 1e-15
        assert abs(mom.Lambda2 - 4.0) <= 1e-12
        assert mom.L2 <= 1e-15


def test_unit_orthogonal_pair_grand_momentum():
    rng = substream(2, 0)
    z = rng.standard_normal((3, 4))
    z /= np.sqrt(np.sum(z * z))
    zdot = rng.standard_normal((3, 4))
    zdot -= z * np.sum(z * zdot)
    zdot /= np.sqrt(np.sum(zdot * zdot))
    _, fast = both_routes(z, zdot)
    assert abs(fast.Lambda2 - 4.0) <= 1e-12


def test_single_row_has_no_physical_momentum():
    rng = substream(2, 1)
    z = rng.standard_normal((1, 5))
    zdot = rng.standard_normal((1, 5))
    direct, fast = both_routes(z, zdot)
    assert direct.J2 == 0.0
    assert fast.J2 <= 1e-15


def test_direct_vs_fast_d3_n5():
    rng = substream(2, 2)
    z = rng.standard_normal((3, 5))
    zdot = rng.standard_normal((3, 5))
    direct, fast = both_routes(z, zdot)
    for name in ("J2", "K2", "Lambda2", "L2"):
        a, b = getattr(direct, name), getattr(fast, name)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_direct_vs_fast_shape_sweep():
    rng = substream(2, 3)
    for d in (1, 2, 3, 5):
        for n in range(1, 9):
            for _ in range(3):
                z = rng.standard_normal((d, n))
                zdot = rng.standard_normal((d, n))
                direct, fast = both_routes(z, zdot)
                for name in ("J2", "K2", "Lambda2", "L2"):
                    a, b = getattr(direct, name), getattr(fast, name)
                    assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


def test_momenta_inequalities_on_samples():
    rng = substream(2, 4)
    for d in (1, 2, 3):
        for n_particles in (2, 4, 7):
            z, zdot, _ = sample_system_block(d, n_particles, "equal", rng, 50)
            for i in range(z.shape[0]):
                _, fast = both_routes(z[i], zdot[i])
                bound = fast.Lambda2 * (1.0 + 1e-10) + 1e-15
                assert fast.J2 + fast.L2 <= bound
                assert fast.K2 + fast.L2 <= bound
                assert min(fast.J2, fast.K2, fast.Lambda2, fast.L2) >= 0.0


def test_momenta_orthogonal_invariance():
    rng = substream(2, 5)
    z = rng.standard_normal((3, 6))
    zdot = rng.standard_normal((3, 6))
    _, fast = both_routes(z, zdot)
    r = haar(3, rng)
    q = haar(6, rng)
    _, fast_t = both_routes(r @ z @ q.T, r @ zdot @ q.T)
    for name in ("J2", "K2", "Lambda2", "L2"):
        a, b = getattr(fast, name), getattr(fast_t, name)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_momenta_zero_column_augmentation():
    rng = substream(2, 6)
    z = rng.standard_normal((3, 4))
    zdot = rng.standard_normal((3, 4))
    _, fast = both_routes(z, zdot)
    za = np.concatenate([z, np.zeros((3, 1))], axis=1)
    zda = np.concatenate([zdot, np.zeros((3, 1))], axis=1)
    _, fast_a = both_routes(za, zda)
    for name in ("J2", "K2", "Lambda2", "L2"):
        a, b = getattr(fast, name), getattr(fast_a, name)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_momenta_shape_errors():
    z = np.ones((2, 3))
    for route in (momenta_fast, momenta_direct):
        with pytest.raises(ValueError, match="one shape"):
            route(MASS, z, np.zeros((2, 2)))


def test_fast_momenta_at_mixed_scales():
    # the engine rescales each matrix by a power of two, so J^2, K^2 and
    # Lambda^2 ~ ||Z||^2 ||Zdot||^2 come out at any split of their scale
    rng = substream(2, 7)
    z = rng.standard_normal((3, 5))
    zdot = rng.standard_normal((3, 5))
    direct, fast = both_routes(1e200 * z, 1e-200 * zdot)
    for name in ("J2", "K2", "Lambda2", "L2"):
        a, b = getattr(direct, name), getattr(fast, name)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
    # T ~ ||Zdot||^2 past the double range, then only the momenta past it
    for z_scale, zdot_scale in ((1e-200, 1e200), (1e150, 1e100)):
        with pytest.raises(ValueError, match="beyond the double range"):
            momenta_fast(MASS, z_scale * z, zdot_scale * zdot)
