from dataclasses import asdict
import warnings

import numpy as np
import pytest

from kinpart import (
    compute_partition, eigenvector_split_oracle, kinematic_reduction_frame,
    momenta_direct, partition_batch, project_oracle, random_orthogonal,
    sample_system_block, substream, svd_rates,
)
from kinpart._batch import MOMENTA, TERMS, ZERO_TOL

MASS = 2.0


def rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_svd_rates_diagonal_rates_only():
    z = np.diag([2.0, 1.0])
    zdot = np.diag([0.3, -0.1])
    _, xidot = svd_rates(z, zdot)
    assert np.allclose(xidot, [0.3, -0.1], atol=1e-15)


def test_svd_rates_match_numpy_and_central_differences():
    rng = substream(3, 0)
    cases = [(rng.standard_normal((d, n)), rng.standard_normal((d, n)))
             for d, n in ((2, 2), (3, 5), (5, 3), (1, 4), (4, 4))]
    # small but not null: its rate is 1, though its Gram eigenvalue is
    # below the oracles' rank cut
    cases.append((np.diag([1.0, 1e-6]), np.diag([0.0, 1.0])))
    # collinear: rank 1 in a 3 x 4 matrix, so two null singular values
    cases.append((np.outer([1.0, -2.0, 0.5], [0.25, 1.0, -0.5, 2.0]),
                  rng.standard_normal((3, 4))))
    h = 1e-6
    for z, zdot in cases:
        xi, xidot = svd_rates(z, zdot)
        want = np.linalg.svd(z, compute_uv=False)
        assert np.max(np.abs(xi - want)) <= 1e-12 * want[0]
        slope = (np.linalg.svd(z + h * zdot, compute_uv=False)
                 - np.linalg.svd(z - h * zdot, compute_uv=False)) / (2.0 * h)
        assert np.max(np.abs(xidot - slope)) <= 1e-7
        null = want <= ZERO_TOL * want[0]
        assert np.all(xidot[null] == 0.0)
    assert np.count_nonzero(null) == 2


def test_svd_rates_near_rank_drop_match_engine():
    # square Z whose last singular value is 1e-9 of the first: its rate is
    # well conditioned, and v_s = Z^T u_s / xi_s alone would be off by
    # about eps / 1e-9 along v_1
    rng = substream(3, 16)
    for n in (2, 4):
        for _ in range(5):
            a = random_orthogonal(n, rng)
            b = random_orthogonal(n, rng)
            z = a @ np.diag(np.append(np.linspace(1.0, 0.5, n - 1), 1e-9)) @ b.T
            zdot = rng.standard_normal((n, n))
            direct = momenta_direct(MASS, z, zdot, *svd_rates(z, zdot))
            engine = compute_partition(MASS, z, zdot).momenta
            assert rel_gap(direct.L2, engine.L2) <= 1e-10


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_svd_rates_at_extreme_scales(scale):
    rng = substream(3, 15)
    z = rng.standard_normal((3, 5))
    zdot = rng.standard_normal((3, 5))
    xi, xidot = svd_rates(z, zdot)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        xi_s, xidot_s = svd_rates(scale * z, zdot)
    assert np.max(np.abs(xi_s / scale - xi)) <= 1e-12 * xi[0]
    assert np.max(np.abs(xidot_s - xidot)) <= 1e-12 * np.max(np.abs(xidot))


def test_svd_rates_zero_matrix_rejected():
    with pytest.raises(ValueError):
        svd_rates(np.zeros((2, 2)), np.eye(2))


def test_two_particle_right_angle_partition():
    s = 1.0 / np.sqrt(2.0)
    z = np.array([[s, -s], [0.0, 0.0]])
    zdot = np.array([[0.0, 0.0], [s, -s]])
    res = compute_partition(MASS, z, zdot)
    ones = ("T", "T_lambda", "T_rot", "T_ext", "T_J", "E_out", "E_outB")
    zeros = ("T_rho", "T_I", "T_xi", "T_int", "T_K", "E_in", "E_inA",
             "E_inB", "E_outA", "T_res", "T_ac", "E_c")
    terms = res.terms()
    for name in ones:
        assert abs(terms[name] - 1.0) <= 1e-12, name
    for name in zeros:
        assert abs(terms[name]) <= 1e-12, name


def test_pure_dilation_partition():
    s = 1.0 / np.sqrt(2.0)
    z = np.array([[s, -s], [0.0, 0.0]])
    res = compute_partition(MASS, z, z)
    assert abs(res.T - 1.0) <= 1e-12
    assert abs(res.T_rho - 1.0) <= 1e-12
    assert abs(res.T_I - 1.0) <= 1e-12
    assert abs(res.T_lambda) <= 1e-12
    assert abs(res.T_rot) <= 1e-12
    for name in ("T_ext", "T_int", "T_J", "T_K", "E_out", "E_in", "T_xi"):
        assert abs(res.terms()[name]) <= 1e-12, name


def assert_partition_identities(terms, tol=1e-10):
    assert abs(terms["T"] - terms["T_lambda"] - terms["T_rho"]) <= tol
    assert abs(terms["T"] - terms["T_rot"] - terms["T_I"]) <= tol
    assert abs(terms["T_rot"] - terms["T_ext"] - terms["T_int"] - terms["T_res"]) <= tol
    assert abs(terms["T_rot"] - terms["T_J"] - terms["T_K"] - terms["T_ac"]) <= tol
    assert abs(terms["T_rot"] - terms["E_out"] - terms["E_in"] - terms["E_c"]) <= tol
    assert abs(terms["E_out"] - terms["E_outA"] - terms["E_outB"]) <= tol
    assert abs(terms["E_in"] - terms["E_inA"] - terms["E_inB"]) <= tol
    # T_lambda - T_rot = T_I - T_rho = T_xi
    assert abs(terms["T_lambda"] - terms["T_rot"] - terms["T_xi"]) <= 1e-9
    assert abs(terms["T_I"] - terms["T_rho"] - terms["T_xi"]) <= 1e-9


def assert_partition_inequalities(terms, tol=1e-10):
    t, rot = terms["T"], terms["T_rot"]
    assert -tol <= terms["T_rot"] <= terms["T_lambda"] + tol <= t + 2 * tol
    assert -tol <= terms["T_rho"] <= terms["T_I"] + tol <= t + 2 * tol
    assert terms["T_xi"] <= min(terms["T_lambda"], terms["T_I"]) + tol
    assert terms["T_J"] + terms["T_xi"] <= terms["T_lambda"] + tol
    assert terms["T_K"] + terms["T_xi"] <= terms["T_lambda"] + tol
    assert -tol <= terms["T_J"] <= terms["T_ext"] + tol <= rot + 2 * tol
    assert -tol <= terms["T_K"] <= terms["T_int"] + tol <= rot + 2 * tol
    assert terms["T_res"] <= terms["T_ac"] + tol
    assert terms["E_outB"] <= rot + tol
    assert terms["E_inB"] <= rot + tol


def test_identities_and_inequalities_on_ensembles():
    rng = substream(3, 1)
    for d in (1, 2, 3, 5):
        for n_particles in (2, 3, 5, 8):
            for mode in ("equal", "random"):
                z, zdot, _ = sample_system_block(d, n_particles, mode, rng, 40)
                res = partition_batch(MASS, z, zdot)
                for i in range(z.shape[0]):
                    terms = {k: float(res[k][i]) for k in res if k != "degenerate"}
                    assert_partition_identities(terms)
                    assert_partition_inequalities(terms)


def test_identities_bulk_sweep():
    # 10^4 systems per (d, N) cell, identities and bounds in bulk
    rng = substream(3, 12)
    tol = 1e-10
    for d in (1, 2, 3, 5):
        for n_particles in range(2, 9):
            mode = "equal" if (d + n_particles) % 2 else "random"
            z, zdot, _ = sample_system_block(d, n_particles, mode, rng, 10_000)
            r = partition_batch(MASS, z, zdot)
            assert np.max(np.abs(r["T"] - r["T_lambda"] - r["T_rho"])) <= tol
            assert np.max(np.abs(r["T"] - r["T_rot"] - r["T_I"])) <= tol
            assert np.max(np.abs(r["T_rot"] - r["T_ext"] - r["T_int"] - r["T_res"])) <= tol
            assert np.max(np.abs(r["T_rot"] - r["T_J"] - r["T_K"] - r["T_ac"])) <= tol
            assert np.max(np.abs(r["T_rot"] - r["E_out"] - r["E_in"] - r["E_c"])) <= tol
            assert np.max(np.abs(r["E_out"] - r["E_outA"] - r["E_outB"])) <= tol
            assert np.max(np.abs(r["E_in"] - r["E_inA"] - r["E_inB"])) <= tol
            assert np.max(np.abs(r["T_lambda"] - r["T_rot"] - r["T_xi"])) <= 1e-9
            assert np.all(r["T_J"] <= r["T_ext"] + tol)
            assert np.all(r["T_K"] <= r["T_int"] + tol)
            assert np.all(r["T_ext"] <= r["T_rot"] + tol)
            assert np.all(r["T_int"] <= r["T_rot"] + tol)
            assert np.all(r["T_res"] <= r["T_ac"] + tol)
            assert np.all(r["E_outB"] <= r["T_rot"] + tol)
            assert np.all(r["E_inB"] <= r["T_rot"] + tol)
            assert np.all(r["J2"] + r["L2"] <= r["Lambda2"] * (1 + 1e-10) + 1e-14)
            assert np.all(r["K2"] + r["L2"] <= r["Lambda2"] * (1 + 1e-10) + 1e-14)


def test_batch_matches_per_system():
    # a single system is a batch of one: every term, momentum and flag of
    # compute_partition equals the batch row bit for bit
    rng = substream(3, 2)
    names = TERMS + MOMENTA
    for d in (1, 2, 3, 4, 5):
        for n_particles in (2, 3, 8, 9, 17, 100):
            for mode in ("equal", "random"):
                z, zdot, _ = sample_system_block(d, n_particles, mode, rng, 6)
                batch = partition_batch(MASS, z, zdot)
                for i in range(z.shape[0]):
                    single = compute_partition(MASS, z[i], zdot[i])
                    values = dict(single.terms(), **asdict(single.momenta))
                    got = np.array([values[name] for name in names])
                    want = np.array([batch[name][i] for name in names])
                    assert got.tobytes() == want.tobytes(), (d, n_particles, mode)
                    assert single.degenerate == batch["degenerate"][i]


def test_projection_oracle_agreement():
    # 200 systems over d in {1,2,3}, N in {2..6}, both modes
    rng = substream(3, 3)
    checked = 0
    for d in (1, 2, 3):
        for n_particles in (2, 3, 4, 5, 6):
            for mode in ("equal", "random"):
                z, zdot, _ = sample_system_block(d, n_particles, mode, rng, 7)
                for i in range(z.shape[0]):
                    res = compute_partition(MASS, z[i], zdot[i])
                    if res.degenerate:
                        continue
                    oracle = project_oracle(MASS, z[i], zdot[i])
                    assert oracle.split_valid
                    for name in ("T_ext", "T_int", "T_rot", "E_out", "E_in"):
                        fast = res.terms()[name]
                        assert rel_gap(fast, getattr(oracle, name)) <= 1e-8, name
                    checked += 1
    assert checked >= 200


def test_eigenvector_split_oracle_agreement():
    rng = substream(3, 4)
    for d in (2, 3, 5):
        for n_particles in (2, 4, 7):
            z, zdot, _ = sample_system_block(d, n_particles, "random", rng, 6)
            for i in range(z.shape[0]):
                res = compute_partition(MASS, z[i], zdot[i])
                if res.degenerate:
                    continue
                eo_a, eo_b, ei_a, ei_b = eigenvector_split_oracle(MASS, z[i], zdot[i])
                assert rel_gap(res.E_outA, eo_a) <= 1e-8
                assert rel_gap(res.E_outB, eo_b) <= 1e-8
                assert rel_gap(res.E_inA, ei_a) <= 1e-8
                assert rel_gap(res.E_inB, ei_b) <= 1e-8


def test_oracles_do_not_use_the_jacobi_svd(monkeypatch):
    # The oracles check the engine, so they must not share its Jacobi SVD.
    rng = substream(3, 6)
    z, zdot, _ = sample_system_block(3, 5, "random", rng, 1)

    def oracles():
        rates = svd_rates(z[0], zdot[0])
        return (project_oracle(MASS, z[0], zdot[0]),
                eigenvector_split_oracle(MASS, z[0], zdot[0]),
                [r.tolist() for r in rates],
                momenta_direct(MASS, z[0], zdot[0], *rates))

    want = oracles()

    def fail(*args, **kwargs):
        raise RuntimeError("Jacobi SVD called")

    monkeypatch.setattr("kinpart._batch.jacobi_orthogonalize", fail)
    got = oracles()
    assert got == want and got[0].split_valid


def rank_deficient_system(rng, d, n_particles, rank, masses):
    """(Z, Zdot) of particles spanning a rank-dimensional subspace of R^d,
    with generic velocities and the centre of mass at rest at the origin."""
    basis = np.linalg.qr(rng.standard_normal((d, rank)))[0]
    r = rng.standard_normal((n_particles, rank)) @ basis.T
    v = rng.standard_normal((n_particles, d))
    scale = np.sqrt(masses / MASS)[:, None]
    return tuple(((x - masses @ x / MASS) * scale).T for x in (r, v))


@pytest.mark.parametrize("d, n_particles, rank",
                         [(2, 3, 1), (2, 5, 1), (3, 4, 1), (3, 5, 2), (4, 6, 2)])
def test_rank_drop_terms_match_projection_oracle(d, n_particles, rank):
    # collinear (rank 1) and coplanar (rank 2) systems: Z drops rank along
    # directions Zdot does not share, so T_I takes in the null block of W
    rng = substream(3, 14, d, n_particles)
    for k in range(20):
        masses = np.full(n_particles, MASS / n_particles)
        if k % 2:
            masses = rng.uniform(0.1, 1.0, n_particles)
            masses *= MASS / masses.sum()
        z, zdot = rank_deficient_system(rng, d, n_particles, rank, masses)
        res = compute_partition(MASS, z, zdot)
        oracle = project_oracle(MASS, z, zdot)
        for name in ("T_rot", "T_ext", "T_int"):
            assert rel_gap(getattr(res, name), getattr(oracle, name)) <= 1e-10, name
        # T_xi comes from the rates of the singular values alone, so here
        # T_I - T_rho exceeds it by the null block; the bounds still hold
        assert_partition_inequalities(res.terms())
        assert not res.degenerate


def test_projection_oracle_trivial_1x1():
    oracle = project_oracle(MASS, np.array([[1.0]]), np.array([[1.0]]))
    assert oracle.T_ext == 0.0
    assert oracle.T_int == 0.0
    assert oracle.T_rot == 0.0


def test_two_particle_right_angle_oracle():
    s = 1.0 / np.sqrt(2.0)
    z = np.array([[s, -s], [0.0, 0.0]])
    zdot = np.array([[0.0, 0.0], [s, -s]])
    oracle = project_oracle(MASS, z, zdot)
    assert abs(oracle.T_ext - 1.0) <= 1e-12
    assert abs(oracle.T_int) <= 1e-12


def test_orthogonal_invariance_of_all_terms():
    rng = substream(3, 5)
    for d, n_particles in ((2, 5), (3, 3), (5, 8), (1, 4)):
        z, zdot, _ = sample_system_block(d, n_particles, "random", rng, 8)
        r = random_orthogonal(d, rng)
        q = random_orthogonal(n_particles, rng)
        res = partition_batch(MASS, z, zdot)
        res_t = partition_batch(
            MASS,
            np.einsum("ij,bjn,mn->bim", r, z, q),
            np.einsum("ij,bjn,mn->bim", r, zdot, q),
        )
        for name in res:
            if name == "degenerate":
                continue
            gaps = np.abs(res[name] - res_t[name]) / np.maximum(
                1.0, np.maximum(np.abs(res[name]), np.abs(res_t[name])))
            assert np.max(gaps) <= 1e-8, name


def test_zero_column_augmentation_of_all_terms():
    rng = substream(3, 6)
    for d, n_particles in ((2, 4), (3, 6), (5, 3)):
        z, zdot, _ = sample_system_block(d, n_particles, "equal", rng, 8)
        pad = np.zeros((z.shape[0], d, 1))
        res = partition_batch(MASS, z, zdot)
        res_a = partition_batch(
            MASS,
            np.concatenate([z, pad], axis=2),
            np.concatenate([zdot, pad], axis=2),
        )
        for name in res:
            if name == "degenerate":
                continue
            gaps = np.abs(res[name] - res_a[name]) / np.maximum(
                1.0, np.abs(res[name]))
            assert np.max(gaps) <= 1e-10, name


def test_reduction_consistency():
    # computing on the d x N matrix equals computing on the reduced
    # d x (N-1) matrix obtained through the mass frame
    rng = substream(3, 7)
    for d, n_particles, mode in ((2, 4, "equal"), (3, 5, "random"), (1, 3, "random")):
        z, zdot, masses = sample_system_block(d, n_particles, mode, rng, 6)
        for i in range(z.shape[0]):
            frame = kinematic_reduction_frame(masses[i])
            zq = z[i] @ frame.T
            zdq = zdot[i] @ frame.T
            assert np.max(np.abs(zq[:, -1])) <= 1e-10
            assert np.max(np.abs(zdq[:, -1])) <= 1e-10
            full = compute_partition(MASS, z[i], zdot[i]).terms()
            red = compute_partition(MASS, zq[:, :-1], zdq[:, :-1]).terms()
            for name in full:
                assert rel_gap(full[name], red[name]) <= 1e-9, name


def test_plane_theorems():
    # d = 2: T_J = T_ext and E_outB = 0; N = 3 additionally T_K = T_int
    # and E_inB = 0.
    rng = substream(3, 8)
    for n_particles in (3, 5, 9):
        z, zdot, _ = sample_system_block(2, n_particles, "random", rng, 25)
        res = partition_batch(MASS, z, zdot)
        assert np.max(np.abs(res["T_J"] - res["T_ext"])) <= 1e-9
        assert np.max(np.abs(res["E_outB"])) <= 1e-9
        if n_particles == 3:
            assert np.max(np.abs(res["T_K"] - res["T_int"])) <= 1e-9
            assert np.max(np.abs(res["E_inB"])) <= 1e-9


def test_kinematic_dual_theorem_small_n():
    # d = 1 or n <= 2 forces T_K = T_int
    rng = substream(3, 9)
    z, zdot, _ = sample_system_block(3, 2, "random", rng, 20)
    res = partition_batch(MASS, z, zdot)
    assert np.max(np.abs(res["T_K"] - res["T_int"])) <= 1e-9
    z, zdot, _ = sample_system_block(1, 6, "equal", rng, 20)
    res = partition_batch(MASS, z, zdot)
    assert np.max(np.abs(res["T_K"] - res["T_int"])) <= 1e-9
    assert np.max(np.abs(res["T_ext"])) <= 1e-12
    assert np.max(np.abs(res["T_res"])) <= 1e-12


def test_degenerate_flag_and_surviving_identities():
    # equal singular values: flagged, but the Smith / orthogonal / momentum
    # partitions still hold
    rng = substream(3, 10)
    q1 = random_orthogonal(3, rng)
    q2 = random_orthogonal(3, rng)
    z = q1 @ np.diag([0.7, 0.7, 0.1411]) @ q2.T
    z /= np.sqrt(np.sum(z * z))
    zdot = rng.standard_normal((3, 3))
    zdot /= np.sqrt(np.sum(zdot * zdot))
    res = compute_partition(MASS, z, zdot)
    assert res.degenerate
    terms = res.terms()
    assert abs(terms["T"] - terms["T_lambda"] - terms["T_rho"]) <= 1e-10
    assert abs(terms["T"] - terms["T_rot"] - terms["T_I"]) <= 1e-10
    assert abs(terms["T_rot"] - terms["T_J"] - terms["T_K"] - terms["T_ac"]) <= 1e-10
    oracle = project_oracle(MASS, z, zdot)
    assert not oracle.split_valid


def test_zero_hyperradius_rejected():
    with pytest.raises(ValueError):
        compute_partition(MASS, np.zeros((2, 3)), np.ones((2, 3)))


def test_batch_rejects_non_finite_input():
    rng = substream(3, 12)
    z, zdot, _ = sample_system_block(2, 4, "equal", rng, 3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            partition_batch(MASS, np.full_like(z, bad), zdot)
        broken = zdot.copy()
        broken[1, 0, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            partition_batch(MASS, z, broken)


def test_batch_rejects_out_of_range_scale():
    # z2 * zd2 underflows at 1e-100 and z2 overflows at 1e160; the terms
    # would come out as silent zeros or infinities
    rng = substream(3, 13)
    z, zdot, _ = sample_system_block(2, 4, "equal", rng, 3)
    for scale in (1e-100, 1e160):
        # refused without first warning about the overflow it refuses
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="normal double range"):
                partition_batch(MASS, z * scale, zdot * scale)
    # one system out of range is enough; z2 alone is subnormal here
    small = z.copy()
    small[1] *= 1e-160
    with pytest.raises(ValueError, match="normal double range"):
        partition_batch(MASS, small, zdot)
    # a system at rest is in range
    res = partition_batch(MASS, z, np.zeros_like(zdot))
    for name in TERMS + MOMENTA:
        assert np.all(res[name] == 0.0), name
