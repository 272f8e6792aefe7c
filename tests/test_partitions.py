from dataclasses import asdict
import warnings

import numpy as np
import pytest

from frames import haar, reduction_frame
from kinpart import (
    compute_partition, eigenvector_split_oracle, momenta_direct, momenta_fast,
    partition_batch, project_oracle, sample_system_block, substream,
    svd_rates,
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
            a = haar(n, rng)
            b = haar(n, rng)
            z = a @ np.diag(np.append(np.linspace(1.0, 0.5, n - 1), 1e-9)) @ b.T
            zdot = rng.standard_normal((n, n))
            direct = momenta_direct(MASS, z, zdot)
            engine = compute_partition(MASS, z, zdot).momenta
            assert rel_gap(direct.L2, engine.L2) <= 1e-10


@pytest.mark.parametrize("e", [1e-11, 1e-13, 1e-16])
@pytest.mark.parametrize("shape", ["square", "rectangular"])
def test_one_zero_cut_for_rates_and_normal_block(shape, e):
    # xi_2 / xi_1 = e straddles ZERO_TOL = 1e-12: at 1e-11 the second
    # singular value is live, at 1e-13 and 1e-16 it is null.  A null value
    # has no rate, so L2 and T_xi must follow svd_rates' cut, while T_I
    # keeps W[2, 2]^2 (and the null row's tail 0.2^2) in the null block.
    if shape == "square":
        z, zdot = np.diag([1.0, e]), np.diag([0.0, 1.0])
        t_inert, t_rot = 1.0, 0.0
    else:
        z = np.array([[1.0, 0.0, 0.0], [0.0, e, 0.0]])
        zdot = np.array([[0.0, 0.0, 0.3], [0.0, 1.0, 0.2]])
        t_inert, t_rot = (1.0, 0.13) if e > ZERO_TOL else (1.04, 0.09)
    part = compute_partition(MASS, z, zdot)
    direct = momenta_direct(MASS, z, zdot)
    assert abs(part.momenta.L2 - direct.L2) <= 1e-10
    assert abs(part.T_xi - direct.L2 / (2.0 * MASS * np.sum(z * z))) <= 1e-10
    assert part.momenta.L2 == (4.0 if e > ZERO_TOL else 0.0)
    assert abs(part.T_I - t_inert) <= 1e-12 and abs(part.T_rot - t_rot) <= 1e-12


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_svd_rates_at_extreme_scales(scale):
    rng = substream(3, 15)
    z = rng.standard_normal((3, 5))
    zdot = rng.standard_normal((3, 5))
    xi, xidot = svd_rates(z, zdot)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        xi_s, xidot_s = svd_rates(scale * z, zdot)
        # entries near 1e308 give xi_1 >= sqrt(5) * 1e308, not a double
        with pytest.raises(ValueError, match="beyond the double range"):
            svd_rates(1e308 * np.sign(z), zdot)
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
        return (project_oracle(MASS, z[0], zdot[0]),
                eigenvector_split_oracle(MASS, z[0], zdot[0]),
                [r.tolist() for r in svd_rates(z[0], zdot[0])],
                momenta_direct(MASS, z[0], zdot[0]))

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


def system_with_singular_values(rng, d, n_particles, values):
    """Z = U diag(values) V^T with Haar U and V, and a Gaussian Zdot."""
    sigma = np.zeros((d, n_particles))
    np.fill_diagonal(sigma, values)
    z = haar(d, rng) @ sigma @ haar(n_particles, rng).T
    return z, rng.standard_normal((d, n_particles))


def assert_engine_matches_oracles(z, zdot, tol_terms, tol_split):
    res = compute_partition(MASS, z, zdot)
    oracle = project_oracle(MASS, z, zdot)
    assert not res.degenerate and oracle.split_valid
    for name in ("T_rot", "T_ext", "T_int"):
        assert rel_gap(getattr(res, name), getattr(oracle, name)) <= tol_terms, name
    for name in ("E_out", "E_in"):
        assert rel_gap(getattr(res, name), getattr(oracle, name)) <= tol_split, name
    split = eigenvector_split_oracle(MASS, z, zdot)
    for name, value in zip(("E_outA", "E_outB", "E_inA", "E_inB"), split):
        assert rel_gap(getattr(res, name), value) <= tol_split, name
    direct = momenta_direct(MASS, z, zdot)
    assert rel_gap(res.momenta.L2, direct.L2) <= tol_split


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("d, n_particles", [(2, 3), (3, 5)])
def test_near_repeated_singular_values_match_oracles(d, n_particles, eps):
    # xi_1 = 1 + eps, xi_2 = 1.  Each side is good to about eps_mach / eps
    # here: against a 60-digit reference at eps = 1e-8 the engine's T_rot
    # was off by up to 5e-9 and the projection oracle's by up to 2e-8.
    # Over 300 systems per eps the gap read at most 4.8e-16 / eps on the
    # projections and 2.7e-13 / eps on the splits and L2.
    rng = substream(3, 17, d, n_particles)
    values = np.concatenate([[1.0 + eps, 1.0], np.linspace(0.6, 0.3, min(d, n_particles) - 2)])
    for _ in range(8):
        z, zdot = system_with_singular_values(rng, d, n_particles, values)
        assert_engine_matches_oracles(z, zdot, 2e-15 / eps, 1e-12 / eps)


def rotation_generators(z):
    """The flattened generators (E_pq - E_qp) Z and Z (E_ab - E_ba), p < q,
    a < b, as columns; each entry is an entry of z or its negative."""
    d, n = z.shape
    columns = {"rot": [], "kin": []}
    for side, size in (("rot", d), ("kin", n)):
        for p in range(size):
            for q in range(p + 1, size):
                g = np.zeros((d, n))
                if side == "rot":
                    g[p], g[q] = z[q], -z[p]
                else:
                    g[:, q], g[:, p] = z[:, p], -z[:, q]
                columns[side].append(g.ravel())
    return np.array(columns["rot"]).T, np.array(columns["kin"]).T


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("d, n_particles", [(2, 3), (3, 4)])
def test_near_repeated_projections_match_high_precision(d, n_particles, eps):
    # The engine's own accuracy, xi_1 / xi_2 = 1 + eps: T_ext, T_int and
    # T_rot against projections taken in 50 digits from the entries of Z
    # and Zdot, on bases from a QR of the rotation spans.  Z has no
    # two-dimensional kernel at these shapes, so the spans have full rank;
    # the joint span's smallest R diagonal is of order eps, far above the
    # roundoff of 50 digits.
    mpmath = pytest.importorskip("mpmath")
    rng = substream(3, 22, d, n_particles)
    values = np.concatenate([[1.0 + eps, 1.0], np.linspace(0.6, 0.3, min(d, n_particles) - 2)])
    for _ in range(4):
        z, zdot = system_with_singular_values(rng, d, n_particles, values)
        res = compute_partition(MASS, z, zdot)
        rot, kin = rotation_generators(z)
        with mpmath.workdps(50):
            target = mpmath.matrix(zdot.ravel().tolist())
            for name, span in (("T_ext", rot), ("T_int", kin),
                               ("T_rot", np.concatenate([rot, kin], axis=1))):
                q, r = mpmath.qr(mpmath.matrix(span.tolist()), mode="skinny")
                assert min(abs(r[i, i]) for i in range(r.cols)) > 1e-25
                y = q.T * target
                exact = MASS / 2 * mpmath.fsum(v * v for v in y)
                gap = abs(getattr(res, name) - exact) / exact
                assert gap <= 2e-15 / eps, (name, float(gap))


@pytest.mark.parametrize("ratio", [1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 1e-13, 1e-14])
@pytest.mark.parametrize("d, n_particles", [(2, 3), (3, 5), (3, 3)])
def test_near_rank_drop_matches_oracles(d, n_particles, ratio):
    # xi_m / xi_1 = ratio on either side of ZERO_TOL = 1e-12.  A live xi_m
    # leaves a rectangular Z good to about eps_mach / ratio (square Z is
    # exact); over 300 systems per ratio the gap read at most
    # 3.9e-16 / ratio on the projections and 2.5e-15 / ratio on the
    # splits and L2.  A null xi_m is cut on both sides alike.
    rng = substream(3, 18, d, n_particles)
    values = np.linspace(1.0, 0.5, min(d, n_particles))
    values[-1] = ratio
    tol = (2e-15 / ratio, 1e-14 / ratio) if ratio > ZERO_TOL else (1e-13, 1e-13)
    for _ in range(8):
        z, zdot = system_with_singular_values(rng, d, n_particles, values)
        assert_engine_matches_oracles(z, zdot, *tol)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
def test_oracles_at_extreme_scales(scale):
    # The terms are of degree 0 in Z, and both oracles rescale it first;
    # unscaled, xi^2 leaves the double range and the split turns to nan.
    rng = substream(3, 19)
    z = scale * rng.standard_normal((3, 5))
    zdot = rng.standard_normal((3, 5))
    res = compute_partition(MASS, z, zdot)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        oracle = project_oracle(MASS, z, zdot)
        split = eigenvector_split_oracle(MASS, z, zdot)
        # T ~ ||Zdot||^2 past the double range at any scale of Z: every
        # route refuses, where the oracles once returned inf
        for zdot_scale in (1e160, 1e200):
            for route in (compute_partition, project_oracle, eigenvector_split_oracle):
                with pytest.raises(ValueError, match="beyond the double range"):
                    route(MASS, z, zdot_scale * zdot)
    for name in ("T_rot", "T_ext", "T_int", "E_out", "E_in"):
        assert rel_gap(getattr(res, name), getattr(oracle, name)) <= 1e-12, name
    for name, value in zip(("E_outA", "E_outB", "E_inA", "E_inB"), split):
        assert rel_gap(getattr(res, name), value) <= 1e-12, name


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
        r = haar(d, rng)
        q = haar(n_particles, rng)
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
            frame = reduction_frame(masses[i])
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
    q1 = haar(3, rng)
    q2 = haar(3, rng)
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
    # every (mass, Z, Zdot) entry point, and one zero system in a batch; the
    # split oracles would otherwise answer with zeros and a valid split
    z, zdot = np.zeros((2, 3)), np.ones((2, 3))
    for route in (compute_partition, project_oracle, eigenvector_split_oracle,
                  momenta_direct, momenta_fast):
        with pytest.raises(ValueError, match="Z is identically zero"):
            route(MASS, z, zdot)
    with pytest.raises(ValueError, match="Z is identically zero"):
        svd_rates(z, zdot)
    with pytest.raises(ValueError, match="Z is identically zero"):
        partition_batch(MASS, np.stack([zdot, z]), np.stack([zdot, zdot]))


@pytest.mark.parametrize("mass, shape, match", [
    (-2.0, (2, 4), "mass"), (0.0, (2, 4), "mass"), (np.nan, (2, 4), "mass"),
    (np.inf, (2, 4), "mass"), (MASS, (0, 3), "no entries"),
    (np.array([1.0, 2.0]), (2, 4), "mass"), ("2", (2, 4), "mass"),
    (MASS, (2, 0), "no entries"), (True, (2, 4), "mass"),
])
def test_invalid_mass_or_empty_z_refused(mass, shape, match):
    rng = substream(3, 20)
    z, zdot = rng.standard_normal(shape), rng.standard_normal(shape)
    with pytest.raises(ValueError, match=match):
        compute_partition(mass, z, zdot)
    with pytest.raises(ValueError, match=match):
        partition_batch(mass, z[None], zdot[None])


@pytest.mark.parametrize("mass", [-2.0, 0.0, np.nan, np.inf, np.array([1.0, 2.0]), "2",
                                  True])
@pytest.mark.parametrize("oracle", [project_oracle, eigenvector_split_oracle,
                                    momenta_direct])
def test_oracles_refuse_invalid_mass(oracle, mass):
    z, zdot, _ = sample_system_block(2, 4, "equal", substream(3, 21), 1)
    with pytest.raises(ValueError, match="mass must be a real scalar, finite and > 0"):
        oracle(mass, z[0], zdot[0])


_SINGLE_ORACLES = {
    "svd_rates": svd_rates,
    "project_oracle": lambda z, zdot: project_oracle(MASS, z, zdot),
    "eigenvector_split_oracle": lambda z, zdot: eigenvector_split_oracle(MASS, z, zdot),
    "momenta_direct": lambda z, zdot: momenta_direct(MASS, z, zdot),
}


@pytest.mark.parametrize("oracle, arg, bad", [
    *((name, arg, bad) for name in _SINGLE_ORACLES for arg in ("z", "zdot")
      for bad in (np.nan, np.inf)),
    *((name, "z", "empty") for name in _SINGLE_ORACLES),
])
def test_oracles_refuse_bad_input(oracle, arg, bad):
    z, zdot, _ = sample_system_block(2, 4, "equal", substream(3, 22), 1)
    args = {"z": z[0], "zdot": zdot[0]}
    if bad == "empty":
        args.update(z=np.zeros((0, 3)), zdot=np.zeros((0, 3)))
        match = "no entries"
    else:
        args[arg] = args[arg].copy()
        args[arg].flat[1] = bad
        match = "non-finite"
    with pytest.raises(ValueError, match=match):
        _SINGLE_ORACLES[oracle](**args)


@pytest.mark.parametrize("values", [(1.0, 1.0), (1.0 + 1e-12, 1.0)])
def test_split_oracles_refuse_repeated_live_singular_values(values):
    # the perturbation sums divide by lambda_i - lambda_j, which is 0 at
    # Z = I and 2e-12 at the second input
    z = np.diag(values)
    zdot = np.array([[0.3, 1.0], [-0.5, 0.2]])
    assert compute_partition(MASS, z, zdot).degenerate
    assert not project_oracle(MASS, z, zdot).split_valid
    with pytest.raises(ValueError, match="repeated live singular values"):
        eigenvector_split_oracle(MASS, z, zdot)


def test_complex_input_refused_at_both_gates():
    # the float conversion would drop the imaginary part with only a
    # ComplexWarning, and T_rot would come out as 1.0
    z, zdot = [[1 + 2j, 0], [0, 1]], [[0, 1], [0, 0]]
    for args in ((z, zdot), (zdot, z)):
        with pytest.raises(ValueError, match="complex entries"):
            compute_partition(MASS, *args)
        with pytest.raises(ValueError, match="complex entries"):
            partition_batch(MASS, *(np.array([a]) for a in args))


def test_batch_refuses_an_empty_batch():
    # no systems, or systems of zero width, with compute_partition's message
    for shape in ((0, 2, 3), (3, 0, 4), (3, 2, 0)):
        with pytest.raises(ValueError, match="Z has no entries"):
            partition_batch(MASS, np.zeros(shape), np.zeros(shape))


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


def test_result_classes_take_their_fields_from_the_name_lists():
    from dataclasses import FrozenInstanceError, fields, replace

    from kinpart import BOUNDED_TERMS, MomentaResult, PartitionResult, conjecture_means_exact

    assert [f.name for f in fields(PartitionResult)] == [*TERMS, "momenta", "degenerate"]
    assert [f.name for f in fields(MomentaResult)] == list(MOMENTA)
    assert PartitionResult.__module__ == MomentaResult.__module__ == "kinpart.partitions"
    rng = substream(3, 21)
    z, zdot, _ = sample_system_block(3, 5, "random", rng, 1)
    res = compute_partition(MASS, z[0], zdot[0])
    assert list(res.terms()) == list(TERMS)
    assert list(asdict(res)) == [*TERMS, "momenta", "degenerate"]
    assert list(asdict(res)["momenta"]) == list(MOMENTA)
    for obj, name in ((res, "T_rot"), (res.momenta, "L2")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, 0.0)
        assert getattr(replace(obj, **{name: 5.0}), name) == 5.0
    assert replace(res, T=5.0).terms()["T"] == 5.0
    for d, n_particles in ((1, 2), (2, 3), (3, 8), (5, 4)):
        assert BOUNDED_TERMS == tuple(conjecture_means_exact(d, n_particles))
