import warnings

import numpy as np
import pytest

from kinpart import _batch, compute_partition, ensemble, linalg, substream, svd
from kinpart.ensemble import MASS_MODES
from kinpart.harness import _block_summary
from kinpart.linalg import _COLUMN_FREEZE, _lane_sum, jacobi_orthogonalize


def test_frobenius_norm_equals_singular_values():
    # ||Z||_F^2 = sum of squared singular values, any shape
    rng = substream(1, 1)
    for shape in ((2, 2), (2, 9), (5, 3), (1, 6)):
        z = rng.standard_normal(shape)
        xi = svd(z).xi
        assert abs(np.sum(z * z) - np.sum(xi * xi)) <= 1e-10 * np.sum(z * z)


def test_svd_diagonal():
    fac = svd(np.diag([3.0, 1.0]))
    assert np.allclose(fac.xi, [3.0, 1.0], atol=0)
    assert np.allclose(np.abs(fac.D), np.eye(2), atol=1e-14)
    assert np.allclose(np.abs(fac.X), np.eye(2), atol=1e-14)


def test_svd_permutation():
    fac = svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(fac.xi, [1.0, 1.0], atol=1e-15)


def check_factors(z, fac, tol=1e-14):
    # thin factors: the short side's is orthogonal, the long side's has
    # orthonormal live columns and zero ones at or below the freeze cut
    d, n = z.shape
    m = min(d, n)
    assert fac.D.shape == (d, m) and fac.X.shape == (n, m) and fac.xi.shape == (m,)
    assert np.all(np.diff(fac.xi) <= 0.0)
    assert np.all(fac.xi >= 0.0)
    live = fac.xi > _COLUMN_FREEZE * np.sqrt(np.sum(fac.xi * fac.xi))
    short, long = (fac.D, fac.X) if d <= n else (fac.X, fac.D)
    assert np.max(np.abs(short.T @ short - np.eye(m))) <= tol
    kept = long[:, live]
    assert np.max(np.abs(kept.T @ kept - np.eye(kept.shape[1])), initial=0.0) <= tol
    assert not np.any(long[:, ~live])
    recon = (fac.D * fac.xi) @ fac.X.T
    assert np.max(np.abs(recon - z)) <= tol * np.sqrt(np.sum(z * z))


def test_svd_factor_invariants_random_shapes():
    # every shape up to 5 x 8 and two long ones, at every rank from 0 to
    # min(d, n); half of the rank-deficient ones also get a zero column,
    # which keeps their rank
    rng = substream(1, 2)
    shapes = [(d, n) for d in range(1, 6) for n in range(1, 9)] + [(9, 2), (2, 9)]
    for d, n in shapes:
        for rank in range(min(d, n) + 1):
            for _ in range(3):
                z = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
                if 0 < rank < min(d, n) and rng.random() < 0.5:
                    z[:, -1] = 0.0
                fac = svd(z)
                check_factors(z, fac)
                assert np.sum(fac.xi > 1e-12 * max(fac.xi[0], 1e-300)) == rank


def test_svd_rank_deficient_and_zero_columns():
    rng = substream(1, 3)
    base = rng.standard_normal((3, 1))
    # rank-1 matrix with a duplicated and a zero column
    z = np.concatenate([base, 2.0 * base, np.zeros((3, 1)), -base], axis=1)
    fac = svd(z)
    check_factors(z, fac)
    assert np.sum(fac.xi > 1e-12 * fac.xi[0]) == 1


def test_svd_vs_eigendecomposition():
    # squared singular values = eigenvalues of Z Z^T (independent route)
    rng = substream(1, 4)
    z = rng.standard_normal((2, 9))
    xi = svd(z).xi
    values = np.linalg.eigvalsh(z @ z.T)
    assert np.max(np.abs(np.sort(xi**2) - np.sort(values))) <= 1e-10


def test_svd_bit_reproducible():
    rng = substream(1, 5)
    z = rng.standard_normal((4, 6))
    fa = svd(z)
    fb = svd(z)
    assert np.array_equal(fa.D, fb.D)
    assert np.array_equal(fa.xi, fb.xi)
    assert np.array_equal(fa.X, fb.X)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.inf]]))
    for shape in ((0, 2), (2, 0), (3,), (2, 2, 2)):
        with pytest.raises(ValueError):
            svd(np.zeros(shape))


def test_jacobi_batch_matches_single():
    # a system computed inside a batch is bit-identical to the system alone
    rng = substream(1, 7)
    stack = rng.standard_normal((3, 7, 6))
    norm2 = np.sum(stack * stack, axis=(0, 1))
    rot_all, v_all = jacobi_orthogonalize(stack, norm2)
    for i in range(6):
        rot_one, v_one = jacobi_orthogonalize(stack[:, :, i:i + 1], norm2[i:i + 1])
        assert np.array_equal(rot_all[:, :, i], rot_one[:, :, 0])
        assert np.array_equal(v_all[:, :, i], v_one[:, :, 0])
    # rotated[q] = sum_p cols[p] V[q, p], with V orthogonal
    for i in range(6):
        cols, rot, v = stack[:, :, i].T, rot_all[:, :, i].T, v_all[:, :, i].T
        assert np.max(np.abs(cols @ v - rot)) <= 1e-14 * np.sqrt(norm2[i])
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-14


def test_svd_at_tiny_scale():
    # at 1e-100 the product of two squared column norms underflows to 0, so
    # the convergence threshold takes the product of the norms instead
    rng = substream(1, 8)
    z = rng.standard_normal((2, 4))
    xi = svd(z).xi
    xi_tiny = svd(z * 1e-100).xi
    assert np.max(np.abs(xi_tiny * 1e100 - xi)) <= 1e-10 * xi[0]


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_svd_at_extreme_scales(scale):
    rng = substream(1, 13)
    z = rng.standard_normal((3, 5))
    xi = svd(z).xi
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        xi_s = svd(scale * z).xi
        # entries near 1e308 give xi_1 >= sqrt(5) * 1e308, not a double
        with pytest.raises(ValueError, match="beyond the double range"):
            svd(1e308 * np.sign(z))
    assert np.max(np.abs(xi_s / scale - xi)) <= 1e-12 * xi[0]


def test_sym_eigen_matches_svd():
    # squared singular values, padded with zeros, are the eigenvalues of
    # Z^T Z (independent route)
    rng = substream(1, 9)
    z = rng.standard_normal((3, 6))
    values = np.linalg.eigvalsh(z.T @ z)
    xi = svd(z).xi
    padded = np.zeros(6)
    padded[:3] = xi**2
    assert np.max(np.abs(np.sort(values) - np.sort(padded))) <= 1e-10


def spread_terms(rng, shape):
    """Terms over 16 decades, so the order of a sum shows in its bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


@pytest.mark.parametrize("lanes", (1, 257))
def test_lane_sum_is_numpys_innermost_sum(lanes):
    rng = substream(1, 10, lanes)
    for n in list(range(1, 301)) + [511, 1000, 1025]:
        terms = spread_terms(rng, (lanes, n))
        got = _lane_sum(np.ascontiguousarray(terms.T))
        want = np.sum(terms, axis=-1)
        assert got.tobytes() == want.tobytes(), n


def test_lane_sum_in_order_for_one_lane():
    # numpy sums a lone axis of 8 or more terms pairwise; one lane with
    # k > 1 terms per row must still add its rows one at a time, as it
    # does among many lanes.
    rng = substream(1, 11)
    pairwise_differs = 0
    for n in (8, 9, 17, 100, 300):
        for k in (2, 3):
            terms = spread_terms(rng, (n, k, 1))
            want = np.zeros((k, 1))
            for row in terms:
                want = want + row
            assert _lane_sum(terms).tobytes() == want.tobytes()
            wide = np.repeat(terms, 4, axis=-1)
            assert np.array_equal(_lane_sum(wide)[..., :1], want)
            pairwise_differs += np.add.reduce(terms[:, 0, 0]).tobytes() != want[0, 0].tobytes()
    assert pairwise_differs  # the terms are order-sensitive


def test_lane_sum_keeps_signed_zeros_as_numpy():
    for n in (3, 8, 20, 200):
        for lanes in (1, 4):
            terms = np.full((n, lanes), -0.0)
            got = _lane_sum(terms)
            assert got.tobytes() == np.sum(terms.T, axis=-1).tobytes()
            rows = np.full((n, 2, lanes), -0.0)
            assert _lane_sum(rows).tobytes() == np.zeros((2, lanes)).tobytes()


def parent_lane_sum(a):
    """numpy's pairwise order emulated with 8 partial sums, one lane or
    many, for one term per lane in each row; rows in order otherwise: the
    reference that _lane_sum's one-lane np.add.reduce must match bit for
    bit."""
    n = len(a)
    if a.size == n * a.shape[-1] and n >= 8:
        if n > 128:
            half = n // 2 - n // 2 % 8
            return parent_lane_sum(a[:half]) + parent_lane_sum(a[half:])
        full = n - n % 8
        r = np.add.reduce(a[:full].reshape((full // 8, 8) + a.shape[1:]), axis=0)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for row in a[full:]:
            total += row
        return total
    if a.shape[-1] == 1:
        return np.add.accumulate(a, axis=0)[-1] + 0.0
    return np.add.reduce(a, axis=0)


def test_lane_sum_one_lane_matches_parent_formula():
    # (n, 1) and (n, 1, 1) come from the slab sums, Jacobi and _thin_svd at
    # m == 1, (n, K, 1) from _thin_svd at m == K; the swapped layout is the
    # strided view _thin_svd sums.
    rng = substream(1, 14)
    for n in range(1, 301):
        for k in (None, 1, 2, 3):
            shape = (n, 1) if k is None else (n, k, 1)
            terms = spread_terms(rng, shape)
            zeros = np.full(shape, -0.0)
            swapped = np.ascontiguousarray(terms.swapaxes(0, 1)).swapaxes(0, 1)
            for a in (terms, zeros, swapped):
                want = parent_lane_sum(a)
                got = _lane_sum(a)
                assert got.shape == want.shape, (n, k)
                assert got.tobytes() == want.tobytes(), (n, k)


def numpy_lane_sum(a):
    """np.sum(axis=1) over a's terms held system-major, as a C-ordered
    (B, n, ...) array, laid out as _lane_sum's result: the order it keeps."""
    system_major = np.ascontiguousarray(np.moveaxis(a, -1, 0))
    return np.moveaxis(np.sum(system_major, axis=1), 0, -1)


def assert_same_sum(a):
    got, want = _lane_sum(a), numpy_lane_sum(a)
    assert got.shape == want.shape, a.shape
    assert got.tobytes() == want.tobytes(), a.shape
    return got


def test_lane_sum_is_numpys_system_major_sum():
    # (n, B) sums pairwise and (n, k > 1, B) in order, one lane or many,
    # for terms whose order shows in the bits, for all -0.0, and for the
    # (n, k, B) view of a (k, n, B) array that _thin_svd sums
    rng = substream(1, 10)
    for n in [*range(1, 141), 200, 257, 300, 511, 1000, 1025]:
        for lanes in (1, 2, 257):
            for shape in [(n, lanes)] + [(n, k, lanes) for k in (1, 2, 3, 4, 9)]:
                terms = spread_terms(rng, shape)
                assert_same_sum(terms)
                assert_same_sum(np.full(shape, -0.0))
                if len(shape) == 3:
                    assert_same_sum(np.ascontiguousarray(terms.swapaxes(0, 1)).swapaxes(0, 1))


def test_every_lane_sum_of_a_run_is_numpys(monkeypatch):
    # every sum of short blocks at d 1-5 and of single systems, checked
    # against the spec above where it is taken
    shapes = []

    def checked(a):
        shapes.append(a.shape)
        return assert_same_sum(a)

    for module in (linalg, _batch, ensemble):
        monkeypatch.setattr(module, "_lane_sum", checked)
    for d in range(1, 6):
        for N in (2, 3, 9, 40):
            for mode in MASS_MODES:
                _block_summary(d, N, mode, 6, 0, 64)
    rng = substream(1, 15)
    for d in range(1, 6):
        for n in (1, 2, 3, 9, 40):
            z, zdot = rng.standard_normal((2, d, n))
            compute_partition(2.0, z, zdot)
            svd(z)
    # both orders, the split above 128 terms, and batches of one
    assert {len(shape) for shape in shapes} == {2, 3}
    assert max(shape[0] for shape in shapes) > 128
    assert {shape[-1] for shape in shapes} >= {1, 64}
