"""Dense real matrix algebra for small systems.

The one SVD driver, _batch._thin_svd, rests on jacobi_orthogonalize: a
one-sided Jacobi iteration with a fixed cyclic sweep order, so repeated
calls on bit-identical input produce bit-identical factors on any platform.
That reproducibility is what the Monte Carlo harness relies on;
LAPACK-grade speed is a non-goal.  All routines operate on plain float64
numpy arrays.
"""

import numpy as np

# Off-diagonal threshold for Jacobi convergence, relative to column norms.
_JACOBI_TOL = 1e-15
_MAX_SWEEPS = 60
# Columns below this fraction of the matrix norm are numerically zero: their
# direction is roundoff residue (often fully correlated with a live column,
# which would stall the relative convergence test), so their pairs are
# skipped.  Downstream consumers drop these directions.
_COLUMN_FREEZE = 1e-15


def jacobi_orthogonalize(cols):
    """Orthogonalize the columns of each slab in a (B, L, m) stack.

    Plane rotations are applied to column pairs in a fixed cyclic order
    (p, q), p < q, until every pair is orthogonal to within _JACOBI_TOL
    relative to the column norms.  Returns (rotated, V) with
    input[b] @ V[b] == rotated[b]; V[b] is m x m orthogonal.

    Each slab follows the identical arithmetic path regardless of batch
    size, so results are bit-identical whether slabs are processed alone
    or together.  Raises RuntimeError if a slab fails to converge.
    """
    cols = np.array(cols, dtype=float)
    b, _, m = cols.shape
    v = np.zeros((b, m, m))
    idx = np.arange(m)
    v[:, idx, idx] = 1.0
    if m < 2:
        return cols, v
    # Rotations preserve the slab norm, so the freeze cut is fixed up front.
    cut2 = _COLUMN_FREEZE**2 * np.sum(cols * cols, axis=(1, 2))
    for _ in range(_MAX_SWEEPS):
        rotated_any = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                x = cols[:, :, p]
                y = cols[:, :, q]
                alpha = np.sum(x * x, axis=-1)
                beta = np.sum(y * y, axis=-1)
                gamma = np.sum(x * y, axis=-1)
                apply = (
                    (np.abs(gamma) > _JACOBI_TOL * np.sqrt(alpha) * np.sqrt(beta))
                    & (alpha > cut2)
                    & (beta > cut2)
                )
                if not bool(np.any(apply)):
                    continue
                rotated_any = True
                gamma_safe = np.where(apply, gamma, 1.0)
                zeta = (beta - alpha) / (2.0 * gamma_safe)
                # zeta == 0 needs the full 45-degree rotation.
                t = np.where(
                    zeta == 0.0,
                    1.0,
                    np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)),
                )
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                c = np.where(apply, c, 1.0)[:, None]
                s = np.where(apply, s, 0.0)[:, None]
                new_p = c * x - s * y
                new_q = s * x + c * y
                cols[:, :, p] = new_p
                cols[:, :, q] = new_q
                xv = v[:, :, p]
                yv = v[:, :, q]
                new_vp = c * xv - s * yv
                new_vq = s * xv + c * yv
                v[:, :, p] = new_vp
                v[:, :, q] = new_vq
        if not rotated_any:
            return cols, v
    raise RuntimeError(f"one-sided Jacobi failed to converge in {_MAX_SWEEPS} sweeps")


def _middle_sum(x):
    """np.sum(x, axis=1, keepdims=True) of a C-contiguous (B, L, k) stack,
    bit for bit.

    For k > 1 numpy adds the middle axis one term at a time, as cumsum
    does, but calls its inner loop once per (b, l) with only k elements;
    cumsum runs its inner loop along L instead.  For k == 1 the middle axis
    is the innermost one and numpy sums it pairwise, so np.sum stays.
    """
    if x.shape[2] == 1:
        return np.sum(x, axis=1, keepdims=True)
    return np.cumsum(x, axis=1)[:, -1:, :]


def _complete_orthonormal(thin):
    """Extend thin (L x m, orthonormal or zero columns) to L x L orthogonal.

    Zero columns and the missing trailing columns are filled from standard
    basis vectors by modified Gram-Schmidt with reorthogonalization; the
    candidate order is fixed, so the completion is deterministic.
    """
    length, m = thin.shape
    final = [None] * length
    accepted = []
    for j in range(m):
        col = thin[:, j]
        if float(np.sum(col * col)) > 0.5:
            final[j] = col
            accepted.append(col)
    cand = 0
    for j in range(length):
        if final[j] is not None:
            continue
        while True:
            if cand >= length:
                raise RuntimeError("orthonormal completion ran out of candidates")
            vec = np.zeros(length)
            vec[cand] = 1.0
            cand += 1
            for _ in range(2):
                for b in accepted:
                    vec = vec - np.sum(b * vec) * b
            norm = float(np.sqrt(np.sum(vec * vec)))
            if norm > 1e-6:
                vec = vec / norm
                final[j] = vec
                accepted.append(vec)
                break
    return np.stack(final, axis=1)


def sym_eigen(s):
    """Eigen-decomposition of a symmetric matrix, eigenvalues descending.

    Returns (values, vectors) with s @ vectors = vectors @ diag(values) and
    orthonormal columns.  Serves as the independent cross-check for the
    Jacobi SVD: the squared singular values of Z are the eigenvalues of
    Z @ Z.T.
    Raises ValueError if s is not symmetric to within 1e-12 (relative to
    its largest entry for matrices above unit scale).
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    scale = max(1.0, float(np.max(np.abs(s)))) if s.size else 1.0
    if float(np.max(np.abs(s - s.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh((s + s.T) / 2.0)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            vectors[:, j] = -col
    return values, vectors


def random_orthogonal(dim, rng):
    """Haar-distributed random orthogonal dim x dim matrix.

    Gram-Schmidt (with reorthogonalization) applied to a standard Gaussian
    matrix; the positive column norms fix the signs, which is exactly the
    convention that makes the distribution Haar.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    q = np.zeros((dim, dim))
    for j in range(dim):
        while True:
            vec = rng.standard_normal(dim)
            for _ in range(2):
                for i in range(j):
                    vec = vec - np.sum(q[:, i] * vec) * q[:, i]
            norm = float(np.sqrt(np.sum(vec * vec)))
            if norm > 1e-12:
                break
        q[:, j] = vec / norm
    return q
