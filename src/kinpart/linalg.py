"""Dense real matrix algebra for small systems.

The one SVD driver, _batch._thin_svd, rests on jacobi_orthogonalize: a
one-sided Jacobi iteration with a fixed cyclic sweep order, so repeated
calls on bit-identical input produce bit-identical factors on any platform.
That reproducibility is what the Monte Carlo harness relies on;
LAPACK-grade speed is a non-goal.  All routines operate on plain float64
numpy arrays.  The sampler and the engine keep a batch of systems in lane
arrays, with the system index as the last, contiguous axis, and take every
sum through _lane_sum.
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


def _lane_sum(a):
    """Sum over the leading axis of a lane array, in numpy's order.

    A lane array keeps the system index as its last, contiguous axis, so
    every elementwise step runs over all systems at once and gives the same
    bits in any layout.  Sums are another matter: their order fixes the
    bits of every result and of every simulate CSV, and this is the one
    place that sets it.  It is the order of np.sum(axis=1) over the same
    terms held system-major, as a C-ordered (B, n, ...) array:

    - with one term per lane in each row (a.size == n * B), numpy sums each
      lane's n contiguous terms pairwise.  It adds fewer than 8 terms in
      order.  Up to 128 it keeps 8 interleaved partial sums r0..r7,
      combines them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
      and then adds the n mod 8 remaining terms in order.  Above 128 it
      splits at n/2 rounded down to a multiple of 8 and sums both halves
      that way (Higham, SIAM J. Sci. Comput. 14(4), 1993).
    - with more terms per lane in each row, it adds the rows in order.

    np.add.reduce over the leading axis runs its inner loop along the
    lanes, so it adds rows in order.  With one lane numpy drops that axis
    and sums the leading one pairwise, from +0.0, which is the pairwise
    order in one call; an in-order sum of one lane is accumulated instead.
    The rows must not be the innermost axis in memory.
    """
    n, lanes = len(a), a.shape[-1]
    if a.size > n * lanes:
        if lanes == 1:
            # + 0.0 turns an all -0.0 sum into 0.0, as reduce's start value does.
            return np.add.accumulate(a, axis=0)[-1] + 0.0
        return np.add.reduce(a, axis=0)
    if lanes == 1 or n < 8:
        return np.add.reduce(a, axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _lane_sum(a[:half]) + _lane_sum(a[half:])
    full = n - n % 8
    r = np.add.reduce(a[:full].reshape((full // 8, 8) + a.shape[1:]), axis=0)
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    total = r[0] + r[1]
    for row in a[full:]:
        total += row
    return total


def jacobi_orthogonalize(cols, norm2):
    """Orthogonalize the columns of each system in an (m, L, B) lane stack.

    cols[p] is column p, of length L, of all B systems; norm2 (B,) is each
    system's squared Frobenius norm, which the rotations preserve.  Plane
    rotations are applied to column pairs in a fixed cyclic order (p, q),
    p < q, until every pair is orthogonal to within _JACOBI_TOL relative to
    the column norms.  Columns at or below _COLUMN_FREEZE of the norm are
    frozen.  Returns (rotated, V), both lane stacks of columns:
    rotated[q] = sum_p cols[p] * V[q, p], and V[q] is column q of an
    m x m orthogonal matrix.

    Each system follows the identical arithmetic path whatever the batch,
    so results are bit-identical whether systems are processed alone or
    together.  Raises RuntimeError if a system fails to converge.
    """
    cols = np.asarray(cols, dtype=float)
    m, length, nsys = cols.shape
    # Row p holds column p of cols, then column p of V: one rotation turns both.
    work = np.zeros((m, length + m, nsys))
    work[:, :length] = cols
    idx = np.arange(m)
    work[idx, length + idx] = 1.0
    cut2 = _COLUMN_FREEZE**2 * norm2
    for _ in range(_MAX_SWEEPS):
        rotated_any = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                x, y = work[p], work[q]
                xc, yc = x[:length], y[:length]
                alpha = _lane_sum(xc * xc)
                beta = _lane_sum(yc * yc)
                gamma = _lane_sum(xc * yc)
                apply = ((np.abs(gamma) > _JACOBI_TOL * np.sqrt(alpha) * np.sqrt(beta))
                         & (np.minimum(alpha, beta) > cut2))
                if not apply.any():
                    continue
                rotated_any = True
                zeta = (beta - alpha) / (2.0 * np.where(apply, gamma, 1.0))
                # zeta == +-0 needs the full 45-degree rotation, t = 1: + 0.0
                # turns -0.0 into 0.0, whose sign is +.  A lane left alone
                # gets t = 0, so c = 1 and s = 0 exactly.
                t = np.where(apply, np.copysign(1.0, zeta + 0.0)
                             / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)), 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                work[p], work[q] = c * x - s * y, s * x + c * y
        if not rotated_any:
            return work[:, :length], work[:, length:]
    raise RuntimeError(f"one-sided Jacobi failed to converge in {_MAX_SWEEPS} sweeps")
