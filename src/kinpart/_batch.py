"""The partition engine: all 19 energy terms and the 4 squared momenta for
a stack of systems at once.

Every caller goes through partition_batch: the Monte Carlo harness with
4096-system blocks, and partitions.compute_partition with a batch of one.
Only the thin SVD factors are formed; sums over the orthogonal complement
of the frame (the rows or columns past min(d, n)) are taken as squared
residual norms, which keeps the cost linear in max(d, n) per system and
avoids the cancellation a norm-difference formula would have.

All contractions loop over the small dimension (d or min(d, n)) and reduce
with np.sum over the long axis: no BLAS calls, so results are independent
of BLAS threading, and each slab follows the same arithmetic whatever the
batch size, so a system gives the same bits alone or in a block.

The simulate CSV bytes depend on the order of these sums.  numpy sums a
contiguous innermost axis pairwise and any other axis one term at a time,
while elementwise operations give the same bits in any layout.  So the
slab sums over (d, n) and every contraction over the long axis are
pairwise, on contiguous temporaries; the singular values in _thin_svd sum
the rotated columns sequentially over the long axis (pairwise when m == 1,
see linalg._middle_sum).  The sorted long-side factor is gathered as
contiguous (B, m, L) rows, normalised in place and handed on as a
swapaxes view; only its layout differs from a (B, L, m) array, not a bit
of any result.

Input is evaluated at the scale given; a system whose z2 or z2 * zd2 is not
a normal double is refused (compute_partition rescales first).  On
center-of-mass ensembles, full rank up to the null direction Z and Zdot
share, the terms agree with the brute-force oracles.  At a rank drop
without a shared null direction (e.g. collinear planar input) T_I misses
the null block and the degenerate flag stays False.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _COLUMN_FREEZE, _middle_sum, jacobi_orthogonalize

# The 19 energy terms of the five partitions, in report order.
TERMS = (
    "T", "T_lambda", "T_rho", "T_rot", "T_I", "T_xi",
    "T_ext", "T_int", "T_res", "T_J", "T_K", "T_ac",
    "E_out", "E_outA", "E_outB", "E_in", "E_inA", "E_inB", "E_c",
)
MOMENTA = ("J2", "K2", "Lambda2", "L2")
BATCH_FIELDS = TERMS + MOMENTA

_NORMAL_MIN = np.finfo(float).tiny
_NORMAL_MAX = np.finfo(float).max


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative thresholds used by the SVD-frame rate solve.

    gap_tol scales xi_1^2: singular value pairs whose squared gap is below
    gap_tol * xi_1^2 are treated as repeated (degenerate).  zero_tol scales
    xi_1: singular values below zero_tol * xi_1 count as zero when the
    positive count k is decided.  Random continuous samples are generically
    non-degenerate, so these guard numerics, not semantics.
    """

    gap_tol: float = 1e-9
    zero_tol: float = 1e-12


DEFAULT_TOLERANCES = ToleranceConfig()


def _gram(a, b):
    """(B, p, n) x (B, q, n) -> (B, p, q) row Gram matrices."""
    nsys, p, _ = a.shape
    q = b.shape[1]
    out = np.empty((nsys, p, q))
    for i in range(p):
        for j in range(q):
            out[:, i, j] = np.sum(a[:, i, :] * b[:, j, :], axis=-1)
    return out


def _thin_svd(z):
    """Thin factors of a (B, d, n) stack: xi (B, m), D (B, d, m), X (B, n, m).

    The short side's factor comes out full and exactly orthogonal (it is the
    accumulated rotation product); the long side is normalized columns.
    Columns are sorted by descending singular value; directions of
    numerically-zero columns are roundoff residue and are zeroed (their W
    entries then vanish and the residual tails pick up the slack).
    """
    nsys, d, n = z.shape
    if d <= n:
        rotated, vacc = jacobi_orthogonalize(np.transpose(z, (0, 2, 1)))
    else:
        rotated, vacc = jacobi_orthogonalize(z)
    xi = np.sqrt(_middle_sum(rotated * rotated)[:, 0, :])
    order = np.argsort(-xi, axis=1, kind="stable")
    rows = np.arange(nsys)[:, None]
    xi = xi[rows, order]
    vacc = vacc[rows, :, order].swapaxes(1, 2)
    # (B, m, L): each sorted column of `rotated` is a contiguous row.
    thin = rotated[rows, :, order]
    cut = _COLUMN_FREEZE * np.sqrt(np.sum(xi * xi, axis=1))
    thin /= np.where(xi > 0.0, xi, 1.0)[:, :, None]
    thin[~(xi > cut[:, None])] = 0.0
    thin = thin.swapaxes(1, 2)
    if d <= n:
        return xi, vacc, thin
    return xi, thin, vacc


def _frame_rates(z, zdot, dmat, xmat):
    """W = D^T Zdot X (B, m, m) plus the squared residual tails.

    rtail[:, s] sums W[s, b]^2 over the columns b > m (present when n > d),
    stail[:, s] sums W[i, s]^2 over the rows i > m (when d > n); both are
    computed as residual norms against the thin frame, never by subtracting
    nearly equal numbers.
    """
    nsys, d, n = z.shape
    m = min(d, n)
    w = np.empty((nsys, m, m))
    if d <= n:
        # dtzd[s] = (D^T Zdot) row s, length n
        dtzd = np.zeros((nsys, m, n))
        for s in range(m):
            acc = dtzd[:, s, :]
            for i in range(d):
                acc += dmat[:, i, s, None] * zdot[:, i, :]
        for s in range(m):
            for t in range(m):
                w[:, s, t] = np.sum(dtzd[:, s, :] * xmat[:, :, t], axis=-1)
        rtail = np.empty((nsys, m))
        for s in range(m):
            resid = dtzd[:, s, :].copy()
            for t in range(m):
                resid -= w[:, s, t, None] * xmat[:, :, t]
            rtail[:, s] = np.sum(resid * resid, axis=-1)
        stail = np.zeros_like(rtail)
    else:
        # zdx[t] = Zdot X column t, length d
        zdx = np.zeros((nsys, d, m))
        for t in range(m):
            acc = zdx[:, :, t]
            for a in range(n):
                acc += xmat[:, a, t, None] * zdot[:, :, a]
        for s in range(m):
            for t in range(m):
                w[:, s, t] = np.sum(dmat[:, :, s] * zdx[:, :, t], axis=-1)
        stail = np.empty((nsys, m))
        for t in range(m):
            resid = zdx[:, :, t].copy()
            for s in range(m):
                resid -= w[:, s, t, None] * dmat[:, :, s]
            stail[:, t] = np.sum(resid * resid, axis=-1)
        rtail = np.zeros_like(stail)
    return w, rtail, stail


def partition_batch(mass, z, zdot, cfg=DEFAULT_TOLERANCES):
    """All 19 terms, 4 squared momenta, and degeneracy flags for a stack.

    z, zdot: (B, d, n) arrays.  Returns a dict of (B,) arrays keyed by
    BATCH_FIELDS plus a boolean "degenerate" array.  Raises ValueError on
    non-finite entries, a zero hyperradius, or a system whose z2 or
    z2 * zd2 is not a normal double (zdot == 0 is accepted).
    """
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    if z.ndim != 3 or z.shape != zdot.shape:
        raise ValueError(f"expected matching (B, d, n) stacks, got {z.shape} vs {zdot.shape}")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zdot))):
        raise ValueError("non-finite entries in batch")
    nsys, d, n = z.shape
    m = min(d, n)
    m2 = mass * mass

    # Out-of-range systems overflow here; they are refused just below.
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = np.sum(z * z, axis=(1, 2))
        zd2 = np.sum(zdot * zdot, axis=(1, 2))
        inner = np.sum(z * zdot, axis=(1, 2))
        scale = z2 * zd2
    if np.any(z2 == 0.0):
        raise ValueError("zero hyperradius")
    in_range = (z2 >= _NORMAL_MIN) & (z2 <= _NORMAL_MAX) & (
        (zd2 == 0.0) | ((scale >= _NORMAL_MIN) & (scale <= _NORMAL_MAX)))
    if not np.all(in_range):
        raise ValueError("squared norms outside the normal double range in "
                         "batch; rescale the input (compute_partition does)")

    total = 0.5 * mass * zd2
    t_rho = 0.5 * mass * inner * inner / z2
    lam2 = np.maximum(m2 * (z2 * zd2 - inner * inner), 0.0)
    t_lambda = lam2 / (2.0 * mass * z2)

    g1 = _gram(z, z)
    g2 = _gram(z, zdot)
    g3 = _gram(zdot, zdot)
    cross = np.sum(g2 * np.transpose(g2, (0, 2, 1)), axis=(1, 2))
    j2 = np.maximum(m2 * (np.sum(g2 * g2, axis=(1, 2)) - cross), 0.0)
    k2 = np.maximum(m2 * (np.sum(g1 * g3, axis=(1, 2)) - cross), 0.0)

    xi, dmat, xmat = _thin_svd(z)
    w, rtail, stail = _frame_rates(z, zdot, dmat, xmat)

    xidot = np.diagonal(w, axis1=1, axis2=2).copy()
    t_inert = 0.5 * mass * np.sum(xidot * xidot, axis=1)
    t_rot = total - t_inert

    l2 = np.zeros(nsys)
    for s in range(m - 1):
        for t in range(s + 1, m):
            minor = xi[:, s] * xidot[:, t] - xi[:, t] * xidot[:, s]
            l2 += minor * minor
    l2 *= m2
    t_xi = l2 / (2.0 * mass * z2)
    t_j = j2 / (2.0 * mass * z2)
    t_k = k2 / (2.0 * mass * z2)

    zero_abs = cfg.zero_tol * xi[:, 0]
    gap_abs = cfg.gap_tol * xi[:, 0] * xi[:, 0]
    pos = xi > zero_abs[:, None]

    degenerate = np.zeros(nsys, dtype=bool)
    ext_in = np.zeros(nsys)
    int_in = np.zeros(nsys)
    eout_in = np.zeros(nsys)
    ein_in = np.zeros(nsys)
    out_a = np.zeros(nsys)
    out_b_in = np.zeros(nsys)
    in_a = np.zeros(nsys)
    in_b_in = np.zeros(nsys)

    for s in range(m - 1):
        for t in range(s + 1, m):
            xs = xi[:, s]
            xt = xi[:, t]
            wst = w[:, s, t]
            wts = w[:, t, s]
            xs2 = xs * xs
            xt2 = xt * xt
            det = xt2 - xs2
            solvable = np.abs(det) > gap_abs
            live = pos[:, s] | pos[:, t]
            degenerate |= ~solvable & live
            det_safe = np.where(solvable, det, 1.0)
            a_st = np.where(solvable, (xt * wst + xs * wts) / det_safe, 0.0)
            b_st = np.where(solvable, (xs * wst + xt * wts) / det_safe, 0.0)
            den = xs2 + xt2
            den_safe = np.where(den > 0.0, den, 1.0)
            r_st = np.where(live, (wst * xt - xs * wts) / den_safe, 0.0)
            q_st = np.where(live, (xs * wst - xt * wts) / den_safe, 0.0)
            ext_in += den * r_st * r_st
            int_in += den * q_st * q_st
            eout_in += den * a_st * a_st
            ein_in += den * b_st * b_st
            both = pos[:, s] & pos[:, t]
            lone = pos[:, s] & ~pos[:, t]
            out_a += np.where(both, den * a_st * a_st, 0.0)
            in_a += np.where(both, den * b_st * b_st, 0.0)
            out_b_in += np.where(lone, xs2 * a_st * a_st, 0.0)
            in_b_in += np.where(lone, xs2 * b_st * b_st, 0.0)

    stail_pos = np.sum(np.where(pos, stail, 0.0), axis=1)
    rtail_pos = np.sum(np.where(pos, rtail, 0.0), axis=1)

    t_ext = 0.5 * mass * (ext_in + stail_pos)
    t_int = 0.5 * mass * (int_in + rtail_pos)
    e_out = 0.5 * mass * (eout_in + stail_pos)
    e_in = 0.5 * mass * (ein_in + rtail_pos)
    e_out_a = 0.5 * mass * out_a
    e_out_b = 0.5 * mass * (out_b_in + stail_pos)
    e_in_a = 0.5 * mass * in_a
    e_in_b = 0.5 * mass * (in_b_in + rtail_pos)

    t_res = t_rot - t_ext - t_int
    t_ac = t_rot - t_j - t_k
    e_c = t_rot - e_out - e_in

    return {
        "T": total, "T_lambda": t_lambda, "T_rho": t_rho, "T_rot": t_rot,
        "T_I": t_inert, "T_xi": t_xi, "T_ext": t_ext, "T_int": t_int,
        "T_res": t_res, "T_J": t_j, "T_K": t_k, "T_ac": t_ac,
        "E_out": e_out, "E_outA": e_out_a, "E_outB": e_out_b,
        "E_in": e_in, "E_inA": e_in_a, "E_inB": e_in_b, "E_c": e_c,
        "J2": j2, "K2": k2, "Lambda2": lam2, "L2": l2,
        "degenerate": degenerate,
    }
