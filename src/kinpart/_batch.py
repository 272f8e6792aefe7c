"""The partition engine: all 19 energy terms and the 4 squared momenta for
a stack of systems at once.

Every caller goes through partition_batch: the Monte Carlo harness with
4096-system blocks, and partitions.compute_partition with a batch of one.
Only the thin SVD factors are formed; sums over the orthogonal complement
of the frame (the rows or columns past min(d, n)) are taken as squared
residual norms, which keeps the cost linear in max(d, n) per system and
avoids the cancellation a norm-difference formula would have.

TERMS and MOMENTA are the one spelling of the 19 term and 4 momentum names,
in report order: partition_batch's keys, the fields of
partitions.PartitionResult and MomentaResult, and the harness's tracked
terms all come from them.

The engine works on lane arrays, with the system index last (see
linalg._lane_sum, which takes every sum and fixes its order): Z is held as
(n, d, B), so a (d, n) slab is summed in particle-major order.  No BLAS is
called and no system's arithmetic involves another's, so a system gives the
same bits alone, anywhere in a batch, and in any memory layout of the
input.

Input is evaluated at the scale given; a system whose z2 or z2 * zd2 is not
a normal double is refused (compute_partition rescales first).  The rate
solve's two relative thresholds are the constants GAP_TOL and ZERO_TOL.  At
a rank drop (collinear or coplanar input, or the center-of-mass direction of
a sampled system with d >= N) T_I takes in the null block of W, so T_rot
and its complements follow and the terms agree with the brute-force
oracles; the degenerate flag marks repeated non-zero singular values only.

Against the brute-force oracles the terms agree to 1e-8 relative on generic
systems.  With xi_1 / xi_2 = 1 + eps, T_rot, T_ext and T_int agree to
about 2e-15 / eps; with the smallest singular value at a ratio r of the
largest, the projections agree to about 2e-15 / r.  README gives the
measured gaps behind these bounds.
"""

import numpy as np

from .linalg import _COLUMN_FREEZE, _lane_sum, jacobi_orthogonalize

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

# Relative thresholds of the SVD-frame rate solve.  Singular value pairs
# whose squared gap is below GAP_TOL * xi_1^2 are treated as repeated
# (degenerate); singular values below ZERO_TOL * xi_1 count as zero.
# Random continuous samples are generically non-degenerate, so these guard
# roundoff, not semantics.
GAP_TOL = 1e-9
ZERO_TOL = 1e-12


def _lanes(z):
    """A (B, d, n) stack as a C-contiguous (n, d, B) lane array; a view of
    the sampler's output, a copy of any other layout."""
    return np.ascontiguousarray(np.transpose(z, (2, 1, 0)))


def _slab_sum(a, b):
    """Sum of a * b over all but the lane axis, in C order: particle-major
    for an (n, d, B) slab, row-major for (d, d, B) Gram matrices."""
    return _lane_sum((a * b).reshape(-1, a.shape[-1]))


def _gram(a, b):
    """(n, p, B) x (n, q, B) lanes -> (p, q, B) Gram matrices of the rows;
    _gram(a, a) sums j >= i only and mirrors them, which gives the same bits."""
    _, p, nsys = a.shape
    q = b.shape[1]
    out = np.empty((p, q, nsys))
    for i in range(p):
        for j in range(i if b is a else 0, q):
            out[i, j] = _lane_sum(a[:, i] * b[:, j])
            if b is a:
                out[j, i] = out[i, j]
    return out


def _thin_svd(z, z2):
    """Thin factors of an (n, d, B) lane stack with squared norms z2 (B,):
    xi (m, B), D (m, d, B) and X (m, n, B), column s of each factor at [s].

    The short side's factor comes out full and exactly orthogonal (it is the
    accumulated rotation product); the long side is normalized columns.
    Columns are sorted by descending singular value; directions of
    numerically-zero columns are roundoff residue and are zeroed (their W
    entries then vanish and the residual tails pick up the slack).
    """
    n, d, _ = z.shape
    rotated, vcols = jacobi_orthogonalize(z.transpose(1, 0, 2) if d <= n else z, z2)
    m = len(rotated)
    # The order the CSV bytes rest on: the long side in turn, pairwise when m == 1.
    xi = np.sqrt(_lane_sum((rotated * rotated).swapaxes(0, 1), pairwise=m == 1))
    order = np.argsort(-xi, axis=0, kind="stable")
    lanes = np.arange(xi.shape[1])
    xi = xi[order, lanes]
    vcols = vcols[order[:, None], np.arange(m)[:, None], lanes]
    thin = rotated[order[:, None], np.arange(rotated.shape[1])[:, None], lanes]
    cut = _COLUMN_FREEZE * np.sqrt(_lane_sum(xi * xi))
    thin /= np.where(xi > 0.0, xi, 1.0)[:, None]
    np.copyto(thin, 0.0, where=~(xi > cut)[:, None])
    if d <= n:
        return xi, vcols, thin
    return xi, thin, vcols


def _frame_rates(zdot, dmat, xmat):
    """W = D^T Zdot X (m, m, B) plus the squared residual tails (m, B).

    zdot is an (n, d, B) lane stack, dmat and xmat the thin factors.
    rtail[s] sums W[s, b]^2 over the columns b > m (present when n > d),
    stail[s] sums W[i, s]^2 over the rows i > m (when d > n); both are
    computed as residual norms against the thin frame, never by subtracting
    nearly equal numbers.  For d > n the transposed problem is solved: every
    product and sum runs in the same order, so the bits are the same.
    """
    n, d, nsys = zdot.shape
    if d > n:
        w, rtail, stail = _frame_rates(zdot.transpose(1, 0, 2), xmat, dmat)
        return w.swapaxes(0, 1), stail, rtail
    m = d
    # dtzd[s] = (D^T Zdot) row s, length n
    dtzd = np.zeros((m, n, nsys))
    for s in range(m):
        for i in range(d):
            dtzd[s] += dmat[s, i] * zdot[:, i]
    w = np.empty((m, m, nsys))
    for s in range(m):
        for t in range(m):
            w[s, t] = _lane_sum(dtzd[s] * xmat[t])
    rtail = np.empty((m, nsys))
    for s in range(m):
        resid = dtzd[s]
        for t in range(m):
            resid -= w[s, t] * xmat[t]
        rtail[s] = _lane_sum(resid * resid)
    return w, rtail, np.zeros_like(rtail)


def _check_mass(mass):
    if not (isinstance(mass, (int, float, np.integer, np.floating))
            and np.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be a real scalar, finite and > 0, got {mass!r}")


def _checked_input(ndim, *arrays):
    """The arrays as floats; raises ValueError on complex input (the cast would
    drop the imaginary part) and unless they share one ndim-d non-empty shape."""
    if any(np.iscomplexobj(a) for a in arrays):
        raise ValueError("complex entries")
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    shapes = [a.shape for a in arrays]
    if len(shapes[0]) != ndim or len(set(shapes)) > 1:
        raise ValueError(f"expected {ndim}-d arrays of one shape, got {shapes}")
    if 0 in shapes[0]:
        raise ValueError(f"Z has no entries, shape {shapes[0]}")
    return arrays


def _check_nonzero(size):  # a norm of Z, or z2 per system of a batch
    if np.any(size == 0.0):
        raise ValueError("Z is identically zero (zero hyperradius)")


def partition_batch(mass, z, zdot):
    """All 19 terms, 4 squared momenta, and degeneracy flags for a stack.

    z, zdot: (B, d, n) arrays in any memory layout.  Returns a dict of (B,)
    arrays keyed by BATCH_FIELDS plus a boolean "degenerate" array.  Raises
    ValueError on a mass that is not a real, finite scalar > 0, what
    _checked_input(3, ...) refuses, non-finite entries, Z = 0, or z2 or
    z2 * zd2 outside the normal double range (zd2 = 0 is accepted).
    """
    _check_mass(mass)
    z, zdot = _checked_input(3, z, zdot)
    nsys, d, n = z.shape
    m = min(d, n)
    m2 = mass * mass
    z = _lanes(z)
    zdot = _lanes(zdot)

    # Out-of-range systems overflow here; they are refused just below.
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = _slab_sum(z, z)
        zd2 = _slab_sum(zdot, zdot)
        inner = _slab_sum(z, zdot)
        scale = z2 * zd2
        finite = np.isfinite(z2 + zd2 + inner).all()
    # A non-finite entry makes the sums non-finite; the entries are
    # scanned only to tell that from overflow.
    if not finite and not (np.isfinite(z).all() and np.isfinite(zdot).all()):
        raise ValueError("non-finite entries in batch")
    _check_nonzero(z2)
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
    cross = _slab_sum(g2, g2.swapaxes(0, 1))
    j2 = np.maximum(m2 * (_slab_sum(g2, g2) - cross), 0.0)
    k2 = np.maximum(m2 * (_slab_sum(g1, g3) - cross), 0.0)

    xi, dmat, xmat = _thin_svd(z, z2)
    w, rtail, stail = _frame_rates(zdot, dmat, xmat)

    diag = np.arange(m)
    pos = xi > ZERO_TOL * xi[0]
    # One zero cut, as in svd_rates: a null singular value has no rate.  The
    # normal space of the rotation orbit at Z holds the live diagonal of W
    # and, at a rank drop, the whole null block: W[s, t] with s and t both
    # null, and the residual tails of the null rows and columns.
    xidot = np.where(pos, w[diag, diag], 0.0)
    normal = _lane_sum(xidot * xidot)
    if not np.all(pos):
        null = ~pos
        block = null[:, None] & null[None, :]
        normal += (_lane_sum(np.where(block, w * w, 0.0).reshape(m * m, nsys))
                   + _lane_sum(np.where(null, rtail + stail, 0.0)))
    t_inert = 0.5 * mass * normal
    t_rot = total - t_inert

    gap_abs = GAP_TOL * xi[0] * xi[0]

    degenerate = np.zeros(nsys, dtype=bool)
    l2 = np.zeros(nsys)
    ext_in, int_in, eout_in, ein_in, out_a, out_b_in, in_a, in_b_in = np.zeros((8, nsys))

    for s in range(m - 1):
        for t in range(s + 1, m):
            xs = xi[s]
            xt = xi[t]
            minor = xs * xidot[t] - xt * xidot[s]
            l2 += minor * minor
            wst = w[s, t]
            wts = w[t, s]
            xs2 = xs * xs
            xt2 = xt * xt
            det = xt2 - xs2
            solvable = np.abs(det) > gap_abs
            live = pos[s] | pos[t]
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
            both = pos[s] & pos[t]
            lone = pos[s] & ~pos[t]
            out_a += np.where(both, den * a_st * a_st, 0.0)
            in_a += np.where(both, den * b_st * b_st, 0.0)
            out_b_in += np.where(lone, xs2 * a_st * a_st, 0.0)
            in_b_in += np.where(lone, xs2 * b_st * b_st, 0.0)

    l2 *= m2
    t_xi = l2 / (2.0 * mass * z2)
    t_j = j2 / (2.0 * mass * z2)
    t_k = k2 / (2.0 * mass * z2)

    stail_pos = _lane_sum(np.where(pos, stail, 0.0))
    rtail_pos = _lane_sum(np.where(pos, rtail, 0.0))

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

    return dict(zip(BATCH_FIELDS, (
        total, t_lambda, t_rho, t_rot, t_inert, t_xi, t_ext, t_int, t_res,
        t_j, t_k, t_ac, e_out, e_out_a, e_out_b, e_in, e_in_a, e_in_b, e_c,
        j2, k2, lam2, l2)), degenerate=degenerate)
