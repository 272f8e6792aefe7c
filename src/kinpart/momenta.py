"""The four hyperangular momenta of a system given by (Z, Zdot).

J is the physical angular momentum, K its kinematic dual, Lambda the grand
angular momentum built from every 2x2 minor of the pair (Z, Zdot), and L the
singular angular momentum built from the singular values and their rates.

Two routes are provided.  momenta_direct evaluates the defining component
sums and exists as the testing oracle, with xi and xidot from
partitions.svd_rates; momenta_fast evaluates the Gram-matrix forms whose
cost stays linear in the number of columns.  The partition engine
(_batch.partition_batch) computes the momenta the Monte Carlo harness and
compute_partition report.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MomentaResult:
    """Squared momenta J^2, K^2, Lambda^2, L^2 (all non-negative)."""

    J2: float
    K2: float
    Lambda2: float
    L2: float


def _check_shapes(z, zdot, xi, xidot):
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    xi = np.asarray(xi, dtype=float)
    xidot = np.asarray(xidot, dtype=float)
    if z.ndim != 2 or z.shape != zdot.shape:
        raise ValueError(f"shape mismatch: Z {z.shape} vs Zdot {zdot.shape}")
    m = min(z.shape)
    if xi.shape != (m,) or xidot.shape != (m,):
        raise ValueError(f"expected {m} singular values and rates")
    return z, zdot, xi, xidot


def _pair_square_sum(outer):
    """Sum of (outer[p, q] - outer[q, p])^2 over index pairs p < q."""
    p, q = np.triu_indices(outer.shape[0], k=1)
    minors = outer[p, q] - outer[q, p]
    return float(np.sum(minors * minors))


def singular_momentum_squared(mass, xi, xidot):
    """L^2 = sum over sigma < tau of M^2 (xi_s xidot_t - xi_t xidot_s)^2."""
    xi = np.asarray(xi, dtype=float)
    xidot = np.asarray(xidot, dtype=float)
    return mass * mass * _pair_square_sum(np.outer(xi, xidot))


def momenta_direct(mass, z, zdot, xi, xidot):
    """All four squared momenta from their defining component sums.

    J from the d(d-1)/2 antisymmetrized row sums, K from the n(n-1)/2
    column sums, Lambda from all dn(dn-1)/2 minors of the flattened pair,
    L from the singular-value minors.  Quadratic cost; oracle use only.
    """
    z, zdot, xi, xidot = _check_shapes(z, zdot, xi, xidot)
    jcomp = np.einsum("ia,ja->ij", z, zdot)
    j2 = mass * mass * _pair_square_sum(jcomp)
    kcomp = np.einsum("ia,ib->ab", z, zdot)
    k2 = mass * mass * _pair_square_sum(kcomp)
    # Row-major flattening orders the index pairs (i, alpha) exactly as the
    # condition "i < j, or i = j and alpha < beta" requires.
    lam2 = mass * mass * _pair_square_sum(np.outer(z.ravel(), zdot.ravel()))
    l2 = singular_momentum_squared(mass, xi, xidot)
    return MomentaResult(J2=j2, K2=k2, Lambda2=lam2, L2=l2)


def momenta_fast(mass, z, zdot, xi, xidot):
    """All four squared momenta from the Gram-matrix forms.

    J^2 from the n x n Gram matrices over rows, K^2 from the d x d Gram
    matrices over columns, Lambda^2 from Frobenius norms and the inner
    product alone.  Values are clamped at zero against roundoff in the
    cancellations.
    """
    z, zdot, xi, xidot = _check_shapes(z, zdot, xi, xidot)
    m2 = mass * mass

    g1 = np.einsum("ia,ib->ab", z, z)
    g2 = np.einsum("ia,ib->ab", z, zdot)
    g3 = np.einsum("ia,ib->ab", zdot, zdot)
    j2 = m2 * (float(np.sum(g1 * g3)) - float(np.sum(g2 * g2.T)))

    d1 = np.einsum("ia,ja->ij", z, z)
    d2 = np.einsum("ia,ja->ij", z, zdot)
    d3 = np.einsum("ia,ja->ij", zdot, zdot)
    k2 = m2 * (float(np.sum(d1 * d3)) - float(np.sum(d2 * d2.T)))

    z2 = float(np.sum(z * z))
    zd2 = float(np.sum(zdot * zdot))
    inner = float(np.sum(z * zdot))
    lam2 = m2 * (z2 * zd2 - inner * inner)

    l2 = singular_momentum_squared(mass, xi, xidot)
    return MomentaResult(
        J2=max(j2, 0.0),
        K2=max(k2, 0.0),
        Lambda2=max(lam2, 0.0),
        L2=l2,
    )
