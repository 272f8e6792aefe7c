"""Kinetic energy partitions of an instantaneous system state (Z, Zdot).

Five decompositions of the total kinetic energy T = (M/2) ||Zdot||^2 are
computed:

  T = T_lambda + T_rho            grand-angular / hyperradial split
  T = T_rot + T_I                 tangent / normal split of Zdot at Z
  T_rot = T_ext + T_int + T_res   projections onto physical- and
                                  kinematic-rotation tangent spaces
  T_rot = T_J + T_K + T_ac        momentum-quadratic split
  T_rot = E_out + E_in + E_c      direct-sum split in the SVD frame,
                                  refined into E_outA/B and E_inA/B

together with four squared hyperangular momenta: J, the physical angular
momentum, K its kinematic dual, Lambda the grand angular momentum built
from every 2x2 minor of the pair (Z, Zdot), and L the singular angular
momentum built from the singular values and their rates.

compute_partition evaluates one system as a batch of one of the engine in
kinpart._batch, so a single system and a sampled block share every line
of the arithmetic.  svd is the engine's thin SVD of one matrix, and
momenta_fast the engine's momenta of one system.  The oracles exist to
keep the engine honest, and each takes only (mass, Z, Zdot):
project_oracle recomputes the projections by explicit least squares over
spanning sets of the tangent spaces, eigenvector_split_oracle the
E_out/E_in refinements by eigenvector perturbation theory, svd_rates the
singular values and their rates, and momenta_direct the momenta from
their defining component sums, with L from svd_rates' xi and xidot.  The
oracles take their bases from one LAPACK SVD per matrix (np.linalg.svd),
never from the Jacobi SVD they check and never from a Gram matrix, whose
eigenvectors would square the condition number near repeated singular
values (Bjorck, Numerical Methods for Least Squares Problems, 1996, 1.4
and 2.7).  All of them cut singular values at the engine's
ZERO_TOL * xi_1, and both split oracles test for repeated live singular
values with the engine's GAP_TOL.  One scale rule holds for every entry
point here: its matrices go in through one gate, _unit_scaled on
_batch._checked_input, which refuses input that is not a non-empty,
finite, real 2-d matrix and rescales the rest by powers of two, and its
results come out through _scaled_back, which scales each back by the
power of two of its degree and refuses one beyond the double range (one
below it underflows to 0).  All but svd refuse Z = 0, and all that take
a mass refuse one that is not a real, finite scalar > 0.
"""

from dataclasses import dataclass, make_dataclass

import numpy as np

from ._batch import (
    GAP_TOL, MOMENTA, TERMS, ZERO_TOL, _check_mass, _check_nonzero,
    _checked_input, _lanes, _slab_sum, _thin_svd, partition_batch,
)


def _unit_scaled(*mats):
    """Each matrix rescaled by a power of two, which is exact, to entries in
    [1/2, 1), then the exponents that scale them back.  Raises ValueError on
    what _checked_input(2, ...) refuses and on non-finite entries."""
    mats = _checked_input(2, *mats)
    peaks = [np.max(np.abs(m)) for m in mats]  # nan or inf at a non-finite entry
    if not np.isfinite(peaks).all():
        raise ValueError("non-finite entries")
    exps = [np.frexp(peak)[1] for peak in peaks]
    return (*(np.ldexp(m, -e) for m, e in zip(mats, exps)), *exps)


def _scaled_back(values, exp, what):
    """values * 2**exp, which is exact; raises ValueError where that leaves
    the double range (below it a value underflows to 0)."""
    with np.errstate(over="ignore"):  # checked just below
        values = np.ldexp(values, exp)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} beyond the double range")
    return values


@dataclass(frozen=True)
class SvdFactors:
    """Thin factors of Z = D @ diag(xi) @ X.T, with m = min(d, n).

    xi holds the m singular values in descending order, D is d x m and X
    is n x m.  The short side's factor is exactly orthogonal; the long
    side's has orthonormal columns, and zero columns where xi is at or
    below linalg._COLUMN_FREEZE * ||Z||.
    """

    D: np.ndarray
    xi: np.ndarray
    X: np.ndarray


def svd(z):
    """The engine's thin SVD of one matrix.

    _thin_svd of z as a batch of one, taken on z rescaled by a power of
    two, with xi scaled back.  Raises ValueError by the scale rule above,
    on singular values beyond the double range too.
    """
    z, exp = _unit_scaled(z)
    lanes = _lanes(z[None])
    xi, dmat, xmat = _thin_svd(lanes, _slab_sum(lanes, lanes))
    return SvdFactors(D=dmat[:, :, 0].T, xi=_scaled_back(xi[:, 0], exp, "singular values"),
                      X=xmat[:, :, 0].T)


MomentaResult = make_dataclass(
    "MomentaResult", [(name, float) for name in MOMENTA], frozen=True,
    namespace={"__module__": __name__, "__doc__":
               "Squared momenta J^2, K^2, Lambda^2, L^2 (all non-negative)."})


def _terms(self):
    """The 19 energy terms as an ordered name -> value dict."""
    return {name: getattr(self, name) for name in TERMS}


# The fields are TERMS, then momenta (None where they overflow) and the
# degenerate flag.
PartitionResult = make_dataclass(
    "PartitionResult", [(name, float) for name in TERMS]
    + [("momenta", MomentaResult | None), ("degenerate", bool)], frozen=True,
    namespace={"__module__": __name__, "terms": _terms, "__doc__":
               "All 19 energy terms of one system plus its squared momenta."})


def compute_partition(mass, z, zdot):
    """All 19 energy terms and 4 squared momenta of one system.

    Evaluated by partition_batch as a batch of one, on Z and Zdot rescaled
    by powers of two, so the result equals the matching row of a batch
    call bit for bit and the term ratios do not depend on the overall
    scale.  T_rot = T - T_I, and T_res, T_ac, E_c are exact complements of
    their partitions, so the five partition identities hold by
    construction.  The degenerate flag marks (numerically) repeated
    non-zero singular values, where the singular-expansion terms come from
    the regularized solve.  Raises ValueError by the scale rule above, on
    an energy beyond the double range too.  The momenta grow as
    ||Z||^2 ||Zdot||^2, so they can overflow where the terms do not;
    momenta is then None.
    """
    # Every term is quadratic in Zdot and of degree 0 in Z, and the momenta
    # scale as ||Z||^2 ||Zdot||^2, so products of two squared norms
    # (inner^2, Lambda^2, J^2, ...) of the rescaled inputs cannot underflow
    # or overflow whatever the scale of the input.
    z, zdot, z_exp, zdot_exp = _unit_scaled(z, zdot)
    res = partition_batch(mass, z[None], zdot[None])
    terms = _scaled_back([res[name][0] for name in TERMS], 2 * zdot_exp, "energy")
    try:
        momenta = MomentaResult(*_scaled_back(
            [res[name][0] for name in MOMENTA], 2 * (z_exp + zdot_exp), "momenta").tolist())
    except ValueError:
        momenta = None
    return PartitionResult(**dict(zip(TERMS, terms.tolist())), momenta=momenta,
                           degenerate=bool(res["degenerate"][0]))


@dataclass(frozen=True)
class OracleProjections:
    """Projection energies recomputed by explicit least squares."""

    T_ext: float
    T_int: float
    T_rot: float
    E_out: float
    E_in: float
    split_valid: bool


def _spans(z):
    """Spanning matrices of the two tangent spaces at z, one flattened
    generator per column: (E_pq - E_qp) @ Z for p < q (physical rotations)
    and Z @ (E_ab - E_ba) for a < b (kinematic rotations)."""
    d, n = z.shape
    p, q = np.triu_indices(d, k=1)
    rot = np.zeros((d, n, p.size))
    rot[p, :, np.arange(p.size)] = z[q]
    rot[q, :, np.arange(p.size)] = -z[p]
    a, b = np.triu_indices(n, k=1)
    kin = np.zeros((d, n, a.size))
    kin[:, b, np.arange(a.size)] = z[:, a]
    kin[:, a, np.arange(a.size)] = -z[:, b]
    return rot.reshape(d * n, -1), kin.reshape(d * n, -1)


def svd_rates(z, zdot):
    """Singular values xi of z and their rates xidot along zdot.

    The oracle route, which never runs the engine's Jacobi SVD: u_s, xi_s
    and v_s come from one LAPACK SVD of z, and xidot_s = u_s^T Zdot v_s,
    the first-order rate of a simple singular value (Stewart & Sun, Matrix
    Perturbation Theory, 1990).  xi_s is good to about eps * xi_1, so
    values at or below the engine's ZERO_TOL * xi_1 get xidot_s = 0 and all
    others keep their rate.  Raises ValueError by the scale rule above, on
    values or rates beyond the double range too.
    """
    z, zdot, z_exp, zdot_exp = _unit_scaled(z, zdot)
    u, xi, vt = np.linalg.svd(z, full_matrices=False)
    _check_nonzero(xi[0])
    xidot = np.where(xi > ZERO_TOL * xi[0], np.sum(u * (zdot @ vt.T), axis=0), 0.0)
    return (_scaled_back(xi, z_exp, "singular values"),
            _scaled_back(xidot, zdot_exp, "singular value rates"))


def _pair_square_sum(outer):
    """Sum of (outer[p, q] - outer[q, p])^2 over index pairs p < q."""
    p, q = np.triu_indices(outer.shape[0], k=1)
    minors = outer[p, q] - outer[q, p]
    return float(np.sum(minors * minors))


def momenta_direct(mass, z, zdot):
    """All four squared momenta from their defining component sums.

    J from the d(d-1)/2 antisymmetrized row sums, K from the n(n-1)/2
    column sums, Lambda from all dn(dn-1)/2 minors of the flattened pair,
    L from the minors of svd_rates' singular values and rates, all on the
    rescaled pair.  Quadratic cost; oracle use only.  Raises ValueError by
    the scale rule above, on momenta beyond the double range too.
    """
    _check_mass(mass)
    z, zdot, z_exp, zdot_exp = _unit_scaled(z, zdot)
    xi, xidot = svd_rates(z, zdot)
    # Row-major flattening orders the index pairs (i, alpha) of Lambda
    # exactly as the condition "i < j, or i = j and alpha < beta" requires.
    sums = [_pair_square_sum(outer) for outer in (
        np.einsum("ia,ja->ij", z, zdot), np.einsum("ia,ib->ab", z, zdot),
        np.outer(z.ravel(), zdot.ravel()), np.outer(xi, xidot))]
    return MomentaResult(*_scaled_back(
        [mass * mass * s for s in sums], 2 * (z_exp + zdot_exp), "momenta").tolist())


def momenta_fast(mass, z, zdot):
    """The engine's four squared momenta of one system, compute_partition's.

    Raises ValueError on what compute_partition refuses and on momenta
    beyond the double range.
    """
    momenta = compute_partition(mass, z, zdot).momenta
    if momenta is None:
        raise ValueError("momenta beyond the double range")
    return momenta


def _live_values_distinct(xi):
    """The engine's degenerate test, negated, on descending xi: each live
    value has a squared gap above GAP_TOL * xi_1^2 to the next one."""
    live = xi[:-1] > ZERO_TOL * xi[0]
    return bool(np.all((xi[:-1] ** 2 - xi[1:] ** 2)[live] > GAP_TOL * xi[0] ** 2))


def project_oracle(mass, z, zdot):
    """Brute-force T_ext, T_int, T_rot, E_out, E_in by explicit projection.

    Builds the spanning matrices of the two tangent spaces and projects
    Zdot onto the left singular vectors of each and of both together,
    keeping singular values above ZERO_TOL * xi_1.  When the live singular
    values of Z are pairwise distinct (the engine's GAP_TOL test) the joint
    tangent component splits uniquely into the two spans; the least-squares
    coefficients from the joint factorization then give E_out and E_in.
    When the condition fails the split is skipped and flagged.  Raises
    ValueError by the scale rule above, on an energy beyond the range too.
    """
    _check_mass(mass)
    z, zdot, _, zdot_exp = _unit_scaled(z, zdot)
    target = zdot.ravel()
    xi = np.linalg.svd(z, compute_uv=False)
    _check_nonzero(xi[0])
    rot, kin = _spans(z)

    def projected(a):
        """T of the projection onto span(a), and its coefficients in a."""
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        keep = s > ZERO_TOL * xi[0]
        y = u[:, keep].T @ target
        return 0.5 * mass * float(y @ y), vt[keep].T @ (y / s[keep])

    t_rot, coeff = projected(np.concatenate([rot, kin], axis=1))
    split_valid = _live_values_distinct(xi)
    e_out = e_in = 0.0
    if split_valid:
        out_vec = rot @ coeff[:rot.shape[1]]
        in_vec = kin @ coeff[rot.shape[1]:]
        e_out = 0.5 * mass * float(out_vec @ out_vec)
        e_in = 0.5 * mass * float(in_vec @ in_vec)
    energies = (projected(rot)[0], projected(kin)[0], t_rot, e_out, e_in)
    return OracleProjections(
        *_scaled_back(energies, 2 * zdot_exp, "energy").tolist(), split_valid=split_valid)


def eigenvector_split_oracle(mass, z, zdot):
    """E_outA, E_outB, E_inA, E_inB via eigenvector derivatives.

    Independent route: the unit eigenvectors u_i of Z Z^T and v_a of
    Z^T Z, taken as the full singular vectors of one LAPACK SVD of Z, are
    differentiated by first-order perturbation theory along
    Sdot = Zdot Z^T + Z Zdot^T, giving

      u_j . udot_i = u_j^T Sdot u_i / (lambda_i - lambda_j),

    and the four components are the xi^2-weighted sums of the squared
    overlaps inside (A) and outside (B) the block of live eigenvalues
    (xi above ZERO_TOL * xi_1).  Requires pairwise distinct live singular
    values, by the engine's GAP_TOL test, and raises ValueError where they
    are not and by the scale rule above, on energies out of range too.  On
    the rescaled Z, lambda = xi^2 cannot underflow or overflow.
    """
    _check_mass(mass)
    z, zdot, _, zdot_exp = _unit_scaled(z, zdot)
    u, xi, vt = np.linalg.svd(z)
    _check_nonzero(xi[0])
    if not _live_values_distinct(xi):
        raise ValueError("repeated live singular values: the split is not unique")
    k = int(np.count_nonzero(xi > ZERO_TOL * xi[0]))

    def one_side(vectors, sdot):
        lam_acc = np.zeros(len(vectors))
        lam_acc[:k] = xi[:k] ** 2
        overlap = vectors.T @ sdot @ vectors
        comp_a = comp_b = 0.0
        for i in range(k):
            for j in range(lam_acc.size):
                if j == i:
                    continue
                coupling = overlap[j, i] / (lam_acc[i] - lam_acc[j])
                if j < k:
                    if j > i:
                        comp_a += (lam_acc[i] + lam_acc[j]) * coupling * coupling
                else:
                    comp_b += lam_acc[i] * coupling * coupling
        return 0.5 * mass * comp_a, 0.5 * mass * comp_b

    energies = (*one_side(u, zdot @ z.T + z @ zdot.T),
                *one_side(vt.T, zdot.T @ z + z.T @ zdot))
    return tuple(_scaled_back(energies, 2 * zdot_exp, "energy").tolist())
