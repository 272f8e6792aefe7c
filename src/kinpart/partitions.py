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

compute_partition evaluates one system as a batch of one of the engine in
kinpart._batch, so a single system and a sampled block share every line
of the arithmetic.  svd is the engine's thin SVD of one matrix completed
to full orthogonal factors.  The oracles exist to keep the engine honest:
project_oracle recomputes the projections by explicit least squares over
spanning sets of the tangent spaces, eigenvector_split_oracle the
E_out/E_in refinements by eigenvector perturbation theory, and svd_rates
the singular values and their rates, which momenta_direct needs for L.
They take the singular values and vectors from the LAPACK
eigen-decomposition of the Gram matrices (linalg.sym_eigen), never from
the Jacobi SVD they check.
"""

from dataclasses import dataclass

import numpy as np

from ._batch import (
    GAP_TOL, MOMENTA, TERMS, ZERO_TOL, _lanes, _slab_sum, _thin_svd,
    partition_batch,
)
from .linalg import _complete_orthonormal, sym_eigen
from .momenta import MomentaResult
# Not called here: perfbench/spans.py wraps kinpart.partitions.momenta_fast.
from .momenta import momenta_fast  # noqa: F401


@dataclass(frozen=True)
class SvdFactors:
    """Full factors of Z = D @ Upsilon @ X.T.

    D is d x d orthogonal, X is n x n orthogonal, and xi holds the
    min(d, n) singular values in descending order, the main diagonal of
    the d x n matrix Upsilon.
    """

    D: np.ndarray
    xi: np.ndarray
    X: np.ndarray


def svd(z):
    """Singular value decomposition with explicit full orthogonal factors.

    The engine's thin SVD of z as a batch of one, its long-side factor
    completed to an orthogonal matrix, then each column of D turned so its
    largest-magnitude entry is positive; a turned column sigma < min(d, n)
    turns column sigma of X too, and X's other columns follow the same
    convention on their own.  Raises ValueError on input that is not a
    non-empty, finite 2-d matrix.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("matrix has non-finite entries")
    lanes = _lanes(z[None])
    xi, dmat, xmat = _thin_svd(lanes, _slab_sum(lanes, lanes))
    xi, dmat, xmat = xi[:, 0], dmat[:, :, 0].T, xmat[:, :, 0].T
    if dmat.shape[1] < dmat.shape[0]:
        dmat = _complete_orthonormal(dmat)
    else:
        xmat = _complete_orthonormal(xmat)

    def negative(col):
        return col[int(np.argmax(np.abs(col)))] < 0.0

    for j in range(dmat.shape[1]):
        if negative(dmat[:, j]):
            dmat[:, j] = -dmat[:, j]
            if j < xi.size:
                xmat[:, j] = -xmat[:, j]
    for j in range(xi.size, xmat.shape[1]):
        if negative(xmat[:, j]):
            xmat[:, j] = -xmat[:, j]
    return SvdFactors(D=dmat, xi=xi, X=xmat)


@dataclass(frozen=True)
class PartitionResult:
    """All 19 energy terms of one system plus its squared momenta."""

    T: float
    T_lambda: float
    T_rho: float
    T_rot: float
    T_I: float
    T_xi: float
    T_ext: float
    T_int: float
    T_res: float
    T_J: float
    T_K: float
    T_ac: float
    E_out: float
    E_outA: float
    E_outB: float
    E_in: float
    E_inA: float
    E_inB: float
    E_c: float
    momenta: MomentaResult | None
    degenerate: bool

    def terms(self):
        """The 19 energy terms as an ordered name -> value dict."""
        return {name: getattr(self, name) for name in TERMS}


def _unit_scaled(z, zdot):
    """z and zdot rescaled by powers of two, which is exact, to entries in
    [1/2, 1), with the two exponents that scale them back.  Raises
    ValueError on mismatched shapes or non-finite entries."""
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    if z.ndim != 2 or z.shape != zdot.shape:
        raise ValueError(f"shape mismatch: Z {z.shape} vs Zdot {zdot.shape}")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zdot))):
        raise ValueError("non-finite entries")
    _, z_exp = np.frexp(np.max(np.abs(z)))
    _, zdot_exp = np.frexp(np.max(np.abs(zdot)))
    return np.ldexp(z, -z_exp), np.ldexp(zdot, -zdot_exp), z_exp, zdot_exp


def compute_partition(mass, z, zdot):
    """All 19 energy terms and 4 squared momenta of one system.

    Evaluated by partition_batch as a batch of one, on Z and Zdot rescaled
    by powers of two, so the result equals the matching row of a batch
    call bit for bit and the term ratios do not depend on the overall
    scale.  T_rot = T - T_I, and T_res, T_ac, E_c are exact complements of
    their partitions, so the five partition identities hold by
    construction.  The degenerate flag marks (numerically) repeated
    non-zero singular values, where the singular-expansion terms come from
    the regularized solve.  Raises ValueError on non-finite input, a zero
    hyperradius, or an energy term beyond the double range (results below
    it come out 0).  The momenta grow as ||Z||^2 ||Zdot||^2, so they can
    overflow where the terms do not; momenta is then None.
    """
    # Every term is quadratic in Zdot and of degree 0 in Z, and the momenta
    # scale as ||Z||^2 ||Zdot||^2, so products of two squared norms
    # (inner^2, Lambda^2, J^2, ...) of the rescaled inputs cannot underflow
    # or overflow whatever the scale of the input.
    z, zdot, z_exp, zdot_exp = _unit_scaled(z, zdot)
    res = partition_batch(mass, z[None], zdot[None])
    with np.errstate(over="ignore"):  # checked just below
        terms = {name: float(np.ldexp(res[name][0], 2 * zdot_exp))
                 for name in TERMS}
        momenta = {name: float(np.ldexp(res[name][0], 2 * (z_exp + zdot_exp)))
                   for name in MOMENTA}
    if not np.all(np.isfinite(list(terms.values()))):
        raise ValueError("energy beyond the double range")
    return PartitionResult(
        **terms, degenerate=bool(res["degenerate"][0]),
        momenta=(MomentaResult(**momenta)
                 if np.all(np.isfinite(list(momenta.values()))) else None))


@dataclass(frozen=True)
class OracleProjections:
    """Projection energies recomputed by explicit least squares."""

    T_ext: float
    T_int: float
    T_rot: float
    E_out: float
    E_in: float
    split_valid: bool


def _rotation_span(z):
    """Spanning matrices (E_pq - E_qp) @ Z of the physical tangent space."""
    d, n = z.shape
    basis = []
    for p in range(d - 1):
        for q in range(p + 1, d):
            mat = np.zeros((d, n))
            mat[p] = z[q]
            mat[q] = -z[p]
            basis.append(mat.ravel())
    return basis


def _kinematic_span(z):
    """Spanning matrices Z @ (E_ab - E_ba) of the kinematic tangent space."""
    d, n = z.shape
    basis = []
    for a in range(n - 1):
        for b in range(a + 1, n):
            mat = np.zeros((d, n))
            mat[:, b] = z[:, a]
            mat[:, a] = -z[:, b]
            basis.append(mat.ravel())
    return basis


# Relative rank cut of the oracles, on Gram eigenvalues (squared singular
# values).  A cut on their square roots would count eigenvalue roundoff,
# about sqrt(eps) * xi_1, as positive.
_RANK_CUT = 1e-10


def _gram_eigen(gram):
    """sym_eigen of a Gram matrix, with the eigenvalues at or below
    _RANK_CUT * lambda_1 set to 0."""
    lam, vectors = sym_eigen(gram)
    return np.where(lam > _RANK_CUT * lam[0], lam, 0.0), vectors


def svd_rates(z, zdot):
    """Singular values xi of z and their rates xidot along zdot.

    The oracle route, which never runs the engine's Jacobi SVD: u_s are the
    eigenvectors of the smaller Gram matrix (linalg.sym_eigen), xi_s =
    ||Z^T u_s||, v_s is Z^T u_s / xi_s, and xidot_s = u_s^T Zdot v_s, the
    first-order rate of a simple singular value (Stewart & Sun, Matrix
    Perturbation Theory, 1990).  The roundoff of u_s puts a part
    eps * xi_1 / xi_s of v_1 into Z^T u_s / xi_s; a QR factorization takes
    out the parts along the v_t of larger xi_t.  xi_s is good to about
    eps * xi_1, so values at or below the engine's ZERO_TOL * xi_1 get
    xidot_s = 0 and all others keep their rate.  Inputs are rescaled by
    powers of two, so any scale in the double range works.  Raises
    ValueError on mismatched shapes, non-finite entries or a zero z.
    """
    z, zdot, z_exp, zdot_exp = _unit_scaled(z, zdot)
    if not np.any(z):
        raise ValueError("Z is identically zero")
    if z.shape[0] > z.shape[1]:  # xi and xidot are those of the transposes
        z, zdot = z.T, zdot.T
    _, u = sym_eigen(z @ z.T)  # columns by descending eigenvalue
    zu = z.T @ u  # column s is xi_s v_s
    xi = np.sqrt(np.sum(zu * zu, axis=0))
    v, r = np.linalg.qr(zu)
    v *= np.sign(np.diagonal(r))
    xidot = np.where(xi > ZERO_TOL * np.max(xi), np.sum(u * (zdot @ v), axis=0), 0.0)
    return np.ldexp(xi, z_exp), np.ldexp(xidot, zdot_exp)


def _project(basis, target):
    """Squared norm of the projection of target onto span(basis).

    Normal equations with a rank-revealing pseudo-inverse; the rank cut is
    _RANK_CUT relative to the largest Gram eigenvalue.  Also returns the
    projected vector itself.
    """
    if not basis:
        return 0.0, np.zeros_like(target), np.zeros(0)
    a = np.stack(basis, axis=1)
    gram = a.T @ a
    coeff = np.linalg.pinv(gram, rcond=_RANK_CUT) @ (a.T @ target)
    proj = a @ coeff
    return float(np.sum(proj * proj)), proj, coeff


def project_oracle(mass, z, zdot):
    """Brute-force T_ext, T_int, T_rot, E_out, E_in by explicit projection.

    Builds the spanning sets of the two tangent spaces and projects Zdot on
    each and on their joint span.  When all positive singular values of Z
    are pairwise distinct the joint tangent component splits uniquely into
    the two spans; the split coefficients then give E_out and E_in.  When
    the condition fails the split is skipped and flagged.
    """
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    target = zdot.ravel()
    basis_r = _rotation_span(z)
    basis_q = _kinematic_span(z)

    ext2, _, _ = _project(basis_r, target)
    int2, _, _ = _project(basis_q, target)
    rot2, _, coeff = _project(basis_r + basis_q, target)

    lam, _ = _gram_eigen(z @ z.T if z.shape[0] <= z.shape[1] else z.T @ z)
    positive = lam[lam > 0.0]
    split_valid = bool(np.all(np.abs(np.diff(positive)) > GAP_TOL * lam[0]))
    e_out2 = e_in2 = 0.0
    if split_valid:
        nr = len(basis_r)
        if nr:
            out_vec = np.stack(basis_r, axis=1) @ coeff[:nr]
            e_out2 = float(np.sum(out_vec * out_vec))
        if basis_q:
            in_vec = np.stack(basis_q, axis=1) @ coeff[nr:]
            e_in2 = float(np.sum(in_vec * in_vec))
    return OracleProjections(
        T_ext=0.5 * mass * ext2,
        T_int=0.5 * mass * int2,
        T_rot=0.5 * mass * rot2,
        E_out=0.5 * mass * e_out2,
        E_in=0.5 * mass * e_in2,
        split_valid=split_valid,
    )


def eigenvector_split_oracle(mass, z, zdot):
    """E_outA, E_outB, E_inA, E_inB via eigenvector derivatives.

    Independent route: the unit eigenvectors u_i of Z Z^T (and v_a of
    Z^T Z) are differentiated by first-order perturbation theory along
    Sdot = Zdot Z^T + Z Zdot^T, giving

      u_j . udot_i = u_j^T Sdot u_i / (lambda_i - lambda_j),

    and the four components are the xi^2-weighted sums of the squared
    overlaps inside (A) and outside (B) the positive-eigenvalue block.
    Requires pairwise distinct positive singular values.
    """
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)

    def one_side(s_mat, sdot):
        lam_acc, vectors = _gram_eigen(s_mat)
        k = int(np.sum(lam_acc > 0.0))
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

    sdot_left = zdot @ z.T + z @ zdot.T
    e_out_a, e_out_b = one_side(z @ z.T, sdot_left)
    sdot_right = zdot.T @ z + z.T @ zdot
    e_in_a, e_in_b = one_side(z.T @ z, sdot_right)
    return e_out_a, e_out_b, e_in_a, e_in_b
