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
to full orthogonal factors, and svd_rates gives those factors and their
rates along Zdot for callers that need the factors themselves.
project_oracle recomputes the projections by explicit least squares over
spanning sets of the tangent spaces, and eigenvector_split_oracle the
E_out/E_in refinements by eigenvector perturbation theory; both exist to
keep the engine honest.  They take the squared singular values from the
LAPACK eigenvalues of the Gram matrices (linalg.sym_eigen), never from the
Jacobi SVD they check.
"""

from dataclasses import dataclass

import numpy as np

from ._batch import (
    GAP_TOL, MOMENTA, TERMS, ZERO_TOL, _lanes, _slab_sum, _thin_svd, partition_batch,
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


@dataclass
class SvdFrame:
    """SVD factors of Z together with their rates along Zdot.

    W = D.T @ Zdot @ X is the rate matrix in the SVD frame; xidot is its
    diagonal; A = D.T @ Ddot and B = X.T @ Xdot are the (exactly skew)
    factor rates recovered from W; k counts singular values above the zero
    threshold.  degenerate marks that at least one pair of non-zero
    singular values was too close to solve, in which case the affected A, B
    entries are left zero.
    """

    factors: SvdFactors
    xidot: np.ndarray
    A: np.ndarray
    B: np.ndarray
    k: int
    W: np.ndarray
    degenerate: bool


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


def svd_rates(z, zdot):
    """Factor rates of the SVD of z along the direction zdot.

    Writes W = D.T @ zdot @ X and recovers, entry by entry,

      xidot_s = W[s, s]
      A[s, t], B[s, t] for s < t <= m from the 2x2 system
          W[s, t] =  A[s, t] xi_t - xi_s B[s, t]
          W[t, s] = -A[s, t] xi_s + xi_t B[s, t]
      A[i, s] = W[i, s] / xi_s for rows i > m (d > n)
      B[s, a] = -W[s, a] / xi_s for columns a > m (n > d)

    so that W = A @ Upsilon + Upsilon_dot - Upsilon @ B on every entry the
    solve determines.  Pairs of non-zero singular values whose squared gap
    is below the tolerance are skipped (flagged degenerate, entries zero);
    tail entries with xi_s at zero are likewise left zero.
    """
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    if z.shape != zdot.shape:
        raise ValueError(f"shape mismatch: Z {z.shape} vs Zdot {zdot.shape}")
    factors = svd(z)
    xi = factors.xi
    if xi[0] == 0.0:
        raise ValueError("Z is identically zero")
    d, n = z.shape
    m = min(d, n)
    w = np.einsum("id,in,na->da", factors.D, zdot, factors.X)
    xidot = np.diagonal(w)[:m].copy()

    gap_abs = GAP_TOL * xi[0] * xi[0]
    zero_abs = ZERO_TOL * xi[0]
    k = int(np.sum(xi > zero_abs))

    a_raw = np.zeros((d, d))
    b_raw = np.zeros((n, n))
    degenerate = False
    for s in range(m - 1):
        for t in range(s + 1, m):
            det = xi[t] * xi[t] - xi[s] * xi[s]
            if abs(det) > gap_abs:
                a_raw[s, t] = (xi[t] * w[s, t] + xi[s] * w[t, s]) / det
                b_raw[s, t] = (xi[s] * w[s, t] + xi[t] * w[t, s]) / det
            elif xi[s] > zero_abs or xi[t] > zero_abs:
                degenerate = True
    for s in range(min(m, k)):
        if d > m:
            a_raw[m:, s] = w[m:, s] / xi[s]
        if n > m:
            b_raw[s, m:] = -w[s, m:] / xi[s]
    a_skew = a_raw - a_raw.T
    b_skew = b_raw - b_raw.T
    return SvdFrame(
        factors=factors, xidot=xidot, A=a_skew, B=b_skew,
        k=k, W=w, degenerate=degenerate,
    )


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
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    if z.ndim != 2 or z.shape != zdot.shape:
        raise ValueError(f"shape mismatch: Z {z.shape} vs Zdot {zdot.shape}")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zdot))):
        raise ValueError("non-finite entries")
    # Every term is quadratic in Zdot and of degree 0 in Z, and the momenta
    # scale as ||Z||^2 ||Zdot||^2.  Both inputs are rescaled by powers of
    # two, which is exact, to entries in [1/2, 1) and the results scaled
    # back, so products of two squared norms (inner^2, Lambda^2, J^2, ...)
    # cannot underflow or overflow whatever the scale of the input.
    _, z_exp = np.frexp(np.max(np.abs(z)))
    _, zdot_exp = np.frexp(np.max(np.abs(zdot)))
    res = partition_batch(mass, np.ldexp(z, -z_exp)[None],
                          np.ldexp(zdot, -zdot_exp)[None])
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
