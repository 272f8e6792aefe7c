"""Random N-particle systems with the center-of-mass at the origin.

Positions and velocities start as independent points uniform in the unit
ball of R^d; the centroid is subtracted, masses are assigned (all equal, or
proportional to independent uniform variates), and both matrices are
rescaled so the total mass is 2 and the position and velocity matrices have
unit Frobenius norm.  That normalization makes the hyperradius and the
total kinetic energy both equal to 1 for every sampled system.

Randomness comes from numpy's PCG64 generator.  substream() derives child
generators from a (seed, index...) key, so any sampling plan that fixes its
keys is reproducible bit for bit regardless of how the work is scheduled.

The bytes of every simulate CSV also depend on the order in which the
sampler's sums are taken.  Elementwise operations give the same bits in any
memory layout, but numpy sums a contiguous innermost axis pairwise and any
other axis one term at a time.  sample_system_block works on (count, N, d)
stacks: the centroid sums over the particle axis N, which is sequential
for d > 1 and pairwise for d == 1 (linalg._middle_sum keeps both), and the
squared norms sum over the contiguous (N, d) slab pairwise.  Centring and
scaling run in place, and Z and Zdot are returned as (count, d, N)
transposed views of those stacks, because the partition engine's full-slab
sums run in memory order too.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _complete_orthonormal, _middle_sum

TOTAL_MASS = 2.0

EQUAL_MASSES = "equal"
RANDOM_MASSES = "random"
MASS_MODES = (EQUAL_MASSES, RANDOM_MASSES)
MODE_CODES = {EQUAL_MASSES: 0, RANDOM_MASSES: 1}

# Below this, 1/sqrt(mass) and 1/norm overflow; the events have probability
# zero and trigger a redraw.
_UNDERFLOW = 1e-300


@dataclass(frozen=True)
class ParticleSystem:
    """One sampled system: masses plus the (d, N) matrices Z and Zdot."""

    d: int
    N: int
    masses: np.ndarray
    Z: np.ndarray
    Zdot: np.ndarray


def substream(seed, *key):
    """Deterministic child generator for a master seed and an index key.

    Identical (seed, key) reproduce the identical draw sequence; distinct
    keys give independent streams (PCG64 seeded through SeedSequence).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _sphere_block(rng, count, d):
    """count points uniform on the unit sphere in R^d.

    d == 2 uses (cos phi, sin phi) with phi uniform on [0, 2 pi); other
    dimensions normalize a standard Gaussian vector.
    """
    if d == 2:
        phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
        out = np.empty((count, 2))
        np.cos(phi, out=out[:, 0])
        np.sin(phi, out=out[:, 1])
        return out
    chi = rng.standard_normal((count, d))
    norms = np.sqrt(np.sum(chi * chi, axis=1))
    while True:
        bad = norms < _UNDERFLOW
        if not bool(np.any(bad)):
            break
        chi[bad] = rng.standard_normal((int(np.sum(bad)), d))
        norms = np.sqrt(np.sum(chi * chi, axis=1))
    return chi / norms[:, None]


def _ball_block(rng, count, d):
    """count points uniform in the unit ball: radius kappa^(1/d) times a
    sphere point, kappa uniform on [0, 1].  Draw order: sphere, then kappa."""
    s = _sphere_block(rng, count, d)
    kappa = rng.uniform(size=count)
    if d == 1:
        radius = kappa
    elif d == 2:
        radius = np.sqrt(kappa)
    else:
        radius = kappa ** (1.0 / d)
    # One pass per coordinate: a (count, d) broadcast runs numpy's inner
    # loop over only d elements at a time.
    for j in range(d):
        s[:, j] *= radius
    return s


def sample_sphere(d, rng):
    """One point uniform on the unit sphere in R^d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return _sphere_block(rng, 1, d)[0]


def sample_ball(d, rng):
    """One point uniform in the closed unit ball in R^d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return _ball_block(rng, 1, d)[0]


def sample_system_block(d, N, mode, rng, count):
    """count systems as stacked arrays Z (count, d, N), Zdot, masses (count, N).

    Per system the draws are consumed in a fixed order: N position ball
    points, N velocity ball points, then (random mode) N mass variates;
    within a block each kind is drawn for all systems at once.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    if mode not in MASS_MODES:
        raise ValueError(f"unknown mass mode {mode!r}")
    w = _ball_block(rng, count * N, d).reshape(count, N, d)
    wdot = _ball_block(rng, count * N, d).reshape(count, N, d)
    if mode == RANDOM_MASSES:
        eta = rng.uniform(size=(count, N))
        while True:
            bad = eta < _UNDERFLOW
            if not bool(np.any(bad)):
                break
            eta[bad] = rng.uniform(size=int(np.sum(bad)))
        masses = TOTAL_MASS * eta / np.sum(eta, axis=1)[:, None]
    else:
        masses = np.full((count, N), TOTAL_MASS / N)

    w -= _middle_sum(w) / N
    wdot -= _middle_sum(wdot) / N
    if mode == RANDOM_MASSES:
        scale = 1.0 / np.sqrt(masses)
        w *= scale[:, :, None]
        wdot *= scale[:, :, None]

    gnorm = np.sqrt(np.sum(w * w, axis=(1, 2)))
    gdnorm = np.sqrt(np.sum(wdot * wdot, axis=(1, 2)))
    bad = (gnorm < _UNDERFLOW) | (gdnorm < _UNDERFLOW)
    if bool(np.any(bad)):
        # All points coincident: probability zero, redraw those systems.
        for idx in np.flatnonzero(bad):
            zi, zdi, mi = sample_system_block(d, N, mode, rng, 1)
            w[idx] = np.transpose(zi[0])
            wdot[idx] = np.transpose(zdi[0])
            masses[idx] = mi[0]
            gnorm[idx] = 1.0
            gdnorm[idx] = 1.0

    w /= gnorm[:, None, None]
    wdot /= gdnorm[:, None, None]
    return np.transpose(w, (0, 2, 1)), np.transpose(wdot, (0, 2, 1)), masses


def sample_system(d, N, mode, rng):
    """One random system; see sample_system_block for the draw order."""
    z, zdot, masses = sample_system_block(d, N, mode, rng, 1)
    return ParticleSystem(d=d, N=N, masses=masses[0], Z=z[0], Zdot=zdot[0])


def kinematic_reduction_frame(masses):
    """Orthogonal N x N matrix Q whose last row is (m_a / M)^(1/2).

    For a system with the center-of-mass at the origin, Z @ Q.T has a zero
    last column; dropping it leaves the reduced d x (N-1) description of
    the same system.
    """
    masses = np.asarray(masses, dtype=float)
    v = np.sqrt(masses / np.sum(masses))
    full = _complete_orthonormal(v[:, None])
    return np.vstack([full[:, 1:].T, v])
