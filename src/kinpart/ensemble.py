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

A block is sampled in two phases.  draw_systems takes all of its variates
whole, in a fixed order: position sphere variates then kappa, velocity
sphere variates then kappa, then masses, each with its redraw loop.
SystemDraws.rows then turns runs of rows, in index order, into systems;
the rare zero-norm system is redrawn there, so redraws follow all of the
block's draws in index order.  No row's arithmetic involves another row,
so a block gives the same bits taken whole or in chunks.
sample_system_block takes a block as one chunk; a single system is a block
of one.

rows() builds each chunk's systems as (N, d, rows) lane arrays, with the
system index last; linalg._lane_sum sets the order of its sums, on which
the bytes of every simulate CSV depend.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _lane_sum

TOTAL_MASS = 2.0

EQUAL_MASSES = "equal"
RANDOM_MASSES = "random"
MASS_MODES = (EQUAL_MASSES, RANDOM_MASSES)
MODE_CODES = {EQUAL_MASSES: 0, RANDOM_MASSES: 1}

# Below this, 1/sqrt(mass) and 1/norm overflow; the events have probability
# zero and trigger a redraw.
_UNDERFLOW = 1e-300
# Entries per slice of the Gaussian draws whose squares are summed at once.
_NORM_ENTRIES = 2**17


def substream(seed, *key):
    """Deterministic child generator for a master seed and an index key.

    Identical (seed, key) reproduce the identical draw sequence; distinct
    keys give independent streams (PCG64 seeded through SeedSequence).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _draw_sphere(rng, d, out):
    """Fill out with the variates of points uniform on the unit sphere in R^d.

    d == 2 draws phi uniform on [0, 2 pi), the angle of (cos phi, sin phi),
    into a (count,) out; other dimensions fill a (count, d) out with the
    points themselves, normalized standard Gaussian vectors.  Filling rng's
    draws into out gives the bits rng.uniform(0, 2 pi) and
    rng.standard_normal return.
    """
    if d == 2:
        rng.random(out=out)
        out *= 2.0 * np.pi
        return out
    chi = rng.standard_normal(out=out)
    norms = _row_norms(chi)
    while True:
        bad = norms < _UNDERFLOW
        if not bool(np.any(bad)):
            break
        chi[bad] = rng.standard_normal((int(np.sum(bad)), d))
        norms = _row_norms(chi)
    chi /= norms[:, None]
    return chi


def _row_norms(chi):
    """Euclidean norms of the rows of a (count, d) array, squared in slices
    of about _NORM_ENTRIES entries so no block-sized temporary is formed;
    each row's sum is the same as over the whole array."""
    norms = np.empty(len(chi))
    step = max(1, _NORM_ENTRIES // chi.shape[1])
    for lo in range(0, len(chi), step):
        part = chi[lo:lo + step]
        norms[lo:lo + step] = np.sum(part * part, axis=1)
    return np.sqrt(norms, out=norms)


def _sphere_points(variates, d):
    """Sphere points from (a slice of) _draw_sphere's variates; at d != 2
    these are the variates themselves, not a copy."""
    if d != 2:
        return variates
    out = np.empty((variates.size, 2))
    np.cos(variates, out=out[:, 0])
    np.sin(variates, out=out[:, 1])
    return out


def _ball_points(sphere, kappa, d, N):
    """Ball points, radius kappa^(1/d) times a sphere point, from (slices
    of) the sphere variates and kappa, as an (N, d, count) lane array of
    count = kappa.size // N systems of N points each.  At d != 2 the
    array is the sphere slice's own memory."""
    s = _sphere_points(sphere, d)
    if d == 1:
        radius = kappa
    elif d == 2:
        radius = np.sqrt(kappa)
    else:
        radius = kappa ** (1.0 / d)
    count = kappa.size // N
    # At d != 2 the points take the place of their own variates; a ufunc
    # reads overlapping input as if it were a copy.
    out = np.empty((N, d, count)) if d == 2 else sphere.reshape(N, d, count)
    np.multiply(s.reshape(count, N, d).transpose(1, 2, 0),
                radius.reshape(count, N).T[:, None], out=out)
    return out


def _sphere_shape(count, d):
    return (count,) if d == 2 else (count, d)


def _draw_ball(rng, count, d, buf):
    """Fill buf, of count * (d + 1) doubles (2 * count at d == 2), with the
    variates of count points uniform in the unit ball, in draw order:
    sphere, then kappa uniform on [0, 1].  Returns (sphere, kappa) views."""
    sphere = buf[:buf.size - count].reshape(_sphere_shape(count, d))
    kappa = buf[buf.size - count:]
    _draw_sphere(rng, d, sphere)
    rng.random(out=kappa)
    return sphere, kappa


def _ball_size(count, d):
    return count * (2 if d == 2 else d + 1)


@dataclass(frozen=True)
class SystemDraws:
    """Every variate of a block, from draw_systems: (sphere, kappa) views
    for the count * N position and velocity points, and the (count, N) mass
    variates (None in equal mode).  rows() overwrites the rows it reads and
    redraws from rng, so each row is taken once, in index order.
    """

    d: int
    N: int
    mode: str
    rng: "np.random.Generator"  # quoted: importing kinpart leaves numpy.random unloaded
    position: tuple
    velocity: tuple
    eta: np.ndarray | None

    def rows(self, lo, hi):
        """Systems lo..hi-1 as Z (k, d, N), Zdot and masses (k, N), k = hi - lo.

        Z and Zdot are views of (N, d, k) lane arrays.  masses is None in
        equal mode, where every mass is TOTAL_MASS / N.
        """
        d, N, count = self.d, self.N, hi - lo
        points = slice(lo * N, hi * N)
        w = _ball_points(self.position[0][points], self.position[1][points], d, N)
        wdot = _ball_points(self.velocity[0][points], self.velocity[1][points], d, N)
        masses = None
        if self.eta is not None:
            eta = self.eta[lo:hi]
            masses = TOTAL_MASS * eta / np.sum(eta, axis=1)[:, None]

        # The order the CSV bytes rest on: particles in turn, pairwise at d == 1.
        w -= _lane_sum(w, pairwise=d == 1) / N
        wdot -= _lane_sum(wdot, pairwise=d == 1) / N
        if masses is not None:
            scale = (1.0 / np.sqrt(masses)).T[:, None]
            w *= scale
            wdot *= scale

        gnorm = np.sqrt(_lane_sum((w * w).reshape(N * d, count)))
        gdnorm = np.sqrt(_lane_sum((wdot * wdot).reshape(N * d, count)))
        bad = (gnorm < _UNDERFLOW) | (gdnorm < _UNDERFLOW)
        if bool(np.any(bad)):
            # All points coincident: probability zero, redraw those systems.
            for idx in np.flatnonzero(bad):
                zi, zdi, mi = sample_system_block(d, N, self.mode, self.rng, 1)
                w[:, :, idx] = zi[0].T
                wdot[:, :, idx] = zdi[0].T
                if masses is not None:
                    masses[idx] = mi[0]
                gnorm[idx] = 1.0
                gdnorm[idx] = 1.0

        w /= gnorm
        wdot /= gdnorm
        return w.transpose(2, 1, 0), wdot.transpose(2, 1, 0), masses


def draw_systems(d, N, mode, rng, count):
    """Every variate of count systems, drawn whole: N position ball points
    per system, then N velocity ball points, then (random mode) N mass
    variates, each kind for all systems at once."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    if mode not in MASS_MODES:
        raise ValueError(f"unknown mass mode {mode!r}")
    # One buffer holds all of the block's variates.  As one large
    # allocation it is reused from block to block; as five arrays, malloc
    # gave their pages back after each block and faulted them in again.
    ball = _ball_size(count * N, d)
    buf = np.empty(2 * ball + (count * N if mode == RANDOM_MASSES else 0))
    position = _draw_ball(rng, count * N, d, buf[:ball])
    velocity = _draw_ball(rng, count * N, d, buf[ball:2 * ball])
    eta = None
    if mode == RANDOM_MASSES:
        eta = rng.random(out=buf[2 * ball:].reshape(count, N))
        while True:
            bad = eta < _UNDERFLOW
            if not bool(np.any(bad)):
                break
            eta[bad] = rng.uniform(size=int(np.sum(bad)))
    return SystemDraws(d, N, mode, rng, position, velocity, eta)


def sample_system_block(d, N, mode, rng, count):
    """count systems as stacked arrays Z (count, d, N), Zdot, masses (count, N).

    The block is one chunk: draw_systems(...).rows(0, count).
    """
    z, zdot, masses = draw_systems(d, N, mode, rng, count).rows(0, count)
    if masses is None:
        masses = np.full((count, N), TOTAL_MASS / N)
    return z, zdot, masses
