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

draw_systems samples a block.  It first takes all of the block's variates
whole, in a fixed order: position sphere variates then kappa, velocity
sphere variates then kappa, then masses, each with its redraw loop.  It
then yields the block's systems in chunks, in index order; the rare
zero-norm system is redrawn as its chunk is built, so redraws follow all
of the block's draws in index order.  No row's arithmetic involves another
row, so a block gives the same bits taken whole or in chunks.
sample_system_block takes a block as one chunk; a single system is a block
of one.

Each chunk's systems are built as (N, d, rows) lane arrays, with the
system index last; linalg._lane_sum sets the order of its sums, on which
the bytes of every simulate CSV depend.
"""

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
# Entries per temporary, 1 MB: the bound on a slice of Gaussian draws squared
# at once and on harness's chunks.  It sets memory, not sampled values.
CHUNK_ENTRIES = 2**17


def substream(seed, *key):
    """Deterministic child generator for a master seed and an index key.

    Identical (seed, key) reproduce the identical draw sequence; distinct
    keys give independent streams (PCG64 seeded through SeedSequence).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _row_norms(chi):
    """Euclidean norms of the rows of a (count, d) array, squared in slices
    of about CHUNK_ENTRIES entries so no block-sized temporary is formed;
    each row's sum is the same as over the whole array."""
    norms = np.empty(len(chi))
    step = max(1, CHUNK_ENTRIES // chi.shape[1])
    for lo in range(0, len(chi), step):
        part = chi[lo:lo + step]
        norms[lo:lo + step] = np.sum(part * part, axis=1)
    return np.sqrt(norms, out=norms)


def _draw_ball(rng, count, d, buf):
    """Fill buf with the variates of count points uniform in the unit ball,
    in draw order: sphere variates, then kappa uniform on [0, 1].  Returns
    (sphere, kappa) views, sphere of shape (count, d), or (count, 1) at
    d == 2, where it holds the angle phi uniform on [0, 2 pi); so buf holds
    count * (d + 1) doubles, 2 * count at d == 2.

    At d != 2 the sphere rows are the points themselves, normalized
    standard Gaussian vectors.  Filling rng's draws into the views gives
    the bits rng.uniform(0, 2 pi) and rng.standard_normal return.
    """
    sphere = buf[:buf.size - count].reshape(count, -1)
    kappa = buf[buf.size - count:]
    if d == 2:
        rng.random(out=sphere)
        sphere *= 2.0 * np.pi
    else:
        rng.standard_normal(out=sphere)
        norms = _row_norms(sphere)
        while True:
            bad = norms < _UNDERFLOW
            if not bool(np.any(bad)):
                break
            sphere[bad] = rng.standard_normal((int(np.sum(bad)), d))
            norms = _row_norms(sphere)
        sphere /= norms[:, None]
    rng.random(out=kappa)
    return sphere, kappa


def _ball_points(sphere, kappa, d, N):
    """Ball points, radius kappa^(1/d) times a sphere point, from (slices
    of) _draw_ball's views, as an (N, d, count) lane array of
    count = kappa.size // N systems of N points each.  At d != 2 the array
    is the sphere slice's own memory."""
    if d == 2:
        angle = sphere[:, 0]
        sphere = np.empty((angle.size, 2))
        np.cos(angle, out=sphere[:, 0])
        np.sin(angle, out=sphere[:, 1])
    count = kappa.size // N
    # The points take the place of their sphere points; a ufunc reads
    # overlapping input as if it were a copy.
    out = sphere.reshape(N, d, count)
    np.multiply(sphere.reshape(count, N, d).transpose(1, 2, 0),
                (kappa ** (1.0 / d)).reshape(count, N).T[:, None], out=out)
    return out


def draw_systems(d, N, mode, rng, count, step):
    """Yield count systems in index order, in chunks of at most step, as
    Z (k, d, N), Zdot and masses (k, N).

    Z and Zdot are views of (N, d, k) lane arrays.  masses is None in
    equal mode, where every mass is TOTAL_MASS / N.  Every variate of the
    block is drawn before the first chunk: N position ball points per
    system, then N velocity ball points, then (random mode) N mass
    variates, each kind for all systems at once.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    if mode not in MASS_MODES:
        raise ValueError(f"unknown mass mode {mode!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    # One buffer holds all of the block's variates.  As one large
    # allocation it is reused from block to block; as five arrays, malloc
    # gave their pages back after each block and faulted them in again.
    ball = count * N * (2 if d == 2 else d + 1)
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

    for lo in range(0, count, step):
        hi = min(lo + step, count)
        points = slice(lo * N, hi * N)
        w = _ball_points(position[0][points], position[1][points], d, N)
        wdot = _ball_points(velocity[0][points], velocity[1][points], d, N)
        masses = None
        if eta is not None:
            masses = TOTAL_MASS * eta[lo:hi] / np.sum(eta[lo:hi], axis=1)[:, None]

        w -= _lane_sum(w) / N
        wdot -= _lane_sum(wdot) / N
        if masses is not None:
            scale = (1.0 / np.sqrt(masses)).T[:, None]
            w *= scale
            wdot *= scale

        gnorm = np.sqrt(_lane_sum((w * w).reshape(N * d, hi - lo)))
        gdnorm = np.sqrt(_lane_sum((wdot * wdot).reshape(N * d, hi - lo)))
        bad = (gnorm < _UNDERFLOW) | (gdnorm < _UNDERFLOW)
        if bool(np.any(bad)):
            # All points coincident: probability zero, redraw those systems.
            for idx in np.flatnonzero(bad):
                zi, zdi, mi = sample_system_block(d, N, mode, rng, 1)
                w[:, :, idx] = zi[0].T
                wdot[:, :, idx] = zdi[0].T
                if masses is not None:
                    masses[idx] = mi[0]
                gnorm[idx] = 1.0
                gdnorm[idx] = 1.0

        w /= gnorm
        wdot /= gdnorm
        yield w.transpose(2, 1, 0), wdot.transpose(2, 1, 0), masses


def sample_system_block(d, N, mode, rng, count):
    """count systems as stacked arrays Z (count, d, N), Zdot, masses (count, N).

    The block is one chunk of draw_systems.
    """
    z, zdot, masses = next(draw_systems(d, N, mode, rng, count, count))
    if masses is None:
        masses = np.full((count, N), TOTAL_MASS / N)
    return z, zdot, masses
