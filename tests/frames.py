"""Orthogonal matrices for the invariance and reduction tests."""

import numpy as np


def haar(dim, rng):
    """Haar dim x dim orthogonal matrix: the Q factor of a Gaussian matrix
    drawn column by column, each column's sign turned so that R has a
    positive diagonal (Mezzadri, Notices AMS 54(5), 2007)."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)).T)
    return q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)


def reduction_frame(masses):
    """Orthogonal N x N matrix whose last row is v = (m_a / M)^(1/2), so a
    system with its center of mass at the origin has Z @ Q.T with a zero
    last column."""
    v = np.sqrt(masses / np.sum(masses))
    q = np.linalg.qr(v[:, None], mode="complete")[0]
    return np.vstack([q[:, 1:].T, v])
