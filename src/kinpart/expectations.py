"""Closed-form mean values of the bounded energy terms for equal masses.

With nu = N - 1 and omega = min(d, nu), the means under the T = 1
normalization are simple rationals in d, N, omega.  They are evaluated in
exact rational arithmetic internally (the partition identities among them
hold exactly, and tests check this without tolerances) and converted to
floats on output.

Also here: the large-N approximation for the mean magnitude of the
residual energy, and the descriptive linear fits for the random-mass
ensemble means.  Both are approximations and must never be used as tight
assertion targets.
"""

from fractions import Fraction

def conjecture_means_exact(d, N):
    """The thirteen mean values as exact Fractions, keyed by term name."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    nu = N - 1
    omega = min(d, nu)
    dn = Fraction(d * nu)
    return {
        "T_lambda": 1 - Fraction(1) / dn,
        "T_rho": Fraction(1) / dn,
        "T_rot": 1 - Fraction(omega) / dn,
        "T_I": Fraction(omega) / dn,
        "T_xi": Fraction(omega - 1) / dn,
        "T_ext": Fraction(omega * (2 * d - omega - 1), 2) / dn,
        "T_int": Fraction(omega * (2 * nu - omega - 1), 2) / dn,
        "T_res": Fraction(0),
        "T_J": Fraction(d - 1) / dn,
        "T_K": Fraction(nu - 1) / dn,
        "T_ac": 1 - Fraction(d + nu + omega - 2) / dn,
        "E_outB": 1 - Fraction(omega, d),
        "E_inB": 1 - Fraction(omega, nu),
    }


# The 13 bounded terms, in the key order of conjecture_means_exact, which is
# the same at every (d, N).
BOUNDED_TERMS = tuple(conjecture_means_exact(2, 3))


def conjecture_means(d, N):
    """Mean values of the 13 bounded terms at (d, N) for equal masses, as
    floats keyed by term name in BOUNDED_TERMS order."""
    return {name: float(value) for name, value in conjecture_means_exact(d, N).items()}


def residual_magnitude_approx(d, N):
    """Approximate mean of |T_res| (equal masses, large N): 5(d-1)/(8 d nu).

    Calibrated against planar and spatial simulations; exact only in the
    trivial d = 1 case where the residual energy vanishes identically.
    Valid for N of roughly 30 and up; the value is returned regardless.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    return 5.0 * (d - 1) / (8.0 * d * (N - 1))


# Descriptive large-N fits for random masses: mean(H) ~ (a N + b) / (2 nu),
# least squares over N = 50..100 at d = 2.  T_J duplicates T_ext (they are
# identical on the plane).  The positive and negative residual components
# were fitted separately at b = 0.78 and b = 0.80; the table stores the
# 0.79 average for both.
RANDOM_MASS_FITS = {
    "T_lambda": (1.88, -4.04),
    "T_rho": (0.12, 2.04),
    "T_rot": (1.83, -5.2),
    "T_I": (0.17, 3.2),
    "T_xi": (0.05, 1.15),
    "T_ext": (0.12, 2.05),
    "T_J": (0.12, 2.05),
    "T_int": (1.71, -7.22),
    "T_res_plus": (0.03, 0.79),
    "T_res_minus": (0.03, 0.79),
    "T_K": (0.88, -3.03),
    "T_ac": (0.83, -4.22),
    "E_inB": (1.66, -8.39),
}


def random_mass_fit(term, N):
    """Descriptive fit (a N + b) / (2 nu) for a random-mass mean at d = 2.

    Fit range N = 50..100; keep away from small N.  Raises KeyError for
    terms without a tabulated fit.
    """
    if term not in RANDOM_MASS_FITS:
        raise KeyError(f"no random-mass fit for term {term!r}")
    a, b = RANDOM_MASS_FITS[term]
    return (a * N + b) / (2.0 * (N - 1))
