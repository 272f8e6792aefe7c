from fractions import Fraction

import pytest

from kinpart import (
    conjecture_means, conjecture_means_exact, random_mass_fit,
    residual_magnitude_approx,
)


def test_plane_three_particles():
    es = conjecture_means(2, 3)
    assert es["T_rot"] == 0.5
    assert es["T_K"] == 0.25
    assert es["T_ac"] == 0.0
    assert es["E_inB"] == 0.0
    assert es["T_lambda"] == 0.75
    assert es["T_rho"] == 0.25


def approx(a, b):
    return abs(a - b) <= 1e-15


def test_plane_general_form():
    # d = 2, N >= 3: the omega = 2 specialization
    for n_particles in (3, 7, 50):
        nu = n_particles - 1
        es = conjecture_means(2, n_particles)
        assert approx(es["T_lambda"], 1 - 0.5 / nu)
        assert approx(es["T_rho"], 0.5 / nu)
        assert approx(es["T_rot"], 1 - 1.0 / nu)
        assert approx(es["T_I"], 1.0 / nu)
        assert approx(es["T_xi"], 0.5 / nu)
        assert approx(es["T_ext"], 0.5 / nu)
        assert approx(es["T_int"], 1 - 1.5 / nu)
        assert approx(es["T_J"], 0.5 / nu)
        assert approx(es["T_K"], (nu - 1) / (2.0 * nu))
        assert approx(es["T_ac"], (nu - 2) / (2.0 * nu))
        assert es["E_outB"] == 0.0
        assert approx(es["E_inB"], 1 - 2.0 / nu)
        # T_rho = T_xi = T_ext on the plane for N >= 3
        assert es["T_rho"] == es["T_xi"] == es["T_ext"]


def test_space_four_particles():
    es = conjecture_means(3, 4)
    assert abs(es["T_ext"] - 1.0 / 3.0) <= 1e-15
    assert es["E_outB"] == 0.0


def test_examples_from_acceptance_grid():
    assert conjecture_means(2, 5)["T_K"] == 3.0 / 8.0
    assert abs(conjecture_means(2, 10)["E_inB"] - 7.0 / 9.0) <= 1e-15


def test_two_particles_any_dimension():
    for d in (1, 2, 3, 7):
        es = conjecture_means(d, 2)
        assert es["T_rho"] == 1.0 / d
        assert es["T_rot"] == (d - 1) / d if d > 1 else es["T_rot"] == 0.0
        assert es["T_int"] == 0.0
        assert es["T_K"] == 0.0
        assert es["T_xi"] == 0.0
        assert es["E_inB"] == 0.0
        assert es["T_ext"] == es["T_J"] == (d - 1) / d


def test_exact_identities_over_grid():
    for d in range(1, 21):
        for n_particles in range(2, 201, 7):
            exact = conjecture_means_exact(d, n_particles)
            assert exact["T_lambda"] + exact["T_rho"] == 1
            assert exact["T_rot"] + exact["T_I"] == 1
            assert exact["T_ext"] + exact["T_int"] + exact["T_res"] == exact["T_rot"]
            assert exact["T_J"] + exact["T_K"] + exact["T_ac"] == exact["T_rot"]


def test_momentum_terms_have_dimension_form():
    # each momentum-quadratic mean is (gamma - 1)/(d nu) with gamma the
    # dimension of the space carrying the rotation
    for d, n_particles in ((2, 6), (4, 3), (5, 9)):
        nu = n_particles - 1
        omega = min(d, nu)
        exact = conjecture_means_exact(d, n_particles)
        dn = Fraction(d * nu)
        assert exact["T_lambda"] == Fraction(d * nu - 1) / dn
        assert exact["T_xi"] == Fraction(omega - 1) / dn
        assert exact["T_J"] == Fraction(d - 1) / dn
        assert exact["T_K"] == Fraction(nu - 1) / dn


def test_duality_symmetry():
    # swapping d and nu swaps ext/int, J/K, outB/inB and fixes the rest
    pairs = (("T_ext", "T_int"), ("T_J", "T_K"), ("E_outB", "E_inB"))
    symmetric = ("T_lambda", "T_rho", "T_rot", "T_I", "T_xi", "T_res", "T_ac")
    for d, nu in ((2, 5), (3, 3), (6, 2)):
        a = conjecture_means_exact(d, nu + 1)
        b = conjecture_means_exact(nu, d + 1)
        for left, right in pairs:
            assert a[left] == b[right]
            assert a[right] == b[left]
        for name in symmetric:
            assert a[name] == b[name]


def test_conjecture_means_domain():
    with pytest.raises(ValueError):
        conjecture_means(0, 3)
    with pytest.raises(ValueError):
        conjecture_means(2, 1)


def test_residual_magnitude_approx():
    assert residual_magnitude_approx(2, 81) == 0.00390625  # 5/(16*80)
    assert abs(residual_magnitude_approx(3, 13) - 5.0 / 144.0) <= 1e-18
    assert residual_magnitude_approx(1, 40) == 0.0


def test_random_mass_fits():
    assert abs(random_mass_fit("T_rho", 100) - 14.04 / 198.0) <= 1e-15
    assert abs(random_mass_fit("T_int", 50) - 78.28 / 98.0) <= 1e-15
    assert abs(random_mass_fit("E_inB", 100) - 157.61 / 198.0) <= 1e-15
    assert random_mass_fit("T_J", 60) == random_mass_fit("T_ext", 60)
    assert random_mass_fit("T_res_plus", 80) == random_mass_fit("T_res_minus", 80)
    with pytest.raises(KeyError):
        random_mass_fit("E_outB", 50)
    for n_particles in (1, 0):
        with pytest.raises(ValueError, match="N must be >= 2"):
            random_mass_fit("T_rho", n_particles)
