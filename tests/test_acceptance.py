"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Statistical criteria run at the fixed module seed with 10^5 samples per
(d, N, mode) cell, so every outcome here is deterministic.  The 10^6-sample
tier is opt-in: pytest -m expensive.  Run with -s (or -rP) to see the
per-criterion lines.
"""

import math

import numpy as np
import pytest

import kinpart as kp
from frames import haar, reduction_frame
from kinpart.cli import main as cli_main
from kinpart.ensemble import MODE_CODES
from kinpart.harness import ZERO_FLOOR

SEED = 20240811
SAMPLES = 100_000
SIGMA = 4.0

_cache = {}


def report(d, n_particles, mode, samples=SAMPLES):
    key = (d, n_particles, mode, samples)
    if key not in _cache:
        _cache[key] = kp.run_single(d, n_particles, mode, samples, seed=SEED)
    return _cache[key]


def announce(num, passed, text):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, f"criterion {num}: {text}"


def mean_checks(rep):
    checks, _ = kp.verify_report(kp.report_rows([rep]), sigma_threshold=SIGMA)
    return [c for c in checks if c.kind == "mean"]


def statistical_ratio(check):
    """sigma_ratio of a check, 0 for terms agreeing to machine precision
    (their t-statistic is pure roundoff noise)."""
    return 0.0 if check.abs_diff <= ZERO_FLOOR else check.sigma_ratio


def test_criterion_1_plane_equal_masses():
    # closed-form means reproduced on the plane at N = 3..100
    worst = 0.0
    failures = []
    for n_particles in (3, 5, 10, 25, 50, 100):
        for check in mean_checks(report(2, n_particles, "equal")):
            worst = max(worst, statistical_ratio(check))
            if not check.passed:
                failures.append((check.term, n_particles, check.sigma_ratio))
    announce(1, not failures,
             f"d=2 equal masses, all bounded means within {SIGMA} standard "
             f"errors (worst ratio {worst:.2f}; failures {failures})")


def test_criterion_2_other_dimensions():
    # the arbitrary-dimension formulas: d in {1, 4, 5} at small N, and
    # d in {1, 3, 4} up to the sweep's N = 100
    cells = ([(d, n) for d in (1, 4, 5) for n in (2, 4, 8)]
             + [(d, n) for d in (1, 3, 4) for n in (3, 10, 50, 100)])
    worst = 0.0
    failures = []
    for d, n_particles in cells:
        for check in mean_checks(report(d, n_particles, "equal")):
            worst = max(worst, statistical_ratio(check))
            if not check.passed:
                failures.append((d, n_particles, check.term))
    announce(2, not failures,
             f"d in (1,3,4,5), N up to 100, all bounded means within {SIGMA} "
             f"standard errors (worst ratio {worst:.2f}; failures {failures})")


def test_criterion_3_two_particles_exact():
    # N = 2: mean T_rho = 1/d and T_rot = (d-1)/d for any masses; the
    # kinematic-side terms vanish identically (machine zero at T = 1 scale)
    failures = []
    for d in (2, 3, 7):
        for mode in kp.MASS_MODES:
            rep = report(d, 2, mode)
            for check in mean_checks(rep):
                if check.term in ("T_rho", "T_rot") and not check.passed:
                    failures.append((d, mode, check.term, "mean"))
            for term in ("T_int", "T_K", "T_xi", "E_in"):
                top = max(abs(rep.terms[term].maximum), abs(rep.terms[term].minimum))
                if top > 1e-12:
                    failures.append((d, mode, term, top))
    announce(3, not failures,
             f"N=2 exact case for d in (2,3,7), both mass modes "
             f"(failures {failures})")


def test_criterion_4_residual_mean_and_sign():
    failures = []
    for n_particles in (3, 10, 100):
        for mode in kp.MASS_MODES:
            rep = report(2, n_particles, mode)
            tr = rep.terms["T_res"]
            if abs(tr.mean) > SIGMA * tr.stderr:
                failures.append((n_particles, mode, "mean", tr.mean))
            sigma_binomial = 0.5 / math.sqrt(tr.count)
            if abs(tr.fraction_negative - 0.5) > SIGMA * sigma_binomial:
                failures.append((n_particles, mode, "sign", tr.fraction_negative))
    announce(4, not failures,
             f"residual mean 0 and sign fraction 1/2 at d=2, both modes "
             f"(failures {failures})")


def _paper_check_set(reports):
    """The comparison set used for the aggregate-discrepancy figures:
    ten terms at every N plus E_inB for N >= 4 (T_J duplicates T_ext on the
    plane and E_outB vanishes identically, so neither is counted)."""
    terms = ("T_lambda", "T_rho", "T_rot", "T_I", "T_xi",
             "T_ext", "T_int", "T_res", "T_K", "T_ac")
    diffs = []
    weighted = []
    for rep in reports:
        names = terms + (("E_inB",) if rep.N >= 4 else ())
        for name in names:
            tr = rep.terms[name]
            diffs.append(tr.abs_diff)
            weighted.append(tr.weighted_diff)
    return diffs, weighted


def _criterion_5(samples, mean_bound, weighted_bound, tag):
    reports = [report(2, n_particles, "equal", samples)
               for n_particles in range(3, 101)]
    diffs, weighted = _paper_check_set(reports)
    mean_abs = sum(diffs) / len(diffs)
    max_weighted = max(weighted)
    passed = mean_abs < mean_bound and max_weighted < weighted_bound
    announce(5, passed,
             f"{tag}: {len(diffs)} checks, mean |diff| {mean_abs:.3e} "
             f"(bound {mean_bound:.3e}), max weighted {max_weighted:.3e} "
             f"(bound {weighted_bound:.3e})")


def test_criterion_5_aggregate_discrepancy_default():
    # default gate: 10^5 samples with sqrt(10)-relaxed bounds
    _criterion_5(SAMPLES, 1e-4 * math.sqrt(10.0), 5e-2 * math.sqrt(10.0),
                 "10^5-sample gate")


@pytest.mark.expensive
def test_criterion_5_aggregate_discrepancy_full():
    _criterion_5(1_000_000, 1e-4, 5e-2, "10^6-sample run")


@pytest.mark.expensive
@pytest.mark.parametrize("d", [3, 4])
def test_criterion_2_full_sweep_in_space(d):
    # The paper's companion study, d = 3 at 3 <= N <= 100, and d = 4.  A
    # sweep makes about 1,300 checks; at 5 sigma the chance that any of
    # them fails on working code is below 1e-3, so none may.
    reports = kp.run_experiment(d, 3, 100, SAMPLES, "equal", SEED)
    checks, summary = kp.verify_report(kp.report_rows(reports), sigma_threshold=5.0)
    failures = [(c.N, c.term, c.kind, c.sigma_ratio) for c in checks if not c.passed]
    worst = max(statistical_ratio(c) for c in checks)
    announce(2, not failures,
             f"d={d} equal masses, N=3..100: {summary['checks']} checks within 5 "
             f"standard errors (worst ratio {worst:.2f}; mean |diff| "
             f"{summary['mean_abs_diff']:.3e}, max weighted "
             f"{summary['max_weighted_diff']:.3e}; failures {failures})")


@pytest.mark.expensive
def test_criterion_6_residual_magnitude_point_values():
    targets = {"equal": 0.168796, "random": 0.146767}
    failures = []
    for mode, target in targets.items():
        rep = report(2, 3, mode, 1_000_000)
        observed = rep.terms["T_res_abs"].mean
        if abs(observed - target) > 0.002:
            failures.append((mode, observed))
    announce(6, not failures,
             f"mean |T_res| at d=2, N=3: within 0.002 of the reference "
             f"values (failures {failures})")


def test_criterion_7_qualitative_behaviors():
    failures = []
    # (a) angular-coupling sign: half-half at N=3, then the negative
    # fraction decays strictly through N = 4..20 (equal masses)
    rep3 = report(2, 3, "equal")
    frac3 = rep3.terms["T_ac"].fraction_negative
    if abs(frac3 - 0.5) > SIGMA * 0.5 / math.sqrt(rep3.samples):
        failures.append(("a", "N=3", frac3))
    fractions = [report(2, n, "equal").terms["T_ac"].fraction_negative
                 for n in range(4, 21)]
    if not all(a > b for a, b in zip(fractions, fractions[1:])):
        failures.append(("a", "not strictly decreasing", fractions))
    # (b) positive tangent coupling is rare at N = 100
    frac_ec = report(2, 100, "equal").terms["E_c"].fraction_positive
    if not 0.02 <= frac_ec <= 0.05:
        failures.append(("b", frac_ec))
    # (c) monotone mean classes over N = 5..100, both modes
    grid = (5, 10, 20, 50, 100)
    increasing = ("T_lambda", "T_rot", "T_int", "T_K")
    decreasing = ("T_rho", "T_I", "T_xi", "T_ext")
    for mode in kp.MASS_MODES:
        means = {term: [report(2, n, mode).terms[term].mean for n in grid]
                 for term in increasing + decreasing}
        for term in increasing:
            if not all(a < b for a, b in zip(means[term], means[term][1:])):
                failures.append(("c", mode, term, means[term]))
        for term in decreasing:
            if not all(a > b for a, b in zip(means[term], means[term][1:])):
                failures.append(("c", mode, term, means[term]))
    announce(7, not failures, f"qualitative ensemble behaviors (failures {failures})")


def _criterion_8_cell(d, n_particles, mode, count, failures):
    rng = kp.substream(SEED, 88, MODE_CODES[mode], d, n_particles)
    z, zdot, masses = kp.sample_system_block(d, n_particles, mode, rng, count)
    res = kp.partition_batch(2.0, z, zdot)

    def rel(a, b, floor=1.0):
        return np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))

    # partition identities and inequalities
    ident = (
        ("smith", res["T"] - res["T_lambda"] - res["T_rho"]),
        ("orthogonal", res["T"] - res["T_rot"] - res["T_I"]),
        ("projective", res["T_rot"] - res["T_ext"] - res["T_int"] - res["T_res"]),
        ("hyperspherical", res["T_rot"] - res["T_J"] - res["T_K"] - res["T_ac"]),
        ("expansion", res["T_rot"] - res["E_out"] - res["E_in"] - res["E_c"]),
        ("out-split", res["E_out"] - res["E_outA"] - res["E_outB"]),
        ("in-split", res["E_in"] - res["E_inA"] - res["E_inB"]),
    )
    for name, resid in ident:
        if np.max(np.abs(resid)) > 1e-10:
            failures.append((d, n_particles, mode, name))
    for name, resid in (("shape-lambda", res["T_lambda"] - res["T_rot"] - res["T_xi"]),
                        ("shape-inertial", res["T_I"] - res["T_rho"] - res["T_xi"])):
        if np.max(np.abs(resid)) > 1e-9:
            failures.append((d, n_particles, mode, name))
    tol = 1e-10
    bounds = (
        ("rot<=lambda", res["T_rot"] <= res["T_lambda"] + tol),
        ("lambda<=T", res["T_lambda"] <= res["T"] + tol),
        ("rho<=inertial", res["T_rho"] <= res["T_I"] + tol),
        ("J<=ext", res["T_J"] <= res["T_ext"] + tol),
        ("ext<=rot", res["T_ext"] <= res["T_rot"] + tol),
        ("K<=int", res["T_K"] <= res["T_int"] + tol),
        ("int<=rot", res["T_int"] <= res["T_rot"] + tol),
        ("res<=ac", res["T_res"] <= res["T_ac"] + tol),
        ("outB<=rot", res["E_outB"] <= res["T_rot"] + tol),
        ("inB<=rot", res["E_inB"] <= res["T_rot"] + tol),
        ("J2+L2<=Lam2", res["J2"] + res["L2"]
         <= res["Lambda2"] * (1.0 + 1e-10) + 1e-14),
        ("K2+L2<=Lam2", res["K2"] + res["L2"]
         <= res["Lambda2"] * (1.0 + 1e-10) + 1e-14),
    )
    for name, ok in bounds:
        if not np.all(ok):
            failures.append((d, n_particles, mode, name))

    term_names = [k for k in res if k != "degenerate"]

    # orthogonal invariance
    rot_r = haar(d, rng)
    rot_q = haar(n_particles, rng)
    res_t = kp.partition_batch(
        2.0,
        np.einsum("ij,bjn,mn->bim", rot_r, z, rot_q),
        np.einsum("ij,bjn,mn->bim", rot_r, zdot, rot_q),
    )
    for name in term_names:
        if np.max(rel(res[name], res_t[name])) > 1e-8:
            failures.append((d, n_particles, mode, f"invariance:{name}"))

    # zero-column augmentation
    pad = np.zeros((count, d, 1))
    res_a = kp.partition_batch(2.0, np.concatenate([z, pad], axis=2),
                               np.concatenate([zdot, pad], axis=2))
    for name in term_names:
        if np.max(rel(res[name], res_a[name])) > 1e-10:
            failures.append((d, n_particles, mode, f"augmentation:{name}"))

    # reduction to the d x (N-1) description
    z_red = np.empty((count, d, n_particles - 1))
    zd_red = np.empty((count, d, n_particles - 1))
    for i in range(count):
        frame = reduction_frame(masses[i])
        z_red[i] = (z[i] @ frame.T)[:, :-1]
        zd_red[i] = (zdot[i] @ frame.T)[:, :-1]
    res_r = kp.partition_batch(2.0, z_red, zd_red)
    for name in term_names:
        if np.max(rel(res[name], res_r[name])) > 1e-9:
            failures.append((d, n_particles, mode, f"reduction:{name}"))

    # per-system oracles
    for i in range(count):
        direct = kp.momenta_direct(2.0, z[i], zdot[i])
        for name in ("J2", "K2", "Lambda2", "L2"):
            a, b = getattr(direct, name), float(res[name][i])
            if abs(a - b) > 1e-10 * max(1.0, abs(a), abs(b)):
                failures.append((d, n_particles, mode, f"momenta:{name}"))
        if res["degenerate"][i]:
            continue
        oracle = kp.project_oracle(2.0, z[i], zdot[i])
        for name in ("T_ext", "T_int", "T_rot", "E_out", "E_in"):
            a, b = float(res[name][i]), getattr(oracle, name)
            if abs(a - b) > 1e-8 * max(1.0, abs(a), abs(b)):
                failures.append((d, n_particles, mode, f"oracle:{name}"))


def test_criterion_8_property_suite():
    failures = []
    total = 0
    per_cell = 180
    for d in (1, 2, 3, 5):
        for n_particles in range(2, 9):
            for mode in kp.MASS_MODES:
                _criterion_8_cell(d, n_particles, mode, per_cell, failures)
                total += per_cell
    announce(8, total >= 10_000 and not failures,
             f"property suite on {total} systems across d x N x mode "
             f"(failures {sorted(set(failures))[:8]})")


def test_criterion_9_byte_identical_csv(tmp_path, monkeypatch):
    args = ["simulate", "--d", "2", "--n-min", "3", "--n-max", "5",
            "--samples", "3000", "--masses", "random", "--seed", str(SEED)]
    paths = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        out = str(tmp_path / name)
        monkeypatch.setenv("KINPART_THREADS", threads)
        assert cli_main(args + ["--out", out]) == 0
        paths.append(out)
    blobs = [open(p, "rb").read() for p in paths]
    passed = blobs[0] == blobs[1] == blobs[2]
    announce(9, passed, "byte-identical CSV across reruns and thread counts")
