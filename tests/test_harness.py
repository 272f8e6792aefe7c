import math
import tracemalloc

import numpy as np
import pytest

from kinpart import StatAccumulator, run_experiment, run_single, substream, verify_report
from kinpart._batch import DEFAULT_TOLERANCES
from kinpart.harness import (
    RunReport, TermReport, ZERO_FLOOR, _block_summary, expected_values,
)


def two_pass_stats(values):
    mean = float(np.mean(values))
    dev = values - mean
    return mean, float(np.sum(dev * dev))


def test_accumulator_single_updates_match_two_pass():
    rng = substream(5, 0)
    values = rng.uniform(-1.0, 3.0, size=10_000)
    acc = StatAccumulator()
    for v in values:
        acc.merge(StatAccumulator.from_block([v]))
    mean, m2 = two_pass_stats(values)
    assert abs(acc.mean - mean) <= 1e-9 * max(1.0, abs(mean))
    assert abs(acc.m2 - m2) <= 1e-9 * max(1.0, m2)
    assert acc.minimum == values.min() and acc.maximum == values.max()
    assert acc.minimum <= acc.mean <= acc.maximum
    assert acc.negatives == int(np.sum(values < 0))


def test_accumulator_block_and_merge_associativity():
    rng = substream(5, 1)
    values = rng.standard_normal(9999)
    whole = StatAccumulator.from_block(values)

    # merge in two different groupings
    splits = [values[:1234], values[1234:5000], values[5000:]]
    left = StatAccumulator()
    for part in splits:
        left.merge(StatAccumulator.from_block(part))
    right = StatAccumulator.from_block(splits[1])
    right.merge(StatAccumulator.from_block(splits[2]))
    grouped = StatAccumulator.from_block(splits[0]).merge(right)

    for acc in (left, grouped):
        assert acc.count == whole.count
        assert abs(acc.mean - whole.mean) <= 1e-10 * max(1.0, abs(whole.mean))
        assert abs(acc.m2 - whole.m2) <= 1e-10 * max(1.0, whole.m2)
        assert acc.minimum == whole.minimum and acc.maximum == whole.maximum
        assert acc.negatives == whole.negatives
        assert acc.positives == whole.positives


def test_accumulator_variance_and_stderr_definitions():
    acc = StatAccumulator.from_block(np.array([1.0, 2.0, 3.0, 4.0]))
    assert acc.variance_biased == acc.m2 / 4
    assert acc.variance_unbiased == acc.m2 / 3
    assert acc.stderr == math.sqrt(acc.variance_biased / 4)


def test_merge_empty_cases():
    acc = StatAccumulator()
    acc.merge(StatAccumulator())
    assert acc.count == 0
    acc.merge(StatAccumulator.from_block([2.0]))
    assert acc.count == 1 and acc.mean == 2.0


def test_run_single_identity_propagation():
    rep = run_single(2, 4, "equal", 5000, seed=17)
    t = rep.terms
    assert abs(t["T_lambda"].mean + t["T_rho"].mean - 1.0) <= 1e-9
    assert abs(t["T_rot"].mean + t["T_I"].mean - 1.0) <= 1e-9
    assert abs(t["T_res_plus"].mean - t["T_res_minus"].mean - t["T_res"].mean) <= 1e-12
    assert abs(t["T_ac_plus"].mean - t["T_ac_minus"].mean - t["T_ac"].mean) <= 1e-12
    assert abs(t["E_c_plus"].mean - t["E_c_minus"].mean - t["E_c"].mean) <= 1e-12
    # T_J and T_ext are the same quantity on the plane
    assert abs(t["T_J"].mean - t["T_ext"].mean) <= 1e-12
    assert rep.x_abscissa == 0.5 - 1.0 / 3.0
    assert t["T"].count == 5000


def test_run_single_line_two_particles_rotationless():
    rep = run_single(1, 2, "equal", 3000, seed=17)
    assert abs(rep.terms["T_rot"].maximum) <= 1e-13
    assert abs(rep.terms["T_rot"].minimum) <= 1e-13


def test_streaming_matches_stored_samples():
    # the harness means/variances equal a two-pass computation on the very
    # same sampled systems
    from kinpart._batch import partition_batch
    from kinpart.ensemble import MODE_CODES, sample_system_block
    from kinpart.harness import BLOCK_SIZE

    d, n_particles, mode, seed, samples = 2, 5, "random", 31, 10_000
    rep = run_single(d, n_particles, mode, samples, seed=seed)
    collected = []
    index = 0
    remaining = samples
    while remaining > 0:
        count = min(BLOCK_SIZE, remaining)
        rng = substream(seed, MODE_CODES[mode], d, n_particles, index)
        z, zdot, _ = sample_system_block(d, n_particles, mode, rng, count)
        collected.append(partition_batch(2.0, z, zdot)["T_rot"])
        index += 1
        remaining -= count
    values = np.concatenate(collected)
    mean, m2 = two_pass_stats(values)
    tr = rep.terms["T_rot"]
    assert abs(tr.mean - mean) <= 1e-9 * max(1.0, abs(mean))
    assert abs(tr.variance_biased - m2 / samples) <= 1e-9


def test_block_memory_is_bounded_by_its_draws_and_one_chunk():
    # A d = 2, N = 100 block of 4096 systems holds 13.1 MB of draws, and a
    # chunk adds a few MB; taken whole, the block's arrays need about 37 MB.
    tracemalloc.start()
    try:
        _block_summary(2, 100, "equal", 1, 0, 4096, DEFAULT_TOLERANCES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 21e6


def test_thread_count_does_not_change_results():
    base = run_single(2, 6, "random", 9000, seed=41, threads=1)
    threaded = run_single(2, 6, "random", 9000, seed=41, threads=4)
    for term, tr in base.terms.items():
        other = threaded.terms[term]
        assert tr.mean == other.mean
        assert tr.variance_biased == other.variance_biased
        assert tr.minimum == other.minimum and tr.maximum == other.maximum


def test_expected_values_by_mode():
    equal = expected_values(2, 5, "equal")
    assert len(equal) == 13
    random = expected_values(2, 5, "random")
    assert set(random) == {"T_res", "E_outB"}
    assert expected_values(2, 3, "random")["E_inB"] == 0.0
    assert len(expected_values(3, 2, "random")) == 13  # mass-independent at N=2


def synthetic_report(d, n_particles, mode):
    expected = expected_values(d, n_particles, mode)
    terms = {}
    for name, value in expected.items():
        terms[name] = TermReport(
            term=name, count=1000, mean=value, variance_biased=0.01,
            variance_unbiased=0.01, stderr=math.sqrt(0.01 / 1000),
            minimum=value - 0.1, maximum=value + 0.1, expected=value,
            abs_diff=0.0, weighted_diff=0.0, sigma_ratio=0.0,
            fraction_negative=0.5 if name == "T_res" else None,
        )
    return RunReport(d=d, N=n_particles, mode=mode, seed=0, samples=1000,
                     x_abscissa=0.5 - 1.0 / (n_particles - 1),
                     degenerate_count=0, terms=terms)


def test_verify_exact_self_test():
    # synthetic accumulators sitting exactly on the formulas all pass
    reports = [synthetic_report(2, 4, "equal"), synthetic_report(3, 6, "equal")]
    checks, summary = verify_report(reports)
    assert summary["failures"] == 0
    assert all(c.sigma_ratio == 0.0 for c in checks if c.kind == "mean")
    assert summary["max_sigma_ratio"] == 0.0


def test_verify_detects_shifted_mean():
    report = synthetic_report(2, 4, "equal")
    bad = report.terms["T_rot"]
    report.terms["T_rot"] = TermReport(
        term="T_rot", count=bad.count, mean=bad.mean + 10 * bad.stderr,
        variance_biased=bad.variance_biased,
        variance_unbiased=bad.variance_unbiased, stderr=bad.stderr,
        minimum=bad.minimum, maximum=bad.maximum, expected=bad.expected,
    )
    checks, summary = verify_report([report])
    assert summary["failures"] == 1
    failed = [c for c in checks if not c.passed]
    assert failed[0].term == "T_rot" and failed[0].sigma_ratio > 4.0


def test_verify_random_mode_checks_only_residual_terms():
    rep = run_single(2, 6, "random", 4000, seed=3)
    checks, _ = verify_report([rep])
    assert {(c.term, c.kind) for c in checks} == {
        ("T_res", "mean"), ("T_res", "sign"), ("E_outB", "mean")}


def test_verify_accepts_explicit_expectations():
    from kinpart import conjecture_means

    rep = run_single(2, 4, "equal", 4000, seed=3)
    checks, summary = verify_report([rep], expectations={4: conjecture_means(2, 4)})
    assert summary["failures"] == 0 and summary["checks"] == 14
    checks, _ = verify_report([rep], expectations={4: {"T_rot": 2.0 / 3.0}})
    assert [(c.term, c.kind) for c in checks] == [("T_rot", "mean")]


def test_verify_zero_floor_handles_identically_zero_terms():
    # T_ext vanishes identically on the line; stderr is 0 there
    rep = run_single(1, 5, "equal", 3000, seed=3)
    checks, summary = verify_report([rep])
    assert summary["failures"] == 0
    ext = [c for c in checks if c.term == "T_ext"][0]
    assert ext.passed and ext.abs_diff <= ZERO_FLOOR


def test_random_mass_means_track_descriptive_fits():
    # the (aN + b)/(2 nu) fits describe the random-mass means at large N;
    # they are approximate, so the tolerance is loose by design
    from kinpart import random_mass_fit

    rep = run_single(2, 60, "random", 40_000, seed=20240811)
    for term in ("T_lambda", "T_rho", "T_rot", "T_I", "T_xi", "T_ext",
                 "T_int", "T_K", "T_ac", "E_inB", "T_res_plus", "T_res_minus"):
        assert abs(rep.terms[term].mean - random_mass_fit(term, 60)) <= 0.01, term


def test_run_experiment_range_and_validation():
    reports = run_experiment(2, 3, 5, 2000, "equal", seed=9)
    assert [r.N for r in reports] == [3, 4, 5]
    with pytest.raises(ValueError):
        run_experiment(2, 1, 5, 100, "equal", seed=9)
    with pytest.raises(ValueError):
        run_single(2, 3, "equal", 1, seed=9)
    with pytest.raises(ValueError):
        run_single(2, 3, "other", 100, seed=9)
