import concurrent.futures.process
import math
import multiprocessing
import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from kinpart import (
    StatAccumulator, report_rows, run_experiment, run_single, substream, verify_report,
)
from kinpart import harness
from kinpart.harness import (
    CSV_COLUMNS, EXPANSION_TERMS, SIGN_SPLITS, TERMS, TRACKED_TERMS, RunReport,
    TermReport, ZERO_FLOOR, _block_summary, _derived_arrays, expected_values,
    partition_batch, thread_count,
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
        acc.merge(StatAccumulator.from_block([[v]])[0])
    mean, m2 = two_pass_stats(values)
    assert abs(acc.mean - mean) <= 1e-9 * max(1.0, abs(mean))
    assert abs(acc.m2 - m2) <= 1e-9 * max(1.0, m2)
    assert acc.minimum == values.min() and acc.maximum == values.max()
    assert acc.minimum <= acc.mean <= acc.maximum
    assert acc.negatives == int(np.sum(values < 0))


def test_accumulator_block_and_merge_associativity():
    rng = substream(5, 1)
    values = rng.standard_normal(9999)
    whole = StatAccumulator.from_block([values])[0]

    # merge in two different groupings
    splits = [values[:1234], values[1234:5000], values[5000:]]
    left = StatAccumulator()
    for part in splits:
        left.merge(StatAccumulator.from_block([part])[0])
    right = StatAccumulator.from_block([splits[1]])[0]
    right.merge(StatAccumulator.from_block([splits[2]])[0])
    grouped = StatAccumulator.from_block([splits[0]])[0].merge(right)

    for acc in (left, grouped):
        assert acc.count == whole.count
        assert abs(acc.mean - whole.mean) <= 1e-10 * max(1.0, abs(whole.mean))
        assert abs(acc.m2 - whole.m2) <= 1e-10 * max(1.0, whole.m2)
        assert acc.minimum == whole.minimum and acc.maximum == whole.maximum
        assert acc.negatives == whole.negatives
        assert acc.positives == whole.positives


def test_accumulator_variance_and_stderr_definitions():
    acc = StatAccumulator.from_block(np.array([[1.0, 2.0, 3.0, 4.0]]))[0]
    assert acc.variance_biased == acc.m2 / 4
    assert acc.stderr == math.sqrt(acc.variance_biased / 4)


def test_merge_empty_cases():
    acc = StatAccumulator()
    acc.merge(StatAccumulator())
    assert acc.count == 0
    acc.merge(StatAccumulator.from_block([[2.0]])[0])
    assert acc.count == 1 and acc.mean == 2.0


def parent_from_block(values):
    """Two-pass summary of one row summed as a 1-d array: the reference
    that each row of the stacked from_block must match bit for bit."""
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(np.sum(values)) / n
    dev = values - mean
    return StatAccumulator(
        count=n,
        mean=mean,
        m2=float(np.sum(dev * dev)),
        minimum=float(np.min(values)),
        maximum=float(np.max(values)),
        negatives=int(np.sum(values < 0.0)),
        positives=int(np.sum(values > 0.0)),
    )


def assert_bit_equal(got, want):
    for field in fields(StatAccumulator):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        assert np.array(a).tobytes() == np.array(b).tobytes(), field.name


@pytest.mark.parametrize("n", [1, 1024, 4096])
def test_from_block_stack_matches_rows_alone(n):
    rng = substream(5, 2, n)
    stack = rng.standard_normal((27, n)) * 10.0 ** rng.uniform(-8, 8, (27, n))
    stack[3] = np.abs(stack[3])
    stack[5] = 0.0
    got = StatAccumulator.from_block(stack)
    assert len(got) == 27
    for row, acc in zip(stack, got):
        assert_bit_equal(acc, parent_from_block(row))
    for acc, want in zip(StatAccumulator.from_block(np.asfortranarray(stack)), got):
        assert_bit_equal(acc, want)
    assert StatAccumulator.from_block(np.empty((9, 0))) == [StatAccumulator()] * 9


@pytest.mark.parametrize("every", [0, 3, 1])
def test_block_summary_matches_per_term_accumulators(monkeypatch, every):
    # every = 1 flags every system degenerate, which empties the expansion
    # group; 3 flags every third; 0 leaves the block as sampled.
    results = []

    def flagged(mass, z, zdot):
        res = partition_batch(mass, z, zdot)
        if every:
            res["degenerate"][::every] = True
        results.append(res)
        return res

    monkeypatch.setattr(harness, "partition_batch", flagged)
    n_deg, got = _block_summary(3, 5, "random", 2, 0, 1000)
    (res,) = results
    keep = ~res["degenerate"]
    assert n_deg == int(np.sum(~keep))
    assert set(got) == set(TRACKED_TERMS)
    values = _derived_arrays(res)
    for term in TRACKED_TERMS:
        arr = values[term]
        if term in EXPANSION_TERMS and n_deg:
            arr = arr[keep]
        assert_bit_equal(got[term], parent_from_block(arr) if arr.size else StatAccumulator())


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
    # A d = 3, N = 60 random block holds 17.7 MB of draws, whose Gaussian
    # rows are normalised in slices, not through one block-sized square.
    for args, bound in (((2, 100, "equal"), 21e6), ((3, 60, "random"), 23e6)):
        tracemalloc.start()
        try:
            _block_summary(*args, 1, 0, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, args


def test_thread_count_does_not_change_results(monkeypatch):
    monkeypatch.setenv("KINPART_THREADS", "1")
    base = run_single(2, 6, "random", 9000, seed=41)
    monkeypatch.setenv("KINPART_THREADS", "4")
    threaded = run_single(2, 6, "random", 9000, seed=41)
    for term, tr in base.terms.items():
        other = threaded.terms[term]
        assert tr.mean == other.mean
        assert tr.variance_biased == other.variance_biased
        assert tr.minimum == other.minimum and tr.maximum == other.maximum


def test_run_single_is_run_experiment_at_one_n(monkeypatch):
    # Three blocks, the last one partial, on two worker processes.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("KINPART_THREADS", "2")
    single = run_single(2, 4, "random", 9000, seed=5)
    pooled = run_experiment(2, 3, 5, 9000, "random", seed=5)[1]
    monkeypatch.setenv("KINPART_THREADS", "1")
    alone = run_experiment(2, 4, 4, 9000, "random", seed=5)[0]
    for other in (pooled, alone):
        for field in fields(RunReport):
            assert repr(getattr(single, field.name)) == repr(getattr(other, field.name))


class StubPool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    sizes = []

    def __init__(self, max_workers, mp_context=None):
        assert mp_context.get_start_method() == "fork"
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, *iterables):
        return map(func, *iterables)


def test_pool_size_is_capped_by_jobs_and_cpus(monkeypatch):
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(StubPool, "sizes", [])
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 8)
    monkeypatch.setenv("KINPART_THREADS", "2")
    run_single(2, 3, "equal", 4096, seed=1)  # one block: no pool
    monkeypatch.setenv("KINPART_THREADS", "64")
    run_experiment(2, 3, 5, 100, "equal", seed=1)  # three jobs
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    run_experiment(2, 3, 5, 100, "equal", seed=1)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    run_experiment(2, 3, 5, 100, "equal", seed=1)  # one CPU: no pool
    assert StubPool.sizes == [3, 2]


def test_worker_error_reaches_the_caller(monkeypatch):
    parent = os.getpid()

    def fail_in_worker(mass, z, zdot):
        if os.getpid() != parent:
            raise RuntimeError("one-sided Jacobi failed to converge in 60 sweeps")
        return partition_batch(mass, z, zdot)

    monkeypatch.setattr(harness, "partition_batch", fail_in_worker)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("KINPART_THREADS", "2")
    with pytest.raises(RuntimeError, match="^one-sided Jacobi failed to converge in 60 sweeps$"):
        run_experiment(2, 3, 4, 100, "equal", seed=1)


def test_pool_refused_without_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("KINPART_THREADS", "2")
    with pytest.raises(ValueError, match="KINPART_THREADS > 1 needs the fork start method"):
        run_experiment(2, 3, 4, 100, "equal", seed=1)
    monkeypatch.setenv("KINPART_THREADS", "1")
    assert len(run_experiment(2, 3, 4, 100, "equal", seed=1)) == 2


def test_thread_count_reads_a_positive_integer(monkeypatch):
    monkeypatch.delenv("KINPART_THREADS", raising=False)
    assert thread_count() == 1
    for raw, count in (("", 1), ("2", 2), (" 3 ", 3)):
        monkeypatch.setenv("KINPART_THREADS", raw)
        assert thread_count() == count
    for raw in ("abc", "0", "-2", "1.5", "+2"):
        monkeypatch.setenv("KINPART_THREADS", raw)
        with pytest.raises(ValueError, match="KINPART_THREADS must be a positive integer"):
            thread_count()
        with pytest.raises(ValueError, match="positive integer"):
            run_single(2, 3, "equal", 10, seed=1)


def test_expected_values_by_mode():
    equal = expected_values(2, 5, "equal")
    assert len(equal) == 13
    random = expected_values(2, 5, "random")
    assert set(random) == {"T_res", "E_outB"}
    assert expected_values(2, 3, "random")["E_inB"] == 0.0
    assert len(expected_values(3, 2, "random")) == 13  # mass-independent at N=2
    # random masses keep the closed forms that are 0: omega = d gives
    # E_outB = 0, omega = nu gives E_inB = 0
    for d, n_particles, zeros in ((3, 4, ("T_res", "E_outB", "E_inB")),
                                  (4, 3, ("T_res", "E_inB")),
                                  (1, 5, ("T_res", "E_outB"))):
        assert expected_values(d, n_particles, "random") == dict.fromkeys(zeros, 0.0)


def synthetic_report(d, n_particles, mode):
    expected = expected_values(d, n_particles, mode)
    terms = {}
    for name, value in expected.items():
        terms[name] = TermReport(
            term=name, count=1000, mean=value, variance_biased=0.01,
            stderr=math.sqrt(0.01 / 1000),
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
    checks, summary = verify_report(report_rows(reports))
    assert summary["failures"] == 0
    assert all(c.sigma_ratio == 0.0 for c in checks if c.kind == "mean")
    assert summary["max_sigma_ratio"] == 0.0


def test_verify_detects_shifted_mean():
    report = synthetic_report(2, 4, "equal")
    bad = report.terms["T_rot"]
    report.terms["T_rot"] = TermReport(
        term="T_rot", count=bad.count, mean=bad.mean + 10 * bad.stderr,
        variance_biased=bad.variance_biased, stderr=bad.stderr,
        minimum=bad.minimum, maximum=bad.maximum, expected=bad.expected,
    )
    checks, summary = verify_report(report_rows([report]))
    assert summary["failures"] == 1
    failed = [c for c in checks if not c.passed]
    assert failed[0].term == "T_rot" and failed[0].sigma_ratio > 4.0


def test_verify_random_mode_checks_only_residual_terms():
    rep = run_single(2, 6, "random", 4000, seed=3)
    checks, _ = verify_report(report_rows([rep]))
    assert {(c.term, c.kind) for c in checks} == {
        ("T_res", "mean"), ("T_res", "sign"), ("E_outB", "mean")}


def test_verify_checks_only_terms_with_expected_values():
    from dataclasses import replace

    rep = run_single(2, 4, "equal", 4000, seed=3)
    checks, summary = verify_report(report_rows([rep]))
    assert summary["failures"] == 0 and summary["checks"] == 14
    only = {name: (tr if name == "T_rot" else replace(tr, expected=None))
            for name, tr in rep.terms.items()}
    checks, _ = verify_report(report_rows([replace(rep, terms=only)]))
    assert [(c.term, c.kind, c.expected) for c in checks] == [
        ("T_rot", "mean", rep.terms["T_rot"].expected)]


def test_verify_zero_floor_handles_identically_zero_terms():
    # T_ext vanishes identically on the line; stderr is 0 there
    rep = run_single(1, 5, "equal", 3000, seed=3)
    checks, summary = verify_report(report_rows([rep]))
    assert summary["failures"] == 0
    ext = [c for c in checks if c.term == "T_ext"][0]
    assert ext.passed and ext.abs_diff <= ZERO_FLOOR
    # T_res and T_ac vanish identically too, but their stderr is roundoff
    # (ratios of 13 and 14 here); the summary counts such ratios as 0 and
    # aggregates the others (0.92 here) as they are
    means = [c for c in checks if c.kind == "mean"]
    assert max(c.sigma_ratio for c in means if c.abs_diff <= ZERO_FLOOR) > 4.0
    ratios = [0.0 if c.abs_diff <= ZERO_FLOOR else c.sigma_ratio for c in means]
    assert 0.0 < summary["max_sigma_ratio"] == max(ratios) <= 4.0
    assert summary["min_sigma_ratio"] == min(ratios)
    assert summary["mean_sigma_ratio"] == sum(ratios) / len(ratios)


def test_sign_splits_are_the_signed_parts_of_their_terms():
    assert TRACKED_TERMS == TERMS + (
        "T_res_plus", "T_res_minus", "T_res_abs", "T_ac_plus", "T_ac_minus",
        "T_ac_abs", "E_c_plus", "E_c_minus")
    x = np.array([-2.0, -0.0, 0.0, 3.0])
    values = _derived_arrays(dict.fromkeys(TERMS, x))
    for name, (term, part) in SIGN_SPLITS.items():
        assert name == f"{term}_{part}"
        want = {"plus": [0.0, 0.0, 0.0, 3.0], "minus": [2.0, 0.0, 0.0, 0.0],
                "abs": [2.0, 0.0, 0.0, 3.0]}[part]
        assert values[name].tolist() == want, name
    assert EXPANSION_TERMS == {"E_out", "E_outA", "E_outB", "E_in", "E_inA",
                               "E_inB", "E_c", "E_c_plus", "E_c_minus"}


def test_csv_columns_follow_term_report_fields():
    renamed = {"min": "minimum", "max": "maximum"}
    assert [renamed.get(c, c) for c in CSV_COLUMNS[4:18]] == [
        f.name for f in fields(TermReport)]


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
    # refused before any block runs: the chunk size divides by d * N
    for d in (0, -1):
        with pytest.raises(ValueError, match="^d must be >= 1$"):
            run_single(d, 3, "equal", 100, seed=9)
