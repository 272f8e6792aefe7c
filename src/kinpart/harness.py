"""Monte Carlo harness: sample ensembles, accumulate term statistics,
and compare the means against the closed-form values.

Sampling is split into fixed-size blocks; block index b of a run keys the
random substream (seed, mode, d, N, b), and block summaries are merged in
index order.  Results are therefore byte-reproducible for a given seed and
configuration no matter how many workers process the blocks.  They run
largest N first, in this process with one worker or one job, else on one
pool of min(KINPART_THREADS, jobs, usable CPUs) forked worker processes.

Within a block, ensemble.draw_systems takes the draws whole first, then
yields chunks of max(1, ensemble.CHUNK_ENTRIES // (d * N)) systems or fewer
in index order, and each chunk goes through the partition engine as it comes.
The chunks' terms are concatenated and StatAccumulator.from_block runs on
the whole block, one stack of rows for the expansion terms and one for the
rest, so no sum and no CSV byte depends on the chunk size.

Per (d, N, mode) the harness tracks the 19 energy terms plus the signed
components and magnitudes of the three terms that can change sign:
T_res, T_ac (negative fraction) and E_c (positive fraction).  The table
SIGN_SPLITS names these eight splits, each with its term and part, and
TRACKED_TERMS is TERMS followed by its names.  Systems flagged degenerate
are excluded from the singular-expansion statistics only; the exclusion
count is reported.

Each term of a run is one row keyed by CSV_COLUMNS (report_rows), which
write_reports_csv and read_reports_csv carry as the simulate CSV, typed by
RunReport's and TermReport's fields; verify_report checks such rows, so a
run in memory and its CSV are verified by the same code.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, fields
from typing import get_args

import numpy as np

from ._batch import TERMS, partition_batch
from .ensemble import (CHUNK_ENTRIES, MASS_MODES, MODE_CODES, TOTAL_MASS, draw_systems,
                       substream)
# Not called here: perfbench/spans.py wraps the sampler under this name.
from .ensemble import sample_system_block  # noqa: F401
from .expectations import conjecture_means

# Block size is part of the reproducibility contract: substreams are keyed
# by block index, so changing this constant changes sampled values.
BLOCK_SIZE = 4096

THREADS_ENV = "KINPART_THREADS"

# Differences below this count as exact agreement.  Terms that vanish
# identically are measured with roundoff-level spread, so their t-ratios
# are meaningless; 1e-12 is far below any statistical resolution here and
# far above the observed roundoff.
ZERO_FLOOR = 1e-12

# Tracked name -> (term, part) for the terms that can change sign; _PARTS
# evaluates each part.
SIGN_SPLITS = {
    "T_res_plus": ("T_res", "plus"), "T_res_minus": ("T_res", "minus"),
    "T_res_abs": ("T_res", "abs"),
    "T_ac_plus": ("T_ac", "plus"), "T_ac_minus": ("T_ac", "minus"),
    "T_ac_abs": ("T_ac", "abs"),
    "E_c_plus": ("E_c", "plus"), "E_c_minus": ("E_c", "minus"),
}
_PARTS = {"plus": lambda x: np.maximum(x, 0.0),
          "minus": lambda x: np.maximum(-x, 0.0), "abs": np.abs}
TRACKED_TERMS = TERMS + tuple(SIGN_SPLITS)

# Terms tied to the singular value expansion, the E_ terms and their sign
# splits: computed on the non-degenerate subset only.
EXPANSION_TERMS = frozenset(term for term in TRACKED_TERMS if term.startswith("E_"))

NEGATIVE_FRACTION_TERMS = ("T_res", "T_ac")
POSITIVE_FRACTION_TERMS = ("E_c",)


@dataclass
class StatAccumulator:
    """Streaming count/mean/M2/min/max plus sign counters; mergeable.

    M2 is the sum of squared deviations from the mean, so the biased sample
    variance is M2 / count.  Merging follows the pairwise update rule and
    is exact in exact arithmetic; blocks reduce with numpy's pairwise
    summation, which keeps the accumulated roundoff at compensated-summation
    levels.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    negatives: int = 0
    positives: int = 0

    @staticmethod
    def from_block(stack):
        """Summaries of the rows of a (k, n) stack of observations, one
        accumulator per row, each as the two-pass sums over that row alone;
        empty ones if n is 0.  The rows are made contiguous, so numpy sums
        each pairwise whatever the stack's layout."""
        stack = np.ascontiguousarray(stack, dtype=float)
        k, n = stack.shape
        if n == 0:
            return [StatAccumulator() for _ in range(k)]
        means = np.sum(stack, axis=1) / n
        dev = stack - means[:, None]
        columns = zip(means.tolist(), np.sum(dev * dev, axis=1).tolist(),
                      np.min(stack, axis=1).tolist(), np.max(stack, axis=1).tolist(),
                      np.sum(stack < 0.0, axis=1).tolist(),
                      np.sum(stack > 0.0, axis=1).tolist())
        return [StatAccumulator(n, *row) for row in columns]

    def merge(self, other):
        """Fold another accumulator into this one."""
        if other.count == 0:
            return self
        if self.count == 0:
            vars(self).update(vars(other))
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.negatives += other.negatives
        self.positives += other.positives
        return self

    @property
    def variance_biased(self):
        return self.m2 / self.count if self.count else math.nan

    @property
    def stderr(self):
        return math.sqrt(self.variance_biased / self.count) if self.count else math.nan


@dataclass(frozen=True)
class TermReport:
    """Summary statistics of one term in one (d, N, mode) run."""

    term: str
    count: int
    mean: float
    variance_biased: float
    stderr: float
    minimum: float
    maximum: float
    expected: float | None = None
    abs_diff: float | None = None
    weighted_diff: float | None = None
    sigma_ratio: float | None = None
    fraction_negative: float | None = None
    fraction_positive: float | None = None
    degenerate_excluded: int = 0


@dataclass(frozen=True)
class RunReport:
    """All term reports for one (d, N, mode) at one seed."""

    d: int
    N: int
    mode: str
    seed: int
    samples: int
    x_abscissa: float
    degenerate_count: int
    terms: dict


CSV_FORMAT = "kinpart-simulate-csv/1"
# One CSV row per (d, N, mode, term): four run fields, TermReport's fields and
# the seed, each parsed by its field's type (the first of a union: float | None).
_TYPES = {f.name: f.type for f in fields(RunReport) + fields(TermReport)}
_CSV_FIELDS = ("d", "N", "x_abscissa", "mode", *(f.name for f in fields(TermReport)), "seed")
CSV_COLUMNS = tuple({"mode": "mass_mode", "minimum": "min", "maximum": "max"}.get(f, f)
                    for f in _CSV_FIELDS)
_PARSERS = [(get_args(_TYPES[f]) or (_TYPES[f],))[0] for f in _CSV_FIELDS]


def report_rows(reports):
    """Each term of each RunReport as a dict keyed by CSV_COLUMNS, in the
    order the CSV lists them."""
    for rep in reports:
        for tr in rep.terms.values():
            yield dict(zip(CSV_COLUMNS, map({**vars(rep), **vars(tr)}.get, _CSV_FIELDS)))


def write_reports_csv(path, reports, config):
    """A CSV_FORMAT line holding the config as JSON, then report_rows(reports)
    under a CSV_COLUMNS header; floats in shortest round-trip form, None empty."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# {CSV_FORMAT} config={json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerows([CSV_COLUMNS, *(row.values() for row in report_rows(reports))])


def read_reports_csv(path):
    """Parse a simulate CSV back into (config, row dicts keyed by
    CSV_COLUMNS), skipping blank lines; the inverse of write_reports_csv."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        head = handle.readline()
        if not head.startswith(f"# {CSV_FORMAT} config="):
            raise ValueError(f"{path} is not a {CSV_FORMAT} file")
        config = json.loads(head.split("config=", 1)[1])
        lines = csv.reader(handle)
        if tuple(next(lines, ())) != CSV_COLUMNS:
            raise ValueError(f"{path} has no column header or an unexpected one")
        rows = []
        for parts in filter(None, lines):
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(f"malformed row in {path}: {','.join(parts)!r}")
            rows.append({key: None if raw == "" else parse(raw)
                         for key, parse, raw in zip(CSV_COLUMNS, _PARSERS, parts)})
    return config, rows


@dataclass(frozen=True)
class Check:
    """One verified equality (mean value or sign fraction)."""

    N: int
    mode: str
    term: str
    kind: str
    expected: float
    observed: float
    abs_diff: float
    weighted_diff: float
    sigma_ratio: float
    passed: bool


def expected_values(d, N, mode):
    """Term -> expected mean for the given ensemble.

    Equal masses: all 13 bounded terms.  N = 2: the same values hold for
    any mass distribution.  Random masses otherwise: the closed forms that
    are exactly zero among T_res, E_outB and E_inB, whose means do not
    depend on the masses.
    """
    means = conjecture_means(d, N)
    if mode == "equal" or N == 2:
        return means
    return {term: means[term] for term in ("T_res", "E_outB", "E_inB")
            if means[term] == 0.0}


def thread_count():
    """Worker processes for block processing: KINPART_THREADS, 1 if unset or
    empty.  Raises ValueError unless it is a positive integer."""
    raw = os.environ.get(THREADS_ENV) or "1"
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _usable_cpus():
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _block_counts(samples):
    full, rem = divmod(samples, BLOCK_SIZE)
    counts = [BLOCK_SIZE] * full
    if rem:
        counts.append(rem)
    return counts


def _derived_arrays(res):
    """Every tracked term's array: the engine's, then the sign splits'."""
    values = {name: res[name] for name in TERMS}
    values.update((name, _PARTS[part](res[term]))
                  for name, (term, part) in SIGN_SPLITS.items())
    return values


def _block_summary(d, N, mode, seed, block_index, count):
    """Per-term StatAccumulators for one block of systems."""
    rng = substream(seed, MODE_CODES[mode], d, N, block_index)
    step = max(1, CHUNK_ENTRIES // (d * N))
    # In random mode a chunk's masses and their scale factors, at most
    # CHUNK_ENTRIES // d doubles each, stay alive while the engine runs.
    chunks = [partition_batch(TOTAL_MASS, z, zdot)
              for z, zdot, _ in draw_systems(d, N, mode, rng, count, step)]
    res = {key: np.concatenate([chunk[key] for chunk in chunks])
           for key in chunks[0]}
    values = _derived_arrays(res)
    n_deg = int(np.sum(res["degenerate"]))
    out = {}
    for expansion in (False, True):
        terms = [term for term in TRACKED_TERMS if (term in EXPANSION_TERMS) == expansion]
        stack = np.stack([values[term] for term in terms])
        if expansion and n_deg:
            stack = stack[:, ~res["degenerate"]]
        out.update(zip(terms, StatAccumulator.from_block(stack)))
    return n_deg, out


def run_single(d, N, mode, samples, seed):
    """One (d, N, mode) experiment: samples systems, returns a RunReport."""
    return run_experiment(d, N, N, samples, mode, seed)[0]


def run_experiment(d, n_min, n_max, samples, mode, seed):
    """RunReports for every N in [n_min, n_max]; workers need fork."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if n_min < 2 or n_max < n_min:
        raise ValueError(f"invalid particle range [{n_min}, {n_max}]")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if mode not in MASS_MODES:
        raise ValueError(f"unknown mass mode {mode!r}")
    counts = _block_counts(samples)
    ns = range(n_max, n_min - 1, -1)
    jobs = zip(*[(d, N, mode, seed, b, c) for N in ns for b, c in enumerate(counts)])
    workers = min(thread_count(), len(ns) * len(counts), _usable_cpus())
    if workers == 1:
        summaries = list(map(_block_summary, *jobs))
    else:
        from concurrent.futures.process import ProcessPoolExecutor
        from multiprocessing import get_all_start_methods, get_context
        if "fork" not in get_all_start_methods():
            raise ValueError(f"{THREADS_ENV} > 1 needs the fork start method, "
                             "which this platform lacks")
        with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
            summaries = list(pool.map(_block_summary, *jobs))
    k = len(counts)
    return [_report(d, N, mode, samples, seed, summaries[i * k:(i + 1) * k])
            for i, N in enumerate(ns)][::-1]


def _report(d, N, mode, samples, seed, summaries):
    accum = {term: StatAccumulator() for term in TRACKED_TERMS}
    degenerate_count = 0
    for n_deg, block in summaries:  # merged in block-index order
        degenerate_count += n_deg
        for term in TRACKED_TERMS:
            accum[term].merge(block[term])

    expected = expected_values(d, N, mode)
    terms = {}
    for term in TRACKED_TERMS:
        acc = accum[term]
        exp = expected.get(term)
        diffs = (None,) * 3 if exp is None else _discrepancy(acc.mean, acc.stderr, exp, N)
        terms[term] = TermReport(
            term, acc.count, acc.mean, acc.variance_biased, acc.stderr,
            acc.minimum, acc.maximum, exp, *diffs,
            acc.negatives / acc.count if term in NEGATIVE_FRACTION_TERMS else None,
            acc.positives / acc.count if term in POSITIVE_FRACTION_TERMS else None,
            degenerate_count if term in EXPANSION_TERMS else 0)
    return RunReport(d, N, mode, seed, samples, 0.5 - 1.0 / (N - 1),
                     degenerate_count, terms)


def _discrepancy(mean, stderr, expected, N):
    """(|mean - expected|, its nu-weighted form, its ratio to stderr)."""
    abs_diff = abs(mean - expected)
    if stderr > 0.0:
        ratio = abs_diff / stderr
    else:
        ratio = 0.0 if abs_diff <= ZERO_FLOOR else math.inf
    return abs_diff, 2.0 * (N - 1) * abs_diff, ratio


def _check(row, kind, observed, stderr, expected, sigma_threshold):
    abs_diff, weighted, ratio = _discrepancy(observed, stderr, expected, row["N"])
    return Check(row["N"], row["mass_mode"], row["term"], kind, expected, observed,
                 abs_diff, weighted, ratio,
                 abs_diff <= ZERO_FLOOR or ratio <= sigma_threshold)


def verify_report(rows, sigma_threshold=4.0):
    """Compare the CSV rows of a run (read_reports_csv's, or report_rows of
    RunReports) against the closed-form values.

    Every row that carries an expected value gets a mean check at the given
    sigma threshold; the residual energy additionally gets a binomial check
    that it is negative for half of the systems (d >= 2 and N >= 3 only; in
    the other cases the residual vanishes identically and its sign is
    roundoff noise).  Either check passes outright when |diff| <= ZERO_FLOOR.
    Raises ValueError on a checked row with count below 1, without the
    d, N, mean, stderr or (for the sign check) fraction_negative it needs, or
    with a stderr that is not finite and >= 0.
    Returns (checks, summary) where the summary aggregates abs_diff /
    weighted_diff / sigma_ratio over the mean checks, taking as 0 the ratio
    of one passed on the zero floor, which is roundoff over roundoff.
    """
    if not (math.isfinite(sigma_threshold) and sigma_threshold > 0.0):
        raise ValueError(f"sigma threshold must be finite and > 0, got {sigma_threshold!r}")
    checks = []
    for row in rows:
        if row["expected"] is None:
            continue
        sign = row["term"] == "T_res" and (row["d"] or 0) >= 2 and (row["N"] or 0) >= 3
        needed = ("d", "N", "mean", "stderr") + (("fraction_negative",) if sign else ())
        if ((row["count"] or 0) < 1 or any(row[key] is None for key in needed)
                or not 0.0 <= row["stderr"] < math.inf):
            raise ValueError(f"{row['term']} row at N={row['N']} needs count >= 1 "
                             f"and {', '.join(needed)}, with stderr finite and >= 0")
        checks.append(_check(row, "mean", row["mean"], row["stderr"], row["expected"],
                             sigma_threshold))
        if sign:
            checks.append(_check(row, "sign", row["fraction_negative"],
                                 0.5 / math.sqrt(row["count"]), 0.5, sigma_threshold))
    mean_checks = [c for c in checks if c.kind == "mean"]
    summary = {
        "checks": len(checks),
        "failures": sum(not c.passed for c in checks),
    }
    for key in ("abs_diff", "weighted_diff", "sigma_ratio"):
        values = [0.0 if key == "sigma_ratio" and c.abs_diff <= ZERO_FLOOR
                  else getattr(c, key) for c in mean_checks]
        summary[f"min_{key}"] = min(values) if values else math.nan
        summary[f"max_{key}"] = max(values) if values else math.nan
        summary[f"mean_{key}"] = (sum(values) / len(values)) if values else math.nan
    return checks, summary
