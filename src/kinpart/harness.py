"""Monte Carlo harness: sample ensembles, accumulate term statistics,
and compare the means against the closed-form values.

Sampling is split into fixed-size blocks; block index b of a run keys the
random substream (seed, mode, d, N, b), and block summaries are merged in
index order.  Results are therefore byte-reproducible for a given seed and
configuration no matter how many worker threads process the blocks.

Within a block, the draws are taken whole first (ensemble.draw_systems);
then chunks of at most max(1, CHUNK_ENTRIES // (d * N)) systems go through
the sampler's per-row geometry and the partition engine in index order.
The chunks' terms are concatenated and StatAccumulator.from_block runs on
the whole block, so no sum and no CSV byte depends on the chunk size.

Per (d, N, mode) the harness tracks the 19 energy terms plus the signed
components and magnitudes of the three terms that can change sign:
T_res, T_ac (negative fraction) and E_c (positive fraction).  Systems
flagged degenerate are excluded from the singular-expansion statistics
only; the exclusion count is reported.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._batch import TERMS, partition_batch
from .ensemble import MASS_MODES, MODE_CODES, draw_systems, substream
# Not called here: perfbench/spans.py wraps the sampler under this name.
from .ensemble import sample_system_block  # noqa: F401
from .expectations import conjecture_means

# Block size is part of the reproducibility contract: substreams are keyed
# by block index, so changing this constant changes sampled values.
BLOCK_SIZE = 4096

# Entries per (rows, d, N) array of a chunk: 1 MB, so a chunk's temporaries
# stay small whatever the block holds.  It sets memory, not sampled values.
CHUNK_ENTRIES = 2**17

THREADS_ENV = "KINPART_THREADS"

# Differences below this count as exact agreement.  Terms that vanish
# identically are measured with roundoff-level spread, so their t-ratios
# are meaningless; 1e-12 is far below any statistical resolution here and
# far above the observed roundoff.
ZERO_FLOOR = 1e-12

TRACKED_TERMS = TERMS + (
    "T_res_plus", "T_res_minus", "T_res_abs",
    "T_ac_plus", "T_ac_minus", "T_ac_abs",
    "E_c_plus", "E_c_minus",
)

# Terms tied to the singular value expansion: computed on the
# non-degenerate subset only.
EXPANSION_TERMS = frozenset(
    ("E_out", "E_outA", "E_outB", "E_in", "E_inA", "E_inB",
     "E_c", "E_c_plus", "E_c_minus")
)

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
    def from_block(values):
        """Summary of a non-empty block of observations (two-pass)."""
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

    def merge(self, other):
        """Fold another accumulator into this one."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.negatives = other.negatives
            self.positives = other.positives
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
    any mass distribution.  Random masses otherwise: only the residual
    mean (zero) and the structural zeros of E_outB / E_inB.
    """
    means = conjecture_means(d, N)
    if mode == "equal" or N == 2:
        return means.as_dict()
    out = {"T_res": 0.0}
    if means.omega == d:
        out["E_outB"] = 0.0
    if means.omega == means.nu:
        out["E_inB"] = 0.0
    return out


def thread_count():
    """Worker threads for block processing: KINPART_THREADS, 1 if unset or
    empty.  Raises ValueError unless it is a positive integer."""
    raw = os.environ.get(THREADS_ENV) or "1"
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _block_counts(samples):
    full, rem = divmod(samples, BLOCK_SIZE)
    counts = [BLOCK_SIZE] * full
    if rem:
        counts.append(rem)
    return counts


def _derived_arrays(res):
    values = {name: res[name] for name in TERMS}
    t_res = res["T_res"]
    t_ac = res["T_ac"]
    e_c = res["E_c"]
    values["T_res_plus"] = np.maximum(t_res, 0.0)
    values["T_res_minus"] = np.maximum(-t_res, 0.0)
    values["T_res_abs"] = np.abs(t_res)
    values["T_ac_plus"] = np.maximum(t_ac, 0.0)
    values["T_ac_minus"] = np.maximum(-t_ac, 0.0)
    values["T_ac_abs"] = np.abs(t_ac)
    values["E_c_plus"] = np.maximum(e_c, 0.0)
    values["E_c_minus"] = np.maximum(-e_c, 0.0)
    return values


def _block_summary(d, N, mode, seed, block_index, count):
    """Per-term StatAccumulators for one block of systems."""
    rng = substream(seed, MODE_CODES[mode], d, N, block_index)
    draws = draw_systems(d, N, mode, rng, count)
    step = max(1, CHUNK_ENTRIES // (d * N))
    chunks = []
    for lo in range(0, count, step):
        # The masses are dropped at once, so they are freed before the
        # engine's temporaries are allocated.
        z, zdot = draws.rows(lo, min(lo + step, count))[:2]
        chunks.append(partition_batch(2.0, z, zdot))
    res = {key: np.concatenate([chunk[key] for chunk in chunks])
           for key in chunks[0]}
    values = _derived_arrays(res)
    keep = ~res["degenerate"]
    n_deg = int(np.sum(res["degenerate"]))
    out = {}
    for term in TRACKED_TERMS:
        arr = values[term]
        if term in EXPANSION_TERMS and n_deg:
            arr = arr[keep]
        out[term] = StatAccumulator.from_block(arr) if arr.size else StatAccumulator()
    return n_deg, out


def run_single(d, N, mode, samples, seed):
    """One (d, N, mode) experiment: samples systems, returns a RunReport."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if mode not in MASS_MODES:
        raise ValueError(f"unknown mass mode {mode!r}")
    counts = _block_counts(samples)
    workers = thread_count()

    def job(args):
        return _block_summary(d, N, mode, seed, *args)

    jobs = list(enumerate(counts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(job, jobs))
    else:
        summaries = [job(item) for item in jobs]

    accum = {term: StatAccumulator() for term in TRACKED_TERMS}
    degenerate_count = 0
    for n_deg, block in summaries:  # merged in block-index order
        degenerate_count += n_deg
        for term in TRACKED_TERMS:
            accum[term].merge(block[term])

    expected = expected_values(d, N, mode)
    nu = N - 1
    terms = {}
    for term in TRACKED_TERMS:
        acc = accum[term]
        exp = expected.get(term)
        abs_diff, weighted, ratio = (
            (None, None, None) if exp is None
            else _discrepancy(acc.mean, acc.stderr, exp, N))
        terms[term] = TermReport(
            term=term,
            count=acc.count,
            mean=acc.mean,
            variance_biased=acc.variance_biased,
            stderr=acc.stderr,
            minimum=acc.minimum,
            maximum=acc.maximum,
            expected=exp,
            abs_diff=abs_diff,
            weighted_diff=weighted,
            sigma_ratio=ratio,
            fraction_negative=(acc.negatives / acc.count
                               if term in NEGATIVE_FRACTION_TERMS else None),
            fraction_positive=(acc.positives / acc.count
                               if term in POSITIVE_FRACTION_TERMS else None),
            degenerate_excluded=(degenerate_count if term in EXPANSION_TERMS else 0),
        )
    return RunReport(
        d=d, N=N, mode=mode, seed=seed, samples=samples,
        x_abscissa=0.5 - 1.0 / nu, degenerate_count=degenerate_count,
        terms=terms,
    )


def run_experiment(d, n_min, n_max, samples, mode, seed):
    """RunReports for every N in [n_min, n_max]."""
    if n_min < 2 or n_max < n_min:
        raise ValueError(f"invalid particle range [{n_min}, {n_max}]")
    return [run_single(d, N, mode, samples, seed)
            for N in range(n_min, n_max + 1)]


def _discrepancy(mean, stderr, expected, N):
    """(|mean - expected|, its nu-weighted form, its ratio to stderr)."""
    abs_diff = abs(mean - expected)
    if stderr > 0.0:
        ratio = abs_diff / stderr
    else:
        ratio = 0.0 if abs_diff <= ZERO_FLOOR else math.inf
    return abs_diff, 2.0 * (N - 1) * abs_diff, ratio


def _mean_check(report, tr, sigma_threshold):
    abs_diff, weighted, ratio = _discrepancy(tr.mean, tr.stderr, tr.expected, report.N)
    passed = abs_diff <= ZERO_FLOOR or ratio <= sigma_threshold
    return Check(
        N=report.N, mode=report.mode, term=tr.term, kind="mean",
        expected=tr.expected, observed=tr.mean, abs_diff=abs_diff,
        weighted_diff=weighted, sigma_ratio=ratio, passed=passed,
    )


def _sign_check(report, sigma_threshold):
    tr = report.terms["T_res"]
    observed = tr.fraction_negative
    sigma_binomial = 0.5 / math.sqrt(tr.count)
    diff = abs(observed - 0.5)
    ratio = diff / sigma_binomial
    return Check(
        N=report.N, mode=report.mode, term="T_res", kind="sign",
        expected=0.5, observed=observed, abs_diff=diff,
        weighted_diff=2.0 * (report.N - 1) * diff, sigma_ratio=ratio,
        passed=ratio <= sigma_threshold,
    )


def verify_report(reports, sigma_threshold=4.0):
    """Compare run means against the closed-form values.

    Every TermReport that carries an expected value gets a mean check at
    the given sigma threshold; the residual energy additionally gets a
    binomial check that it is negative for half of the systems (d >= 2 and
    N >= 3 only; in the other cases the residual vanishes identically and
    its sign is roundoff noise).  Returns (checks, summary) where the
    summary aggregates abs_diff / weighted_diff / sigma_ratio over the mean
    checks, mirroring how batches of such comparisons are usually quoted.
    """
    checks = []
    for report in reports:
        for term, tr in report.terms.items():
            if tr.expected is None:
                continue
            checks.append(_mean_check(report, tr, sigma_threshold))
            # The sign of the residual is only distributed for d >= 2 and
            # N >= 3; on the line and for two particles it vanishes
            # identically.
            if term == "T_res" and report.d >= 2 and report.N >= 3:
                checks.append(_sign_check(report, sigma_threshold))
    mean_checks = [c for c in checks if c.kind == "mean"]
    summary = {
        "checks": len(checks),
        "failures": sum(not c.passed for c in checks),
    }
    for key in ("abs_diff", "weighted_diff", "sigma_ratio"):
        values = [getattr(c, key) for c in mean_checks]
        summary[f"min_{key}"] = min(values) if values else math.nan
        summary[f"max_{key}"] = max(values) if values else math.nan
        summary[f"mean_{key}"] = (sum(values) / len(values)) if values else math.nan
    return checks, summary
