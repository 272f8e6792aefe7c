#!/usr/bin/env python3
"""kinpart benchmark: sweep throughput, single-system latency, layer times.

One workload:

    python3 perfbench/run.py --workload plane_sweep --seed 1 --seconds 30 --trace 0

Every workload, one after another, with a summary table:

    python3 perfbench/run.py --seed 1 --seconds 30 [--trace 1]

The last line a single workload prints is a JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, taken from a
traced run that wraps kinpart's public functions (spans.py).  The lines
before it give every metric with its unit, the failure fraction of the
checks, and the environment.  README.md says why each workload exists.

The program under test is the kinpart package in ``src/`` next to this
directory; it is imported from there and nowhere else.  Scratch files go to
``.perfbench_work/`` in the same checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# Sweep CSV digests are recorded for kinpart seeds 0 .. REFERENCE_SEEDS - 1;
# a runner seed is mapped onto them modulo this count.
REFERENCE_SEEDS = 32
# Threshold handed to `verify --sigma`.  A plane sweep makes 1372 mean and
# sign checks: at the CLI's default of 4 sigma about 8% of seeds show one
# chance failure (1372 x 6.3e-5), at 5 sigma about 0.08%.
VERIFY_SIGMA = "5"
SETUP_REPEATS = 7
# Untimed jobs before the timed ones.  The first second or two of a busy
# loop ran up to 40% slower on the 2-core x86-64 VM this was tuned on.
WARM_SECONDS = 2.0
ORACLE_TOL = 1e-8  # as `kinpart oracle-check`
TOTAL_MASS = 2.0
ORACLE_TERMS = ("T_ext", "T_int", "T_rot", "E_out", "E_in",
                "E_outA", "E_outB", "E_inA", "E_inB")

END_TO_END_UNITS = {
    "setup_s": "s",
    "systems_per_s": "1/s",
    "call_us_p99": "us",
    "peak_rss_mb": "MB",
}

# numpy is imported before the clock starts: its import (about 0.13 s of
# shared-library loading on the tuning VM) is no part of kinpart, and its
# duration drifted by a third between sets of runs.
IMPORT_PROBE = (
    "import sys, time; import numpy; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import kinpart.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Singles:
    """compute_partition over per_config systems of each (d, N)."""

    dims: tuple
    particles: tuple
    per_config: int


@dataclass(frozen=True)
class Sweep:
    """`simulate` then `verify` over n_min..n_max, once per dimension,
    then optionally one pass of single-system calls."""

    dims: tuple
    n_min: int
    n_max: int
    masses: str
    samples: int
    workers: int
    singles: Singles | None = None

    def key(self, d):
        return (f"d={d} n={self.n_min}..{self.n_max} masses={self.masses} "
                f"samples={self.samples}")

    @property
    def systems(self):
        return len(self.dims) * (self.n_max - self.n_min + 1) * self.samples


WORKLOADS = {
    "plane_sweep": Sweep((2,), 3, 100, "equal", 1024, 1),
    # The single-system pass rides here: on its own it was too unsteady
    # (see README.md, "No separate single_systems workload").
    "space_small": Sweep((3, 4), 3, 8, "random", 4096, 1,
                         Singles((2, 3, 4), (3, 4, 6, 8), 8)),
    # Two 4096-system blocks per N, so both workers have a block to run.
    "plane_sweep_threads": Sweep((2,), 41, 60, "equal", 8192, 2),
}
# For the smoke test: same code paths, a second or so per workload.
TINY = {
    "plane_sweep": Sweep((2,), 3, 5, "equal", 8192, 1),
    "space_small": Sweep((3, 4), 3, 4, "random", 256, 1,
                         Singles((2, 3, 4), (3, 4, 6, 8), 1)),
    "plane_sweep_threads": Sweep((2,), 3, 5, "equal", 8192, 2),
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no kinpart source, bad files)."""


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, passed, what):
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def add_counts(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(what)


def import_kinpart():
    init = SRC / "kinpart" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no kinpart source at {init}")
    sys.path.insert(0, str(SRC))
    import kinpart
    import kinpart.cli
    import kinpart.partitions
    if Path(kinpart.__file__).resolve() != init.resolve():
        raise SetupError(f"imported kinpart from {kinpart.__file__}, not {init}")
    return kinpart


def load_reference():
    try:
        doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
        return doc["digests"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read reference digests {REFERENCE}: {exc}") from exc


def import_seconds():
    """Time to import kinpart in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise SetupError(f"import probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip())


def timed_span(tracer):
    return tracer.span("bench.timed") if tracer else contextlib.nullcontext()


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SweepWorkload:
    def __init__(self, name, spec, seed, digests):
        self.name = name
        self.spec = spec
        self.singles = SinglesWorkload(spec.singles, seed) if spec.singles else None
        self.kinpart_seed = seed % REFERENCE_SEEDS
        self.expected = {}
        for d in spec.dims:
            recorded = digests.get(spec.key(d))
            self.expected[d] = recorded[self.kinpart_seed] if recorded else None

    def simulate_argv(self, d, n_min, n_max, samples, out):
        return ["simulate", "--d", str(d), "--n-min", str(n_min),
                "--n-max", str(n_max), "--masses", self.spec.masses,
                "--samples", str(samples), "--seed", str(self.kinpart_seed),
                "--out", str(out)]

    def setup(self, kinpart, tracer):
        """One-block warm-up through the same two commands, at the
        largest N: one full block (4096 systems, kinpart's BLOCK_SIZE)."""
        spec = self.spec
        out = WORK / f"{self.name}_warmup.csv"
        argv = self.simulate_argv(spec.dims[0], spec.n_max, spec.n_max,
                                  4096, out)
        if kinpart.cli.main(argv) != 0:
            raise SetupError(f"warm-up simulate failed: {argv}")
        with contextlib.redirect_stdout(io.StringIO()):
            kinpart.cli.main(["verify", "--input", str(out),
                              "--sigma", VERIFY_SIGMA])
        if self.singles:
            self.singles.setup(kinpart, tracer)

    @property
    def oracle_systems(self):
        return len(self.singles.systems) if self.singles else 0

    def job(self, kinpart, tracer, checks):
        """Returns (timed seconds, systems, output, single-call seconds)."""
        spec = self.spec
        wall = 0.0
        digests = []
        for d in spec.dims:
            out = WORK / f"{self.name}_d{d}.csv"
            simulate = self.simulate_argv(d, spec.n_min, spec.n_max, spec.samples, out)
            verify = ["verify", "--input", str(out), "--sigma", VERIFY_SIGMA]
            report = io.StringIO()
            start = time.perf_counter()
            with timed_span(tracer):
                code = kinpart.cli.main(simulate)
            with timed_span(tracer), contextlib.redirect_stdout(report):
                kinpart.cli.main(verify)
            wall += time.perf_counter() - start

            checks.add(code == 0, f"simulate exit code {code} (d={d})")
            summary = re.search(r"^checks=(\d+) failures=(\d+)",
                                report.getvalue(), re.M)
            if summary:
                failures = [line for line in report.getvalue().splitlines()
                            if line.startswith("FAIL")]
                checks.add_counts(int(summary[1]), int(summary[2]),
                                  f"verify d={d}: {failures[:3]}")
            else:
                checks.add(False, f"verify printed no summary (d={d})")
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            checks.add(digest == self.expected[d],
                       f"CSV sha256 {digest} != reference "
                       f"{self.expected[d]} ({spec.key(d)}, "
                       f"seed {self.kinpart_seed})")
            digests.append(digest)
        systems = spec.systems
        output = tuple(digests)
        single_calls = []
        if self.singles:
            single_calls, values = self.singles.job(kinpart, tracer, checks)
            wall += sum(single_calls)
            systems += len(single_calls)
            output += values
        return wall, systems, output, single_calls


def make_systems(spec, seed):
    """Seeded single systems, generated here with numpy, not by kinpart.

    Masses are equal or uniform variates (alternating), positions and
    velocities Gaussian with the centre of mass removed; columns of Z are
    (m_a / M)^(1/2) r_a, the convention of `kinpart partition`.
    """
    rng = np.random.default_rng([seed, 1301])
    systems = []
    for d in spec.dims:
        for n in spec.particles:
            for _ in range(spec.per_config):
                if len(systems) % 2:
                    masses = rng.uniform(size=n)
                    masses *= TOTAL_MASS / masses.sum()
                else:
                    masses = np.full(n, TOTAL_MASS / n)
                scale = np.sqrt(masses / TOTAL_MASS)[:, None]
                pair = []
                for _ in range(2):
                    r = rng.standard_normal((n, d))
                    r -= masses @ r / TOTAL_MASS
                    pair.append((r * scale).T.copy())
                systems.append(tuple(pair))
    return systems


class SinglesWorkload:
    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.systems = []
        self.oracles = []

    def setup(self, kinpart, tracer):
        """Inputs, their oracle values, and one warm call per (d, N)."""
        part = kinpart.partitions
        self.systems = make_systems(self.spec, self.seed)
        self.oracles = []
        with tracer.span("bench.oracles") if tracer else contextlib.nullcontext():
            for z, zdot in self.systems:
                proj = part.project_oracle(TOTAL_MASS, z, zdot)
                eig = part.eigenvector_split_oracle(TOTAL_MASS, z, zdot)
                self.oracles.append(
                    (proj.T_ext, proj.T_int, proj.T_rot, proj.E_out,
                     proj.E_in) + tuple(eig))
        for z, zdot in self.systems[::self.spec.per_config]:
            part.compute_partition(TOTAL_MASS, z, zdot)

    def job(self, kinpart, tracer, checks):
        """One pass over the systems; each call timed on its own.

        Returns (per-call seconds, result values)."""
        part = kinpart.partitions
        calls = []
        values = []
        for (z, zdot), oracle in zip(self.systems, self.oracles):
            with timed_span(tracer):
                start = time.perf_counter()
                result = part.compute_partition(TOTAL_MASS, z, zdot)
                calls.append(time.perf_counter() - start)
            fast = tuple(getattr(result, name) for name in ORACLE_TERMS)
            values.append(fast)
            if result.degenerate:
                continue  # oracle-check skips these too
            for name, a, b in zip(ORACLE_TERMS, fast, oracle):
                gap = abs(a - b) / max(1.0, abs(a), abs(b))
                checks.add(gap <= ORACLE_TOL,
                           f"{name} d={z.shape[0]} N={z.shape[1]}: "
                           f"fast {a!r} oracle {b!r}")
        return calls, tuple(values)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(kinpart, args):
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "kinpart").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "kinpart": kinpart.__version__, "commit": git_commit(),
        "src_lines": src_lines,
    }


def run_workload(args):
    kinpart = import_kinpart()
    specs = TINY if args.tiny else WORKLOADS
    spec = specs[args.workload]
    workload = SweepWorkload(args.workload, spec, args.seed,
                             load_reference())
    # The workload fixes its own worker count, whatever the caller's
    # environment says.
    os.environ["KINPART_THREADS"] = str(spec.workers)
    WORK.mkdir(exist_ok=True)
    checks = Checks()
    tracer = spans.Tracer() if args.trace else None

    def set_up():
        imported = import_seconds()
        start = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            workload.setup(kinpart, tracer)
        return imported + time.perf_counter() - start

    # The first set-up makes the jobs' inputs.  The others are spread over
    # the timed window, between jobs and outside their walls, so that their
    # median sees the machine's speed as the jobs' median does.
    setup_repeats = 1 if args.trace else SETUP_REPEATS
    setup_times = [set_up()]

    warm_until = time.perf_counter() + WARM_SECONDS
    while True:
        workload.job(kinpart, None, checks)
        if time.perf_counter() >= warm_until:
            break

    walls, systems, single_calls = [], [], []
    traced_walls = []
    window = time.perf_counter()
    deadline = window + args.seconds
    while True:
        if (len(setup_times) < setup_repeats and time.perf_counter() >=
                window + args.seconds * len(setup_times) / setup_repeats):
            setup_times.append(set_up())
        wall, count, output, calls = workload.job(kinpart, None, checks)
        walls.append(wall)
        systems.append(count)
        single_calls.extend(calls)
        if tracer:
            with tracer.installed():
                wall, _, traced_output, _ = workload.job(kinpart, tracer, checks)
            traced_walls.append(wall)
            checks.add(traced_output == output,
                       "traced run output differs from untraced")
        if time.perf_counter() >= deadline:
            break
    while len(setup_times) < setup_repeats:
        setup_times.append(set_up())

    if tracer:
        violations = spans.SpanIndex(tracer.spans).nesting_violations()
        checks.add(not violations, f"span nesting: {violations[:3]}")
        values = spans.layer_metrics(
            tracer.spans, spec.workers, workload.oracle_systems)
        units = dict(spans.LAYER_UNITS)
        values["trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        units["trace_overhead_frac"] = "frac"
        # Latency of the untraced single-system calls (0 when there are none).
        for q in (50, 99):
            name = f"partitions.call_us_p{q}"
            values[name] = 1e6 * percentile(single_calls, q) if single_calls else 0.0
            units[name] = "us/call"
    else:
        rates = [n / w for n, w in zip(systems, walls)]
        values = {
            "setup_s": statistics.median(setup_times),
            "systems_per_s": statistics.median(rates),
            "call_us_p99": 1e6 * percentile(walls, 99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    print(f"jobs = {len(walls)}, single-system calls = {len(single_calls)}")
    print(f"fail_frac = {checks.failed / checks.attempted!r} "
          f"({checks.failed} of {checks.attempted} checks failed)")
    for message in checks.messages:
        print(f"FAILED CHECK: {message}")
    print("env " + json.dumps(environment(kinpart, args)))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.failed == 0 else 1


def run_all(args):
    """Every workload in its own process (peak RSS is per process)."""
    rows = []
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=900, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: exit code {done.returncode}\n{done.stderr}")
            status = 2
            continue
        result = json.loads(lines[-1])
        status = max(status, done.returncode)
        rows.append((name, result))
    for name, result in rows:
        frac = result["failed"] / result["attempted"]
        print(f"\n[{name}] correct={result['correct']} fail_frac={frac!r} "
              f"({result['failed']} of {result['attempted']})")
        for key, metric in result["metrics"].items():
            print(f"  {key:34s} {metric['value']:>14.6g} {metric['unit']}")
    return status


def record():
    """Write the CSV digests of every sweep configuration and seed.

    Only for a deliberate change of the CSV bytes (a CSV_FORMAT bump):
    review the new digests before committing them.
    """
    kinpart = import_kinpart()
    WORK.mkdir(exist_ok=True)
    digests = {}
    for spec in (*WORKLOADS.values(), *TINY.values()):
        if spec.key(spec.dims[0]) in digests:
            continue
        os.environ["KINPART_THREADS"] = str(spec.workers)
        for seed in range(REFERENCE_SEEDS):
            checks = Checks()
            *_, output = SweepWorkload("record", spec, seed, {}).job(
                kinpart, None, checks)
            # The digest checks fail here (nothing is recorded yet); any
            # other failure is printed.  The single-system pass has no
            # inputs without setup(), so it adds nothing.
            if checks.failed != len(spec.dims):
                print(f"seed {seed}: {checks.messages}")
            for d, digest in zip(spec.dims, output):
                digests.setdefault(spec.key(d), []).append(digest)
        print(f"recorded {[spec.key(d) for d in spec.dims]}", flush=True)
    doc = {
        "csv_format": kinpart.cli.CSV_FORMAT,
        "numpy": np.__version__,
        "seeds": REFERENCE_SEEDS,
        "digests": digests,
    }
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test)")
    parser.add_argument("--record", action="store_true",
                        help="recompute the reference digests and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.record:
            return record()
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
