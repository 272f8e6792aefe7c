"""Command-line front end.

Subcommands:

  partition     all energy terms of one system read from a JSON file
  simulate      batch Monte Carlo runs, written as CSV
  verify        re-check a simulate CSV against the closed-form means
  oracle-check  cross-validate the fast paths against the brute-force ones

The simulate CSV is harness's: simulate writes it with
harness.write_reports_csv, and verify reads it with read_reports_csv and
hands the rows straight to harness.verify_report.  Its header records the
flags plus the fixed solve tolerances gap_tol and zero_tol, so a header is
enough to rerun it, and rerunning a configuration yields a byte-identical
file.
The number of forked worker processes comes from the KINPART_THREADS
environment variable (a positive integer; 1 if unset); the rest are flags.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from ._batch import GAP_TOL, MOMENTA, ZERO_TOL
from .ensemble import MASS_MODES, TOTAL_MASS, sample_system_block, substream
# cmd_simulate looks write_reports_csv up here, where perfbench/spans.py wraps it.
from .harness import (CSV_FORMAT, read_reports_csv, run_experiment, verify_report,
                      write_reports_csv)
from .partitions import (
    _unit_scaled, compute_partition, eigenvector_split_oracle, momenta_direct,
    project_oracle,
)

ORACLE_MAX_D = 5
ORACLE_MAX_N = 100
# Terms oracle-check compares with project_oracle and with
# eigenvector_split_oracle; the momenta go against momenta_direct.
_PROJECTED = ("T_ext", "T_int", "T_rot", "E_out", "E_in")
_SPLIT = ("E_outA", "E_outB", "E_inA", "E_inB")


def load_system_file(path):
    """Read masses / positions / velocities JSON and build (M, Z, Zdot).

    Positions and velocities are the raw per-particle vectors; columns of Z
    are the mass-scaled vectors (m_a / M)^(1/2) r_a.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object")
    try:
        masses = np.asarray(doc["masses"], dtype=float)
        positions = np.asarray(doc["positions"], dtype=float)
        velocities = np.asarray(doc["velocities"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in {path}") from exc
    except TypeError as exc:
        raise ValueError(f"masses, positions and velocities must be arrays "
                         f"of numbers in {path}") from exc
    if masses.ndim != 1 or masses.size == 0:
        raise ValueError("masses must be a non-empty list of numbers")
    with np.errstate(over="ignore"):  # checked just below
        total = float(np.sum(masses))
    if not (np.all(masses > 0.0) and np.isfinite(total)):
        raise ValueError("masses must be finite and > 0, with a finite sum")
    n = masses.size
    if positions.ndim != 2 or positions.shape[0] != n:
        raise ValueError(f"positions must be {n} arrays of equal length")
    if velocities.shape != positions.shape:
        raise ValueError("velocities must match the shape of positions")
    scale = np.sqrt(masses / total)
    z = (positions * scale[:, None]).T
    zdot = (velocities * scale[:, None]).T
    return total, z, zdot


def cmd_partition(args):
    total, z, zdot = load_system_file(args.input)
    result = compute_partition(total, z, zdot)
    # rho from the rescaled Z, so z * z cannot overflow at any scale.
    z_unit, z_exp = _unit_scaled(z)
    with np.errstate(over="ignore"):  # checked just below
        rho = float(np.ldexp(np.sqrt(np.sum(z_unit * z_unit)), z_exp))
    if not np.isfinite(rho):
        raise ValueError("rho beyond the double range")
    out = {"M": total, "rho": rho, "d": z.shape[0], "N": z.shape[1]}
    out.update(result.terms())
    # Momenta beyond the double range print as null.
    out.update(dataclasses.asdict(result.momenta) if result.momenta is not None
               else dict.fromkeys(MOMENTA))
    out["degenerate"] = result.degenerate
    print(json.dumps(out, indent=2, allow_nan=False))
    return 0


def cmd_simulate(args):
    config = {
        "command": "simulate", "format": CSV_FORMAT, "d": args.d,
        "n_min": args.n_min, "n_max": args.n_max, "samples": args.samples,
        "masses": args.masses, "seed": args.seed,
        # Fixed, but kept in the header: the pinned CSV digests cover its bytes.
        "gap_tol": GAP_TOL, "zero_tol": ZERO_TOL,
    }
    reports = run_experiment(
        args.d, args.n_min, args.n_max, args.samples, args.masses, args.seed)
    write_reports_csv(args.out, reports, config)
    return 0


def cmd_verify(args):
    _, rows = read_reports_csv(args.input)
    # Each row is checked against the CSV's own expected column.
    checks, summary = verify_report(rows, args.sigma)
    if not checks:
        print("no checkable rows (no expected values present)")
        return 1
    for check in checks:
        shown = (f"diff={check.abs_diff!r}" if check.kind == "mean"
                 else f"fraction={check.observed!r}")
        print(f"{'PASS' if check.passed else 'FAIL'} {check.kind} {check.term} "
              f"N={check.N} {check.mode} {shown} sigma_ratio={check.sigma_ratio!r}")
    stats = " ".join(
        f"{key} min={summary['min_' + key]!r} max={summary['max_' + key]!r} "
        f"mean={summary['mean_' + key]!r}" for key in ("abs_diff", "sigma_ratio"))
    print(f"checks={summary['checks']} failures={summary['failures']} {stats}")
    return 1 if summary["failures"] else 0


def _relative_gap(a, b):
    return float(abs(a - b) / max(1.0, abs(a), abs(b)))


def cmd_oracle_check(args):
    if args.d > ORACLE_MAX_D or args.n > ORACLE_MAX_N:
        raise ValueError(
            f"oracle-check is limited to d <= {ORACLE_MAX_D}, N <= {ORACLE_MAX_N}")
    if args.samples < 1:
        raise ValueError("oracle-check needs --samples >= 1")
    worst = dict.fromkeys(_PROJECTED + MOMENTA + _SPLIT, 0.0)
    skipped = 0
    for index in range(args.samples):
        mode = MASS_MODES[index % 2]
        rng = substream(args.seed, 90, args.d, args.n, index)
        z, zdot, _ = sample_system_block(args.d, args.n, mode, rng, 1)
        z, zdot = z[0], zdot[0]
        part = compute_partition(TOTAL_MASS, z, zdot)
        if part.degenerate:
            skipped += 1
            continue
        oracle = project_oracle(TOTAL_MASS, z, zdot)
        direct = momenta_direct(TOTAL_MASS, z, zdot)
        # (name, engine value, oracle value)
        table = [(name, getattr(part, name), getattr(oracle, name)) for name in _PROJECTED]
        table += [(name, getattr(part.momenta, name), getattr(direct, name))
                  for name in MOMENTA]
        table += zip(_SPLIT, (getattr(part, name) for name in _SPLIT),
                     eigenvector_split_oracle(TOTAL_MASS, z, zdot))
        for name, fast, slow in table:
            worst[name] = max(worst[name], _relative_gap(fast, slow))
    tol = 1e-8
    ok = all(v <= tol for v in worst.values())
    for name, value in worst.items():
        print(f"{name}: max relative discrepancy {value!r}")
    print(f"degenerate skipped: {skipped}")
    print(f"{'PASS' if ok else 'FAIL'} (tolerance {tol!r})")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kinpart",
        description="Kinetic energy partitions of N-particle systems "
                    "and their ensemble statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition one system from a JSON file")
    p.add_argument("--input", required=True, help="JSON with masses/positions/velocities")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("simulate", help="Monte Carlo run over a range of N")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--masses", choices=MASS_MODES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="re-check a simulate CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", type=float, default=4.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle-check", help="fast paths vs brute-force oracles")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
