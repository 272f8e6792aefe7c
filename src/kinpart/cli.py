"""Command-line front end.

Subcommands:

  partition     all energy terms of one system read from a JSON file
  simulate      batch Monte Carlo runs, written as CSV
  verify        re-check a simulate CSV against the closed-form means
  oracle-check  cross-validate the fast paths against the brute-force ones

All numeric output uses shortest round-trip decimals, so parsing a written
CSV reproduces every value exactly, and rerunning a configuration yields a
byte-identical file.  The simulate header records the flags plus the fixed
solve tolerances gap_tol and zero_tol, so a header is enough to rerun it.
Worker thread count comes from the KINPART_THREADS environment variable
(a positive integer; 1 if unset); everything else is a flag.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from ._batch import GAP_TOL, MOMENTA, ZERO_TOL
from .ensemble import MASS_MODES, TOTAL_MASS, sample_system_block, substream
from .harness import (
    TRACKED_TERMS, RunReport, TermReport, run_experiment, verify_report,
)
from .momenta import momenta_direct
from .partitions import (
    compute_partition, eigenvector_split_oracle, project_oracle, svd_rates,
)

CSV_FORMAT = "kinpart-simulate-csv/1"
CSV_COLUMNS = (
    "d", "N", "x_abscissa", "mass_mode", "term", "count", "mean",
    "variance_biased", "stderr", "min", "max", "expected", "abs_diff",
    "weighted_diff", "sigma_ratio", "fraction_negative",
    "fraction_positive", "degenerate_excluded", "seed",
)

ORACLE_MAX_D = 5
ORACLE_MAX_N = 8


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_system_file(path):
    """Read masses / positions / velocities JSON and build (M, Z, Zdot).

    Positions and velocities are the raw per-particle vectors; columns of Z
    are the mass-scaled vectors (m_a / M)^(1/2) r_a.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    try:
        masses = np.asarray(doc["masses"], dtype=float)
        positions = np.asarray(doc["positions"], dtype=float)
        velocities = np.asarray(doc["velocities"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in {path}") from exc
    if masses.ndim != 1 or np.any(masses <= 0.0):
        raise ValueError("masses must be positive reals")
    n = masses.size
    if positions.ndim != 2 or positions.shape[0] != n:
        raise ValueError(f"positions must be {n} arrays of equal length")
    if velocities.shape != positions.shape:
        raise ValueError("velocities must match the shape of positions")
    total = float(np.sum(masses))
    scale = np.sqrt(masses / total)
    z = (positions * scale[:, None]).T
    zdot = (velocities * scale[:, None]).T
    return total, z, zdot


def cmd_partition(args):
    total, z, zdot = load_system_file(args.input)
    result = compute_partition(total, z, zdot)
    out = {"M": total, "rho": float(np.sqrt(np.sum(z * z))), "d": z.shape[0],
           "N": z.shape[1]}
    out.update(result.terms())
    # Momenta beyond the double range print as null.
    out.update(dataclasses.asdict(result.momenta) if result.momenta is not None
               else dict.fromkeys(MOMENTA))
    out["degenerate"] = result.degenerate
    print(json.dumps(out, indent=2))
    return 0


def write_reports_csv(path, reports, config):
    lines = [f"# {CSV_FORMAT} config={json.dumps(config, sort_keys=True)}"]
    lines.append(",".join(CSV_COLUMNS))
    for rep in reports:
        for term in TRACKED_TERMS:
            tr = rep.terms[term]
            row = (
                rep.d, rep.N, rep.x_abscissa, rep.mode, term, tr.count,
                tr.mean, tr.variance_biased, tr.stderr, tr.minimum,
                tr.maximum, tr.expected, tr.abs_diff, tr.weighted_diff,
                tr.sigma_ratio, tr.fraction_negative, tr.fraction_positive,
                tr.degenerate_excluded, rep.seed,
            )
            lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_reports_csv(path):
    """Parse a simulate CSV back into (config, row dicts)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].startswith(f"# {CSV_FORMAT} config="):
        raise ValueError(f"{path} is not a {CSV_FORMAT} file")
    config = json.loads(lines[0].split("config=", 1)[1])
    header = lines[1].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected column header in {path}")
    ints = {"d", "N", "count", "degenerate_excluded", "seed"}
    strings = {"mass_mode", "term"}
    rows = []
    for line in lines[2:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"malformed row in {path}: {line!r}")
        row = {}
        for key, raw in zip(CSV_COLUMNS, parts):
            if raw == "":
                row[key] = None
            elif key in strings:
                row[key] = raw
            elif key in ints:
                row[key] = int(raw)
            else:
                row[key] = float(raw)
        rows.append(row)
    return config, rows


def cmd_simulate(args):
    if args.masses not in MASS_MODES:
        raise ValueError(f"unknown mass mode {args.masses!r}")
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


def reports_from_rows(rows):
    """RunReports, one per (d, N, mass mode), from parsed simulate rows."""
    groups = {}
    for row in rows:
        groups.setdefault((row["d"], row["N"], row["mass_mode"]), []).append(row)
    reports = []
    for (d, n, mode), group in groups.items():
        terms = {row["term"]: TermReport(
            term=row["term"], count=row["count"], mean=row["mean"],
            variance_biased=row["variance_biased"],
            stderr=row["stderr"], minimum=row["min"], maximum=row["max"],
            expected=row["expected"], abs_diff=row["abs_diff"],
            weighted_diff=row["weighted_diff"], sigma_ratio=row["sigma_ratio"],
            fraction_negative=row["fraction_negative"],
            fraction_positive=row["fraction_positive"],
            degenerate_excluded=row["degenerate_excluded"],
        ) for row in group}
        reports.append(RunReport(
            d=d, N=n, mode=mode, seed=group[0]["seed"],
            samples=max(t.count for t in terms.values()),
            x_abscissa=group[0]["x_abscissa"],
            degenerate_count=max(t.degenerate_excluded for t in terms.values()),
            terms=terms,
        ))
    return reports


def cmd_verify(args):
    _, rows = read_reports_csv(args.input)
    # Each row is checked against the CSV's own expected column.
    checks, summary = verify_report(reports_from_rows(rows), args.sigma)
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
    worst = {
        "T_ext": 0.0, "T_int": 0.0, "T_rot": 0.0, "E_out": 0.0, "E_in": 0.0,
        "J2": 0.0, "K2": 0.0, "Lambda2": 0.0, "L2": 0.0,
        "E_outA": 0.0, "E_outB": 0.0, "E_inA": 0.0, "E_inB": 0.0,
    }
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
        for name, fast in (("T_ext", part.T_ext), ("T_int", part.T_int),
                           ("T_rot", part.T_rot), ("E_out", part.E_out),
                           ("E_in", part.E_in)):
            worst[name] = max(worst[name], _relative_gap(fast, getattr(oracle, name)))
        direct = momenta_direct(TOTAL_MASS, z, zdot, *svd_rates(z, zdot))
        for name in ("J2", "K2", "Lambda2", "L2"):
            worst[name] = max(
                worst[name],
                _relative_gap(getattr(direct, name), getattr(part.momenta, name)))
        eig = eigenvector_split_oracle(TOTAL_MASS, z, zdot)
        for name, fast_val, oracle_val in (
                ("E_outA", part.E_outA, eig[0]), ("E_outB", part.E_outB, eig[1]),
                ("E_inA", part.E_inA, eig[2]), ("E_inB", part.E_inB, eig[3])):
            worst[name] = max(worst[name], _relative_gap(fast_val, oracle_val))
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
