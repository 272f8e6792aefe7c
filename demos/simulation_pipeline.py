"""End-to-end pipeline: simulate, write CSV, verify, read back.

The same thing the command line does:

  kinpart simulate --d 2 --n-min 3 --n-max 8 --samples 20000 \
      --masses equal --seed 11 --out run.csv
  kinpart verify --input run.csv --sigma 4

but driven through the library API, with a peek at the CSV contents.
"""

import os
import tempfile

from kinpart import report_rows, run_experiment, verify_report
from kinpart.cli import read_reports_csv, write_reports_csv


def main():
    reports = run_experiment(2, 3, 8, 20_000, "equal", seed=11)

    checks, summary = verify_report(report_rows(reports), sigma_threshold=4.0)
    print(f"{summary['checks']} checks, {summary['failures']} failures")
    print(f"max |mean - formula|  = {summary['max_abs_diff']:.3e}")
    print(f"max sigma ratio       = {summary['max_sigma_ratio']:.3f}")
    print(f"mean sigma ratio      = {summary['mean_sigma_ratio']:.3f}")

    path = os.path.join(tempfile.mkdtemp(), "run.csv")
    config = {"command": "simulate", "d": 2, "n_min": 3, "n_max": 8,
              "samples": 20_000, "masses": "equal", "seed": 11}
    write_reports_csv(path, reports, config)
    stored_config, rows = read_reports_csv(path)
    print(f"\nwrote {len(rows)} rows to {path}")
    print("seed restored from header:", stored_config["seed"])

    print("\nmean rotational energy vs the straight-line abscissa:")
    for row in rows:
        if row["term"] == "T_rot":
            print(f"  N={row['N']:>2} x={row['x_abscissa']:+.4f} "
                  f"mean={row['mean']:.5f} formula={row['expected']:.5f}")


if __name__ == "__main__":
    main()
