import hashlib
import json

import numpy as np
import pytest

from kinpart import harness
from kinpart.cli import main, read_reports_csv

# Unit separation: after mass scaling by (m/M)^(1/2) = 2^(-1/2) the position
# matrix has unit Frobenius norm, so rho = T = 1 and the right angle between
# positions and velocities puts all of T into the rotational terms.
TWO_PARTICLE_RIGHT_ANGLE = {
    "masses": [1.0, 1.0],
    "positions": [[1.0, 0.0], [-1.0, 0.0]],
    "velocities": [[0.0, 1.0], [0.0, -1.0]],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_system(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_partition_two_particle_right_angle(tmp_path, capsys):
    path = write_system(tmp_path, TWO_PARTICLE_RIGHT_ANGLE)
    code, out, _ = run_cli(capsys, "partition", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["T_rot"] - 1.0) <= 1e-12
    assert abs(doc["T_rho"]) <= 1e-12
    assert abs(doc["J2"] - 4.0) <= 1e-12
    assert doc["M"] == 2.0
    assert abs(doc["rho"] - 1.0) <= 1e-12
    assert doc["degenerate"] is False


def test_partition_scaling_follows_mass_convention(tmp_path, capsys):
    # halving the separation scales rho^2, T and every term by 1/4; the
    # right angle still sends everything rotational
    doc = {
        "masses": [1.0, 1.0],
        "positions": [[2**-0.5, 0.0], [-(2**-0.5), 0.0]],
        "velocities": [[0.0, 2**-0.5], [0.0, -(2**-0.5)]],
    }
    path = write_system(tmp_path, doc)
    code, out, _ = run_cli(capsys, "partition", "--input", path)
    assert code == 0
    result = json.loads(out)
    assert abs(result["T"] - 0.5) <= 1e-12
    assert abs(result["T_rot"] - 0.5) <= 1e-12
    assert abs(result["T_rho"]) <= 1e-12
    assert abs(result["rho"] - 2**-0.5) <= 1e-12


def test_partition_velocities_equal_positions(tmp_path, capsys):
    doc = dict(TWO_PARTICLE_RIGHT_ANGLE)
    doc["velocities"] = doc["positions"]
    path = write_system(tmp_path, doc)
    code, out, _ = run_cli(capsys, "partition", "--input", path)
    assert code == 0
    result = json.loads(out)
    assert abs(result["T_rho"] - result["T"]) <= 1e-12
    assert abs(result["T_lambda"]) <= 1e-12


def test_partition_output_satisfies_identities(tmp_path, capsys):
    rng = np.random.default_rng(8)
    masses = rng.uniform(0.5, 2.0, size=4)
    doc = {
        "masses": masses.tolist(),
        "positions": rng.standard_normal((4, 3)).tolist(),
        "velocities": rng.standard_normal((4, 3)).tolist(),
    }
    path = write_system(tmp_path, doc)
    code, out, _ = run_cli(capsys, "partition", "--input", path)
    assert code == 0
    t = json.loads(out)
    assert abs(t["T"] - t["T_lambda"] - t["T_rho"]) <= 1e-10 * max(1.0, t["T"])
    assert abs(t["T"] - t["T_rot"] - t["T_I"]) <= 1e-10 * max(1.0, t["T"])
    assert abs(t["T_rot"] - t["T_ext"] - t["T_int"] - t["T_res"]) <= 1e-10 * max(1.0, t["T"])
    assert abs(t["T_rot"] - t["T_J"] - t["T_K"] - t["T_ac"]) <= 1e-10 * max(1.0, t["T"])
    assert abs(t["T_rot"] - t["E_out"] - t["E_in"] - t["E_c"]) <= 1e-10 * max(1.0, t["T"])


def test_partition_bad_inputs(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "partition", "--input", str(path))
    assert code == 2 and "error" in err
    doc = dict(TWO_PARTICLE_RIGHT_ANGLE, masses=[1.0])
    code, _, err = run_cli(capsys, "partition", "--input", write_system(tmp_path, doc))
    assert code == 2
    doc = dict(TWO_PARTICLE_RIGHT_ANGLE, positions=[[0.0, 0.0], [0.0, 0.0]],
               velocities=[[0.0, 0.0], [0.0, 0.0]])
    code, _, err = run_cli(capsys, "partition", "--input", write_system(tmp_path, doc))
    assert code == 2 and "hyperradius" in err


PLANAR_FOUR = {
    "masses": [1.0, 1.0, 1.0, 1.0],
    "positions": [[0.9, 0.1], [-0.3, 0.7], [-0.4, -0.5], [-0.2, -0.3]],
    "velocities": [[0.2, -0.6], [0.5, 0.3], [-0.8, 0.1], [0.1, 0.2]],
}


def test_partition_tiny_scale_keeps_term_ratios(tmp_path, capsys):
    # at 1e-100, squared norms are 1e-200 and their products underflow
    code, out, _ = run_cli(capsys, "partition", "--input",
                           write_system(tmp_path, PLANAR_FOUR))
    assert code == 0
    unit = json.loads(out)
    tiny_doc = {
        "masses": PLANAR_FOUR["masses"],
        "positions": (np.array(PLANAR_FOUR["positions"]) * 1e-100).tolist(),
        "velocities": (np.array(PLANAR_FOUR["velocities"]) * 1e-100).tolist(),
    }
    code, out, err = run_cli(capsys, "partition", "--input",
                             write_system(tmp_path, tiny_doc, "tiny.json"))
    assert code == 0, err
    tiny = json.loads(out)
    assert tiny["T"] > 0.0
    for name in ("T_lambda", "T_rho", "T_rot", "T_I", "T_xi", "T_ext", "T_int",
                 "T_res", "T_J", "T_K", "T_ac", "E_out", "E_outA", "E_outB",
                 "E_in", "E_inA", "E_inB", "E_c"):
        assert abs(tiny[name] / tiny["T"] - unit[name] / unit["T"]) <= 1e-10, name


def test_partition_refuses_overflowing_terms(tmp_path, capsys):
    # at 1e160, T is about 1e320, past the double range
    huge_doc = {
        "masses": PLANAR_FOUR["masses"],
        "positions": (np.array(PLANAR_FOUR["positions"]) * 1e160).tolist(),
        "velocities": (np.array(PLANAR_FOUR["velocities"]) * 1e160).tolist(),
    }
    code, out, err = run_cli(capsys, "partition", "--input",
                             write_system(tmp_path, huge_doc, "huge.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "double range" in err


def test_solver_failure_is_reported_without_traceback(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("one-sided Jacobi failed to converge in 60 sweeps")

    monkeypatch.setattr("kinpart.cli.compute_partition", fail)
    code, out, err = run_cli(capsys, "partition", "--input",
                             write_system(tmp_path, PLANAR_FOUR))
    assert code == 2
    assert out == ""
    assert err == "error: one-sided Jacobi failed to converge in 60 sweeps\n"


def simulate_args(out, seed=42, samples=4000, extra=()):
    return ["simulate", "--d", "2", "--n-min", "3", "--n-max", "4",
            "--samples", str(samples), "--masses", "equal",
            "--seed", str(seed), "--out", out, *extra]


def test_simulate_writes_expected_columns(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    code, _, _ = run_cli(capsys, *simulate_args(out))
    assert code == 0
    config, rows = read_reports_csv(out)
    assert config["seed"] == 42 and config["samples"] == 4000
    assert config["gap_tol"] == 1e-9 and config["zero_tol"] == 1e-12
    t_rot = [r for r in rows if r["term"] == "T_rot" and r["N"] == 3]
    assert len(t_rot) == 1 and t_rot[0]["expected"] == 0.5
    assert t_rot[0]["count"] == 4000
    assert {r["N"] for r in rows} == {3, 4}
    res_row = [r for r in rows if r["term"] == "T_res" and r["N"] == 3][0]
    assert 0.0 <= res_row["fraction_negative"] <= 1.0
    ec_row = [r for r in rows if r["term"] == "E_c" and r["N"] == 3][0]
    assert 0.0 <= ec_row["fraction_positive"] <= 1.0
    x_row = rows[0]
    assert x_row["x_abscissa"] == 0.5 - 1.0 / 2.0


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert run_cli(capsys, *simulate_args(out_a))[0] == 0
    assert run_cli(capsys, *simulate_args(out_b))[0] == 0
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        assert fa.read() == fb.read()


def test_simulate_thread_env_does_not_change_bytes(tmp_path, capsys, monkeypatch):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    monkeypatch.setenv("KINPART_THREADS", "1")
    assert run_cli(capsys, *simulate_args(out_a))[0] == 0
    monkeypatch.setenv("KINPART_THREADS", "3")
    assert run_cli(capsys, *simulate_args(out_b))[0] == 0
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize("d, n_min, n_max, masses", [
    ("2", "3", "5", "equal"), ("2", "3", "5", "random"), ("3", "4", "5", "random"),
])
def test_simulate_bytes_do_not_depend_on_chunk_size(tmp_path, capsys, monkeypatch,
                                                    d, n_min, n_max, masses):
    # 50 entries make chunks of 3 to 8 systems, and 1001 samples leave a
    # partial last chunk at every N; 2**30 runs each block as one chunk.
    outputs = []
    for entries in (50, 2**30):
        monkeypatch.setattr(harness, "CHUNK_ENTRIES", entries)
        out = tmp_path / f"{entries}.csv"
        assert run_cli(capsys, "simulate", "--d", d, "--n-min", n_min,
                       "--n-max", n_max, "--samples", "1001", "--masses", masses,
                       "--seed", "8", "--out", str(out))[0] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_simulate_chunked_blocks_keep_their_bytes(tmp_path, capsys):
    # At d = 2, N = 99 and 100 every 4096-system block runs in seven chunks,
    # the last one partial.  The digest was recorded when each block ran
    # through the sampler and the engine whole.
    out = tmp_path / "chunked.csv"
    assert run_cli(capsys, "simulate", "--d", "2", "--n-min", "99", "--n-max", "100",
                   "--samples", "4100", "--masses", "random", "--seed", "3",
                   "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d139d59f20655586e56232ed2fe86e5577fa8df49e0eaf16610d8924767bedab")


def test_simulate_space_e_out_b_expected_zero(tmp_path, capsys):
    out = str(tmp_path / "d3.csv")
    code, _, _ = run_cli(capsys, "simulate", "--d", "3", "--n-min", "4",
                         "--n-max", "4", "--samples", "2000", "--masses",
                         "equal", "--seed", "7", "--out", out)
    assert code == 0
    _, rows = read_reports_csv(out)
    row = [r for r in rows if r["term"] == "E_outB"][0]
    assert row["expected"] == 0.0


def test_csv_round_trip_is_exact(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    run_cli(capsys, *simulate_args(out, seed=5))
    config, rows = read_reports_csv(out)
    copy = str(tmp_path / "copy.csv")
    # rebuild the file from parsed values; shortest round-trip reprs make
    # the bytes identical
    from kinpart.cli import CSV_COLUMNS, CSV_FORMAT, _fmt
    lines = [f"# {CSV_FORMAT} config={json.dumps(config, sort_keys=True)}",
             ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    with open(copy, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    with open(out, "rb") as fa, open(copy, "rb") as fb:
        assert fa.read() == fb.read()


def test_rerun_from_embedded_header_reproduces_file(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    run_cli(capsys, *simulate_args(out, seed=13))
    config, _ = read_reports_csv(out)
    again = str(tmp_path / "again.csv")
    args = ["simulate", "--d", str(config["d"]),
            "--n-min", str(config["n_min"]), "--n-max", str(config["n_max"]),
            "--samples", str(config["samples"]), "--masses", config["masses"],
            "--seed", str(config["seed"]), "--gap-tol", repr(config["gap_tol"]),
            "--zero-tol", repr(config["zero_tol"]), "--out", again]
    assert run_cli(capsys, *args)[0] == 0
    with open(out, "rb") as fa, open(again, "rb") as fb:
        assert fa.read() == fb.read()


def test_verify_passes_clean_run(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    run_cli(capsys, *simulate_args(out, samples=20_000))
    code, stdout, _ = run_cli(capsys, "verify", "--input", out, "--sigma", "4")
    assert code == 0
    assert "FAIL" not in stdout
    assert "checks=" in stdout


def test_verify_fails_on_shifted_mean(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    run_cli(capsys, *simulate_args(out, samples=20_000))
    with open(out) as handle:
        lines = handle.read().splitlines()
    header = lines[1].split(",")
    mean_idx = header.index("mean")
    stderr_idx = header.index("stderr")
    term_idx = header.index("term")
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) > term_idx and parts[term_idx] == "T_rot":
            shifted = float(parts[mean_idx]) + 10 * float(parts[stderr_idx])
            parts[mean_idx] = repr(shifted)
            lines[i] = ",".join(parts)
            break
    with open(out, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    code, stdout, _ = run_cli(capsys, "verify", "--input", out)
    assert code == 1
    assert "FAIL mean T_rot" in stdout


def test_verify_random_mode_checks_residual_only(tmp_path, capsys):
    out = str(tmp_path / "rand.csv")
    code, _, _ = run_cli(capsys, "simulate", "--d", "2", "--n-min", "3",
                         "--n-max", "3", "--samples", "20000", "--masses",
                         "random", "--seed", "11", "--out", out)
    assert code == 0
    code, stdout, _ = run_cli(capsys, "verify", "--input", out)
    assert code == 0
    checked = {line.split()[2] for line in stdout.splitlines()
               if line.startswith(("PASS", "FAIL"))}
    assert checked == {"T_res", "E_outB", "E_inB"}


def test_verify_rejects_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,kinpart,file\n")
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2 and "error" in err


def test_oracle_check_passes(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "oracle-check", "--d", "2", "--n", "4",
                              "--samples", "40", "--seed", "1")
    assert code == 0
    assert "PASS" in stdout


def test_oracle_check_trivial_dimensions(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "oracle-check", "--d", "3", "--n", "2",
                              "--samples", "20", "--seed", "2")
    assert code == 0
    code, stdout, _ = run_cli(capsys, "oracle-check", "--d", "1", "--n", "3",
                              "--samples", "20", "--seed", "3")
    assert code == 0


def test_oracle_check_range_enforced(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--d", "6", "--n", "4",
                           "--samples", "5", "--seed", "1")
    assert code == 2 and "limited" in err
