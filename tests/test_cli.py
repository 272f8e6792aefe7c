import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kinpart.cli
from kinpart import ensemble, harness, report_rows, run_experiment, verify_report
from kinpart.cli import CSV_FORMAT, main, read_reports_csv, write_reports_csv

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
    # NaN passes a "<= 0" test; Infinity, or a sum past the double range,
    # made M infinite and warned
    for masses in ([1.0, float("nan")], [1.0, float("inf")], [1e308, 1e308]):
        doc = dict(TWO_PARTICLE_RIGHT_ANGLE, masses=masses)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "partition", "--input",
                                     write_system(tmp_path, doc))
        assert code == 2 and out == ""
        assert err.startswith("error: masses must be finite and > 0")
    # no masses, or a nested list: neither names n particles
    for masses in ([], [[1.0, 2.0]]):
        doc = dict(TWO_PARTICLE_RIGHT_ANGLE, masses=masses)
        code, out, err = run_cli(capsys, "partition", "--input", write_system(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == "error: masses must be a non-empty list of numbers\n"
    # a JSON boolean or string, which a float cast would read as a number
    for key, value in (("velocities", [[0.0, True], [0.0, -1.0]]),
                       ("masses", ["1", "1e0"])):
        doc = dict(TWO_PARTICLE_RIGHT_ANGLE, **{key: value})
        code, out, err = run_cli(capsys, "partition", "--input", write_system(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err.startswith("error: masses, positions and velocities must be arrays "
                              "of numbers")
    # a JSON integer beyond the double range parses to inf, which is refused
    huge = 10 ** 400
    for key, value, message in (("positions", [[huge, 0], [-1, 0]], "non-finite entries"),
                                ("masses", [huge, 1], "masses must be finite and > 0")):
        doc = dict(TWO_PARTICLE_RIGHT_ANGLE, **{key: value})
        code, out, err = run_cli(capsys, "partition", "--input", write_system(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message) and err.count("\n") == 1
    # a top level that is not an object, and a field that holds one
    for doc in ([1, 2], dict(TWO_PARTICLE_RIGHT_ANGLE, masses={"a": 1})):
        code, out, err = run_cli(capsys, "partition", "--input",
                                 write_system(tmp_path, doc))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_partition_prints_strict_json_with_finite_rho_at_large_scale(tmp_path, capsys):
    # rho = 1e200 is a double, though rho^2 is not
    doc = dict(TWO_PARTICLE_RIGHT_ANGLE,
               positions=[[1e200, 0.0], [-1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "partition", "--input", write_system(tmp_path, doc))
    assert code == 0, err

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    result = json.loads(out, parse_constant=refuse)
    assert abs(result["rho"] - 1e200) <= 1e-12 * 1e200
    # past the double range rho is refused, not printed as Infinity
    doc = dict(TWO_PARTICLE_RIGHT_ANGLE,
               positions=[[1.7e308, 1.7e308], [-1.7e308, -1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "partition", "--input", write_system(tmp_path, doc))
    assert code == 2 and out == ""
    assert err == "error: rho beyond the double range\n"


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


def test_partition_reports_terms_when_only_momenta_overflow(tmp_path, capsys):
    # at 1e80, T is about 1e160 but J^2, K^2, Lambda^2 are about 1e320
    code, out, _ = run_cli(capsys, "partition", "--input",
                           write_system(tmp_path, PLANAR_FOUR))
    unit = json.loads(out)
    big_doc = {
        "masses": PLANAR_FOUR["masses"],
        "positions": (np.array(PLANAR_FOUR["positions"]) * 1e80).tolist(),
        "velocities": (np.array(PLANAR_FOUR["velocities"]) * 1e80).tolist(),
    }
    code, out, err = run_cli(capsys, "partition", "--input",
                             write_system(tmp_path, big_doc, "big.json"))
    assert code == 0, err
    big = json.loads(out)
    for name in ("J2", "K2", "Lambda2", "L2"):
        assert big[name] is None, name
    for name in ("T_lambda", "T_rho", "T_rot", "T_I", "T_xi", "T_ext", "T_int",
                 "T_res", "T_J", "T_K", "T_ac", "E_out", "E_outA", "E_outB",
                 "E_in", "E_inA", "E_inB", "E_c"):
        assert abs(big[name] / big["T"] - unit[name] / unit["T"]) <= 1e-10, name


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
    # N = 3..5 at 9000 samples: 9 jobs of 4096, 4096 and 808 systems, on
    # one, two and three worker processes.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    for masses in ("equal", "random"):
        outputs = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("KINPART_THREADS", workers)
            out = tmp_path / f"{masses}{workers}.csv"
            assert run_cli(capsys, "simulate", "--d", "2", "--n-min", "3", "--n-max", "5",
                           "--samples", "9000", "--masses", masses, "--seed", "6",
                           "--out", str(out))[0] == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_reports_a_worker_error_on_one_line(tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    real = harness.partition_batch

    def fail_in_worker(mass, z, zdot):
        if os.getpid() != parent:
            raise ValueError("non-finite entries in batch")
        return real(mass, z, zdot)

    monkeypatch.setattr(harness, "partition_batch", fail_in_worker)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("KINPART_THREADS", "2")
    out = tmp_path / "run.csv"
    code, stdout, err = run_cli(capsys, *simulate_args(str(out)))
    assert code == 2 and stdout == ""
    assert err == "error: non-finite entries in batch\n"
    assert not out.exists()


def test_cli_import_loads_no_process_module():
    # The pool's modules are imported only when a run starts one.
    probe = ("import sys, kinpart.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("raw", ["abc", "0", "-2"])
def test_simulate_refuses_invalid_thread_env(tmp_path, capsys, monkeypatch, raw):
    out = tmp_path / "run.csv"
    monkeypatch.setenv("KINPART_THREADS", raw)
    code, stdout, err = run_cli(capsys, *simulate_args(str(out)))
    assert code == 2 and stdout == ""
    assert err == f"error: KINPART_THREADS must be a positive integer, got {raw!r}\n"
    assert not out.exists()


def test_simulate_refuses_zero_dimensions(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, stdout, err = run_cli(capsys, "simulate", "--d", "0", "--n-min", "3",
                                "--n-max", "4", "--samples", "100", "--masses",
                                "equal", "--seed", "1", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == "error: d must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("d, n_min, n_max, masses", [
    ("2", "3", "5", "equal"), ("2", "3", "5", "random"), ("3", "4", "5", "random"),
])
def test_simulate_bytes_do_not_depend_on_chunk_size(tmp_path, capsys, monkeypatch,
                                                    d, n_min, n_max, masses):
    # 50 entries make chunks of 3 to 8 systems, and 1001 samples leave a
    # partial last chunk at every N; 2**30 runs each block as one chunk.
    # The bound also slices the Gaussian row norms of the d = 3 case: 16
    # rows a slice at 50 entries, one slice at 2**30.
    outputs = []
    for entries in (50, 2**30):
        monkeypatch.setattr(harness, "CHUNK_ENTRIES", entries)
        monkeypatch.setattr(ensemble, "CHUNK_ENTRIES", entries)
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


@pytest.mark.parametrize("d, n_min, n_max, samples, masses, seed, digest", [
    ("1", "2", "12", "5000", "equal", "2",
     "617f54ee6955502732155e2c9726cdf2bd179e94638fbe01d5f1a7176bfd8aae"),
    ("3", "3", "8", "4096", "random", "5",
     "64e147650538fce0fc676a574ec403f462f53bfefc3183189757b23e91a730a2"),
    # At d >= 8 the sampler's Gaussian row norms are summed pairwise.
    ("9", "2", "12", "3000", "random", "5",
     "d355fb0f31511271213c62a5f8eb8d778cd934d6aafc6eda5000a5b94825d6ca"),
], ids=["d1", "d3", "d9"])
def test_simulate_keeps_its_bytes(tmp_path, capsys, d, n_min, n_max, samples,
                                  masses, seed, digest):
    out = tmp_path / "run.csv"
    assert run_cli(capsys, "simulate", "--d", d, "--n-min", n_min, "--n-max", n_max,
                   "--samples", samples, "--masses", masses, "--seed", seed,
                   "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    out = tmp_path / "run.csv"
    run_cli(capsys, *simulate_args(str(out), seed=5))
    config, rows = read_reports_csv(out)
    # rebuild the file from parsed values; shortest round-trip decimals (a
    # float's str) make the bytes identical, and None is an empty field
    lines = [f"# {CSV_FORMAT} config={json.dumps(config, sort_keys=True)}",
             ",".join(harness.CSV_COLUMNS)]
    lines += [",".join("" if row[c] is None else str(row[c]) for c in harness.CSV_COLUMNS)
              for row in rows]
    copy = tmp_path / "copy.csv"
    copy.write_bytes(("\n".join(lines) + "\n").encode())
    assert copy.read_bytes() == out.read_bytes()
    # blank lines between rows are skipped on read
    copy.write_bytes(("\n".join(lines[:2]) + "\n" + "\n\n".join(lines[2:]) + "\n\n").encode())
    assert read_reports_csv(copy) == (config, rows)


def test_traced_names_resolve():
    # perfbench/spans.py replaces each of these names where its caller looks
    # it up; only the benchmark's smoke test, outside this suite, runs it
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_simulate_writes_through_the_cli_namespace(tmp_path, capsys, monkeypatch):
    # the tracer times the CSV write by wrapping kinpart.cli.write_reports_csv
    calls = []
    write = kinpart.cli.write_reports_csv
    monkeypatch.setattr(kinpart.cli, "write_reports_csv",
                        lambda *args: calls.append(args[0]) or write(*args))
    out = str(tmp_path / "run.csv")
    assert run_cli(capsys, *simulate_args(out))[0] == 0
    assert calls == [out]
    assert read_reports_csv(out)[0]["format"] == CSV_FORMAT


def test_rerun_from_embedded_header_reproduces_file(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    run_cli(capsys, *simulate_args(out, seed=13))
    config, _ = read_reports_csv(out)
    again = str(tmp_path / "again.csv")
    args = ["simulate", "--d", str(config["d"]),
            "--n-min", str(config["n_min"]), "--n-max", str(config["n_max"]),
            "--samples", str(config["samples"]), "--masses", config["masses"],
            "--seed", str(config["seed"]), "--out", again]
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


def test_verify_rejects_a_csv_without_column_header(tmp_path, capsys):
    path = tmp_path / "truncated.csv"
    path.write_text("# kinpart-simulate-csv/1 config={}\n")
    with pytest.raises(ValueError, match="no column header"):
        read_reports_csv(str(path))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("term, column, value", [
    ("T_res", "count", "0"), ("T_rot", "mean", ""), ("T_rot", "stderr", ""),
    ("T_res", "fraction_negative", ""), ("T_lambda", "stderr", "inf"),
    ("T_lambda", "stderr", "-1.0"), ("T_lambda", "stderr", "nan"),
    ("T_lambda", "N", ""), ("T_res", "d", "")])
def test_verify_rejects_a_row_it_cannot_check(tmp_path, capsys, term, column, value):
    out = tmp_path / "run.csv"
    run_cli(capsys, "simulate", "--d", "2", "--n-min", "3", "--n-max", "3",
            "--samples", "2000", "--masses", "equal", "--seed", "5", "--out", str(out))
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    for i, line in enumerate(lines[2:], start=2):
        parts = line.split(",")
        if parts[header.index("term")] == term:
            parts[header.index(column)] = value
            lines[i] = ",".join(parts)
            break
    out.write_text("\n".join(lines) + "\n")
    code, stdout, err = run_cli(capsys, "verify", "--input", str(out))
    assert (code, stdout) == (2, "")
    shown = "None" if column == "N" else "3"
    assert err.startswith(f"error: {term} row at N={shown} needs count >= 1")
    assert err.count("\n") == 1


@pytest.mark.parametrize("sigma", ["nan", "-1", "inf", "0"])
def test_verify_refuses_invalid_sigma(tmp_path, capsys, sigma):
    out = str(tmp_path / "run.csv")
    run_cli(capsys, *simulate_args(out))
    code, stdout, err = run_cli(capsys, "verify", "--input", out, "--sigma", sigma)
    assert (code, stdout) == (2, "")
    assert "sigma threshold must be finite and > 0" in err


@pytest.mark.parametrize("d, n_max, masses", [
    (1, 4, "equal"), (2, 4, "equal"), (2, 4, "random"), (3, 4, "random")])
def test_verify_on_csv_rows_matches_in_memory(tmp_path, d, n_max, masses):
    # N = 2 and d = 1 have no sign check; both mass modes are covered.
    reports = run_experiment(d, 2, n_max, 3000, masses, seed=17)
    path = str(tmp_path / "run.csv")
    write_reports_csv(path, reports, {"seed": 17})
    for sigma in (1.0, 4.0):
        from_csv = verify_report(read_reports_csv(path)[1], sigma)
        in_memory = verify_report(report_rows(reports), sigma)
        assert repr(from_csv) == repr(in_memory)
    signs = {(c.N, c.mode) for c in from_csv[0] if c.kind == "sign"}
    assert signs == ({(n, masses) for n in range(3, n_max + 1)} if d >= 2 else set())


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


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_oracle_check_refuses_no_samples(capsys, samples):
    code, stdout, err = run_cli(capsys, "oracle-check", "--d", "2", "--n", "3",
                                "--samples", samples, "--seed", "1")
    assert (code, stdout) == (2, "")
    assert "--samples >= 1" in err


@pytest.mark.parametrize("n_particles", [17, 64, 100])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_oracle_check_passes_at_sweep_sizes(capsys, d, n_particles):
    code, stdout, _ = run_cli(capsys, "oracle-check", "--d", str(d),
                              "--n", str(n_particles), "--samples", "2", "--seed", "4")
    assert code == 0
    assert stdout.endswith("degenerate skipped: 0\nPASS (tolerance 1e-08)\n")


def test_oracle_check_range_enforced(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--d", "6", "--n", "4",
                           "--samples", "5", "--seed", "1")
    assert code == 2 and "limited" in err
    code, _, err = run_cli(capsys, "oracle-check", "--d", "2", "--n", "101",
                           "--samples", "1", "--seed", "1")
    assert code == 2 and "N <= 100" in err
