import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import geomedian
from geomedian import harness, read_csv, write_csv
from geomedian.cli import main


@pytest.fixture()
def capsysbytes(capsys):
    def read():
        out = capsys.readouterr()
        return out.out, out.err

    return read


def _write_univariate(tmp_path):
    path = tmp_path / "u.csv"
    write_csv(path, np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
    return str(path)


def _write_sample(tmp_path, seed=0, n=12, p=3, name="s.csv"):
    rng = np.random.default_rng(seed)
    path = tmp_path / name
    write_csv(path, rng.standard_normal((n, p)))
    return str(path)


def test_estimate_univariate_median(tmp_path, capsys):
    code = main(["estimate", "--in", _write_univariate(tmp_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta_hat"] == [3.0]
    assert payload["grad_norm"] == 0.0


def test_estimate_csv_format(tmp_path, capsys):
    main(["estimate", "--in", _write_univariate(tmp_path), "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta_hat"
    assert float(lines[1]) == 3.0


def test_seeded_commands_are_byte_deterministic(tmp_path, capsys):
    data = _write_sample(tmp_path)
    outputs = []
    for workers in ("1", "4", "1"):
        assert main(["sci", "--in", data, "--level", "0.9", "--boot", "300",
                     "--seed", "7", "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_sci_bytes_at_p_above_n_ignore_workers_and_blas_threads(tmp_path):
    # p > n runs the bootstrap in span coordinates; B = 300 spans two batches
    data = _write_sample(tmp_path, n=20, p=60)
    env = dict(os.environ, PYTHONPATH=str(Path(geomedian.__file__).parents[1]))
    outputs = set()
    for workers in ("1", "4"):
        for blas_threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "geomedian.cli", "sci", "--in", data, "--level", "0.9",
                 "--boot", "300", "--seed", "7", "--workers", workers],
                capture_output=True,
                env=dict(env, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads),
                check=True,
            )
            outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert len(json.loads(outputs.pop())["intervals"]) == 60


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(geomedian.__file__).parents[1]))
    probe = (
        "import sys, geomedian.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_estimate_imports_neither_numpy_ma_nor_concurrent_futures(tmp_path):
    # a fresh interpreter fits once: the centring median must not pull in
    # numpy.ma, and with one worker no thread pool (nor its logging) loads;
    # a fit draws no random numbers, so numpy.random (with secrets and hmac)
    # must not load either
    data = _write_sample(tmp_path, n=12, p=5)
    env = dict(os.environ, PYTHONPATH=str(Path(geomedian.__file__).parents[1]))
    probe = (
        "import sys; from geomedian.cli import main; "
        f"code = main(['estimate', '--in', {data!r}, '--out', {str(tmp_path / 'fit.json')!r}]); "
        "print(code, sorted(m for m in ('numpy.ma', 'concurrent.futures', 'numpy.random') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_stochastic_commands_require_seed(tmp_path, capsys):
    data = _write_sample(tmp_path)
    assert main(["sci", "--in", data]) == 1
    assert "seed" in capsys.readouterr().err
    assert main(["test", "--in", data, "--method", "median"]) == 1
    assert main(["gmom", "--in", data, "--blocks", "3"]) == 1


def test_wpl_and_cq_need_no_seed(tmp_path, capsys):
    data = _write_sample(tmp_path)
    assert main(["test", "--in", data, "--method", "wpl"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "wpl"
    assert main(["test", "--in", data, "--method", "cq", "--alpha", "0.1"]) == 0


def test_unknown_flags_and_bad_usage_exit_one(tmp_path, capsys):
    data = _write_sample(tmp_path)
    assert main(["estimate", "--in", data, "--frobnicate"]) == 1
    assert main(["estimate"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["sci", "--in", data, "--seed", "1", "--format", "yaml"]) == 1
    capsys.readouterr()
    # a subcommand takes only the options it reads: --workers only where a
    # bootstrap or replications run, and generate always writes CSV
    for argv in (["estimate", "--in", data, "--workers", "2"], ["fdr", "--in", data, "--workers", "2"],
                 ["gmom", "--in", data, "--blocks", "2", "--seed", "1", "--workers", "2"],
                 ["generate", "--config", str(tmp_path / "config.json"), "--format", "json"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: " + argv[-2])


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    data = _write_sample(tmp_path)
    assert main(["sci", "--in", data, "--seed", "1", "--boot", "50", "--workers", workers]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --workers must be >= 1\n"


def test_computation_error_exits_two_with_json(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\nnan,4.0\n")
    assert main(["estimate", "--in", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NonFiniteEntry"


def test_estimate_one_row_exits_two_on_undefined_scale(tmp_path, capsys):
    path = tmp_path / "one.csv"
    write_csv(path, np.array([[0.5, -1.0, 2.0, 3.0]]))
    assert main(["estimate", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DegenerateSample"
    assert "plug-in scale undefined" in error["message"]


def test_sci_constant_sample_exits_two(tmp_path, capsys):
    path = tmp_path / "constant.csv"
    write_csv(path, np.tile([1.5, -0.5, 2.0], (10, 1)))
    assert main(["sci", "--in", str(path), "--seed", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DegenerateSample"
    assert "every observation is identical" in error["message"]


@pytest.mark.parametrize("method", ["median", "mean"])
def test_test_out_of_range_alpha_names_the_given_value(tmp_path, capsys, method):
    data = _write_sample(tmp_path)
    assert main(["test", "--in", data, "--method", method, "--seed", "1", "--alpha", "1.5"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "InvalidLevel"
    assert error["message"] == "level must lie in (0, 1), got 1.5"


def test_missing_file_exits_two(capsys):
    assert main(["estimate", "--in", "/nonexistent/nope.csv"]) == 2


def test_gmom_output(tmp_path, capsys):
    data = _write_sample(tmp_path)
    assert main(["gmom", "--in", data, "--blocks", "3", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["gmom"]) == 3
    assert payload["blocks"] == 3


def test_test_subcommand_against_null_file(tmp_path, capsys):
    data = _write_sample(tmp_path)
    null_path = tmp_path / "null.csv"
    write_csv(null_path, np.zeros((1, 3)))
    assert main(["test", "--in", data, "--null", str(null_path), "--method", "mean",
                 "--seed", "3", "--boot", "200"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"method", "statistic", "critical_value", "p_value", "reject"}


@pytest.mark.parametrize(
    "command", [["test", "--method", "wpl"], ["test", "--seed", "3"], ["fdr"]], ids=["wpl", "median", "fdr"]
)
@pytest.mark.parametrize(
    "null, message",
    [
        (np.zeros((1, 3)), "hypothesised center has length 3, expected 4"),
        # four entries in all: flattened, it would pass as a length-4 center
        (np.zeros((2, 2)), "hypothesised center must be one CSV row, got 2"),
    ],
    ids=["wrong_length", "two_rows"],
)
def test_null_file_must_be_one_row_of_the_sample_dimension(tmp_path, capsys, command, null, message):
    # the CLI refuses a multi-row file and leaves the length check to the
    # procedure, so it reports the same DimensionMismatch as the API
    data = _write_sample(tmp_path, p=4)
    null_path = tmp_path / "null.csv"
    write_csv(null_path, null)
    assert main([*command, "--in", data, "--null", str(null_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"type": "DimensionMismatch", "message": message}


def test_fdr_subcommand_json_and_csv(tmp_path, capsys):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((40, 5)) * 0.3
    values[:, 2] += 4.0
    path = tmp_path / "f.csv"
    write_csv(path, values)
    assert main(["fdr", "--in", str(path), "--null", "zeros", "--alpha", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 2 in payload["rejected"]
    assert main(["fdr", "--in", str(path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,t_stat,p_value,rejected"
    assert len(lines) == 6


def test_are_subcommand(tmp_path, capsys):
    data = _write_sample(tmp_path, n=30, p=10)
    assert main(["are", "--in", data, "--boot", "200", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["are_estimate"] > 0


def test_generate_writes_readable_csv(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({
        "model": "student_t", "df": 3.0, "n": 8, "p": 4, "rho": 0.5,
        "theta": {"kind": "sparse3"}, "seed": 11,
    }))
    out = tmp_path / "sample.csv"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    sample = read_csv(out)
    assert (sample.n, sample.p) == (8, 4)
    assert main(["generate", "--config", str(config)]) == 0
    stdout = capsys.readouterr().out
    assert len(stdout.strip().splitlines()) == 8


def test_generate_honours_t_mode(tmp_path, capsys):
    base = {"model": "student_t", "df": 5.0, "n": 6, "p": 4, "rho": 0.5, "seed": 11}
    outputs = {}
    for mode in (None, "covariance", "scale"):
        config = tmp_path / f"gen_{mode}.json"
        config.write_text(json.dumps(base if mode is None else dict(base, t_mode=mode)))
        assert main(["generate", "--config", str(config)]) == 0
        outputs[mode] = capsys.readouterr().out
    assert outputs[None] == outputs["covariance"]
    cov = np.array([[float(v) for v in line.split(",")] for line in outputs["covariance"].split()])
    scale = np.array([[float(v) for v in line.split(",")] for line in outputs["scale"].split()])
    assert_allclose(scale, cov * np.sqrt(5.0 / 3.0), rtol=1e-12)


def test_generate_requires_seed(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"model": "gaussian", "n": 4, "p": 2}))
    assert main(["generate", "--config", str(config)]) == 1
    assert main(["generate", "--config", str(config), "--seed", "3"]) == 0
    capsys.readouterr()


def test_simulate_end_to_end(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "experiment": "coverage", "model": "gaussian", "n": 12, "p": 3,
        "theta": {"kind": "zero"}, "replications": 3, "B": 30,
        "levels": [0.9], "seed": 4,
    }))
    assert main(["simulate", "--config", str(config), "--format", "csv"]) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[0].startswith("scenario,")
    assert main(["simulate", "--config", str(config), "--format", "csv", "--workers", "4"]) == 0
    assert capsys.readouterr().out == first
    assert main(["simulate", "--config", str(config), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["runtime_seconds"] is None
    assert main(["simulate", "--config", str(config), "--format", "json", "--timings"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert all(isinstance(row["runtime_seconds"], float) and row["runtime_seconds"] > 0 for row in timed)


def test_simulate_workers_flag_wins_else_the_scenario_applies(tmp_path, capsys, monkeypatch):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "experiment": "coverage", "n": 12, "p": 3, "replications": 2, "B": 20, "seed": 4, "workers": 3,
    }))
    seen = []
    real = harness._parallel_map

    def spy(func, items, workers):
        seen.append(workers)
        return real(func, items, workers)

    monkeypatch.setattr(harness, "_parallel_map", spy)
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["simulate", "--config", str(config), "--workers", "2"]) == 0
    capsys.readouterr()
    assert seen == [3, 2]
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert "(default the scenario's 'workers' field;" in " ".join(capsys.readouterr().out.split())


def test_simulate_error_reports_its_own_type(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "experiment": "coverage", "n": 1, "p": 3, "replications": 2, "B": 10, "seed": 1,
    }))
    assert main(["simulate", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidScenario"
    assert error["message"].startswith("scenario 'gaussian-rho0-n1-p3' replication 0: ")


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("simulate", "theta", None),
        ("simulate", "replications", "2"),
        ("simulate", "levels", 0.9),
        ("generate", "theta", 7),
        ("generate", "theta", {"kappa": None}),
        ("generate", "n", None),
        ("generate", "rho", None),
        ("generate", "n", "x"),
        ("generate", "p", 2.5),
        ("generate", "seed", "1"),
        ("generate", "df", "3"),
        ("simulate", "levels", ["a"]),
        ("simulate", "kappa_grid", ["x"]),
        ("simulate", "n_grid", [4.5]),
        ("simulate", "p_grid", [4.5]),
        ("simulate", "methods", ["median", 3]),
    ],
    ids=["theta_null", "replications_string", "levels_number", "generate_theta_number",
         "generate_kappa_null", "generate_n_null", "generate_rho_null", "generate_n_string",
         "generate_p_float", "generate_seed_string", "generate_df_string", "levels_entry_string",
         "kappa_grid_entry_string", "n_grid_entry_float", "p_grid_entry_float", "methods_entry_number"],
)
def test_mistyped_json_field_is_a_typed_error(tmp_path, capsys, command, field, value):
    if command == "simulate":
        base = {"experiment": "coverage", "n": 8, "p": 3, "replications": 2, "B": 10, "seed": 1}
    else:
        base = {"model": "gaussian", "n": 4, "p": 2, "seed": 1}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(base, **{field: value})))
    assert main([command, "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidScenario" and field in error["message"]


def test_generate_config_must_be_a_json_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    assert main(["generate", "--config", str(config), "--seed", "1"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "InvalidScenario", "message": "generate JSON must be an object, got [1, 2]"}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"p": 2}, "generate JSON needs a field 'n'"),
        ({"n": 4}, "generate JSON needs a field 'p'"),
        ({"n": 4, "p": 2, "rh0": 0.5, "modle": "laplace"}, "unknown generate fields ['modle', 'rh0']"),
        ({"n": 4, "p": 20, "theta": {"kind": "log_sparse", "kapa": 2}}, "unknown theta fields ['kapa']"),
    ],
    ids=["missing_n", "missing_p", "misspelt_fields", "misspelt_theta_field"],
)
def test_generate_config_fields_are_checked(tmp_path, capsys, fields, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(fields, seed=1)))
    assert main(["generate", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"type": "InvalidScenario", "message": message}


def test_markdown_format_tabulates_the_json_payload(tmp_path, capsys):
    data = _write_sample(tmp_path)
    assert main(["estimate", "--in", data]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["estimate", "--in", data, "--format", "markdown"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| field | value |", "| --- | --- |"]
    cells = [line[2:-2].split(" | ") for line in lines[2:]]
    assert len(cells) == len(payload)
    assert {key: json.loads(value) for key, value in cells} == payload


def test_out_flag_writes_file(tmp_path, capsys):
    data = _write_sample(tmp_path)
    target = tmp_path / "result.json"
    assert main(["estimate", "--in", data, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert len(payload["theta_hat"]) == 3


@pytest.mark.skipif(shutil.which("geomedian") is None, reason="console script not installed")
def test_console_script_entry_point(tmp_path):
    data = _write_univariate(tmp_path)
    proc = subprocess.run(
        ["geomedian", "estimate", "--in", data], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["theta_hat"] == [3.0]


def test_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sci", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--in", "--out", "--level", "--boot", "--seed", "--workers", "--format"):
        assert flag in text
