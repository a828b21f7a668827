import csv
import json

import pytest

from mrisr.cli import main


def test_list_methods(capsys):
    assert main(["list-methods"]) == 0
    out = capsys.readouterr().out
    for name in ("imex-mri-sr21", "imex-mri-sr43", "merk5"):
        assert name in out
    assert "bogacki-shampine" in out


def test_verify_all_methods(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "imex-mri-sr43  base=4  coupling=4  order=4" in out


def test_verify_json(capsys):
    assert main(["verify", "--method", "merk2", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["merk2"]["base_order"] == 2


def test_converge_writes_csv(tmp_path, capsys):
    code = main(["converge", "--method", "imex-mri-sr21", "--problem", "kpr",
                 "--kmin", "2", "--kmax", "4", "--out", str(tmp_path)])
    assert code == 0
    csv_path = tmp_path / "converge-kpr.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("method,k,H,M,maxError")
    assert "newtonIters" in lines[0].split(",")
    assert len(lines) == 4
    side = json.loads((tmp_path / "converge-kpr.csv.json").read_text())
    assert side["slopes"]["imex-mri-sr21"] == pytest.approx(2.0, abs=0.5)
    assert "fitted slope" in capsys.readouterr().out


def test_failed_rows_say_why(tmp_path, capsys):
    # H = pi at k = 0 leaves 2.5 steps; at k = 1 a sample point falls
    # between steps; both rows carry their reason in the CSV and the table
    code = main(["converge", "--method", "imex-mri-sr21", "--problem", "kpr",
                 "--kmax", "3", "--out", str(tmp_path)])
    assert code == 2
    table = capsys.readouterr().out
    with open(tmp_path / "converge-kpr.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0])[-1] == "failure"
    assert [r["k"] for r in rows] == ["0", "1", "2", "3"]
    assert [r["failed"] for r in rows] == ["1", "1", "0", "0"]
    assert "(tEnd - t0)/H = 2.5 is not an integer" in rows[0]["failure"]
    assert "sample point" in rows[1]["failure"]
    assert rows[2]["failure"] == rows[3]["failure"] == ""
    for r in rows[:2]:
        assert r["failure"] in table


@pytest.mark.parametrize("command,args", [
    ("converge", ["--kmin", "6", "--kmax", "6"]),
    ("adaptive", ["--tol", "1e-3"]),
])
@pytest.mark.parametrize("m", ["0", "-5"])
def test_bad_m_gives_failed_rows(command, args, m, capsys):
    # M = 0 and M = -5 used to run as M = 1 under their own label, and then
    # as a failed row per run; now the configuration is refused before any
    # run starts
    code = main([command, "--method", "imex-mri-sr32", "--problem", "kpr",
                 "--m", m, *args, "--json"])
    assert code == 1
    captured = capsys.readouterr()
    assert f"M = {m} is not a positive integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("option,named", [
    ({"m": "10"}, "M = '10' is not a positive integer"),
    ({"kmin": 2.5}, "kmin = 2.5 is not an integer"),
    ({"kmax": "8"}, "kmax = '8' is not an integer"),
    ({"inner": 5}, "inner 5 is not NAME, METHOD=NAME or a dict"),
    ({"inner": ["heun", 5]}, "inner 5 is not NAME, METHOD=NAME or a dict"),
], ids=["m-string", "kmin-float", "kmax-string", "inner-int",
        "inner-list-int"])
def test_bad_config_value_is_a_usage_error(option, named, tmp_path, capsys):
    # {"m": "10"} used to fail every row, and {"kmin": 2.5} and
    # {"inner": 5} escaped as a TypeError from range() and from iterating 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "imex-mri-sr21", "problem": "kpr",
                               "kmin": 2, "kmax": 3, **option}))
    assert main(["converge", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


def test_converge_json_output(capsys):
    code = main(["converge", "--method", "imex-mri-sr21,imex-mri-sr32",
                 "--problem", "kpr", "--kmin", "3", "--kmax", "4", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert {r["method"] for r in data["rows"]} == \
        {"imex-mri-sr21", "imex-mri-sr32"}
    assert set(data["slopes"]) == {"imex-mri-sr21", "imex-mri-sr32"}


def test_adaptive_subcommand(capsys):
    code = main(["adaptive", "--method", "imex-mri-sr21", "--problem", "kpr",
                 "--tol", "1e-3", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][0]["accepted"] > 0


@pytest.mark.parametrize("flag", [
    "--tol=-1e-3", "--tol=0", "--tol=nan", "--tol=inf",
    "--H0=0", "--H0=-1e-3", "--H0=nan", "--H0=inf"])
def test_adaptive_bad_tol_or_h0_is_a_usage_error(flag, capsys):
    # --tol=-1e-3 used to print the row of 1e-3 and exit 0; --tol 0 and a
    # NaN tol or H0 ran until 'rejected 31 times'
    argv = ["adaptive", "--method", "imex-mri-sr21", "--problem", "kpr",
            flag]
    if not flag.startswith("--tol"):
        argv.append("--tol=1e-3")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert flag[2:flag.index("=")] + " = " in captured.err
    assert captured.out == ""


def test_adaptive_passes_h0_to_every_run(monkeypatch, capsys):
    # --H0 used to be read by nothing in adaptive runs
    from mrisr import adaptivity
    seen = []
    run = adaptivity.integrate_adaptive

    def spy(*args, **kwargs):
        seen.append(kwargs["H0"])
        return run(*args, **kwargs)

    monkeypatch.setattr(adaptivity, "integrate_adaptive", spy)
    code = main(["adaptive", "--method", "imex-mri-sr21", "--problem", "kpr",
                 "--tol", "1e-3", "--tol", "1e-4", "--H0", "0.05", "--json"])
    assert code == 0
    assert seen == [0.05, 0.05]
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["failed"] for r in rows] == [0, 0]


@pytest.mark.parametrize("argv", [
    ["adaptive", "--method", "imex-mri-sr21", "--kmin", "0", "--kmax", "0"],
    ["converge", "--method", "imex-mri-sr21", "--tol", "1e-3"],
    ["efficiency", "--method", "imex-mri-sr21", "--H0", "0.1"],
    ["verify", "--problem", "kpr"],
    ["stability", "--method", "imex-mri-sr21", "--json"],
], ids=["adaptive-kmin", "converge-tol", "efficiency-H0", "verify-problem",
        "stability-json"])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    # such flags used to be accepted and dropped, so the run printed the
    # rows of its defaults
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,names", [
    (["--method", "merk3"], "merk3"),
    (["--method", "imex-mri-sr21", "--inner", "heun"], "heun of imex-mri-sr21"),
], ids=["method", "inner"])
def test_adaptive_without_embedding_is_an_error(argv, names, capsys):
    code = main(["adaptive", *argv, "--problem", "kpr", "--tol", "1e-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert names in captured.err and "no embedding" in captured.err
    assert captured.out == ""


def test_stability_export(tmp_path, capsys):
    code = main(["stability", "--method", "imex-mri-sr21", "--which", "E",
                 "--alpha", "45", "--rho", "1", "--window=-3,0.5,-2,2",
                 "--res", "5x4", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "stability-imex-mri-sr21-E-a45.csv" in out
    files = list(tmp_path.glob("*.csv"))
    assert len(files) == 1


@pytest.mark.parametrize("flag,value,named", [
    ("--window", "1,2,3", "window = (1.0, 2.0, 3.0)"),
    ("--res", "1x5", "res = (1, 5)"),
    ("--window", "a,0.5,-6,6", "window = 'a,0.5,-6,6' is not four finite"),
    ("--res", "48.0x48", "res = '48.0x48' is not two integers"),
], ids=["window", "res", "window-word", "res-float"])
def test_stability_bad_grid_fails_before_any_output(flag, value, named,
                                                    tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["stability", "--method", "imex-mri-sr21", flag, value,
                 "--out", str(out)])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option,named", [
    ({"alpha": 120}, "alpha = 120 is not an angle in [0, 90]"),
    ({"beta": "nan"}, "beta = 'nan' is not an angle"),
    ({"rho": -1}, "rho = -1 is not a finite number >= 0"),
    ({"xi": -1e4}, "xi = -10000.0 is not a finite number >= 0"),
    ({"which": "X"}, "which = 'X' is not 'E' or 'I'"),
], ids=["alpha", "beta-string", "rho", "xi", "which"])
def test_stability_bad_sector_fails_before_any_output(option, named,
                                                      tmp_path, capsys):
    # alpha = 120 and which = 'X' used to fail after --out was created
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"method": "imex-mri-sr21", **option}))
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(method="imex-mri-sr21", problem="kpr",
                                   kmin=2, kmax=5)))
    code = main(["converge", "--config", str(cfg), "--kmax", "3", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["k"] for r in data["rows"]] == [2, 3]


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    # n_samples and M are ExperimentConfig names but no flag; a config file
    # sets M through its flag name m; tol is a flag of adaptive only
    for bad in ("kmaxx", "seed", "n_samples", "M", "tol"):
        cfg = tmp_path / f"{bad}.json"
        cfg.write_text(json.dumps({"method": "imex-mri-sr21",
                                   "problem": "kpr", "kmin": 2, "kmax": 3,
                                   bad: 1}))
        assert main(["converge", "--config", str(cfg)]) == 1
        assert repr(bad) in capsys.readouterr().err


@pytest.mark.parametrize("content", ["5", '[["method", "merk2"]]'],
                         ids=["number", "pairs"])
def test_config_that_is_not_an_object_is_a_usage_error(content, tmp_path,
                                                       capsys):
    # 5 escaped as a TypeError, and a list of pairs was read silently as
    # the options they name
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["converge", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert f"--config {cfg} does not hold a JSON object" in captured.err
    assert captured.out == ""


def test_usage_errors(capsys):
    assert main(["converge"]) == 1  # --method required
    assert main(["frobnicate"]) == 1  # unknown subcommand
    assert main(["converge", "--method", "rk99"]) == 1  # unknown method
    # an empty method list used to print a header and exit 0
    assert main(["converge", "--method", ",", "--problem", "kpr"]) == 1
    assert main(["converge", "--method", "merk2", "--config",
                 "/nonexistent.json"]) == 1
    capsys.readouterr()


def test_unknown_problem_is_a_usage_error(capsys):
    # rejected before any run, with the known problems named
    assert main(["converge", "--method", "imex-mri-sr21",
                 "--problem", "nope"]) == 1
    err = capsys.readouterr().err
    assert "'nope'" in err and "kpr" in err


def test_inner_flag_forms(capsys):
    code = main(["converge", "--method", "imex-mri-sr21", "--problem", "kpr",
                 "--kmin", "3", "--kmax", "4",
                 "--inner", "imex-mri-sr21=bogacki-shampine", "--json"])
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_misspelt_inner_key_is_a_usage_error(capsys):
    # it used to be ignored, so the run printed the default pairing's rows
    assert main(["converge", "--method", "imex-mri-sr21", "--problem", "kpr",
                 "--inner", "imex-mri-sr12=zonneveld"]) == 1
    captured = capsys.readouterr()
    assert "inner key = 'imex-mri-sr12'" in captured.err
    assert captured.out == ""


def test_failed_rows_exit_code(monkeypatch, capsys):
    # a run whose rows include failures exits 2
    from mrisr import cli, harness

    def fake(cfg):
        return [harness.RunRecord(config=dict(method=cfg.methods[0]),
                                  rows=[dict(method=cfg.methods[0], k=0,
                                             failed=1)])]
    monkeypatch.setattr(harness, "run_convergence", fake)
    code = cli.main(["converge", "--method", "imex-mri-sr21", "--json"])
    assert code == 2
    capsys.readouterr()
