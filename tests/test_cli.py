import hashlib
import json

import pytest

from storemkt import dispatch, mdp
from storemkt.cli import main
from storemkt.config import emit
from storemkt.presets import preset_config


def test_solve_prints_solution(capsys):
    assert main(["solve", "example1:p=0.19"]) == 0
    out = capsys.readouterr().out
    assert "q_star 1.9" in out
    assert "g_star 1 0" in out
    assert "candidates 2" in out


def test_solve_writes_artifact(tmp_path, capsys):
    target = tmp_path / "nested" / "solution.json"
    assert main(["solve", "example1:p=0.25", "--out", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["q_star"] == pytest.approx(2.0)
    assert payload["g_star"] == [0.0, 1.0]


# sha256 of the ``solve --out`` artifact (values and policy JSON), recorded
# before the reference recursion was vectorized: its values and policy
# must stay bit-identical
SOLVE_ARTIFACT_SHA256 = {
    "table1": "4f7d55b6fee8cf157d944ea3bfac775b5220e418c4957d6295436c5ff270051a",
    "table1:n=3": "d1ac703e7c03a6e813ee435e99ee2e37d7231752ee666f482308644fbb4e2f59",
    "example1:p=0.19": "811bbc06b12e4ee7c7b43748cf8d713062724d6f150b8547e9b6245ff1c18604",
    "theorem1": "71706c9f5cd41fdef8c8f5057e0b6b749e4765ac7c1f92b4c5094904cf558be2",
}


@pytest.mark.parametrize("preset", sorted(SOLVE_ARTIFACT_SHA256))
def test_solve_artifact_bytes_are_frozen(preset, tmp_path, capsys):
    target = tmp_path / "solution.json"
    assert main(["solve", preset, "--out", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SOLVE_ARTIFACT_SHA256[preset]


# sha256 of the ``solve --out`` artifact and of a 300-day ``simulate``
# trace on a table1 n=2 market whose levels floats do not hold exactly,
# recorded while policies still stored their action tuples.  The artifact
# holds inexact deltas such as 9.1 - 0.3 = 8.799999999999999
NON_DYADIC_SHA256 = {
    "solve": "a4eab4edd52f6dbe58cca2508f5aef0dfcf2d9029f6bd8e91e7e6c87dfd66c6b",
    "simulate": "a6d53e9e03ad426af9aa6fe23e6ba0c2c8196132162557449bed14bfbad9ee9a",
}


def test_non_dyadic_level_bytes_are_frozen(tmp_path, capsys):
    cfg = preset_config("table1:n=2")
    cfg["evs"][0]["levels"] = [0.0, 0.7, 3.0, 7.3]
    cfg["evs"][1]["levels"] = [0.0, 0.3, 9.1]
    cfg["solver"]["step"] = 5.0
    path = tmp_path / "non_dyadic.json"
    path.write_text(emit(cfg))
    solution, trace = tmp_path / "solution.json", tmp_path / "trace.csv"
    assert main(["solve", str(path), "--out", str(solution)]) == 0
    assert main(["simulate", str(path), "--days", "300", "--seed", "0", "--out", str(trace)]) == 0
    capsys.readouterr()
    policy = json.loads(solution.read_text())["policy"]
    assert 8.799999999999999 in {d for act in policy.values() for d in act}
    got = {
        "solve": hashlib.sha256(solution.read_bytes()).hexdigest(),
        "simulate": hashlib.sha256(trace.read_bytes()).hexdigest(),
    }
    assert got == NON_DYADIC_SHA256


def test_validate_prints_normal_form(tmp_path, capsys):
    assert main(["validate", "example1"]) == 0
    first = capsys.readouterr().out
    normalized = json.loads(first)
    assert normalized["horizon"] == 2
    # validating the emitted form reproduces it byte for byte
    path = tmp_path / "cfg.json"
    path.write_text(first)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == first


def test_validate_reports_field_errors(tmp_path, capsys):
    cfg = preset_config("example1")
    cfg["demand"] = [0.0, -1.0]
    path = tmp_path / "bad.json"
    path.write_text(emit(cfg))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "demand[1]" in err


def test_missing_config_file(capsys):
    assert main(["validate", "no_such_file.json"]) == 2
    assert "no such config" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\n")
    assert main(["solve", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "theorem1", "--days", "0"],
        ["simulate", "theorem1", "--seed", "-1"],
        ["oracle", "--seed", "-1"],
        ["oracle", "--trials", "0"],
    ],
)
def test_bad_counts_and_seeds_exit_2(argv, capsys):
    # --days and --trials take positive integers, --seed nonnegative ones
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "need an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,named",
    [
        ("table1:n=9", "table1:n=9: n must be in 0..4"),
        ("table1:n=abc", "n takes int values, not 'abc'"),
        ("table1:profile=Z", "profile must be one of"),
        ("example1:p=1.5", "p must be inside (0, 1)"),
        ("theorem1:p=0.3", "unknown argument 'p'"),
        ("example1:n=2", "unknown argument 'n'"),
        ("fig2", "preset 'fig2' is experiment-only"),
        ("table1:n=2,n=3", "argument 'n' given twice"),
    ],
)
def test_bad_preset_names_fail_by_name(name, named, capsys):
    # a bad value, an argument the preset does not take, a repeated one or
    # an experiment-only preset is a config error: exit 2, argument named
    assert main(["solve", name]) == 2
    captured = capsys.readouterr()
    assert named in captured.err and captured.out == ""


def test_negative_config_seeds_fail_by_name(tmp_path, capsys):
    cfg = preset_config("theorem1")
    cfg["simulation"]["seeds"] = [-1]
    path = tmp_path / "negative-seed.json"
    path.write_text(emit(cfg))
    for command in ("validate", "simulate"):
        assert main([command, str(path)]) == 2
        assert "simulation.seeds: must be nonnegative" in capsys.readouterr().err


def test_misspelled_keys_exit_2(tmp_path, capsys):
    cfg = preset_config("table1:n=1")
    cfg["solver"]["mdoe"] = "beam"
    path = tmp_path / "typo.json"
    path.write_text(emit(cfg))
    for command in ("validate", "solve"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "solver.mdoe: unknown key\n" and captured.out == ""


def test_overflowing_fine_exits_2(tmp_path, capsys):
    cfg = preset_config("theorem1")
    cfg["mechanism"]["penalty_exponent"] = 400
    cfg["simulation"].update(days=50, strategies=[{"rule": {"kind": "fixed", "slot": 1}}])
    path = tmp_path / "fine.json"
    path.write_text(emit(cfg))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "exponent 400 overflows a float on day 50" in captured.err and captured.out == ""


def test_simulate_replays_byte_identical(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        trace = tmp_path / f"trace_{tag}.csv"
        diag = tmp_path / f"diag_{tag}.json"
        rc = main(
            [
                "simulate", "example1", "--days", "30", "--seed", "5",
                "--out", str(trace), "--diagnostics", str(diag),
            ]
        )
        assert rc == 0
        paths.append((trace, diag))
    capsys.readouterr()
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
    diag = json.loads(paths[0][1].read_text())
    assert diag["days"] == 30 and diag["seed"] == 5


def test_simulate_streams_trace_and_diagnostics(capsys):
    assert main(["simulate", "example1", "--days", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("day,row,ev,true_delta,reported")
    diag = json.loads(captured.err)
    assert diag["q_star"] == pytest.approx(1.9)


def test_infeasible_model_exit_code(tmp_path, capsys):
    cfg = preset_config("example1")
    cfg["evs"] = []
    cfg["solver"]["candidates"] = [[1.0, 0.0]]
    path = tmp_path / "stranded.json"
    path.write_text(emit(cfg))
    assert main(["solve", str(path)]) == 3
    assert capsys.readouterr().err.startswith("infeasible:")


def test_grid_budget_exit_code(capsys, monkeypatch):
    # a budget that admits the fleet's tables but not the first slot
    monkeypatch.setattr(dispatch, "BATCH_BYTE_BUDGET", dispatch._space_bytes(()))
    assert main(["solve", "table1:n=0"]) == 2
    assert "beam" in capsys.readouterr().err


def test_payments_rollout_budget_exits_2_without_csv(tmp_path, capsys, monkeypatch):
    # the j_m probe's batched rollout refuses its report profiles; the run
    # must exit 2 with the reason, before the CSV is written
    monkeypatch.setattr(mdp, "ROLLOUT_BYTES", 10**18)
    out = tmp_path / "payments.csv"
    assert main(["payments", "table1:n=2", "--out", str(out)]) == 2
    assert "report profiles would hold about" in capsys.readouterr().err
    assert not out.exists()


def test_payments_csv_and_fine(capsys):
    assert main(["payments", "example1:p=0.19"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "ev,p_da,identity_residual"
    assert lines[1].startswith("1,-0.09,")
    assert "recommended miss fine j_m = 282.843" in captured.err


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "figure9"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_example1(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["experiment", "example1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "example1: PASS" in stdout
    assert (out / "report.json").exists()
    assert (out / "example1_threshold.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True


def test_experiment_fig2_logs_each_config_warning_once(tmp_path, capsys, caplog):
    # profile E's bids have floor 0 at every fleet size n = 1..4: one
    # cause, logged once per run
    with caplog.at_level("WARNING", logger="storemkt"):
        assert main(["experiment", "fig2", "--out", str(tmp_path / "fig2")]) == 0
    zero_floor = [r for r in caplog.records if "floor 0 accepted" in r.getMessage()]
    assert len(zero_floor) == 1


def test_experiment_theorem1(tmp_path, capsys):
    # the two-point underbid is judged on the day the window closes over
    # its 0.02 drift; at the preset's 5,000 days its gain is information
    out = tmp_path / "t1"
    assert main(["experiment", "theorem1", "--out", str(out)]) == 0
    assert "theorem1: PASS" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    underbid = "underbid_two_points_truthful"
    assert report["informational"] == [f"adversaries.{underbid}"]
    assert report["adversaries"][underbid]["0"]["dsic_ok"] is False
    closing = report["underbid_closing"]
    assert closing["days"] == 50_943
    assert closing["adversaries"][underbid]["0"]["dsic_ok"] is True
    for name, cells in report["adversaries"].items():
        assert name == underbid or cells["0"]["dsic_ok"] is True


def test_oracle_command(capsys):
    assert main(["oracle", "--trials", "3", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "trial,q_solver,q_oracle,abs_diff"
    assert len(lines) == 4
    assert captured.err.startswith("worst")
