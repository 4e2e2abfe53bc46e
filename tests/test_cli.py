import hashlib
import json

import pytest

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


def test_grid_budget_exit_code(tmp_path, capsys):
    cfg = preset_config("table1:n=0")
    cfg["solver"]["max_candidates"] = 10
    path = tmp_path / "huge.json"
    path.write_text(emit(cfg))
    assert main(["solve", str(path)]) == 2
    assert "beam" in capsys.readouterr().err


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


def test_oracle_command(capsys):
    assert main(["oracle", "--trials", "3", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "trial,q_solver,q_oracle,abs_diff"
    assert len(lines) == 4
    assert captured.err.startswith("worst")
