import json

import numpy as np
import pytest

from pitchftc import cli
from pitchftc.harness import RunConfig, run_simulation, write_csv


@pytest.fixture()
def config_path(tmp_path):
    cfg = RunConfig(
        mode="proposed",
        load_case="LC3",
        seed=4,
        duration_s=250.0,
        fault_blade=3,
        fault_time_s=125.0,
    )
    path = tmp_path / "cfg.json"
    cfg.to_json_file(path)
    return path


@pytest.mark.parametrize(
    "column", ["y", "dfd", "k", "dfd1", "y0", "y4", "load1", "rbar1", "t"]
)
def test_psd_rejects_unknown_column(tmp_path, column):
    cfg = RunConfig(mode="baseline", duration_s=10.0, fault_blade=0)
    csv_path = tmp_path / "run.csv"
    write_csv(csv_path, run_simulation(cfg).series, cfg.Ts)
    with pytest.raises(SystemExit, match="unknown column"):
        cli.main(["psd", "--csv", str(csv_path), "--column", column])


def test_psd_takes_the_sample_rate_from_the_csv(tmp_path):
    # at Ts = 0.005 a fixed 100 Hz would put the 1P peak at 0.08 Hz
    cfg = RunConfig(mode="baseline", Ts=0.005, duration_s=200.0, fault_blade=0)
    csv_path, psd_out = tmp_path / "run.csv", tmp_path / "psd.csv"
    write_csv(csv_path, run_simulation(cfg).series, cfg.Ts)
    argv = ["psd", "--csv", str(csv_path), "--column", "y1", "--segment", "5000"]
    assert cli.main(argv + ["--out", str(psd_out)]) == 0
    data = np.loadtxt(psd_out, delimiter=",", skiprows=1)
    assert data[np.argmax(data[:, 1]), 0] == pytest.approx(0.16, abs=0.02)
    with pytest.raises(SystemExit):
        cli.main(argv + ["--fs", "200"])


def test_psd_of_a_csv_shorter_than_one_and_a_half_segments_exits(tmp_path):
    cfg = RunConfig(mode="baseline", duration_s=0.1, fault_blade=0)
    csv_path = tmp_path / "run.csv"
    write_csv(csv_path, run_simulation(cfg).series, cfg.Ts)
    with pytest.raises(SystemExit, match="from 10 samples"):
        cli.main(["psd", "--csv", str(csv_path), "--column", "y1"])


def test_config_verb_writes_defaults(tmp_path, capsys):
    out = tmp_path / "default.json"
    assert cli.main(["config", str(out)]) == 0
    assert json.loads(out.read_text()) == RunConfig().to_dict()
    cfg = RunConfig.from_json_file(out)
    assert cfg.duration_s == 1400.0


def test_tune_run_compare_psd_flow(tmp_path, config_path, capsys):
    bank_path = tmp_path / "bank.json"
    tune_cfg = RunConfig(
        mode="offline_tune",
        load_case="LC3",
        seed=100,
        duration_s=600.0,
        fault_blade=3,
        fault_time_s=0.0,
    )
    tune_path = tmp_path / "tune.json"
    tune_cfg.to_json_file(tune_path)
    assert cli.main(["tune", "--config", str(tune_path), "--bank", str(bank_path)]) == 0
    assert bank_path.exists()

    run_cfg = RunConfig.from_json_file(config_path)
    run_cfg = run_cfg.from_dict({**run_cfg.to_dict(), "bank_path": str(bank_path)})
    run_cfg.to_json_file(config_path)
    csv_path = tmp_path / "run.csv"
    report_path = tmp_path / "report.json"
    assert (
        cli.main(
            [
                "run",
                "--config",
                str(config_path),
                "--csv",
                str(csv_path),
                "--report",
                str(report_path),
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    assert report["d_fd"] == 3
    run_out = capsys.readouterr().out

    out_dir = tmp_path / "cmp"
    assert (
        cli.main(
            [
                "compare",
                "--config",
                str(config_path),
                "--bank",
                str(bank_path),
                "--out",
                str(out_dir),
            ]
        )
        == 0
    )
    reduction = json.loads((out_dir / "reduction.json").read_text())
    assert "proposed" in reduction and "cumulative" in reduction["proposed"]
    table = capsys.readouterr().out
    assert "cumulative %" in table
    # both commands print the environment the runs computed in
    for out in (run_out, table):
        lines = [line for line in out.splitlines() if line.startswith("telemetry: ")]
        assert len(lines) == 1
        recorded = json.loads(lines[0].removeprefix("telemetry: "))
        assert recorded["blas_threads"] == 1 and "rls_threads" not in recorded

    psd_out = tmp_path / "psd.csv"
    assert (
        cli.main(
            ["psd", "--csv", str(csv_path), "--column", "y1", "--out", str(psd_out)]
        )
        == 0
    )
    data = np.loadtxt(psd_out, delimiter=",", skiprows=1)
    assert data.shape[1] == 2
    # dominant load content sits at the rotor frequency
    assert data[np.argmax(data[:, 1]), 0] == pytest.approx(0.16, abs=0.05)
