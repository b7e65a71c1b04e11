import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedmetrics
from gradedmetrics import cli, operators
from gradedmetrics.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    main,
    parse_target,
    parse_weights,
    run,
)
from gradedmetrics.errors import DomainError

FAST_EXPERIMENTS = [e for e in EXPERIMENTS if e != "composition-probe"]


def report_without_timestamp(path):
    data = json.loads(path.read_text())
    data["header"].pop("timestamp")
    return json.dumps(data, sort_keys=True)


class TestParsing:
    def test_geometric_weights(self):
        weights, ratio = parse_weights("geometric:0.5", 4)
        assert ratio == 0.5
        assert list(weights.values) == [0.5, 0.25, 0.125, 0.0625]

    def test_explicit_weights(self):
        weights, ratio = parse_weights("0.5,0.2,0.1", 3)
        assert ratio is None
        assert list(weights.values) == [0.5, 0.2, 0.1]

    def test_target(self):
        point = parse_target("0.1e1", 8)
        assert point.coords[0] == pytest.approx(0.1)
        assert point.coords[1:].sum() == 0.0

    def test_unknown_experiment(self):
        with pytest.raises(DomainError):
            run("no-such-thing", ExperimentConfig(experiment="no-such-thing"))


@pytest.mark.parametrize(
    ("experiment", "depth", "weights"),
    [pytest.param(e, 12, "geometric:0.5", id=e) for e in FAST_EXPERIMENTS]
    # at depth 12 the down-shift is nilpotent and the series exact; at depth 64
    # the series, cut for --tol, is 4.7e-10 away from the inverse
    + [pytest.param("neumann-invert", 64, "geometric:0.5", id="neumann-invert-depth64")]
    # the metric length's gauge radii follow the weights, not 2**-(i+1)
    + [pytest.param("lengths", 16, "geometric:0.8", id="lengths-depth16-geometric0.8")]
    + [pytest.param("ball-geometry", 12, "geometric:0.8", id="ball-geometry-geometric0.8")],
)
def test_experiments_run_clean(experiment, depth, weights, tmp_path):
    cfg = ExperimentConfig(
        experiment=experiment,
        depth=depth,
        weights=weights,
        out=str(tmp_path),
        fmt="both",
    )
    paths, exit_code = run(experiment, cfg)
    assert exit_code == 0
    report = json.loads((tmp_path / f"{experiment}.json").read_text())
    assert report["header"]["config"]["experiment"] == experiment
    assert isinstance(report["certificates"], list)
    assert all(c["holds"] for c in report["certificates"])


@pytest.mark.parametrize("experiment", ["shift-bound", "lengths", "minkowski-tame"])
def test_report_determinism(experiment, tmp_path):
    cfg = ExperimentConfig(experiment=experiment, depth=12, seed=7, out=str(tmp_path))
    run(experiment, cfg)
    first = report_without_timestamp(tmp_path / f"{experiment}.json")
    run(experiment, cfg)
    second = report_without_timestamp(tmp_path / f"{experiment}.json")
    assert first == second


def test_csv_output_is_rfc4180(tmp_path):
    cfg = ExperimentConfig(experiment="fk-witness", out=str(tmp_path), fmt="csv")
    paths, _ = run("fk-witness", cfg)
    raw = (tmp_path / "fk-witness.csv").read_bytes()
    assert b"\r\n" in raw
    header = raw.split(b"\r\n")[0].decode()
    assert header == "k,sup,derivative_sup,ratio,expected"


def test_failed_certificate_exits_2(tmp_path):
    # the comparability ordering genuinely fails at ratio 0.8, so the
    # experiment must report it and exit 2
    cfg = ExperimentConfig(
        experiment="metrics-compare", depth=12, weights="geometric:0.8", out=str(tmp_path)
    )
    paths, exit_code = run("metrics-compare", cfg)
    assert exit_code == 2
    report = json.loads((tmp_path / "metrics-compare.json").read_text())
    failed = [c for c in report["certificates"] if not c["holds"]]
    assert [c["name"] for c in failed] == ["comparability-triple-ordered"]


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def test_neumann_invert_residual_ceilings_equal_their_bounds(tmp_path):
    assert main(["neumann-invert", "--format", "csv", "--out", str(tmp_path)]) == 0
    header, *rows = _csv_rows(tmp_path / "neumann-invert.csv")
    assert header == ["m", "residual_ceiling", "bound"]
    assert [float(ceiling) for _, ceiling, _ in rows] == [0.5 ** (m + 1) for m in range(11)]
    assert all(ceiling == bound for _, ceiling, bound in rows)


def test_neumann_invert_ceiling_disproves_rho_at_ratio_08(tmp_path):
    argv = ["neumann-invert", "--weights", "geometric:0.8", "--format", "both", "--out", str(tmp_path)]
    assert main(argv) == 2
    report = json.loads((tmp_path / "neumann-invert.json").read_text())
    assert [c["name"] for c in report["certificates"] if not c["holds"]] == ["residual-bounds-respected"]
    assert float(_csv_rows(tmp_path / "neumann-invert.csv")[1][1]) == 0.8000000000000002


def test_neumann_invert_probes_only_the_expanding_map(tmp_path, monkeypatch):
    passes = []
    estimates = operators.rbound_estimates

    def counted(ops, *args, **kwargs):
        passes.append(len(ops))
        return estimates(ops, *args, **kwargs)

    monkeypatch.setattr(operators, "rbound_estimates", counted)
    monkeypatch.setattr(cli, "rbound_estimates", counted)
    assert main(["neumann-invert", "--out", str(tmp_path)]) == 0
    assert passes == [1]


def test_metrics_compare_past_the_squared_weights(tmp_path):
    # at ratio 1/2 the triple's r**2 weights 0.25**n underflow from depth 538, the
    # ratio's own weights from depth 1075; only the latter is a configuration error
    assert main(["metrics-compare", "--depth", "600", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "metrics-compare.json").read_text())
    assert report["results"]["comparability_skipped"] == "ratio**2 weights underflow to 0 at depth 600"
    assert report["results"]["comparability_triples"] == []
    assert [c["name"] for c in report["certificates"]] == ["triangle-inequality-1e-12"]
    assert main(["metrics-compare", "--depth", "1075", "--out", str(tmp_path)]) == 3


def test_main_unknown_experiment_exits_3():
    assert main(["definitely-not-real"]) == 3


def test_ball_geometry_follows_weights(tmp_path):
    radii = []
    for weights in ("geometric:0.5", "geometric:0.8"):
        cfg = ExperimentConfig(experiment="ball-geometry", depth=12, weights=weights, out=str(tmp_path))
        assert run("ball-geometry", cfg)[1] == 0
        report = json.loads((tmp_path / "ball-geometry.json").read_text())
        radii.append(report["results"]["nonconvexity"]["radius"])
    assert radii[0] != radii[1]


def test_minkowski_tame_rejects_other_weights(tmp_path, capsys):
    # its dyadic radii and m4(e1) == 1 certificate belong to ratio 1/2
    assert main(["minkowski-tame", "--weights", "geometric:0.8", "--out", str(tmp_path)]) == 3
    assert "geometric:0.5" in capsys.readouterr().err


def test_main_runs_and_prints(tmp_path, capsys):
    code = main(["fk-witness", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fk-witness.json" in out


def test_console_entry_point(tmp_path):
    # the subprocess does not inherit sys.path, so hand it the package location
    package_root = str(Path(gradedmetrics.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gradedmetrics.cli", "fk-witness", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
