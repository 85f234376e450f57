"""End-to-end CLI runs: artifacts, exit codes, and byte-identical reruns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from iemf.cli import main
from iemf.config import from_dict, load_config
from iemf.errors import ConfigError

SMOKE_CONFIG = {
    "seed": 0,
    "data": {"n_classes": 4, "d_a": 6, "d_v": 6, "train_per_class": 12, "test_per_class": 4,
             "sigma_a": 2.0, "sigma_v": 0.8},
    "model": {"hidden": 8, "latent": 6},
    "optim": {"eta": 0.01, "epochs": 3, "batch_size": 8},
    "iemf": {"enabled": True, "gamma": 1.0},
    "continual": {"tasks": 2, "classes_per_task": 2, "method": "lwf"},
}


@pytest.fixture
def workdir(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMOKE_CONFIG))
    return tmp_path, str(cfg_path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_generate_is_deterministic(workdir):
    tmp, cfg = workdir
    d1, d2 = str(tmp / "d1.iemf"), str(tmp / "d2.iemf")
    assert main(["generate", "--config", cfg, "--out", d1]) == 0
    assert main(["generate", "--config", cfg, "--out", d2]) == 0
    assert _read(d1) == _read(d2)


def test_train_writes_all_artifacts_and_reruns_identically(workdir):
    tmp, cfg = workdir
    data = str(tmp / "data.iemf")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    out1, out2 = str(tmp / "run1"), str(tmp / "run2")
    assert main(["train", "--config", cfg, "--data", data, "--out", out1]) == 0
    assert main(["train", "--config", cfg, "--data", data, "--out", out2]) == 0
    for name in ("metrics.csv", "xi_trace.csv", "resolved_config.json", "checkpoint.iemf"):
        assert os.path.exists(os.path.join(out1, name)), name
        assert _read(os.path.join(out1, name)) == _read(os.path.join(out2, name)), name
    header = Path(out1, "metrics.csv").read_text().splitlines()[0].split(",")
    assert header == ["epoch", "train_loss", "train_acc", "test_acc", "mean_xi",
                      "flops_cumulative"]
    trace_header = Path(out1, "xi_trace.csv").read_text().splitlines()[0].split(",")
    assert trace_header == ["step", "epoch", "s_unimodal", "s_multimodal", "xi"]


def test_train_iemf_toggle_changes_only_fusion_and_xi(workdir, tmp_path):
    tmp, cfg = workdir
    data = str(tmp / "data.iemf")
    main(["generate", "--config", cfg, "--out", data])

    cfg_off = dict(SMOKE_CONFIG)
    cfg_off["iemf"] = {"enabled": False}
    cfg_off_path = tmp_path / "config_off.json"
    cfg_off_path.write_text(json.dumps(cfg_off))

    out_on, out_off = str(tmp / "on"), str(tmp / "off")
    assert main(["train", "--config", cfg, "--data", data, "--out", out_on]) == 0
    assert main(["train", "--config", str(cfg_off_path), "--data", data, "--out", out_off]) == 0

    from iemf.container import load_checkpoint

    m_on = load_checkpoint(os.path.join(out_on, "checkpoint.iemf"))
    m_off = load_checkpoint(os.path.join(out_off, "checkpoint.iemf"))
    # the first training step has identical gradients, so only fusion diverges there;
    # later steps drift, but the xi column records the modulation state throughout
    with open(os.path.join(out_off, "xi_trace.csv")) as fh:
        rows = fh.readlines()[1:]
    assert all(float(r.strip().split(",")[4]) == 1.0 for r in rows)
    assert m_on.cfg == m_off.cfg


def test_continual_outputs(workdir):
    tmp, cfg = workdir
    data = str(tmp / "data.iemf")
    main(["generate", "--config", cfg, "--out", data])
    out = str(tmp / "cl")
    assert main(["continual", "--config", cfg, "--data", data, "--out", out]) == 0
    matrix_lines = Path(out, "accuracy_matrix.csv").read_text().strip().splitlines()
    assert len(matrix_lines) == 2
    assert len(matrix_lines[0].split(",")) == 1 and len(matrix_lines[1].split(",")) == 2
    metrics = json.loads(Path(out, "continual_metrics.json").read_text())
    assert set(metrics) == {"aa", "aia", "afr", "method"}
    assert len(metrics["aa"]) == 2
    assert metrics["method"] == "lwf"


def test_analyze_contraction_and_cost(workdir, tmp_path):
    tmp, cfg = workdir
    data = str(tmp / "data.iemf")
    main(["generate", "--config", cfg, "--out", data])
    run_a, run_b = str(tmp / "ra"), str(tmp / "rb")
    main(["train", "--config", cfg, "--data", data, "--out", run_a])

    cfg_b = dict(SMOKE_CONFIG)
    cfg_b["iemf"] = {"enabled": False}
    cfg_b["analysis"] = {
        "contraction": {"eigenvalues": [1.0, 10.0], "alpha0": [1.0, 1.0], "eta": 0.05,
                        "xi": 0.5, "steps": 50},
        "cost": {"metrics": [os.path.join(run_a, "metrics.csv"),
                             os.path.join(run_b, "metrics.csv")],
                 "labels": ["with", "without"]},
        "sharpness": {"checkpoint": os.path.join(run_a, "checkpoint.iemf"),
                      "ball_radius": 0.2, "n_probes": 2, "ascent_steps": 2},
        "landscape": {"checkpoint": os.path.join(run_a, "checkpoint.iemf"),
                      "grid_n": 3, "extent": 0.0},
    }
    cfg_b_path = tmp_path / "config_b.json"
    cfg_b_path.write_text(json.dumps(cfg_b))
    main(["train", "--config", str(cfg_b_path), "--data", data, "--out", run_b])

    out = str(tmp / "an")
    assert main(["analyze", "contraction", "--config", str(cfg_b_path), "--out", out]) == 0
    report = json.loads(Path(out, "contraction_report.json").read_text())
    assert report["passed"] and not report["diverged"]

    assert main(["analyze", "cost", "--config", str(cfg_b_path), "--out", out]) == 0
    cost = json.loads(Path(out, "cost_report.json").read_text())
    assert set(cost["cost"]) == {"with", "without"}

    assert main(["analyze", "sharpness", "--config", str(cfg_b_path), "--data", data,
                 "--out", out]) == 0
    sharp = json.loads(Path(out, "sharpness.json").read_text())
    assert sharp["n_probes"] == 2

    assert main(["analyze", "landscape", "--config", str(cfg_b_path), "--data", data,
                 "--out", out]) == 0
    lines = Path(out, "landscape.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,loss"
    values = {float(ln.split(",")[2]) for ln in lines[1:]}
    assert len(lines) == 1 + 9
    assert len(values) == 1  # extent 0: constant grid


def test_exit_codes(workdir, tmp_path):
    tmp, cfg = workdir
    # 2: validation (missing --out)
    assert main(["generate", "--config", cfg]) == 2
    # 2: malformed config
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"data": {"n_classes": 1}}))
    assert main(["generate", "--config", str(bad), "--out", str(tmp / "x.iemf")]) == 2
    # 2: unknown keys
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"daat": {}}))
    assert main(["generate", "--config", str(bad2), "--out", str(tmp / "x.iemf")]) == 2
    # 2: corrupt container magic
    blob = tmp / "junk.iemf"
    blob.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    assert main(["train", "--config", cfg, "--data", str(blob), "--out", str(tmp / "t")]) == 2
    # 4: unreadable dataset path
    assert main(["train", "--config", cfg, "--data", str(tmp / "missing.iemf"),
                 "--out", str(tmp / "t2")]) == 4


def test_numeric_failure_prints_one_line(workdir):
    """Exit 3 with only the failure message on stderr, no numpy warning ahead of it.

    Runs in a subprocess because pytest captures warnings."""
    tmp, cfg = workdir
    data = str(tmp / "data.iemf")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    hot = tmp / "hot.json"
    hot.write_text(json.dumps({**SMOKE_CONFIG, "optim": {**SMOKE_CONFIG["optim"], "eta": 1e300}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "iemf.cli", "train", "--config", str(hot), "--data", data,
         "--out", str(tmp / "hot")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: "), proc.stderr


def test_seed_override_propagates(workdir):
    tmp, cfg = workdir
    d0, d7 = str(tmp / "s0.iemf"), str(tmp / "s7.iemf")
    assert main(["generate", "--config", cfg, "--out", d0]) == 0
    assert main(["generate", "--config", cfg, "--seed", "7", "--out", d7]) == 0
    assert _read(d0) != _read(d7)
    resolved = load_config(cfg, seed_override=7)
    assert resolved.seed == 7 and resolved.data.seed == 7 and resolved.optim.seed == 7


def test_config_echo_contains_resolved_defaults(workdir):
    tmp, cfg = workdir
    data = str(tmp / "data.iemf")
    main(["generate", "--config", cfg, "--out", data])
    out = str(tmp / "run")
    main(["train", "--config", cfg, "--data", data, "--out", out])
    echo_path = os.path.join(out, "resolved_config.json")
    echo = json.loads(Path(echo_path).read_text())
    assert echo["optim"]["weight_decay"] == 1e-4  # default materialized
    assert echo["iemf"]["gating"] == "tanh"
    assert echo["optim"]["mslr"] == {"mult_a": 1.0, "mult_v": 1.0}
    assert echo["data"]["seed"] == 0
    assert echo["model"]["lif"]["tau_m"] == 2.0
    # the echo is itself a valid configuration
    assert main(["generate", "--config", echo_path, "--out", str(tmp / "again.iemf")]) == 0
    assert _read(str(tmp / "again.iemf")) == _read(data)


def test_strict_config_parsing():
    with pytest.raises(ConfigError):
        from_dict({"optim": {"learning_rate": 0.1}})
    with pytest.raises(ConfigError):
        from_dict({"iemf": {"gamma": -1.0}})
    cfg = from_dict({})
    assert cfg.optim.epochs == 100
    assert cfg.data.n_classes == 6
