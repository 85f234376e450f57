"""The benchmark's own tests: exact counts and digests repeat exactly.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Most tests run bench/run.py in a subprocess with a one-second measuring
window, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

# Counts that depend on the workload shape only, never on the seed.
SEED_FREE = ("tensor.tape_nodes", "neurons.lif_step.calls_per_step",
             "analysis.loss_evals_per_sharpness", "analysis.grad_evals_per_sharpness",
             "training.flops_per_step")
# Values that are exact for one seed; all of SEED_FREE too.
EXACT = SEED_FREE + ("modulation.iemf_train_step.count", "continual.incremental_step.count",
                     "modulation.xi_", "container.bytes")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    return out


def parsed(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return record, {k: v["value"] for k, v in result["metrics"].items()}


def selected(metrics: dict, prefixes) -> dict:
    # Step counts depend on how many calls fit in the window, not on the program.
    return {k: v for k, v in metrics.items()
            if k.startswith(prefixes) and not k.endswith(".count")}


@pytest.fixture(scope="module", params=WORKLOAD_NAMES)
def runs(request):
    workload = request.param
    return workload, {
        "traced_a": parsed(run_bench(workload, 3, 1)),
        "traced_b": parsed(run_bench(workload, 3, 1)),
        "traced_other_seed": parsed(run_bench(workload, 4, 1)),
        "plain": parsed(run_bench(workload, 3, 0)),
    }


def test_metric_names_match_benchmark_json(runs):
    _, r = runs
    assert list(r["plain"][1]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(r["traced_a"][1]) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_same_seed_repeats_exactly(runs):
    _, r = runs
    (rec_a, a), (rec_b, b), (rec_plain, _) = r["traced_a"], r["traced_b"], r["plain"]
    assert selected(a, EXACT) == selected(b, EXACT)
    assert rec_a["digest"] == rec_b["digest"] == rec_plain["digest"]


def test_counts_do_not_depend_on_seed(runs):
    _, r = runs
    (rec_a, a), (rec_c, c) = r["traced_a"], r["traced_other_seed"]
    assert selected(a, SEED_FREE) == selected(c, SEED_FREE)
    assert rec_a["digest"] != rec_c["digest"]


def test_counts_match_the_known_shapes(runs):
    workload, r = runs
    m = r["traced_a"][1]
    expected = {
        "train_continuous": {"tensor.tape_nodes_per_step": 48,
                             "neurons.lif_step.calls_per_step": 0},
        "train_spiking": {"tensor.tape_nodes_per_step": 248,
                          "neurons.lif_step.calls_per_step": 16},
        "continual_lwf": {"neurons.lif_step.calls_per_step": 0},
        "analyze_fusion": {"analysis.loss_evals_per_sharpness": 97,
                           "analysis.grad_evals_per_sharpness": 90},
    }[workload]
    assert {k: m[k] for k in expected} == expected
    op_sum = sum(v for k, v in m.items() if k.startswith("tensor.tape_nodes."))
    assert op_sum == pytest.approx(m["tensor.tape_nodes_per_step"], rel=1e-12)


def test_broken_coefficient_is_counted_as_failed(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        import iemf.modulation
        import workloads
    finally:
        del sys.path[:2]
    monkeypatch.setattr(iemf.modulation, "iemf_coefficient", lambda s_u, s_m, cfg: 2 * cfg.gamma)
    tally = workloads.Tally()
    workloads.run("train_continuous", 0, 0.1, False, tally)
    assert tally.failed > 0 and any("xi values outside" in r for r in tally.reasons)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(WORKLOAD_NAMES[0], 0, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
