"""The four benchmark workloads: set-up, timed calls, checks and metrics.

Every workload is a closed loop with one caller: each call into `iemf` starts
after the previous one returns. Inputs come only from `--seed`, through the
package's own seeded generators. The workload shapes are owned here, not read
from `configs/`, so editing a shipped config cannot change what is measured.
"""

from __future__ import annotations

import copy
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import iemf.analysis
import iemf.config
import iemf.container
import iemf.continual
import iemf.data
import iemf.model
import iemf.modulation
import iemf.training
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The shape of configs/default.json: 6 classes, 32+32 inputs, 1200 training
# samples, batch 32, hidden 64, depth 2.
BASE_CONFIG = {
    "data": {"n_classes": 6, "d_a": 32, "d_v": 32, "train_per_class": 200,
             "test_per_class": 50, "sigma_a": 1.5, "sigma_v": 0.5},
    "model": {"hidden": 64, "latent": 32, "depth": 2, "neuron_mode": "continuous"},
    "optim": {"eta": 0.01, "weight_decay": 0.0001, "batch_size": 32},
    "iemf": {"enabled": True, "gamma": 1.0, "gating": "tanh"},
    "continual": {"tasks": 3, "classes_per_task": 2, "method": "lwf"},
}
SPIKING_MODEL = {"neuron_mode": "spiking",
                 "lif": {"u_th": 0.5, "tau_m": 2.0, "t_steps": 4, "surrogate_width": 1.0}}
# Epochs per train() call, per task for continual_lwf, and of the checkpoint
# analyze_fusion trains during set-up.
EPOCHS = {"train_continuous": 5, "train_spiking": 3, "continual_lwf": 4, "analyze_fusion": 5}
# Floors sit well below what every seed tried reaches and well above chance
# (1/6); falling under one means training broke, not that a seed was unlucky.
TEST_ACC_FLOOR = {"train_continuous": 0.9, "train_spiking": 0.5, "analyze_fusion": 0.9}
AIA_FLOOR = 0.25
SHARPNESS = {"ball_radius": 0.25, "n_probes": 6, "ascent_steps": 15, "blocks": "fusion"}
# Loss evaluations: one at the centre, then per probe one at the start and one
# after each ascent step; one gradient evaluation per ascent step.
SHARPNESS_EVALS = 1 + SHARPNESS["n_probes"] * (1 + 2 * SHARPNESS["ascent_steps"])
LANDSCAPE = {"grid_n": 11, "extent": 1.0}
SETUP_REPEATS = 5
THREAD_REPEATS = 3
FD_STEP = 1e-6
FD_TOLERANCE = 1e-7

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import iemf; print(time.perf_counter() - t)"
)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.reasons.append(reason)


@dataclass
class Prepared:
    workload: str
    seed: int
    cfg: iemf.config.ExperimentConfig
    dataset: iemf.data.Dataset
    model: iemf.model.MultimodalModel
    stream: iemf.continual.TaskStream | None = None
    checkpoint_trace: list | None = None
    checkpoint_test_acc: float | None = None
    base_loss: float | None = None
    phases_s: dict[str, float] = field(default_factory=dict)
    container_bytes: int = 0


@dataclass
class CallResult:
    seconds: float          # the headline call: train(), train_incremental() or sharpness()
    wall: float             # everything the call did, for the tracing overhead
    work: int               # training samples, or landscape cells
    work_s: float           # wall time spent on `work`
    epochs: int
    digest: str
    model: iemf.model.MultimodalModel
    trace: list
    grid: np.ndarray | None = None


# ---------------------------------------------------------------------------
# set-up


def experiment_config(workload: str, seed: int) -> iemf.config.ExperimentConfig:
    raw = copy.deepcopy(BASE_CONFIG)
    if workload == "train_spiking":
        raw["model"].update(copy.deepcopy(SPIKING_MODEL))
    raw["optim"]["epochs"] = EPOCHS[workload]
    return iemf.config.from_dict(raw, seed_override=seed)


def _same_params(a: iemf.model.MultimodalModel, b: iemf.model.MultimodalModel) -> bool:
    return a.params.keys() == b.params.keys() and all(
        np.array_equal(a.params[k], b.params[k]) for k in a.params)


def _same_batch(a: iemf.model.Batch, b: iemf.model.Batch) -> bool:
    return (np.array_equal(a.x_a.data, b.x_a.data) and np.array_equal(a.x_v.data, b.x_v.data)
            and np.array_equal(a.y, b.y))


def set_up(workload: str, seed: int, workdir: Path) -> Prepared:
    """Config, data, container round trip and model; raises if a round trip is lossy."""
    phases: dict[str, float] = {}

    def timed(phase, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        phases[phase] = phases.get(phase, 0.0) + time.perf_counter() - t0
        return out

    cfg = timed("config", experiment_config, workload, seed)
    generated = timed("generate", iemf.data.generate, cfg.data)
    data_path = str(workdir / "dataset.iemf")
    timed("save", iemf.container.save_dataset, data_path, generated)
    dataset = timed("load", iemf.container.load_dataset, data_path)
    if not (_same_batch(dataset.train, generated.train)
            and _same_batch(dataset.test, generated.test)):
        raise RuntimeError("dataset container round trip is not bit-exact")
    nbytes = os.path.getsize(data_path)
    model = timed("init", iemf.model.init_model, cfg.model_config(), cfg.seed)
    prepared = Prepared(workload, seed, cfg, dataset, model)

    if workload == "continual_lwf":
        c = cfg.continual
        prepared.stream = timed("stream", iemf.continual.build_task_stream, dataset, c.tasks,
                                c.classes_per_task, cfg.seed)
    elif workload == "analyze_fusion":
        trained, history, trace = timed("checkpoint_train", iemf.training.train, dataset, model,
                                  cfg.optim)
        ckpt_path = str(workdir / "checkpoint.iemf")
        timed("save", iemf.container.save_checkpoint, ckpt_path, trained)
        loaded = timed("load", iemf.container.load_checkpoint, ckpt_path)
        if not _same_params(loaded, trained):
            raise RuntimeError("checkpoint container round trip is not bit-exact")
        nbytes += os.path.getsize(ckpt_path)
        prepared.model = loaded
        prepared.checkpoint_trace = trace
        prepared.checkpoint_test_acc = history[-1].test_acc
        prepared.base_loss = iemf.model.forward_full(dataset.train, loaded).loss.item()
    prepared.phases_s = phases
    prepared.container_bytes = nbytes
    return prepared


def import_seconds() -> float:
    """Import time of iemf (numpy included) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


# ---------------------------------------------------------------------------
# calls and their checks


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(np.asarray(part, dtype=np.float64)).tobytes())
    return h.hexdigest()


def _params_vector(model: iemf.model.MultimodalModel) -> np.ndarray:
    return np.concatenate([model.params[k].reshape(-1) for k in sorted(model.params)])


def _xi_rows(trace) -> np.ndarray:
    return np.asarray([[r.s_unimodal, r.s_multimodal, r.xi] for r in trace], dtype=np.float64)


def check_xi(trace, gamma: float, tally: Tally) -> None:
    bad = sum(1 for r in trace if not 0.0 < r.xi < 2.0 * gamma)
    if bad:
        tally.fail(bad, f"{bad} xi values outside (0, {2.0 * gamma})")


def _traced(tracer: Tracer | None, name: str, fn):
    """`fn`, timed as the top-level span `name` when tracing."""
    return fn if tracer is None else tracer.wrap(fn, name)


def train_call(p: Prepared, tally: Tally, tracer: Tracer | None) -> CallResult:
    model = p.model.clone()
    train = _traced(tracer, "bench.train_call", iemf.training.train)
    t0 = time.perf_counter()
    model, history, trace = train(p.dataset, model, p.cfg.optim)
    seconds = time.perf_counter() - t0
    tally.attempted += len(trace)
    check_xi(trace, p.cfg.optim.iemf.gamma, tally)
    losses = [h.train_loss for h in history]
    if not np.all(np.isfinite(losses)):
        tally.fail(1, "non-finite training loss")
    floor = TEST_ACC_FLOOR[p.workload]
    if not history[-1].test_acc >= floor:
        tally.fail(1, f"final test accuracy {history[-1].test_acc} below {floor}")
    curves = [[h.train_loss, h.train_acc, h.test_acc, h.mean_xi] for h in history]
    out = digest(_xi_rows(trace), _params_vector(model), curves)
    return CallResult(seconds, seconds, p.dataset.train.size * len(history), seconds,
                      len(history), out, model, trace)


def continual_call(p: Prepared, tally: Tally, tracer: Tracer | None) -> CallResult:
    model = p.model.clone()
    c = p.cfg.continual
    train = _traced(tracer, "bench.continual_call", iemf.continual.train_incremental)
    t0 = time.perf_counter()
    matrix, trace = train(p.stream, c.method, model, p.cfg.optim,
                          lwf_temperature=c.lwf_temperature, lwf_lambda=c.lwf_lambda)
    seconds = time.perf_counter() - t0
    epochs = p.cfg.optim.epochs
    samples = epochs * sum(task.train.size for task in p.stream.tasks)
    tally.attempted += len(trace)
    check_xi(trace, p.cfg.optim.iemf.gamma, tally)
    _, aia = iemf.continual.aa_aia(matrix)
    if not aia >= AIA_FLOOR:
        tally.fail(1, f"AIA {aia} below {AIA_FLOOR}")
    flat = [a for row in matrix for a in row]
    return CallResult(seconds, seconds, samples, seconds, epochs * len(p.stream.tasks),
                      digest(_xi_rows(trace), _params_vector(model), flat), model, trace)


def analyze_call(p: Prepared, tally: Tally, tracer: Tracer | None) -> CallResult:
    sharpness = _traced(tracer, "bench.sharpness_call", iemf.analysis.sharpness)
    landscape = _traced(tracer, "bench.landscape_call", iemf.analysis.landscape_slice)
    if tracer is not None:
        tracer.phase = "sharpness"
    t0 = time.perf_counter()
    report = sharpness(p.model, p.dataset, seed=p.seed, **SHARPNESS)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.phase = "landscape"
    _, _, grid = landscape(p.model, p.dataset, seed=p.seed, **LANDSCAPE)
    t2 = time.perf_counter()
    tally.attempted += SHARPNESS_EVALS + grid.size
    if report.base_loss != p.base_loss:
        tally.fail(1, "sharpness base loss differs from the checkpoint loss")
    if not np.all(np.isfinite(report.per_probe)):
        tally.fail(1, "non-finite sharpness estimate")
    bad_cells = int(np.count_nonzero(~np.isfinite(grid)))
    if bad_cells:
        tally.fail(bad_cells, f"{bad_cells} non-finite landscape cells")
    centre = LANDSCAPE["grid_n"] // 2
    if grid[centre, centre] != p.base_loss:
        tally.fail(1, "landscape centre differs from the checkpoint loss")
    out = digest(_xi_rows(p.checkpoint_trace), _params_vector(p.model), report.per_probe,
                 [report.base_loss, report.increase], grid)
    return CallResult(t1 - t0, t2 - t0, grid.size, t2 - t1, 0, out, p.model,
                      p.checkpoint_trace, grid)


def check_checkpoint(p: Prepared, tally: Tally) -> None:
    tally.attempted += len(p.checkpoint_trace)
    check_xi(p.checkpoint_trace, p.cfg.optim.iemf.gamma, tally)
    floor = TEST_ACC_FLOOR[p.workload]
    if not p.checkpoint_test_acc >= floor:
        tally.fail(1, f"checkpoint test accuracy {p.checkpoint_test_acc} below {floor}")


CALLS = {"train_continuous": train_call, "train_spiking": train_call,
         "continual_lwf": continual_call, "analyze_fusion": analyze_call}


def gradient_fd_check(p: Prepared, model: iemf.model.MultimodalModel, tally: Tally) -> None:
    """Directional central difference of the full-batch loss against the tape gradient.

    Spiking encoders are differentiated through a surrogate, so there the
    direction leaves them out; the rest of the network is smooth.
    """
    loss_fn, grad_fn, w0, spans = iemf.analysis.model_objective(model, p.dataset)
    rng = np.random.default_rng([p.seed, 97])
    direction = np.zeros_like(w0)
    spiking = model.cfg.neuron_mode == "spiking"
    for pid, start, stop, _ in spans:
        if not (spiking and pid.startswith("enc_")):
            direction[start:stop] = rng.standard_normal(stop - start)
    direction /= np.linalg.norm(direction)
    fd = (loss_fn(w0 + FD_STEP * direction) - loss_fn(w0 - FD_STEP * direction)) / (2 * FD_STEP)
    analytic = float(grad_fn(w0) @ direction)
    tally.attempted += 3
    if not abs(fd - analytic) <= FD_TOLERANCE * max(1.0, abs(analytic)):
        tally.fail(1, f"gradient {analytic!r} disagrees with finite difference {fd!r}")


# ---------------------------------------------------------------------------
# the run


def checked_call(p: Prepared, tally: Tally, tracer: Tracer | None, reference: str) -> CallResult:
    """One call of the workload; its outputs must reproduce the warm-up call's digest."""
    result = CALLS[p.workload](p, tally, tracer)
    if result.digest != reference:
        tally.fail(1, "outputs differ from the first call at the same seed")
    return result


def thread_speedup(p: Prepared, reference: np.ndarray) -> tuple[float, int]:
    """Landscape cells/s with IEMF_THREADS=nproc over IEMF_THREADS=1, and the
    number of cells the threaded grids got different from the serial one."""
    nproc = len(os.sched_getaffinity(0))
    times: dict[int, list[float]] = {1: [], nproc: []}
    mismatched = 0
    try:
        for _ in range(THREAD_REPEATS):
            for workers in times:
                os.environ["IEMF_THREADS"] = str(workers)
                t0 = time.perf_counter()
                _, _, grid = iemf.analysis.landscape_slice(p.model, p.dataset, seed=p.seed,
                                                           **LANDSCAPE)
                times[workers].append(time.perf_counter() - t0)
                if workers > 1:
                    mismatched += int(np.count_nonzero(grid != reference))
    finally:
        os.environ["IEMF_THREADS"] = "1"
    return statistics.median(times[1]) / statistics.median(times[nproc]), mismatched


def calibration() -> dict[str, float]:
    """Fixed pure-Python loop and numpy matmul, best of three, in ms."""
    a = np.random.default_rng(0).standard_normal((192, 192))
    py, mm = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        t1 = time.perf_counter()
        for _ in range(20):
            a @ a
        t2 = time.perf_counter()
        py.append(t1 - t0)
        mm.append(t2 - t1)
    return {"python_ms": 1e3 * min(py), "matmul_ms": 1e3 * min(mm)}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(calib_start: dict, calib_end: dict) -> dict:
    blas = getattr(np, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith("_NUM_THREADS") or var == "IEMF_THREADS"},
        "calibration_start": calib_start,
        "calibration_end": calib_end,
    }


def run(workload: str, seed: int, seconds: float, traced: bool, tally: Tally) -> dict:
    """One benchmark run; returns metrics, output digest and environment stamp."""
    calib_start = calibration()
    setups: list[tuple[float, Prepared]] = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        for _ in range(SETUP_REPEATS):
            imp = import_seconds()
            prepared = set_up(workload, seed, Path(tmp))
            setups.append((imp + sum(prepared.phases_s.values()), prepared))
    p = setups[-1][1]
    if p.checkpoint_trace is not None:
        check_checkpoint(p, tally)

    warm = CALLS[workload](p, tally, None)
    metrics: dict[str, float] = {}
    if not traced:
        results = []
        deadline = time.perf_counter() + seconds
        while not results or time.perf_counter() < deadline:
            results.append(checked_call(p, tally, None, warm.digest))
        metrics["setup_s"] = statistics.median(s for s, _ in setups)
        metrics["throughput_per_s"] = sum(c.work for c in results) / sum(c.work_s for c in results)
        metrics["call_s"] = statistics.fmean(c.seconds for c in results)
    else:
        # Untraced and traced calls alternate, so machine drift hits both alike.
        tracer = Tracer()
        plain, results = [], []
        deadline = time.perf_counter() + seconds
        while not results or time.perf_counter() < deadline:
            plain.append(checked_call(p, tally, None, warm.digest))
            with tracer.installed():
                results.append(checked_call(p, tally, tracer, warm.digest))
        metrics.update(tracer.layer_metrics(sum(c.epochs for c in results)))
        metrics.update(_mechanism_metrics(p, warm.trace, tracer))
        speedup, mismatched = (thread_speedup(p, warm.grid) if workload == "analyze_fusion"
                               else (0.0, 0))
        metrics["analysis.landscape.thread_speedup"] = speedup
        metrics["analysis.landscape.thread_mismatched_cells"] = mismatched
        for phase, name in (("generate", "data.generate_ms"), ("save", "container.save_ms"),
                            ("load", "container.load_ms")):
            metrics[name] = 1e3 * statistics.median(s.phases_s[phase] for _, s in setups)
        metrics["container.bytes"] = p.container_bytes
        metrics["trace.overhead"] = (statistics.fmean(c.wall for c in results)
                                     / statistics.fmean(c.wall for c in plain) - 1.0)

    gradient_fd_check(p, results[-1].model, tally)
    calib_end = calibration()
    if traced:
        for when, calib in (("start", calib_start), ("end", calib_end)):
            for key, value in calib.items():
                metrics[f"env.calibration_{when}.{key}"] = value
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_ratio"] = 1.0 - tally.failed / tally.attempted
    return {"metrics": metrics, "digest": warm.digest,
            "env": environment(calib_start, calib_end)}


def _mechanism_metrics(p: Prepared, trace, tracer: Tracer) -> dict[str, float]:
    xi = [r.xi for r in trace]
    fallbacks = sum(1 for r in trace if r.s_multimodal <= iemf.modulation.EPS_DIV)
    batch = p.dataset.train.size if p.workload == "analyze_fusion" else p.cfg.optim.batch_size
    flops = 3 * iemf.training.forward_flops(p.model, batch)
    step_name = {"continual_lwf": "continual.incremental_step",
                 "analyze_fusion": "analysis.grad_eval"}.get(p.workload,
                                                            "modulation.iemf_train_step")
    step_tag = "sharpness" if p.workload == "analyze_fusion" else None
    step_s = [s.dur for s in tracer.select(step_name, step_tag)]
    return {
        "modulation.xi_mean": statistics.fmean(xi),
        "modulation.xi_min": min(xi),
        "modulation.xi_max": max(xi),
        "modulation.xi_fallbacks": fallbacks,
        "training.flops_per_step": flops,
        "training.achieved_gflops": flops / statistics.median(step_s) / 1e9,
    }
