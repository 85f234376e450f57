"""Command-line entry points: generate, train, continual, analyze.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 I/O error.
Training logs stream to metrics.csv / xi_trace.csv with a flush after every
epoch so partial logs survive interrupts; all other artifacts are written
atomically. Every output directory gets a resolved_config.json echoing the
defaults actually used.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, astuple, fields

import numpy as np

from . import analysis, container, continual, data, training
from .config import ExperimentConfig, load_config
from .errors import VALIDATION_ERRORS, ConfigError, FormatError, NumericError
from .model import init_model
from .training import EpochMetrics, XiRecord
from .util import atomic_write_text, csv_line, dump_json

METRICS_HEADER = tuple(f.name for f in fields(EpochMetrics))
XI_TRACE_HEADER = tuple(f.name for f in fields(XiRecord))


def _echo_config(out_dir: str, cfg: ExperimentConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "resolved_config.json"), dump_json(cfg.resolved()))


def _require(value, flag: str, purpose: str):
    if value is None:
        raise ConfigError(f"{flag} is required to {purpose}")
    return value


def cmd_generate(args) -> int:
    cfg = load_config(args.config, args.seed)
    out_path = _require(args.out, "--out", "name the dataset file")
    dataset = data.generate(cfg.data)
    container.save_dataset(out_path, dataset)
    print(f"wrote dataset ({dataset.train.size} train / {dataset.test.size} test) to {out_path}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    data_path = _require(args.data, "--data", "load the training dataset")
    out_dir = _require(args.out, "--out", "receive the training outputs")
    dataset = container.load_dataset(data_path)
    _echo_config(out_dir, cfg)
    model = init_model(cfg.model, cfg.seed)

    metrics_path = os.path.join(out_dir, "metrics.csv")
    trace_path = os.path.join(out_dir, "xi_trace.csv")
    with open(metrics_path, "w", encoding="utf-8") as metrics_fh, \
            open(trace_path, "w", encoding="utf-8") as trace_fh:
        metrics_fh.write(csv_line(METRICS_HEADER))
        trace_fh.write(csv_line(XI_TRACE_HEADER))

        def on_epoch(em, rows):
            metrics_fh.write(csv_line(astuple(em)))
            metrics_fh.flush()
            for r in rows:
                trace_fh.write(csv_line(astuple(r)))
            trace_fh.flush()

        model, history, _ = training.train(dataset, model, cfg.optim, on_epoch=on_epoch)

    container.save_checkpoint(os.path.join(out_dir, "checkpoint.iemf"), model)
    final = history[-1]
    print(f"trained {cfg.optim.epochs} epochs; final test accuracy {final.test_acc:.4f}")
    return 0


def cmd_continual(args) -> int:
    cfg = load_config(args.config, args.seed)
    data_path = _require(args.data, "--data", "load the training dataset")
    out_dir = _require(args.out, "--out", "receive the continual-learning outputs")
    dataset = container.load_dataset(data_path)
    _echo_config(out_dir, cfg)
    stream = continual.build_task_stream(dataset, cfg.continual.tasks,
                                         cfg.continual.classes_per_task, cfg.seed)
    model = init_model(cfg.model, cfg.seed)
    matrix, trace = continual.train_incremental(
        stream, cfg.continual.method, model, cfg.optim,
        lwf_temperature=cfg.continual.lwf_temperature,
        lwf_lambda=cfg.continual.lwf_lambda,
    )
    lines = [csv_line(row) for row in matrix]
    atomic_write_text(os.path.join(out_dir, "accuracy_matrix.csv"), "".join(lines))
    trace_lines = [csv_line(XI_TRACE_HEADER)]
    trace_lines += [csv_line(astuple(r)) for r in trace]
    atomic_write_text(os.path.join(out_dir, "xi_trace.csv"), "".join(trace_lines))
    aa, aia = continual.aa_aia(matrix)
    metrics = {
        "aa": aa,
        "aia": aia,
        "afr": continual.afr(matrix) if len(matrix) >= 2 else None,
        "method": cfg.continual.method,
    }
    atomic_write_text(os.path.join(out_dir, "continual_metrics.json"), dump_json(metrics))
    print(f"{cfg.continual.method}: AIA {aia:.4f} over {len(matrix)} tasks")
    return 0


def _load_checkpoint_at(path: str | None):
    if path is None:
        raise ConfigError("analysis needs a checkpoint path in the config's analysis section")
    if not os.path.exists(path):
        raise ConfigError(f"missing checkpoint artifact: {path}")
    return container.load_checkpoint(path)


def cmd_analyze(args) -> int:
    cfg = load_config(args.config, args.seed)
    out_dir = _require(args.out, "--out", "receive the analysis reports")
    _echo_config(out_dir, cfg)
    sub = args.analysis

    if sub == "contraction":
        settings = cfg.analysis.contraction
        problem = analysis.QuadraticProblem(
            eigenvalues=settings.eigenvalues,
            alpha0=settings.alpha0,
            eta=settings.eta,
            xi_schedule=settings.schedule(),
            rotation_seed=settings.rotation_seed,
        )
        report = analysis.verify_contraction(problem, steps=settings.steps,
                                             tolerance=settings.tolerance)
        atomic_write_text(os.path.join(out_dir, "contraction_report.json"),
                          dump_json(asdict(report)))
        print(f"contraction check {'passed' if report.passed else 'FAILED'} "
              f"(max residual {report.max_residual:.3e})")
        return 0

    if sub == "cost":
        settings = cfg.analysis.cost
        if len(settings.metrics) < 2:
            raise ConfigError("analysis.cost.metrics must list at least two metrics files")
        labels = settings.labels or [os.path.splitext(os.path.basename(p))[0] or f"method{i}"
                                     for i, p in enumerate(settings.metrics)]
        if len(labels) != len(settings.metrics):
            raise ConfigError("analysis.cost.labels must match the metrics list")
        if len(set(labels)) != len(labels):
            raise ConfigError(f"analysis.cost labels {labels} repeat a name; give each metrics "
                              "file its own label in analysis.cost.labels")
        curves: dict[str, list[float]] = {}
        omegas: dict[str, float] = {}
        for label, path in zip(labels, settings.metrics):
            if not os.path.exists(path):
                raise ConfigError(f"missing metrics artifact: {path}")
            curve, omega = _read_metrics_curve(path)
            curves[label] = curve
            omegas[label] = omega
        report = analysis.computational_cost(curves, omegas, settings.thresholds)
        atomic_write_text(os.path.join(out_dir, "cost_report.json"), dump_json(asdict(report)))
        for label in labels:
            print(f"cost[{label}] = {report.cost[label]:.6g}")
        return 0

    data_path = _require(args.data, "--data", "evaluate the loss on a dataset")
    if not os.path.exists(data_path):
        raise ConfigError(f"missing dataset artifact: {data_path}")
    dataset = container.load_dataset(data_path)

    if sub == "sharpness":
        settings = cfg.analysis.sharpness
        model = _load_checkpoint_at(settings.checkpoint)
        report = analysis.sharpness(model, dataset, settings.ball_radius, settings.n_probes,
                                    settings.ascent_steps, cfg.seed, settings.blocks)
        atomic_write_text(os.path.join(out_dir, "sharpness.json"), dump_json(asdict(report)))
        print(f"sharpness estimate {report.increase:.6g} at radius {report.ball_radius}")
        return 0

    if sub == "landscape":
        settings = cfg.analysis.landscape
        model = _load_checkpoint_at(settings.checkpoint)
        xs, ys, grid = analysis.landscape_slice(model, dataset, settings.grid_n,
                                                settings.extent, cfg.seed)
        lines = [csv_line(("x", "y", "loss"))]
        for ix in range(len(xs)):
            for iy in range(len(ys)):
                lines.append(csv_line((float(xs[ix]), float(ys[iy]), float(grid[ix, iy]))))
        atomic_write_text(os.path.join(out_dir, "landscape.csv"), "".join(lines))
        print(f"landscape grid {settings.grid_n}x{settings.grid_n} written")
        return 0

    raise ConfigError(f"unknown analyze subcommand {sub!r}")


def _read_metrics_curve(path: str) -> tuple[list[float], float]:
    """Error curve (1 - test accuracy) and FLOPs per epoch from a metrics.csv."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if len(lines) < 2:
        raise ConfigError(f"{path}: metrics file holds no epochs")
    header = lines[0][1].split(",")
    try:
        acc_col = header.index("test_acc")
        flops_col = header.index("flops_cumulative")
        epoch_col = header.index("epoch")
    except ValueError as exc:
        raise ConfigError(f"{path}: metrics file is missing column {exc}") from exc

    def number(cells: list[str], col: int, rule: str, valid) -> float:
        value = float(cells[col])
        if not valid(value):
            raise ValueError(f"{header[col]} must be {rule}, got {cells[col]!r}")
        return value

    errors = []
    omega = None
    for n, ln in lines[1:]:
        cells = ln.split(",")
        try:
            errors.append(1.0 - number(cells, acc_col, "in [0, 1]", lambda v: 0.0 <= v <= 1.0))
            if omega is None:
                flops = number(cells, flops_col, "finite and > 0", lambda v: 0.0 < v < math.inf)
                epoch = number(cells, epoch_col, "an integer >= 1",
                               lambda v: v >= 1.0 and v.is_integer())
                omega = flops / epoch
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{n}: malformed metrics row ({exc})") from exc
    return errors, float(omega)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iemf",
        description="Inverse-effectiveness driven multimodal fusion experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment configuration (JSON)")
        p.add_argument("--data", help="dataset container file")
        p.add_argument("--out", help="output file (generate) or directory")
        p.add_argument("--seed", type=int, help="override the configuration's master seed")

    common(sub.add_parser("generate", help="write a synthetic dataset container"))
    common(sub.add_parser("train", help="train one model and log metrics"))
    common(sub.add_parser("continual", help="run a class-incremental stream"))
    analyze = sub.add_parser("analyze", help="landscape / theory / cost analyses")
    analyze.add_argument("analysis", choices=("sharpness", "landscape", "contraction", "cost"))
    common(analyze)
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "continual": cmd_continual,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every op output is checked for finiteness, so numpy's own overflow
        # warnings would only add lines ahead of the one-line failure message
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a size below the configuration's bounds can still exceed this machine
        print(f"error: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
