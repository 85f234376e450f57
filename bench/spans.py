"""Span tracer that times iemf's layers from outside the package.

Nothing inside `iemf` knows about tracing. `Tracer.installed()` rebinds, for
its lifetime, the module attributes that callers look up at call time (for
example `iemf.modulation.forward_full`, which `iemf_train_step` calls), so
every call through that name is timed. On exit the original functions are put
back.

Each span records its name, a tag, its duration, its self time (duration minus
the wrapped calls made inside it) and whether a gradient step was open when it
started. A "step" is one gradient computation: a training step
(`iemf_train_step`, `continual._incremental_step`) or a gradient evaluation of
the analysis objective. Each step calls `backward` exactly once.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

import iemf.analysis
import iemf.continual
import iemf.model
import iemf.modulation
import iemf.training

# Op kinds reported one by one; anything else is summed under "other".
OP_KINDS = (
    "leaf", "matmul", "transpose", "add_bias", "add", "smul", "sadd", "mul", "detach",
    "spike", "relu", "concat_cols", "softmax_xent", "select_cols", "distill_kl",
)


@dataclass(frozen=True)
class Span:
    tag: str
    dur: float
    self_time: float
    in_step: bool


class Tracer:
    """Collects spans in memory while installed; aggregates them afterwards."""

    def __init__(self) -> None:
        self.spans: defaultdict[str, list[Span]] = defaultdict(list)
        self.op_counts: Counter = Counter()
        self.phase = ""
        self._stack: list[list[float]] = []
        self._open_steps = 0

    # -- recording ---------------------------------------------------------

    def _run(self, name: str, tag: str, is_step: bool, fn, args, kwargs):
        child_time = [0.0]
        in_step = self._open_steps > 0
        self._stack.append(child_time)
        self._open_steps += is_step
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._open_steps -= is_step
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
            self.spans[name].append(Span(tag, dur, dur - child_time[0], in_step))

    def wrap(self, fn, name: str, tag=None, is_step: bool = False):
        """`fn` timed as span `name`; `tag(args, kwargs)` labels each call."""

        def wrapper(*args, **kwargs):
            label = tag(args, kwargs) if tag is not None else ""
            return self._run(name, label, is_step, fn, args, kwargs)

        return wrapper

    # -- installing the wrappers -------------------------------------------

    def _bindings(self):
        """(module, attribute, span name, tag, is_step) for every wrapped name."""

        def traced(args, kwargs):
            tape = args[2] if len(args) > 2 else kwargs.get("tape")
            return "untraced" if tape is None else "traced"

        def network_tag(args, kwargs):
            label = traced(args, kwargs)
            if label == "untraced" and self._open_steps > 0:
                return "teacher"
            return label

        return [
            (iemf.modulation, "backward", "tensor.backward", None, False),
            (iemf.continual, "backward", "tensor.backward", None, False),
            (iemf.analysis, "backward", "tensor.backward", None, False),
            (iemf.model, "lif_step", "neurons.lif_step", None, False),
            (iemf.modulation, "forward_full", "model.forward_full", traced, False),
            (iemf.training, "forward_full", "model.forward_full", traced, False),
            (iemf.analysis, "forward_full", "model.forward_full", traced, False),
            (iemf.continual, "network_logits", "model.network_logits", network_tag, False),
            (iemf.training, "iemf_train_step", "modulation.iemf_train_step", None, True),
            (iemf.modulation, "per_sample_content", "modulation.scores", None, False),
            (iemf.modulation, "batch_strength_scores", "modulation.scores", None, False),
            (iemf.modulation, "iemf_coefficient", "modulation.scores", None, False),
            (iemf.continual, "per_sample_content", "modulation.scores", None, False),
            (iemf.continual, "batch_strength_scores", "modulation.scores", None, False),
            (iemf.continual, "iemf_coefficient", "modulation.scores", None, False),
            (iemf.training, "sgd_step", "training.sgd_step", None, False),
            (iemf.continual, "sgd_step", "training.sgd_step", None, False),
            (iemf.training, "evaluate_accuracy", "training.evaluate_accuracy", None, False),
            (iemf.continual, "_incremental_step", "continual.incremental_step", None, True),
            (iemf.continual, "masked_cross_entropy", "continual.loss", None, False),
            (iemf.continual, "lwf_loss", "continual.loss", None, False),
        ]

    def _count_tape(self, fn):
        def backward(tape, seed):
            self.op_counts.update(node.op for node in tape.nodes)
            return fn(tape, seed)

        return backward

    def _objective(self, fn):
        """model_objective whose loss/grad closures are timed as analysis spans."""

        def model_objective(model, data):
            loss_fn, grad_fn, w0, spans = fn(model, data)
            loss_fn = self.wrap(loss_fn, "analysis.loss_eval", lambda a, k: self.phase)
            grad_fn = self.wrap(grad_fn, "analysis.grad_eval", lambda a, k: self.phase,
                                is_step=True)
            return loss_fn, grad_fn, w0, spans

        return model_objective

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, tag, is_step in self._bindings():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                wrapped = self.wrap(original, name, tag, is_step)
                if name == "tensor.backward":
                    wrapped = self._count_tape(wrapped)
                setattr(module, attr, wrapped)
            saved.append((iemf.analysis, "model_objective", iemf.analysis.model_objective))
            iemf.analysis.model_objective = self._objective(iemf.analysis.model_objective)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    def select(self, name: str, tag: str | None = None, in_step: bool | None = None):
        return [s for s in self.spans.get(name, ())
                if (tag is None or s.tag == tag)
                and (in_step is None or s.in_step == in_step)]

    def layer_metrics(self, epochs: int) -> dict[str, float]:
        """Per-layer figures over everything recorded; times in ms.

        Shares are of the wall time of the benchmark's calls into the package
        (the `bench.*` spans); `epochs` is the number of epochs those calls ran.
        """
        bench_spans = [s for name, spans in self.spans.items() if name.startswith("bench.")
                       for s in spans]
        wall_s = sum(s.dur for s in bench_spans)
        steps = len(self.select("tensor.backward"))

        def total(name, tag=None, in_step=None, attr="self_time"):
            return sum(getattr(s, attr) for s in self.select(name, tag, in_step))

        def per_step_ms(value_s):
            return 1e3 * value_s / steps if steps else 0.0

        def share(*names):
            return sum(total(n) for n in names) / wall_s

        def ms_p(name, q, tag=None, attr="dur"):
            values = [getattr(s, attr) for s in self.select(name, tag)]
            return 1e3 * float(np.percentile(values, q)) if values else 0.0

        nodes = sum(self.op_counts.values())
        out = {"tensor.tape_nodes_per_step": nodes / steps if steps else 0.0}
        for op in OP_KINDS:
            out[f"tensor.tape_nodes.{op}_per_step"] = self.op_counts[op] / steps if steps else 0.0
        other = nodes - sum(self.op_counts[op] for op in OP_KINDS)
        out["tensor.tape_nodes.other_per_step"] = other / steps if steps else 0.0
        out["tensor.backward.self_ms_p50"] = ms_p("tensor.backward", 50, attr="self_time")
        out["tensor.backward.share"] = share("tensor.backward")

        lif_in_step = self.select("neurons.lif_step", in_step=True)
        out["neurons.lif_step.calls_per_step"] = len(lif_in_step) / steps if steps else 0.0
        out["neurons.lif_step.self_ms_per_step"] = per_step_ms(
            sum(s.self_time for s in lif_in_step))
        out["neurons.lif_step.share"] = share("neurons.lif_step")

        out["model.forward_full.traced_self_ms_p50"] = ms_p(
            "model.forward_full", 50, "traced", "self_time")
        out["model.forward_full.untraced_ms_p50"] = ms_p("model.forward_full", 50, "untraced")
        out["model.forward_full.share"] = share("model.forward_full")
        out["model.network_logits.traced_self_ms_p50"] = ms_p(
            "model.network_logits", 50, "traced", "self_time")
        out["model.network_logits.share"] = share("model.network_logits")

        for name in ("modulation.iemf_train_step", "continual.incremental_step"):
            out[f"{name}.ms_p50"] = ms_p(name, 50)
            out[f"{name}.ms_p99"] = ms_p(name, 99)
            out[f"{name}.count"] = len(self.select(name))
        out["modulation.scores.self_ms_per_step"] = per_step_ms(
            total("modulation.scores", in_step=True))

        out["training.sgd_step.self_ms_per_step"] = per_step_ms(total("training.sgd_step"))
        out["training.sgd_step.share"] = share("training.sgd_step")
        out["training.evaluate_accuracy.ms_p50"] = ms_p("training.evaluate_accuracy", 50)
        loop_self = total("bench.train_call") + total("bench.continual_call")
        out["training.loop.self_ms_per_epoch"] = 1e3 * loop_self / epochs if epochs else 0.0

        out["continual.teacher_forward.ms_per_step"] = per_step_ms(
            total("model.network_logits", "teacher", attr="dur"))
        out["continual.loss.self_ms_per_step"] = per_step_ms(
            total("continual.loss", in_step=True))

        n_sharp = len(self.select("bench.sharpness_call"))
        loss_evals = self.select("analysis.loss_eval", "sharpness")
        grad_evals = self.select("analysis.grad_eval", "sharpness")
        out["analysis.loss_evals_per_sharpness"] = len(loss_evals) / n_sharp if n_sharp else 0.0
        out["analysis.grad_evals_per_sharpness"] = len(grad_evals) / n_sharp if n_sharp else 0.0
        out["analysis.loss_eval_ms_p50"] = ms_p("analysis.loss_eval", 50, "sharpness")
        out["analysis.grad_eval_ms_p50"] = ms_p("analysis.grad_eval", 50, "sharpness")
        grad_total = total("analysis.grad_eval", attr="dur")
        out["analysis.grad_eval.backward_share"] = (
            total("tensor.backward", in_step=True) / grad_total if grad_total else 0.0)
        out["analysis.landscape.cell_ms_p50"] = ms_p("analysis.loss_eval", 50, "landscape")

        out["trace.unattributed_share"] = sum(s.self_time for s in bench_spans) / wall_s
        return out
