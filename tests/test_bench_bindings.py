"""The names the benchmark's tracer rebinds still exist and still carry the steps.

`bench/spans.py` times the package from outside by rebinding module attributes
by name; a renamed or unused name makes traced benchmark runs fail or read
zero. The benchmark's own tests take minutes, so this checks the bindings on
one tiny run in well under a second.
"""

import importlib.util
import sys
from pathlib import Path

import iemf.analysis
import iemf.modulation
import iemf.training
from iemf.continual import build_task_stream, train_incremental
from iemf.data import DataSpec, generate
from iemf.model import ModelConfig, forward_full, init_model
from iemf.neurons import LIFParams
from iemf.tensor import Tape
from iemf.training import OptimConfig, train

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_record_both_step_paths():
    ds = generate(DataSpec(n_classes=4, d_a=4, d_v=4, train_per_class=6, test_per_class=2, seed=0))
    cfg = OptimConfig(eta=1e-2, epochs=1, batch_size=8, seed=0)
    model_cfg = ModelConfig(d_in_a=4, d_in_v=4, n_classes=4, hidden=5, latent=4)
    stream = build_task_stream(ds, 2, 2, 0)
    tracer = load_spans().Tracer()
    with tracer.installed():
        train(ds, init_model(model_cfg, 0), cfg)
        assert len(tracer.select("training.evaluate_accuracy")) == cfg.epochs
        train_incremental(stream, "lwf", init_model(model_cfg, 0), cfg)
    # one evaluation per epoch, then one per task seen after each of the 2 tasks
    assert len(tracer.select("training.evaluate_accuracy")) == cfg.epochs + 1 + 2
    assert iemf.training.iemf_train_step is iemf.modulation.iemf_train_step
    assert tracer.select("modulation.iemf_train_step")
    assert tracer.select("continual.incremental_step")
    assert tracer.select("model.network_logits", "teacher")
    assert tracer.select("training.sgd_step")


def test_tracer_sees_one_backward_and_the_whole_tape_per_spiking_step():
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=4, train_per_class=6, test_per_class=2, seed=0))
    model_cfg = ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4,
                            neuron_mode="spiking", lif=LIFParams(t_steps=3))
    tracer = load_spans().Tracer()
    with tracer.installed():
        train(ds, init_model(model_cfg, 0), OptimConfig(eta=1e-2, epochs=1, batch_size=6, seed=0))
    steps = tracer.select("modulation.iemf_train_step")
    assert len(steps) == 3  # 18 samples in batches of 6
    assert len(tracer.select("tensor.backward", in_step=True)) == len(steps)
    assert not tracer.select("tensor.backward", in_step=False)
    tape = Tape()
    forward_full(ds.train.subset(range(6)), init_model(model_cfg, 0), tape)
    assert sum(tracer.op_counts.values()) == len(tape) * len(steps)


def test_tracer_times_every_fusion_sharpness_evaluation():
    """Both sharpness paths still go through the names the tracer wraps. A loss
    asked at the point of the gradient just taken reuses its forward pass, so
    of the full-vector forward passes only the base point's and each probe's
    last point's run untraced (9 untraced and 6 traced at 2 x 3 when every
    evaluation ran one)."""
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=4, train_per_class=6, test_per_class=2, seed=0))
    model = init_model(ModelConfig(d_in_a=4, d_in_v=4, n_classes=3, hidden=5, latent=4), 0)
    probes, steps = 2, 3
    for blocks in ("fusion", "all"):
        tracer = load_spans().Tracer()
        with tracer.installed():
            iemf.analysis.sharpness(model, ds, ball_radius=0.3, n_probes=probes,
                                    ascent_steps=steps, blocks=blocks)
        assert len(tracer.select("analysis.loss_eval")) == 1 + probes * (1 + steps)
        assert len(tracer.select("analysis.grad_eval")) == probes * steps
        assert len(tracer.select("tensor.backward", in_step=True)) == probes * steps
        forward = {tag: len(tracer.select("model.forward_full", tag))
                   for tag in ("untraced", "traced")}
        expected = {"untraced": 1 + probes, "traced": probes * steps}
        assert forward == (expected if blocks == "all" else {"untraced": 0, "traced": 0})
