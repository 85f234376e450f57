"""The names the benchmark's tracer rebinds still exist and still carry the steps.

`bench/spans.py` times the package from outside by rebinding module attributes
by name; a renamed or unused name makes traced benchmark runs fail or read
zero. The benchmark's own tests take minutes, so this checks the bindings on
one tiny run in well under a second.
"""

import importlib.util
import sys
from pathlib import Path

import iemf.modulation
import iemf.training
from iemf.continual import build_task_stream, train_incremental
from iemf.data import DataSpec, generate
from iemf.model import ModelConfig, init_model
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
        train_incremental(stream, "lwf", init_model(model_cfg, 0), cfg)
    assert iemf.training.iemf_train_step is iemf.modulation.iemf_train_step
    assert tracer.select("modulation.iemf_train_step")
    assert tracer.select("continual.incremental_step")
    assert tracer.select("model.network_logits", "teacher")
    assert tracer.select("training.sgd_step")
