"""Hostile inputs: malformed configs, containers, checkpoints and metrics files.

Each one must end in a documented exit code (2 validation, 3 numeric, 4 I/O)
with a one-line message, never a Python traceback.
"""

import contextlib
import copy
import io
import json
import os
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iemf.cli import main
from iemf.container import FORMAT_VERSION, MAGIC

CONFIG = {
    "seed": 0,
    "data": {"n_classes": 3, "d_a": 4, "d_v": 4, "train_per_class": 6, "test_per_class": 2,
             "sigma_a": 1.5, "sigma_v": 0.5},
    "model": {"hidden": 5, "latent": 3, "depth": 2, "neuron_mode": "continuous",
              "lif": {"u_th": 0.5, "tau_m": 2.0, "t_steps": 2, "surrogate_width": 1.0}},
    "optim": {"eta": 0.01, "epochs": 2, "batch_size": 8, "mslr": {"mult_a": 1.0}},
    "iemf": {"enabled": True, "gamma": 1.0, "gating": "tanh"},
    "continual": {"tasks": 1, "classes_per_task": 2, "method": "lwf"},
    "analysis": {"sharpness": {"ball_radius": 0.05, "n_probes": 1, "ascent_steps": 1},
                 "contraction": {"eigenvalues": [1.0, 2.0], "xi": [0.5, 1.5], "steps": 2}},
}


def _run(argv):
    """Exit code and stderr of one CLI call; an exception escaping main fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_rejected(argv):
    code, err = _run(argv)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def _read_container(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    n = struct.unpack("<Q", blob[8:16])[0]
    return json.loads(blob[16:16 + n]), blob[16 + n:]


def _write_container(path, header, payload):
    raw = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(raw))
                 + raw + payload)
    return str(path)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A dataset, a trained checkpoint and its metrics.csv at the CONFIG shape."""
    root = tmp_path_factory.mktemp("hostile")
    cfg = _dump(root / "config.json", CONFIG)
    data = str(root / "data.iemf")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    assert main(["train", "--config", cfg, "--data", data, "--out", str(root / "run")]) == 0
    return {"config": cfg, "data": data,
            "checkpoint": str(root / "run" / "checkpoint.iemf"),
            "metrics": str(root / "run" / "metrics.csv")}


def _swapped(obj, path, value):
    """Deep copy of `obj` with the value at key path `path` replaced."""
    obj = copy.deepcopy(obj)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


CONFIG_CASES = {
    "hidden_float": (("model", "hidden"), 2.5),
    "epochs_float": (("optim", "epochs"), 2.5),
    "batch_size_bool": (("optim", "batch_size"), True),
    "seed_string": (("seed",), "abc"),
    "seed_list": (("seed",), [1]),
    "data_list": (("data",), [1]),
    "optim_string": (("optim",), "x"),
    "continual_number": (("continual",), 5),
    "enabled_string": (("iemf", "enabled"), "false"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_mistyped_config_rejected(runs, tmp_path, case):
    path = _dump(tmp_path / "config.json", _swapped(CONFIG, *CONFIG_CASES[case]))
    _assert_rejected(["train", "--config", path, "--data", runs["data"],
                      "--out", str(tmp_path / "out")])


def _drop_count(header):
    del header["sections"][0]["count"]


def _negate_shape(header):
    header["sections"][0]["shape"] = [-d for d in header["sections"][0]["shape"]]


DATASET_CASES = {
    "header_list": lambda h: [h],
    "entry_missing_keys": _drop_count,
    "sections_object": lambda h: h.update(sections={"train/x_a": 0}),
    "meta_string": lambda h: h.update(meta="dataset"),
    "negative_shape": _negate_shape,
    "spec_number": lambda h: h["meta"].update(spec=5),
}


@pytest.mark.parametrize("case", sorted(DATASET_CASES))
def test_malformed_dataset_header_rejected(runs, tmp_path, case):
    header, payload = _read_container(runs["data"])
    header = DATASET_CASES[case](header) or header
    data = _write_container(tmp_path / "data.iemf", header, payload)
    _assert_rejected(["train", "--config", runs["config"], "--data", data,
                      "--out", str(tmp_path / "out")])


def _drop_fusion_w(header):
    header["sections"] = [e for e in header["sections"] if e["name"] != "param/fusion.W"]


CHECKPOINT_CASES = {
    "model_extra_key": lambda h: h["meta"]["model"].update(extra=1),
    "hidden_float": lambda h: h["meta"]["model"].update(hidden=2.5),
    "missing_fusion_w": _drop_fusion_w,
    "shape_disagrees_with_model": lambda h: h["meta"]["model"].update(latent=4),
}


def _sharpness_argv(runs, workdir, checkpoint):
    cfg = copy.deepcopy(CONFIG)
    cfg["analysis"]["sharpness"]["checkpoint"] = checkpoint
    path = _dump(os.path.join(workdir, "analyze.json"), cfg)
    return ["analyze", "sharpness", "--config", path, "--data", runs["data"],
            "--out", os.path.join(workdir, "out")]


@pytest.mark.parametrize("case", sorted(CHECKPOINT_CASES))
def test_malformed_checkpoint_rejected(runs, tmp_path, case):
    header, payload = _read_container(runs["checkpoint"])
    CHECKPOINT_CASES[case](header)
    checkpoint = _write_container(tmp_path / "checkpoint.iemf", header, payload)
    _assert_rejected(_sharpness_argv(runs, str(tmp_path), checkpoint))


def _cost_argv(tmp_path, metrics, labels=None):
    cfg = copy.deepcopy(CONFIG)
    cfg["analysis"]["cost"] = {"metrics": metrics, "labels": labels}
    path = _dump(tmp_path / "cost.json", cfg)
    return ["analyze", "cost", "--config", path, "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("column,value", [("test_acc", "abc"), ("epoch", "0")])
def test_broken_metrics_csv_rejected(runs, tmp_path, column, value):
    with open(runs["metrics"], encoding="utf-8") as fh:
        header, row, *rest = fh.read().splitlines()
    cells = row.split(",")
    cells[header.split(",").index(column)] = value
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    _assert_rejected(_cost_argv(tmp_path, [str(broken), runs["metrics"]], ["broken", "good"]))


def test_duplicate_cost_labels_rejected(tmp_path):
    # every `iemf train` names its log metrics.csv, so two runs derive the same label
    paths = []
    for name in ("a/metrics.csv", "b/metrics.csv", "other.csv"):
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text("epoch,test_acc,flops_cumulative\n1,0.5,100\n2,0.9,200\n")
        paths.append(str(path))
    _assert_rejected(_cost_argv(tmp_path, paths))
    _assert_rejected(_cost_argv(tmp_path, paths[1:], ["x", "x"]))


# ---------------------------------------------------------------------------
# property: one swapped leaf never escapes the documented exit codes

REPLACEMENTS = st.one_of(
    st.text(max_size=4),
    st.floats(),
    st.booleans(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.none(),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        return [leaf for k, v in obj.items() for leaf in _leaves(v, path + (k,))]
    if isinstance(obj, list) and obj:
        return [leaf for i, v in enumerate(obj) for leaf in _leaves(v, path + (i,))]
    return [path]


def _assert_documented_exit(argv):
    code, err = _run(argv)
    assert code in (0, 2, 3, 4)
    assert err.count("\n") <= 1 and "Traceback" not in err, err


@settings(max_examples=40, deadline=None)
@given(leaf=st.sampled_from(_leaves(CONFIG)), value=REPLACEMENTS)
def test_config_leaf_swap_never_crashes(runs, leaf, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = _dump(os.path.join(tmp, "config.json"), _swapped(CONFIG, leaf, value))
        _assert_documented_exit(["train", "--config", path, "--data", runs["data"],
                                 "--out", os.path.join(tmp, "out")])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), value=REPLACEMENTS)
def test_container_header_leaf_swap_never_crashes(runs, data, value):
    kind = data.draw(st.sampled_from(("data", "checkpoint")))
    header, payload = _read_container(runs[kind])
    leaf = data.draw(st.sampled_from(_leaves(header)))
    with tempfile.TemporaryDirectory() as tmp:
        mutated = _write_container(os.path.join(tmp, "blob.iemf"),
                                   _swapped(header, leaf, value), payload)
        if kind == "data":
            argv = ["train", "--config", runs["config"], "--data", mutated,
                    "--out", os.path.join(tmp, "out")]
        else:
            argv = _sharpness_argv(runs, tmp, mutated)
        _assert_documented_exit(argv)
