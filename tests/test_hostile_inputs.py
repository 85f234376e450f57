"""Hostile inputs: malformed configs, containers, checkpoints and metrics files.

Each one must end in a documented exit code (2 validation, 3 numeric, 4 I/O)
with a one-line message, never a Python traceback.
"""

import contextlib
import copy
import io
import json
import os
import pathlib
import re
import struct
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iemf import config
from iemf.cli import main
from iemf.config import from_dict
from iemf.container import FORMAT_VERSION, MAGIC, load_checkpoint
from iemf.data import DataSpec, generate
from iemf.errors import ConfigError, FormatError
from iemf.model import ModelConfig, init_model
from iemf.util import dump_json

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
    return err


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


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _swapped(obj, path, value):
    """Deep copy of `obj` with the value at key path `path` replaced."""
    obj = copy.deepcopy(obj)
    _at(obj, path[:-1])[path[-1]] = value
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


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_number_rejected(tmp_path, token):
    """Python's json accepts NaN and ±Infinity; a configuration must not."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG).replace('"sigma_a": 1.5', f'"sigma_a": {token}'))
    err = _assert_rejected(["generate", "--config", str(path),
                            "--out", str(tmp_path / "data.iemf")])
    assert token in err


FLOAT_OVERFLOW_CASES = {  # id: (command, key path, JSON number text)
    "weight_decay-1e999": ("train", "optim.weight_decay", "1e999"),
    "weight_decay-9x400": ("train", "optim.weight_decay", "9" * 400),
    "mult_a--1e999": ("train", "optim.mslr.mult_a", "-1e999"),
    "lwf_temperature-1e999": ("continual", "continual.lwf_temperature", "1e999"),
    "lwf_lambda-1e999": ("continual", "continual.lwf_lambda", "1e999"),
    "sigma_a-1e999": ("generate", "data.sigma_a", "1e999"),
    "sigma_a-9x400": ("generate", "data.sigma_a", "9" * 400),
    "xi-1e999": ("train", "analysis.contraction.xi", "1e999"),
}


@pytest.mark.parametrize("case", sorted(FLOAT_OVERFLOW_CASES))
def test_config_float_beyond_float64_rejected(runs, tmp_path, case):
    """json reads 1e999 as inf without calling parse_constant, and float()
    overflows on a 400-digit integer; both are rejected by key before any work."""
    command, key, text = FLOAT_OVERFLOW_CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_swapped(CONFIG, key.split("."), "@")).replace('"@"', text))
    err = _assert_rejected([command, "--config", str(path), "--data", runs["data"],
                            "--out", str(tmp_path / "out")])
    assert f"{key}: expected a finite float" in err


NEGATIVE_SEED_CASES = {  # id: (command, key path set to -3, extra arguments)
    "flag": (["generate"], None, ["--seed", "-1"]),
    "seed": (["generate"], "seed", []),
    "rotation_seed": (["analyze", "contraction"], "analysis.contraction.rotation_seed", []),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_SEED_CASES))
def test_negative_seed_rejected(tmp_path, case):
    """A seed feeds numpy's SeedSequence, which takes only non-negative integers."""
    command, key, extra = NEGATIVE_SEED_CASES[case]
    raw = CONFIG if key is None else _swapped(CONFIG, key.split("."), -3)
    err = _assert_rejected([*command, "--config", _dump(tmp_path / "config.json", raw), *extra,
                            "--out", str(tmp_path / "out")])
    assert f"{key or 'seed'}: expected a non-negative integer" in err


# every integer field but the seeds, in the layout of the resolved echo
INT_FIELDS = [
    "data.n_classes", "data.d_a", "data.d_v", "data.train_per_class", "data.test_per_class",
    "model.hidden", "model.latent", "model.depth", "model.lif.t_steps",
    "optim.epochs", "optim.batch_size", "continual.tasks", "continual.classes_per_task",
    "analysis.sharpness.n_probes", "analysis.sharpness.ascent_steps",
    "analysis.landscape.grid_n", "analysis.contraction.steps", "analysis.cost.thresholds",
]


def test_int_fields_are_every_non_seed_integer_leaf():
    resolved = from_dict(CONFIG).resolved()
    found = [".".join(leaf) for leaf in _leaves(resolved)
             if type(_at(resolved, leaf)) is int and not leaf[-1].endswith("seed")]
    assert sorted(found) == sorted(INT_FIELDS)


@pytest.mark.parametrize("key", INT_FIELDS)
@pytest.mark.parametrize("value", [10**30, 2**63], ids=["10**30", "2**63"])
def test_config_int_beyond_int64_rejected(key, value):
    """Checked at load only: a field numpy reads as int64 that held a value
    int64 cannot hold would end in an OverflowError, and an accepted epoch
    count this large would start a training that never ends."""
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected an integer that fits"):
        from_dict(_swapped(from_dict(CONFIG).resolved(), key.split("."), value))


def test_oversized_data_size_exits_2(tmp_path):
    path = _dump(tmp_path / "config.json", _swapped(CONFIG, ("data", "train_per_class"), 10**30))
    err = _assert_rejected(["generate", "--config", path, "--out", str(tmp_path / "data.iemf")])
    assert "data.train_per_class" in err


@pytest.mark.parametrize("command", ["generate", "train"])
@pytest.mark.parametrize("key, value, named", [
    (("data", "train_per_class"), 10**12, "data: (train_per_class + test_per_class)"),
    (("data", "d_v"), 10**9, "data: (train_per_class + test_per_class)"),
    (("model", "hidden"), 10**9, "model: parameters from hidden, latent and depth"),
    (("model", "depth"), 10**7, "model: parameters from hidden, latent and depth"),
], ids=["train_per_class", "d_v", "hidden", "depth"])
def test_oversized_dataset_or_model_exits_2_before_any_work(runs, tmp_path, command, key, value,
                                                            named):
    """Sizes int64 holds but memory does not end at load, with the keys named:
    `generate` writes no dataset and `train` allocates no model."""
    with pytest.raises(ConfigError, match=re.escape(named)):
        from_dict(_swapped(CONFIG, key, value))
    path = _dump(tmp_path / "config.json", _swapped(CONFIG, key, value))
    out = tmp_path / "out"
    err = _assert_rejected([command, "--config", path, "--data", runs["data"],
                            "--out", str(out)])
    assert named in err and not out.exists()


@settings(max_examples=60, deadline=None)
@given(per_class=st.integers(1, 9), n_classes=st.integers(2, 9), d_a=st.integers(1, 9),
       d_v=st.integers(1, 9), hidden=st.integers(1, 9), latent=st.integers(1, 9),
       depth=st.integers(1, 5))
def test_size_bounds_count_exactly_what_is_allocated(per_class, n_classes, d_a, d_v, hidden,
                                                     latent, depth):
    """The bounded counts are the input values `generate` draws and the
    parameters `init_model` creates."""
    spec = DataSpec(n_classes=n_classes, d_a=d_a, d_v=d_v, train_per_class=per_class,
                    test_per_class=2)
    ds = generate(spec)
    assert config._dataset_values(spec) == sum(
        split.x_a.size + split.x_v.size for split in (ds.train, ds.test))
    model = ModelConfig(d_in_a=d_a, d_in_v=d_v, n_classes=n_classes, hidden=hidden,
                        latent=latent, depth=depth)
    assert config._parameter_count(model) == sum(
        arr.size for arr in init_model(model, 0).params.values())


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 43.7 TiB for an array", "(Unable to allocate 43.7 TiB for an array)"),
    ("", "(allocation failed)"),
])
def test_memory_error_exits_2_with_one_line(monkeypatch, tmp_path, message, shown):
    """A size under the bounds that still exceeds the machine ends as a
    validation failure, not a traceback."""
    def no_memory(spec):
        raise MemoryError(message)

    monkeypatch.setattr("iemf.data.generate", no_memory)
    err = _assert_rejected(["generate", "--config", _dump(tmp_path / "config.json", CONFIG),
                            "--out", str(tmp_path / "data.iemf")])
    assert err == f"error: out of memory {shown}\n"


@pytest.mark.parametrize("key", ["seed", "data.seed", "optim.seed"])
def test_seed_is_unbounded_above(key):
    """SeedSequence takes any non-negative integer, so a seed has no upper bound."""
    path = key.split(".")
    cfg = from_dict(_swapped(from_dict(CONFIG).resolved(), path, 10**30))
    assert _at(cfg.resolved(), path) == 10**30


@pytest.mark.parametrize("key, value, named", [
    ("tolerance", -1.0, "tolerance"), ("tolerance", 0.0, "tolerance"),
    ("tolerance", float("nan"), "NaN"), ("steps", 0, "steps"),
])
def test_bad_contraction_settings_rejected(tmp_path, key, value, named):
    path = _dump(tmp_path / "config.json",
                 _swapped(CONFIG, ("analysis", "contraction", key), value))
    err = _assert_rejected(["analyze", "contraction", "--config", path,
                            "--out", str(tmp_path / "out")])
    assert named in err


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_non_finite_contraction_tolerance_rejected_in_code(tolerance):
    with pytest.raises(ConfigError, match="analysis.contraction.tolerance"):
        from_dict(_swapped(CONFIG, ("analysis", "contraction", "tolerance"), tolerance))


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


def _listed_twice(path, name, out):
    """Copy of container `path` whose header lists section `name` a second
    time, pointing at appended bytes of the same shape that all read 7.0."""
    header, payload = _read_container(path)
    entry = dict(next(e for e in header["sections"] if e["name"] == name))
    header["sections"].append({**entry, "offset": len(payload)})
    return _write_container(out, header, payload + struct.pack(f"<{entry['count']}d",
                                                               *[7.0] * entry["count"]))


def test_dataset_listing_a_section_twice_rejected(runs, tmp_path):
    data = _listed_twice(runs["data"], "train/x_a", tmp_path / "data.iemf")
    err = _assert_rejected(["train", "--config", runs["config"], "--data", data,
                            "--out", str(tmp_path / "out")])
    assert "section 'train/x_a' is listed twice" in err


def test_checkpoint_listing_a_section_twice_rejected(runs, tmp_path):
    checkpoint = _listed_twice(runs["checkpoint"], "param/fusion.W", tmp_path / "ckpt.iemf")
    with pytest.raises(FormatError, match="section 'param/fusion.W' is listed twice"):
        load_checkpoint(checkpoint)


def _cost_argv(tmp_path, metrics, labels=None):
    cfg = copy.deepcopy(CONFIG)
    cfg["analysis"]["cost"] = {"metrics": metrics, "labels": labels}
    path = _dump(tmp_path / "cost.json", cfg)
    return ["analyze", "cost", "--config", path, "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("column,value", [
    ("test_acc", "abc"), ("epoch", "0"), ("test_acc", "nan"), ("test_acc", "inf"),
    ("flops_cumulative", "-inf"), ("epoch", "nan"), ("epoch", "inf"), ("epoch", "1e-310"),
    ("flops_cumulative", "-100"), ("flops_cumulative", "0"), ("test_acc", "1.5"),
    ("test_acc", "-0.1"), ("epoch", "-1"), ("epoch", "1.5"),
])
def test_broken_metrics_csv_rejected(runs, tmp_path, column, value):
    with open(runs["metrics"], encoding="utf-8") as fh:
        header, row, *rest = fh.read().splitlines()
    cells = row.split(",")
    cells[header.split(",").index(column)] = value
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    err = _assert_rejected(_cost_argv(tmp_path, [str(broken), runs["metrics"]],
                                      ["broken", "good"]))
    assert f"{broken}:2: malformed metrics row" in err


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
    return code


@settings(max_examples=40, deadline=None)
@given(leaf=st.sampled_from(_leaves(CONFIG)), value=REPLACEMENTS)
def test_config_leaf_swap_never_crashes(runs, leaf, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = _dump(os.path.join(tmp, "config.json"), _swapped(CONFIG, leaf, value))
        _assert_documented_exit(["train", "--config", path, "--data", runs["data"],
                                 "--out", os.path.join(tmp, "out")])


def _same_kind(value):
    """Values of the JSON type of `value`, most of them valid at its leaf."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(0, 9)
    if isinstance(value, float):
        return st.floats(0.0, 10.0) | st.integers(0, 9)
    return st.sampled_from(["continuous", "spiking", "tanh", "arctan", "lwf", "finetune"])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_resolved_config_echo_round_trips(data):
    """The echo of any valid configuration loads back to the same configuration
    and echoes the same bytes again."""
    raw = CONFIG
    for leaf in data.draw(st.lists(st.sampled_from(_leaves(CONFIG)), max_size=4, unique=True)):
        raw = _swapped(raw, leaf, data.draw(_same_kind(_at(CONFIG, leaf))))
    try:
        cfg = from_dict(raw)
    except ConfigError:
        assume(False)
    echo = dump_json(cfg.resolved())
    again = from_dict(json.loads(echo))
    assert again == cfg
    assert dump_json(again.resolved()) == echo


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


def _strict_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       text=st.one_of(st.sampled_from(("nan", "-inf", "1e999", "")), st.text(max_size=6)))
def test_metrics_cell_swap_never_crashes(runs, data, text):
    with open(runs["metrics"], encoding="utf-8") as fh:
        header = fh.readline().strip()
    columns = header.split(",")
    # two curves with distinct slopes, so the unmutated pair is a valid comparison
    curves = []
    for accs in ((0.3, 0.6, 0.9), (0.2, 0.5, 0.7)):
        rows = []
        for epoch, acc in enumerate(accs, start=1):
            values = {"epoch": epoch, "test_acc": acc, "flops_cumulative": 1000 * epoch}
            rows.append([str(values.get(c, 0.5)) for c in columns])
        curves.append([columns] + rows)
    mutated = curves[0]
    row = data.draw(st.integers(0, len(mutated) - 1))
    col = data.draw(st.integers(0, len(columns) - 1))
    mutated[row][col] = text
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, rows in zip(("broken.csv", "good.csv"), curves):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write("".join(",".join(r) + "\n" for r in rows))
        code = _assert_documented_exit(_cost_argv(pathlib.Path(tmp), paths, ["broken", "good"]))
        if code == 0:  # what was accepted must come out as strict JSON
            with open(os.path.join(tmp, "out", "cost_report.json"), encoding="utf-8") as fh:
                json.load(fh, parse_constant=_strict_constant)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("flip", "truncate", "insert")))
def test_dataset_bytes_mutation_never_crashes(runs, data, kind):
    with open(runs["data"], "rb") as fh:
        blob = bytearray(fh.read())
    at = data.draw(st.integers(0, len(blob) - 1))
    if kind == "flip":
        blob[at] ^= data.draw(st.integers(1, 255))
    elif kind == "truncate":
        del blob[at:]
    else:
        blob[at:at] = data.draw(st.binary(min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        mutated = os.path.join(tmp, "data.iemf")
        with open(mutated, "wb") as fh:
            fh.write(blob)
        _assert_documented_exit(["train", "--config", runs["config"], "--data", mutated,
                                 "--out", os.path.join(tmp, "out")])
