"""Binary container: round trips, validation, dataset and checkpoint codecs."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iemf.container import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    load_dataset,
    read_container,
    save_checkpoint,
    save_dataset,
    write_container,
)
from iemf.data import DataSpec, generate
from iemf.errors import FormatError
from iemf.model import ModelConfig, forward_full, init_model
from iemf.neurons import LIFParams


def test_round_trip_bit_identical(tmp_path):
    path = str(tmp_path / "blob.iemf")
    rng = np.random.default_rng(0)
    sections = {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7),
        "scalarish": np.array([3.5]),
    }
    write_container(path, sections, {"kind": "test", "note": "x"})
    loaded, meta = read_container(path)
    assert meta == {"kind": "test", "note": "x"}
    for name, arr in sections.items():
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)


def test_corrupt_magic_rejected(tmp_path):
    path = str(tmp_path / "blob.iemf")
    write_container(path, {"a": np.ones(2)}, {})
    raw = bytearray(Path(path).read_bytes())
    raw[:4] = b"JUNK"
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        read_container(path)


def test_unsupported_version_rejected(tmp_path):
    path = str(tmp_path / "blob.iemf")
    write_container(path, {"a": np.ones(2)}, {})
    raw = bytearray(Path(path).read_bytes())
    raw[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_container(path)


def test_truncated_header_rejected(tmp_path):
    path = str(tmp_path / "blob.iemf")
    Path(path).write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<Q", 10_000))
    with pytest.raises(FormatError, match="truncated"):
        read_container(path)


def test_count_shape_mismatch_rejected(tmp_path):
    path = str(tmp_path / "blob.iemf")
    header = json.dumps({"meta": {}, "sections": [
        {"name": "a", "shape": [3], "count": 2, "offset": 0},
    ]}).encode()
    payload = np.zeros(3).astype("<f8").tobytes()
    Path(path).write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header + payload)
    with pytest.raises(FormatError, match="count"):
        read_container(path)


def test_overlapping_sections_rejected(tmp_path):
    path = str(tmp_path / "blob.iemf")
    header = json.dumps({"meta": {}, "sections": [
        {"name": "a", "shape": [2], "count": 2, "offset": 0},
        {"name": "b", "shape": [2], "count": 2, "offset": 8},
    ]}).encode()
    payload = np.zeros(3).astype("<f8").tobytes()
    Path(path).write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header + payload)
    with pytest.raises(FormatError, match="overlap"):
        read_container(path)


def _write_sections(path, entries, payload_values):
    """A container whose header lists `entries`, (name, byte offset, count) each."""
    header = json.dumps({"meta": {}, "sections": [
        {"name": name, "shape": [count], "count": count, "offset": offset}
        for name, offset, count in entries
    ]}).encode()
    payload = np.arange(float(payload_values)).astype("<f8").tobytes()
    Path(path).write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION)
                           + struct.pack("<Q", len(header)) + header + payload)
    return str(path)


@pytest.mark.parametrize("offset, loads", [(0, True), (8, False), (16, False), (24, True)])
def test_an_empty_section_overlaps_only_strictly_inside_another(tmp_path, offset, loads):
    path = _write_sections(tmp_path / "blob.iemf", [("a", 0, 3), ("empty", offset, 0)], 4)
    if loads:
        sections, _ = read_container(path)
        assert sections["empty"].shape == (0,) and np.array_equal(sections["a"], [0.0, 1.0, 2.0])
    else:
        with pytest.raises(FormatError, match="section 'empty' overlaps"):
            read_container(path)


def _pairwise_overlaps(entries):
    """Header indices j with some earlier section sharing a byte with section j."""
    ranges = [(offset, offset + 8 * count) for _, offset, count in entries]
    return {j for j, (start_j, stop_j) in enumerate(ranges) for start_i, stop_i in ranges[:j]
            if start_j < stop_i and start_i < stop_j}


@settings(max_examples=200, deadline=None)
@given(layout=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 4)), min_size=1,
                       max_size=8))
def test_overlap_check_rejects_exactly_what_the_pairwise_check_rejects(tmp_path_factory, layout):
    entries = [(f"s{i}", offset, count) for i, (offset, count) in enumerate(layout)]
    path = _write_sections(tmp_path_factory.mktemp("overlap") / "blob.iemf", entries, 16)
    overlapping = _pairwise_overlaps(entries)
    if not overlapping:
        sections, _ = read_container(path)
        assert list(sections) == [name for name, _, _ in entries]
        return
    with pytest.raises(FormatError, match="overlaps another section") as info:
        read_container(path)
    # the later of an overlapping pair, in header order
    assert int(str(info.value).split("'s")[1].split("'")[0]) in overlapping


def test_dataset_round_trip(tmp_path):
    path = str(tmp_path / "data.iemf")
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=5, train_per_class=6, test_per_class=2,
                           drop_prob_a=0.2, seed=42))
    save_dataset(path, ds)
    loaded = load_dataset(path)
    assert loaded.spec == ds.spec
    for split in ("train", "test"):
        a, b = getattr(ds, split), getattr(loaded, split)
        assert np.array_equal(a.x_a.data, b.x_a.data)
        assert np.array_equal(a.x_v.data, b.x_v.data)
        assert np.array_equal(a.y, b.y)


def test_checkpoint_round_trip_preserves_forward(tmp_path):
    path = str(tmp_path / "model.iemf")
    cfg = ModelConfig(d_in_a=4, d_in_v=5, n_classes=3, hidden=6, latent=4,
                      neuron_mode="spiking", lif=LIFParams(t_steps=3))
    model = init_model(cfg, 5)
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.cfg == cfg
    for pid, arr in model.params.items():
        assert np.array_equal(loaded.params[pid], arr)
    ds = generate(DataSpec(n_classes=3, d_a=4, d_v=5, train_per_class=3, test_per_class=1, seed=0))
    assert forward_full(ds.train, model).loss.item() == forward_full(ds.train, loaded).loss.item()


def test_wrong_kind_rejected(tmp_path):
    path = str(tmp_path / "x.iemf")
    write_container(path, {"a": np.ones(1)}, {"kind": "dataset"})
    with pytest.raises(FormatError):
        load_checkpoint(path)
    write_container(path, {"a": np.ones(1)}, {"kind": "checkpoint"})
    with pytest.raises(FormatError):
        load_dataset(path)


def test_write_twice_byte_identical(tmp_path):
    p1, p2 = str(tmp_path / "a.iemf"), str(tmp_path / "b.iemf")
    ds = generate(DataSpec(n_classes=2, d_a=3, d_v=3, train_per_class=4, test_per_class=2, seed=1))
    save_dataset(p1, ds)
    save_dataset(p2, generate(ds.spec))
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
