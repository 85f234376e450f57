"""Binary container for datasets and checkpoints.

Layout: magic "IEMF", u32 little-endian format version, u64 little-endian
header length, UTF-8 JSON header, then the payload of raw IEEE-754
little-endian float64 values. The header lists every section's name, shape,
element count, and byte offset relative to the payload start. Round trips are
bit-exact, which is what the golden fixtures and determinism checks rely on.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import build
from .data import DataSpec, Dataset
from .errors import ConfigError, FormatError
from .model import Batch, ModelConfig, MultimodalModel, param_shapes
from .tensor import Tensor
from .util import atomic_write_bytes

MAGIC = b"IEMF"
FORMAT_VERSION = 1


@dataclass
class Section:
    name: str
    shape: list[int]
    count: int
    offset: int


@dataclass
class Header:
    meta: dict = field(default_factory=dict)
    sections: list[Section] = field(default_factory=list)


def _build(cls, raw, where: str):
    """`config.build` for container metadata: a malformed record is a FormatError."""
    try:
        return build(cls, raw, where)
    except ConfigError as exc:
        raise FormatError(str(exc)) from exc


def write_container(path: str, sections: dict[str, np.ndarray], meta: dict) -> None:
    names = list(sections)
    if len(set(names)) != len(names):
        raise FormatError("section names must be unique")
    payload = bytearray()
    entries = []
    for name in names:
        arr = np.ascontiguousarray(np.asarray(sections[name], dtype=np.float64))
        entries.append(Section(name, list(arr.shape), int(arr.size), len(payload)))
        payload.extend(arr.astype("<f8").tobytes())
    header = json.dumps(asdict(Header(meta, entries)), sort_keys=True).encode("utf-8")
    blob = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(header))
    atomic_write_bytes(path, blob + header + bytes(payload))


def read_container(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: not a container file (bad magic bytes)")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    header_len = struct.unpack("<Q", blob[8:16])[0]
    if 16 + header_len > len(blob):
        raise FormatError(f"{path}: truncated header")
    try:
        raw = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed header ({exc})") from exc
    header = _build(Header, raw, f"{path}: header")
    payload = blob[16 + header_len :]
    sections: dict[str, np.ndarray] = {}
    claimed: list[tuple[int, int]] = []
    for entry in header.sections:
        name, shape, count, offset = entry.name, entry.shape, entry.count, entry.offset
        if any(dim < 0 for dim in shape):
            raise FormatError(f"{path}: section {name!r} has a negative dimension")
        if count != math.prod(shape):
            raise FormatError(f"{path}: section {name!r} count does not match its shape")
        nbytes = count * 8
        if offset < 0 or offset + nbytes > len(payload):
            raise FormatError(f"{path}: section {name!r} exceeds the payload")
        for start, stop in claimed:
            if offset < stop and start < offset + nbytes:
                raise FormatError(f"{path}: section {name!r} overlaps another section")
        claimed.append((offset, offset + nbytes))
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        sections[name] = arr.astype(np.float64).reshape(shape)
    return sections, header.meta


def _labels_to_f64(y: np.ndarray) -> np.ndarray:
    return np.asarray(y, dtype=np.float64)


def _labels_from_f64(arr: np.ndarray, path: str) -> np.ndarray:
    rounded = np.rint(arr)
    if not np.array_equal(rounded, arr):
        raise FormatError(f"{path}: label section holds non-integer values")
    return rounded.astype(np.int64)


def save_dataset(path: str, dataset: Dataset) -> None:
    sections = {
        "train/x_a": dataset.train.x_a.data,
        "train/x_v": dataset.train.x_v.data,
        "train/y": _labels_to_f64(dataset.train.y),
        "test/x_a": dataset.test.x_a.data,
        "test/x_v": dataset.test.x_v.data,
        "test/y": _labels_to_f64(dataset.test.y),
    }
    write_container(path, sections, {"kind": "dataset", "spec": asdict(dataset.spec)})


def load_dataset(path: str) -> Dataset:
    sections, meta = read_container(path)
    if meta.get("kind") != "dataset":
        raise FormatError(f"{path}: container does not hold a dataset")
    try:
        spec = _build(DataSpec, meta.get("spec"), f"{path}: dataset spec")
        train = Batch(Tensor(sections["train/x_a"]), Tensor(sections["train/x_v"]),
                      _labels_from_f64(sections["train/y"], path))
        test = Batch(Tensor(sections["test/x_a"]), Tensor(sections["test/x_v"]),
                     _labels_from_f64(sections["test/y"], path))
    except KeyError as exc:
        raise FormatError(f"{path}: dataset container is missing section {exc}") from exc
    return Dataset(train=train, test=test, spec=spec)


def save_checkpoint(path: str, model: MultimodalModel) -> None:
    sections = {f"param/{pid}": arr for pid, arr in model.params.items()}
    cfg = asdict(model.cfg)
    write_container(path, sections, {"kind": "checkpoint", "model": cfg})


def load_checkpoint(path: str) -> MultimodalModel:
    sections, meta = read_container(path)
    if meta.get("kind") != "checkpoint":
        raise FormatError(f"{path}: container does not hold a checkpoint")
    cfg = _build(ModelConfig, meta.get("model"), f"{path}: checkpoint model")
    params = {name[len("param/"):]: arr for name, arr in sections.items()
              if name.startswith("param/")}
    expected = param_shapes(cfg)
    wrong = sorted(pid for pid in expected.keys() | params.keys()
                   if pid not in params or expected.get(pid) != params[pid].shape)
    if wrong:
        raise FormatError(f"{path}: parameters {wrong} do not match the checkpoint's model config")
    return MultimodalModel(cfg, params)
