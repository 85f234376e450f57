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

    def decode(self, payload: bytes) -> np.ndarray:
        arr = np.frombuffer(payload, dtype="<f8", count=self.count, offset=self.offset)
        return arr.astype(np.float64).reshape(self.shape)


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


def _header(raw, where: str) -> Header:
    """`_build(Header, raw, where)` in plain type tests; what fails one, `_build` words."""
    if not (isinstance(raw, dict) and raw.keys() <= {"meta", "sections"}):
        return _build(Header, raw, where)  # raises before it reads a section
    for key, value in raw.items():  # in the order `_build` checks them
        if key == "meta" or not isinstance(value, list):
            _build(Header, {key: value}, where)
            continue
        for i, entry in enumerate(value):
            if not (type(entry) is dict and entry.keys() == {"name", "shape", "count", "offset"}
                    and type(entry["name"]) is str and type(entry["shape"]) is list
                    and all(type(v) is int and -2**63 <= v < 2**63  # a bool is not an int
                            for v in (*entry["shape"], entry["count"], entry["offset"]))):
                _build(Section, entry, f"{where}.sections[{i}]")
    return Header(raw.get("meta", {}), [Section(**entry) for entry in raw.get("sections", [])])


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


def _read_header(path: str) -> tuple[Header, bytes]:
    """The checked header of the container at `path`, and its payload."""
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
    header = _header(raw, f"{path}: header")
    payload = blob[16 + header_len :]
    names: set[str] = set()
    for entry in header.sections:
        name, shape, count, offset = entry.name, entry.shape, entry.count, entry.offset
        if name in names:
            raise FormatError(f"{path}: section {name!r} is listed twice")
        names.add(name)
        if any(dim < 0 for dim in shape):
            raise FormatError(f"{path}: section {name!r} has a negative dimension")
        if count != math.prod(shape):
            raise FormatError(f"{path}: section {name!r} count does not match its shape")
        if offset < 0 or offset + count * 8 > len(payload):
            raise FormatError(f"{path}: section {name!r} exceeds the payload")
    _check_no_overlap(path, header.sections)
    return header, payload


def _check_no_overlap(path: str, entries: list[Section]) -> None:
    """Reject two sections whose byte ranges [offset, offset + 8 count) share a
    byte, naming the later one in header order; an empty range overlaps only
    a range it lies strictly inside. Sorted by (start, end), an overlapping
    pair exists exactly when some range starts before its predecessor ends
    (an empty range sorts ahead of the ranges that start where it sits)."""
    claimed = sorted((e.offset, e.offset + e.count * 8, i) for i, e in enumerate(entries))
    for (_, stop, i), (start_next, _, j) in zip(claimed, claimed[1:]):
        if start_next < stop:
            raise FormatError(f"{path}: section {entries[max(i, j)].name!r} overlaps another "
                              "section")


def _labels_from_f64(arr: np.ndarray, path: str) -> np.ndarray:
    rounded = np.rint(arr)
    if not np.array_equal(rounded, arr):
        raise FormatError(f"{path}: label section holds non-integer values")
    return rounded.astype(np.int64)


def save_dataset(path: str, dataset: Dataset) -> None:
    sections = {
        "train/x_a": dataset.train.x_a.data,
        "train/x_v": dataset.train.x_v.data,
        "train/y": np.asarray(dataset.train.y, dtype=np.float64),
        "test/x_a": dataset.test.x_a.data,
        "test/x_v": dataset.test.x_v.data,
        "test/y": np.asarray(dataset.test.y, dtype=np.float64),
    }
    write_container(path, sections, {"kind": "dataset", "spec": asdict(dataset.spec)})


def load_dataset(path: str) -> Dataset:
    header, payload = _read_header(path)
    if header.meta.get("kind") != "dataset":
        raise FormatError(f"{path}: container does not hold a dataset")
    spec = _build(DataSpec, header.meta.get("spec"), f"{path}: dataset spec")
    entries = {entry.name: entry for entry in header.sections}

    def section(name: str) -> np.ndarray:  # decodes only the sections read
        return entries[name].decode(payload)

    try:
        train = Batch(Tensor(section("train/x_a")), Tensor(section("train/x_v")),
                      _labels_from_f64(section("train/y"), path))
        test = Batch(Tensor(section("test/x_a")), Tensor(section("test/x_v")),
                     _labels_from_f64(section("test/y"), path))
    except KeyError as exc:
        raise FormatError(f"{path}: dataset container is missing section {exc}") from exc
    return Dataset(train=train, test=test, spec=spec)


def save_checkpoint(path: str, model: MultimodalModel) -> None:
    sections = {f"param/{pid}": arr for pid, arr in model.params.items()}
    cfg = asdict(model.cfg)
    write_container(path, sections, {"kind": "checkpoint", "model": cfg})


def load_checkpoint(path: str) -> MultimodalModel:
    header, payload = _read_header(path)
    if header.meta.get("kind") != "checkpoint":
        raise FormatError(f"{path}: container does not hold a checkpoint")
    cfg = _build(ModelConfig, header.meta.get("model"), f"{path}: checkpoint model")
    entries = {entry.name[len("param/"):]: entry for entry in header.sections
               if entry.name.startswith("param/")}
    expected = param_shapes(cfg)
    wrong = sorted(pid for pid in expected.keys() | entries.keys()
                   if pid not in entries or expected.get(pid) != tuple(entries[pid].shape))
    if wrong:
        raise FormatError(f"{path}: parameters {wrong} do not match the checkpoint's model config")
    return MultimodalModel(cfg, {pid: entries[pid].decode(payload) for pid in expected})
