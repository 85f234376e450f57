"""Seed-stream derivation, deterministic file writing, and small shared helpers."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

# Distinct stream tags keep the random sequences of different subsystems
# independent even when they share one master seed.
STREAM_DATA = 1
STREAM_MODEL = 2
STREAM_TRAIN = 3
STREAM_CORRUPT = 4
STREAM_TASKS = 5
STREAM_SHARPNESS = 6
STREAM_LANDSCAPE = 7
STREAM_CONTRACTION = 8


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """PCG64 generator for one (seed, subsystem) pair."""
    return np.random.default_rng([int(seed), int(stream)])


def fmt(value) -> str:
    """Canonical text form: shortest round-trip repr for floats, str otherwise."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-iemf-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def csv_line(fields) -> str:
    return ",".join(fmt(f) for f in fields) + "\n"
