"""JSON experiment configuration: typed parsing, defaults, and the resolved echo.

The dataclasses are the schema: `build` rejects unknown keys, missing fields
and wrongly typed values by name before any work starts. A `--seed` override
replaces the master seed before section defaults are derived from it, and
every command writes the fully resolved configuration next to its outputs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .continual import CONTINUAL_METHODS
from .data import DataSpec
from .errors import ConfigError
from .model import ModelConfig
from .modulation import IEMFConfig
from .training import OptimConfig


@dataclass
class ContinualSettings:
    tasks: int = 3
    classes_per_task: int = 2
    method: str = "finetune"
    lwf_temperature: float = 2.0
    lwf_lambda: float = 1.0

    def __post_init__(self):
        if self.tasks < 1 or self.classes_per_task < 1:
            raise ConfigError("tasks and classes_per_task must be positive")
        if self.method not in CONTINUAL_METHODS:
            raise ConfigError(f"continual method must be one of {CONTINUAL_METHODS}")
        if self.lwf_temperature <= 0.0:
            raise ConfigError("lwf_temperature must be positive")
        if self.lwf_lambda < 0.0:
            raise ConfigError("lwf_lambda must be non-negative")


@dataclass
class SharpnessSettings:
    checkpoint: str | None = None
    ball_radius: float = 0.05
    n_probes: int = 8
    ascent_steps: int = 20
    blocks: str = "fusion"


@dataclass
class LandscapeSettings:
    checkpoint: str | None = None
    grid_n: int = 21
    extent: float = 1.0


@dataclass
class ContractionSettings:
    eigenvalues: list[float] = field(default_factory=lambda: [1.0, 10.0])
    alpha0: list[float] = field(default_factory=lambda: [1.0, 1.0])
    eta: float = 0.05
    xi: float | list[float] = 1.0
    steps: int = 100
    rotation_seed: int | None = None
    tolerance: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ConfigError("analysis.contraction.tolerance must be a finite positive number")
        if self.steps < 1:
            raise ConfigError("analysis.contraction.steps must be at least 1")

    def schedule(self) -> list[float]:
        if isinstance(self.xi, (int, float)):
            return [float(self.xi)] * self.steps
        return [float(x) for x in self.xi]


@dataclass
class CostSettings:
    metrics: list[str] = field(default_factory=list)
    labels: list[str] | None = None
    thresholds: int = 5


@dataclass
class AnalysisSettings:
    sharpness: SharpnessSettings = field(default_factory=SharpnessSettings)
    landscape: LandscapeSettings = field(default_factory=LandscapeSettings)
    contraction: ContractionSettings = field(default_factory=ContractionSettings)
    cost: CostSettings = field(default_factory=CostSettings)


@dataclass
class ExperimentConfig:
    data: DataSpec
    model: ModelConfig
    optim: OptimConfig
    seed: int = 0
    continual: ContinualSettings = field(default_factory=ContinualSettings)
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)

    def model_config(self) -> ModelConfig:
        # Kept because bench/workloads.py calls it; new code reads `model`.
        return self.model

    def resolved(self) -> dict:
        """The configuration as it ran, in the layout `from_dict` reads back."""
        out = asdict(self)
        for width in _WIDTHS:
            del out["model"][width]
        optim = out["optim"]
        out["iemf"] = optim.pop("iemf")
        optim["mslr"] = {k: optim.pop(k) for k in ("mult_a", "mult_v")}
        return out


# Model config field -> data spec field it is filled in from.
_WIDTHS = {"d_in_a": "d_a", "d_in_v": "d_v", "n_classes": "n_classes"}

# The most float64 values a dataset's inputs or a model's parameters may hold
# (1 GiB), so that a larger size ends at load rather than in an allocation.
MAX_VALUES = 2**27


def _dataset_values(d: DataSpec) -> int:
    return (d.train_per_class + d.test_per_class) * d.n_classes * (d.d_a + d.d_v)


def _parameter_count(m: ModelConfig) -> int:
    """The size of what `model.param_shapes` lists: per encoder the first layer,
    depth - 2 hidden layers and the latent one; the fusion layer and two heads."""
    deep = m.depth > 1
    first = m.hidden if deep else m.latent
    rest = ((m.depth - 2) * m.hidden + m.latent) * (m.hidden + 1) if deep else 0
    return (m.d_in_a + m.d_in_v + 2) * first + 2 * rest + (4 * m.latent + 3) * m.n_classes


def _check_sizes(data: DataSpec, model: ModelConfig) -> None:
    for count, what in (
        (_dataset_values(data),
         "data: (train_per_class + test_per_class) * n_classes * (d_a + d_v) float64 values"),
        (_parameter_count(model), "model: parameters from hidden, latent and depth"),
    ):
        if count > MAX_VALUES:
            raise ConfigError(f"{what}: {count}, more than {MAX_VALUES}")


# Field types per dataclass; resolving the annotations costs more than checking a record.
_type_hints = functools.cache(get_type_hints)


def _mistyped(where: str, expected, raw, error=ConfigError) -> ConfigError:
    return error(f"{where}: expected {expected}, got {json.dumps(raw, default=repr)[:40]}")


def _object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise _mistyped(where, "object", raw)
    return dict(raw)


def _finite_float(raw) -> bool:
    """Whether float64 holds `raw` as a finite number: json reads 1e999 as
    inf, and float() overflows on an integer of a few hundred digits."""
    try:
        return math.isfinite(float(raw))
    except OverflowError:
        return False


class _OutOfRange(ConfigError):
    """A value of the field's type that the field cannot take."""


def _check_int(raw: int, where: str) -> int:
    """Seeds (the fields named `*seed`) feed `SeedSequence`, which takes any
    non-negative integer; every other integer reaches numpy as a size, count
    or index, so it must fit int64."""
    if where.rsplit(".", 1)[-1].endswith("seed"):
        if raw < 0:
            raise _mistyped(where, "a non-negative integer", raw, _OutOfRange)
    elif not -2**63 <= raw < 2**63:
        raise _mistyped(where, "an integer that fits int64", raw, _OutOfRange)
    return raw


def _value(tp, raw, where: str):
    if is_dataclass(tp):
        return build(tp, raw, where)
    origin = get_origin(tp)
    if origin in (Union, UnionType):
        for alt in get_args(tp):
            try:
                return _value(alt, raw, where)
            except _OutOfRange:
                raise
            except ConfigError:
                pass
    elif origin is list:
        if isinstance(raw, list):
            return [_value(get_args(tp)[0], item, f"{where}[{i}]") for i, item in enumerate(raw)]
    elif isinstance(raw, (int, float) if tp is float else tp) and (
            tp is bool or not isinstance(raw, bool)):
        if tp is int:
            return _check_int(raw, where)
        if tp is not float or _finite_float(raw):
            return raw
        raise _mistyped(where, "a finite float", raw, _OutOfRange)
    raise _mistyped(where, tp.__name__ if isinstance(tp, type) else tp, raw)


def build(cls, raw, where: str, **given):
    """Instance of the dataclass `cls` from the JSON object `raw` at key path `where`.

    `raw` may hold any field except those the caller derived itself (`given`);
    omitted fields keep their defaults. Values must match the field types,
    recursing into dataclasses, `list[T]` and unions: integers reject 2.5 and
    true, a seed rejects a negative integer and any other integer field one
    int64 cannot hold, booleans reject strings, floats reject numbers float64
    cannot hold finitely. Violations raise ConfigError naming the key.
    """
    name = where or "top-level"
    raw = _object(raw, name)
    names = [f.name for f in fields(cls) if f.name not in given]
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ConfigError(f"unknown keys in {name!r} section: {unknown}")
    missing = [f.name for f in fields(cls) if f.name in names and f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{name}: missing required keys {missing}")
    hints = _type_hints(cls)
    prefix = f"{where}." if where else ""
    return cls(**given, **{k: _value(hints[k], v, prefix + k) for k, v in raw.items()})


def from_dict(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    top = _object(raw, "configuration")
    if seed_override is not None:
        top["seed"] = seed_override
    seed = _value(int, top.get("seed", 0), "seed")
    # The JSON layout differs from the dataclasses in three places: the model
    # widths come from `data`, the top-level `iemf` section is `optim.iemf`, and
    # `optim.mslr` holds `mult_a` and `mult_v`.
    data = build(DataSpec, {"seed": seed, **_object(top.pop("data", {}), "data")}, "data")
    model = build(ModelConfig, top.pop("model", {}), "model",
                  **{width: getattr(data, key) for width, key in _WIDTHS.items()})
    _check_sizes(data, model)
    optim = _object(top.pop("optim", {}), "optim")
    mslr = optim.pop("mslr", None)
    mslr = {} if mslr is None else _object(mslr, "optim.mslr")
    mult = {k: _value(float, mslr.pop(k, 1.0), f"optim.mslr.{k}") for k in ("mult_a", "mult_v")}
    if mslr:
        raise ConfigError(f"unknown keys in 'optim.mslr' section: {sorted(mslr)}")
    optim = build(OptimConfig, {"seed": seed, **optim}, "optim",
                  iemf=build(IEMFConfig, top.pop("iemf", {}), "iemf"), **mult)
    return build(ExperimentConfig, top, "", data=data, model=model, optim=optim)


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed in a configuration")


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    """The experiment configuration in the JSON file at `path`; strict JSON
    only, so the NaN, Infinity and -Infinity tokens are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return from_dict(raw, seed_override)
