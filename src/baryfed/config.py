"""Experiment configuration: JSON in, validated frozen dataclasses out.

The dataclasses below are the schema, and one walker over their fields
parses every section. A field's default is its dataclass default and its
type is its annotation. Its single-field checks sit in its ``metadata``:

- ``check``: validator of the whole parsed value;
- ``each``: validator of every element of a tuple field; errors then name
  the element (``personalization.lambdas[1]``), otherwise the field;
- ``synth``: validator that applies only to synthetic datasets;
- ``inf``: the float also accepts +infinity, written "inf" in JSON.

A validator is a function ``(value, path) -> value`` that raises ConfigError
and may normalize the value. Parsing is strict: unknown keys, wrong types,
non-finite numbers and out-of-range values raise ConfigError with the dotted
path of the offending field. The resolved configuration serializes back to
a JSON-safe dict (infinity becomes the string "inf") that parses back to
the same configuration, so runs can embed exactly what they executed.
"""

# The parser reads field annotations as runtime types, so this module must
# not postpone their evaluation (no ``from __future__ import annotations``).

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import AggregationMethod, Divergence

DEFAULT_LAMBDAS = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0, math.inf)
DEFAULT_W_GRID = tuple(round(0.1 * i, 1) for i in range(11))


class ConfigError(ValueError):
    def __init__(self, path: str, detail: str):
        super().__init__(f"config field '{path}': {detail}")
        self.path = path


def _rule(ok, detail: str):
    """Validator raising ConfigError(path, detail) unless ``ok(value)``."""

    def check(value, path):
        if not ok(value):
            raise ConfigError(path, f"{detail}, got {json.dumps(to_jsonable(value))}")
        return value

    return check


def _one_of(*options):
    return _rule(lambda v: v in options, f"expected one of {list(options)}")


def _ascending(values) -> bool:
    return len(values) > 0 and all(a < b for a, b in zip(values, values[1:]))


POSITIVE = _rule(lambda v: v > 0, "must be > 0")
NON_NEGATIVE = _rule(lambda v: v >= 0, "must be >= 0")
ASCENDING = _rule(_ascending, "must be non-empty and strictly ascending")
BETA = _rule(lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")


@dataclass(frozen=True)
class DatasetCfg:
    kind: str = field(metadata={"check": _one_of("synth", "idx")})
    n_per_class: int = field(default=60, metadata={"synth": POSITIVE})
    classes: int = field(default=10, metadata={"synth": _rule(lambda v: v >= 2, "must be >= 2")})
    dim: int = field(default=8, metadata={"synth": POSITIVE})
    spread: float = field(default=0.12, metadata={"synth": POSITIVE})
    # fixes the drawn dataset and split across master seeds
    seed: int = field(default=0, metadata={"synth": NON_NEGATIVE})
    test_fraction: float = field(
        default=0.25, metadata={"synth": _rule(lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")}
    )
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    limit: int = field(default=0, metadata={"check": NON_NEGATIVE})  # 0 keeps every example


def _check_dataset(cfg: DatasetCfg, path: str) -> DatasetCfg:
    """Rules that depend on ``kind``: idx needs its files, synth its bounds
    and no ``limit``."""
    if cfg.kind == "idx":
        for name in ("train_images", "train_labels", "test_images", "test_labels"):
            if not getattr(cfg, name):
                raise ConfigError(f"{path}.{name}", "required for kind 'idx'")
        return cfg
    if cfg.limit:
        # synth_blobs orders examples by class: the first N would be class 0 only
        raise ConfigError(f"{path}.limit", "applies to kind 'idx' only; must be 0 for 'synth'")
    for f in dataclasses.fields(cfg):
        if "synth" in f.metadata:
            f.metadata["synth"](getattr(cfg, f.name), f"{path}.{f.name}")
    return cfg


@dataclass(frozen=True)
class ModelCfg:
    hidden: tuple[int, ...] = field(
        default=(32,),
        metadata={"check": _rule(lambda v: all(h > 0 for h in v), "expected positive integers")},
    )


@dataclass(frozen=True)
class PartitionCfg:
    n_clients: int = field(default=10, metadata={"check": POSITIVE})
    beta: float = field(default=0.5, metadata={"check": POSITIVE})
    min_shard: int = field(default=10, metadata={"check": POSITIVE})
    shared_test_draw: bool = True


@dataclass(frozen=True)
class OptimizerCfg:
    lr_initial: float = field(default=0.1, metadata={"check": POSITIVE})
    lr_final: float = field(default=0.01, metadata={"check": POSITIVE})
    weight_decay: float = field(default=2e-4, metadata={"check": NON_NEGATIVE})
    beta1: float = field(default=0.9, metadata={"check": BETA})
    beta2: float = field(default=0.99999, metadata={"check": BETA})
    h0: float = field(default=5.0, metadata={"check": POSITIVE})
    clip_radius: float | None = field(default=None, metadata={"check": POSITIVE})
    mc_train_samples: int = field(default=1, metadata={"check": POSITIVE})


@dataclass(frozen=True)
class FederationCfg:
    rounds: int = field(default=20, metadata={"check": POSITIVE})
    local_epochs: int = field(default=2, metadata={"check": NON_NEGATIVE})
    batch_size: int = field(default=64, metadata={"check": POSITIVE})
    aggregation: AggregationMethod = AggregationMethod.W2B
    algorithm: str = field(default="bayes", metadata={"check": _one_of("bayes", "fedavg")})
    frozen_var: float = field(default=1e-4, metadata={"check": POSITIVE})
    threads: int = field(default=1, metadata={"check": POSITIVE})


@dataclass(frozen=True)
class PersonalizationCfg:
    divergence: Divergence = field(
        default=Divergence.W2SQ,
        metadata={
            "check": _rule(
                lambda d: d is not Divergence.KL,
                "the forward kl projection is not implemented; use rkl or w2sq",
            )
        },
    )
    lambdas: tuple[float, ...] = field(
        default=DEFAULT_LAMBDAS, metadata={"inf": True, "each": NON_NEGATIVE, "check": ASCENDING}
    )


@dataclass(frozen=True)
class EvalCfg:
    mc_samples: int = field(default=10, metadata={"check": POSITIVE})
    # metrics_of keys each bin by an int64
    ece_bins: int = field(
        default=15, metadata={"check": _rule(lambda v: 0 < v <= 2**62, "must lie in [1, 2**62]")}
    )


@dataclass(frozen=True)
class IncrementalCfg:
    w_grid: tuple[float, ...] = field(
        default=DEFAULT_W_GRID,
        metadata={
            "each": _rule(lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
            "check": ASCENDING,
        },
    )
    # None: the lower half of the classes is task A
    split_class: int | None = field(
        default=None, metadata={"check": _rule(lambda v: v >= 1, "must be >= 1")}
    )


@dataclass(frozen=True)
class CompareCfg:
    methods: tuple[str, ...] = field(
        default=("eaa", "w2b", "rklb"),
        metadata={"each": lambda m, path: _enum(AggregationMethod, m, path).value.lower()},
    )


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetCfg = field(metadata={"check": _check_dataset})
    model: ModelCfg = ModelCfg()
    partition: PartitionCfg = PartitionCfg()
    optimizer: OptimizerCfg = OptimizerCfg()
    federation: FederationCfg = FederationCfg()
    personalization: PersonalizationCfg = PersonalizationCfg()
    eval: EvalCfg = EvalCfg()
    incremental: IncrementalCfg = IncrementalCfg()
    compare: CompareCfg = CompareCfg()
    seeds: tuple[int, ...] = field(
        default=(0,),
        metadata={
            "check": _rule(
                lambda v: len(v) > 0 and all(s >= 0 for s in v) and len(set(v)) == len(v),
                "expected a non-empty list of distinct non-negative integers",
            )
        },
    )
    out_dir: str = "runs/out"

    def to_json_dict(self, include_execution: bool = True) -> dict:
        """JSON-safe dict of the resolved config.

        ``include_execution=False`` drops fields that do not affect numeric
        results (output directory, thread count) so artifacts embedding the
        config stay byte-identical across execution modes.
        """
        out = to_jsonable(self)
        if not include_execution:
            out.pop("out_dir", None)
            out["federation"].pop("threads", None)
        return out


def to_jsonable(value):
    """JSON-safe copy: dataclasses become dicts, tuples and arrays lists,
    NumPy scalars Python numbers, enums their value, infinities "inf"."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return to_jsonable(value.tolist())
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "inf" if math.isinf(value) else value
    if isinstance(value, Enum):
        return value.value
    return value


# -- parsing ------------------------------------------------------------------


def _enum(kind, value, path: str):
    """Case-insensitive enum member by value."""
    if isinstance(value, str):
        try:
            return kind(value.upper())
        except ValueError:
            pass
    options = [m.value.lower() for m in kind]
    raise ConfigError(path, f"expected one of {options}, got {value!r}")


def _scalar(kind, value, path: str, inf_ok: bool):
    """One JSON scalar as ``kind``; ints widen to float, bools are not numbers."""
    if issubclass(kind, Enum):
        return _enum(kind, value, path)
    if kind is float:
        if inf_ok and isinstance(value, str) and value.lower() == "inf":
            return math.inf
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = float(value)
            if math.isnan(value) or (math.isinf(value) and not inf_ok):
                raise ConfigError(path, f"must be a finite number, got {value}")
            return value
        expected = "a number or 'inf'" if inf_ok else "a number"
    elif isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    else:
        expected = kind.__name__
    raise ConfigError(path, f"expected {expected}, got {value!r}")


class _Spec(typing.NamedTuple):
    field: dataclasses.Field
    kind: type  # scalar type, section class, or a tuple's element type
    many: bool  # tuple field
    nullable: bool  # "T | None"
    section: bool  # kind is a nested section


@functools.cache
def _schema(cls) -> tuple[_Spec, ...]:
    """The fields of ``cls`` with their annotations resolved, once per class."""
    specs = []
    for f in dataclasses.fields(cls):
        hint, args = f.type, typing.get_args(f.type)
        nullable = type(None) in args
        if nullable:
            hint = args[0]
        many = typing.get_origin(hint) is tuple
        kind = typing.get_args(hint)[0] if many else hint
        specs.append(_Spec(f, kind, many, nullable, dataclasses.is_dataclass(kind)))
    return tuple(specs)


def _parse(spec: _Spec, value, path: str):
    """Parse one JSON value against a field's schema entry and metadata rules."""
    if spec.nullable and value is None:
        return None
    rules = spec.field.metadata
    inf_ok = rules.get("inf", False)
    if spec.section:
        value = _parse_section(spec.kind, value, path)
    elif spec.many:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {type(value).__name__}")
        each = rules.get("each")
        items = []
        for i, item in enumerate(value):
            at = f"{path}[{i}]" if each else path
            item = _scalar(spec.kind, item, at, inf_ok)
            items.append(each(item, at) if each else item)
        value = tuple(items)
    else:
        value = _scalar(spec.kind, value, path, inf_ok)
    check = rules.get("check")
    return check(value, path) if check else value


def _parse_section(cls, raw, path: str):
    if not isinstance(raw, dict):
        raise ConfigError(path or "<root>", f"expected an object, got {type(raw).__name__}")
    raw = dict(raw)
    values = {}
    for spec in _schema(cls):
        name = spec.field.name
        at = f"{path}.{name}" if path else name
        if name in raw:
            values[name] = _parse(spec, raw.pop(name), at)
        elif spec.field.default is dataclasses.MISSING:
            raise ConfigError(at, f"required {'section' if spec.section else 'field'} is missing")
    if raw:
        extra = sorted(raw)
        at = f"{path}.{extra[0]}" if path else extra[0]
        raise ConfigError(at, f"unknown key(s): {', '.join(extra)}")
    return cls(**values)


def parse_field(cls, name: str, value, path: str):
    """Parse ``value`` as field ``name`` of section ``cls``; errors name ``path``."""
    return _parse(next(s for s in _schema(cls) if s.field.name == name), value, path)


def parse_config(obj: dict) -> ExperimentConfig:
    return _parse_section(ExperimentConfig, obj, "")


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from None
    return parse_config(obj)
