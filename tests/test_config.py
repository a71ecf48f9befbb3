import dataclasses
import json
import math
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baryfed.config import (
    ConfigError,
    DatasetCfg,
    ExperimentConfig,
    _schema,
    load_config,
    parse_config,
)
from baryfed.geometry import AggregationMethod, Divergence

MINIMAL = {"dataset": {"kind": "synth"}}

# every field of every section away from its default
FULL = {
    "dataset": {
        "kind": "idx", "n_per_class": 50, "classes": 4, "dim": 3, "spread": 0.2,
        "seed": 7, "test_fraction": 0.3, "train_images": "a", "train_labels": "b",
        "test_images": "c", "test_labels": "d", "limit": 5,
    },
    "model": {"hidden": [16, 8]},
    "partition": {"n_clients": 5, "beta": 2.0, "min_shard": 3, "shared_test_draw": False},
    "optimizer": {
        "lr_initial": 0.5, "lr_final": 0.05, "weight_decay": 0.0, "beta1": 0.5,
        "beta2": 0.99, "h0": 1.0, "clip_radius": 2.5, "mc_train_samples": 3,
    },
    "federation": {
        "rounds": 3, "local_epochs": 0, "batch_size": 32, "aggregation": "rklb",
        "algorithm": "fedavg", "frozen_var": 1e-3, "threads": 2,
    },
    "personalization": {"divergence": "rkl", "lambdas": [0, 0.5, "inf"]},
    "eval": {"mc_samples": 3, "ece_bins": 5},
    "incremental": {"w_grid": [0, 0.5, 1], "split_class": 2},
    "compare": {"methods": ["EAA", "rklb"]},
    "seeds": [3, 1],
    "out_dir": "elsewhere",
}

DEFAULTS = parse_config(MINIMAL)
SECTIONS = [
    f.name
    for f in dataclasses.fields(DEFAULTS)
    if dataclasses.is_dataclass(getattr(DEFAULTS, f.name))
]


def with_section(name, body):
    obj = {"dataset": {"kind": "synth"}}
    obj[name] = body
    return obj


class TestDefaults:
    def test_minimal_config_resolves(self):
        cfg = parse_config(MINIMAL)
        assert cfg.federation.aggregation is AggregationMethod.W2B
        assert cfg.personalization.divergence is Divergence.W2SQ
        assert cfg.personalization.lambdas[0] == 0.0
        assert math.isinf(cfg.personalization.lambdas[-1])
        assert cfg.seeds == (0,)
        assert cfg.incremental.w_grid == tuple(round(0.1 * i, 1) for i in range(11))

    def test_dataset_required(self):
        with pytest.raises(ConfigError, match="dataset"):
            parse_config({})


class TestUnknownKeys:
    def test_root_unknown_key_named(self):
        with pytest.raises(ConfigError, match="outdir"):
            parse_config({"dataset": {"kind": "synth"}, "outdir": "x"})

    def test_section_unknown_key_named(self):
        with pytest.raises(ConfigError, match="dataset.sprad"):
            parse_config({"dataset": {"kind": "synth", "sprad": 0.1}})


class TestDataset:
    def test_kind_validated(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config({"dataset": {"kind": "csv"}})

    def test_idx_requires_paths(self):
        with pytest.raises(ConfigError, match="train_images"):
            parse_config({"dataset": {"kind": "idx"}})

    def test_synth_bounds(self):
        with pytest.raises(ConfigError, match="spread"):
            parse_config({"dataset": {"kind": "synth", "spread": 0.0}})
        with pytest.raises(ConfigError, match="test_fraction"):
            parse_config({"dataset": {"kind": "synth", "test_fraction": 1.0}})


class TestLambdas:
    def test_inf_keyword(self):
        cfg = parse_config(
            with_section("personalization", {"lambdas": [0, 1, "inf"]})
        )
        assert cfg.personalization.lambdas == (0.0, 1.0, math.inf)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="lambdas\\[0\\]"):
            parse_config(with_section("personalization", {"lambdas": [-1, 0]}))

    def test_ascending_required(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config(with_section("personalization", {"lambdas": [1, 1]}))

    def test_bad_string(self):
        with pytest.raises(ConfigError, match="'inf'"):
            parse_config(with_section("personalization", {"lambdas": ["infinite"]}))

    def test_forward_kl_rejected(self):
        with pytest.raises(ConfigError, match="rkl or w2sq") as info:
            parse_config(with_section("personalization", {"divergence": "kl"}))
        assert "forward kl projection is not implemented" in str(info.value)

    def test_divergence_case_insensitive(self):
        cfg = parse_config(with_section("personalization", {"divergence": "RKL"}))
        assert cfg.personalization.divergence is Divergence.RKL


class TestFederation:
    def test_aggregation_case_insensitive(self):
        for name in ("eaa", "EAA", "Eaa"):
            cfg = parse_config(with_section("federation", {"aggregation": name}))
            assert cfg.federation.aggregation is AggregationMethod.EAA

    def test_bad_aggregation_lists_options(self):
        with pytest.raises(ConfigError, match="eaa"):
            parse_config(with_section("federation", {"aggregation": "mean"}))

    def test_algorithm_validated(self):
        with pytest.raises(ConfigError, match="algorithm"):
            parse_config(with_section("federation", {"algorithm": "sgd"}))


class TestOptimizer:
    def test_beta_range(self):
        with pytest.raises(ConfigError, match="beta2"):
            parse_config(with_section("optimizer", {"beta2": 1.0}))

    def test_clip_radius_null_ok(self):
        cfg = parse_config(with_section("optimizer", {"clip_radius": None}))
        assert cfg.optimizer.clip_radius is None
        with pytest.raises(ConfigError, match="clip_radius"):
            parse_config(with_section("optimizer", {"clip_radius": 0}))


class TestMisc:
    def test_model_hidden_validated(self):
        with pytest.raises(ConfigError, match="hidden"):
            parse_config(with_section("model", {"hidden": [32, 0]}))

    def test_w_grid_bounds(self):
        with pytest.raises(ConfigError, match="w_grid\\[1\\]"):
            parse_config(with_section("incremental", {"w_grid": [0.5, 1.5]}))

    def test_compare_methods_validated(self):
        with pytest.raises(ConfigError, match="methods\\[1\\]"):
            parse_config(with_section("compare", {"methods": ["eaa", "avg"]}))
        cfg = parse_config(with_section("compare", {"methods": ["EAA", "W2B"]}))
        assert cfg.compare.methods == ("eaa", "w2b")

    def test_seeds_validated(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config({"dataset": {"kind": "synth"}, "seeds": []})
        with pytest.raises(ConfigError, match="seeds"):
            parse_config({"dataset": {"kind": "synth"}, "seeds": [0, -1]})
        with pytest.raises(ConfigError, match="'seeds': expected .* distinct"):
            parse_config({"dataset": {"kind": "synth"}, "seeds": [3, 1, 3]})


# Words for the string fields that carry a rule; other strings are free text.
WORDS = ("synth", "idx", "bayes", "fedavg", "eaa", "W2B", "rklb", "")
REJECTED = object()


def ruled(rule, value, path: str):
    try:
        return rule(value, path)
    except ConfigError:
        return REJECTED


def passing(values, rule, path: str):
    """Draws of ``values`` that ``rule`` accepts, as the rule returns them."""
    return values.map(lambda v: ruled(rule, v, path)).filter(lambda v: v is not REJECTED)


def accepts(rule, value, path: str) -> bool:
    return rule is None or ruled(rule, value, path) is not REJECTED


# Floats are drawn from [-2, 50]; every float rule bounds its range at one
# of these edges, so it accepts all of a segment between two edges or none.
FLOAT_EDGES = (-2.0, 0.0, 1.0, 50.0)


def scalar_values(kind, ok, inf: bool):
    """The scalars of ``kind`` that the predicate ``ok`` accepts (None: any),
    drawn from those only: ints in 0..40, floats in [-2, 50] (and infinity
    if ``inf``), enum members, and WORDS (free text if ``ok`` is None); with
    two distinct accepted values, in order, to probe a tuple's rule with."""
    if kind is str and ok is None:  # free text would almost never pass a rule
        return st.text(max_size=8), ("a", "b")
    ok = ok or (lambda v: True)
    if kind is float:
        # a segment accepted at its midpoint is drawn whole, each end as ``ok`` says
        segments = [(a, b) for a, b in zip(FLOAT_EDGES, FLOAT_EDGES[1:]) if ok((a + b) / 2)]
        pieces = [
            st.floats(a, b, exclude_min=not ok(a), exclude_max=not ok(b)) for a, b in segments
        ]
        infinite = [st.just(math.inf)] if inf and ok(math.inf) else []
        a, b = segments[0]
        return st.one_of(pieces + infinite), ((2 * a + b) / 3, (a + 2 * b) / 3)
    if kind is bool:
        candidates = [False, True]
    else:
        candidates = list(kind) if issubclass(kind, Enum) else WORDS if kind is str else range(41)
    accepted = [v for v in candidates if ok(v)]
    return st.sampled_from(accepted), accepted[:2]


def field_values(spec, path: str, synth=None):
    """Values of one schema field as the parser stores them, built to pass
    its rules (and ``synth``, if given) rather than filtered through them:
    a draw by type (infinity only where the field allows it, None for
    optional fields); for a tuple, elements that pass ``each`` and pass
    ``check`` alone, in the shape ``check`` accepts (non-empty, distinct,
    sorted as it asks; else in drawn and in sorted order). ``each`` and
    ``check`` then run as the parser runs them, which may normalize a
    value (``dataset_sections`` passes the ``synth`` rules)."""
    kind, rules = spec.kind, spec.field.metadata
    each, check = rules.get("each"), rules.get("check")
    # per rule, whether it judges an element as a tuple of one
    judges = [(r, alone) for r, alone in ((each, False), (check, spec.many), (synth, False)) if r]
    ok = lambda v: all(accepts(r, (v,) if alone else v, path) for r, alone in judges)
    if spec.section:
        one = sections(kind, path)
    else:
        one, probes = scalar_values(kind, ok if judges else None, rules.get("inf"))
    if spec.many:
        a, b = probes
        one = passing(one, each, path) if each else one
        size = dict(min_size=0 if accepts(check, (), path) else 1, max_size=4)
        if not accepts(check, (b, a), path):
            one = st.lists(one, unique=True, **size).map(sorted)
        elif not accepts(check, (a, a), path):
            one = st.lists(one, unique=True, **size)
        else:
            one = st.lists(one, **size) | st.lists(one, unique=True, **size).map(sorted)
        one = one.map(tuple)
    one = passing(one, check, path) if check else one
    return st.none() | one if spec.nullable else one


IDX_FILES = ("train_images", "train_labels", "test_images", "test_labels")


def dataset_sections(path: str):
    """Valid dataset sections by construction: ``kind`` first, then every
    field as that kind allows it. A synthetic set draws each field through
    its ``synth`` rule and ``limit`` 0; an IDX set draws non-empty file
    names and leaves the synthetic fields to their type and ``check``."""
    specs = {s.field.name: s for s in _schema(DatasetCfg)}

    def of_kind(kind):
        fields = {}
        for name, spec in specs.items():
            at = f"{path}.{name}"
            if name == "kind":
                one = st.just(kind)
            elif kind == "synth" and name == "limit":
                one = st.just(0)
            elif kind == "idx" and name in IDX_FILES:
                one = st.text(min_size=1, max_size=8)
            else:
                synth = spec.field.metadata.get("synth") if kind == "synth" else None
                one = field_values(spec, at, synth)
            fields[name] = one
        return st.fixed_dictionaries(fields).map(lambda values: DatasetCfg(**values))

    return field_values(specs["kind"], f"{path}.kind").flatmap(of_kind)


def sections(cls, path: str = ""):
    """Valid instances of a config section, built field by field from its schema."""
    if cls is DatasetCfg:
        return dataset_sections(path)
    fields = {
        s.field.name: field_values(s, f"{path}.{s.field.name}".lstrip("."))
        for s in _schema(cls)
    }
    return st.fixed_dictionaries(fields).map(lambda values: cls(**values))


class TestSerialization:
    def test_inf_survives_round_trip(self):
        cfg = parse_config(MINIMAL)
        doc = cfg.to_json_dict()
        assert doc["personalization"]["lambdas"][-1] == "inf"
        json.dumps(doc)  # must be JSON-safe

    def test_execution_fields_dropped(self):
        cfg = parse_config(MINIMAL)
        doc = cfg.to_json_dict(include_execution=False)
        assert "out_dir" not in doc
        assert "threads" not in doc["federation"]
        full = cfg.to_json_dict(include_execution=True)
        assert "out_dir" in full and "threads" in full["federation"]


class TestRoundTrip:
    @pytest.mark.parametrize("obj", [MINIMAL, FULL], ids=["minimal", "full"])
    def test_json_round_trip(self, obj):
        cfg = parse_config(obj)
        assert parse_config(json.loads(json.dumps(cfg.to_json_dict()))) == cfg

    def test_full_config_leaves_no_default(self):
        cfg = parse_config(FULL)
        for name in SECTIONS:
            section = getattr(cfg, name)
            for f in dataclasses.fields(section):
                assert getattr(section, f.name) != f.default, f"{name}.{f.name}"
        assert cfg.seeds != ExperimentConfig.seeds and cfg.out_dir != ExperimentConfig.out_dir

    @settings(deadline=None, max_examples=50, derandomize=True)  # each draws ~50 fields
    @given(sections(ExperimentConfig))
    def test_generated_config_round_trip(self, cfg):
        assert parse_config(json.loads(json.dumps(cfg.to_json_dict()))) == cfg

    @pytest.mark.parametrize("name", SECTIONS)
    def test_empty_section_is_defaults(self, name):
        body = {"kind": "synth"} if name == "dataset" else {}
        cfg = parse_config({**MINIMAL, name: body})
        assert getattr(cfg, name) == type(getattr(DEFAULTS, name))(**body)


def write_json(tmp_path, obj) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))  # writes NaN and Infinity as JSON literals
    return str(path)


class TestNonFinite:
    @pytest.mark.parametrize(
        "section, body, path",
        [
            ("personalization", {"lambdas": [0, math.nan]}, "personalization.lambdas[1]"),
            ("optimizer", {"lr_initial": math.nan}, "optimizer.lr_initial"),
            ("optimizer", {"weight_decay": math.nan}, "optimizer.weight_decay"),
            ("optimizer", {"h0": math.inf}, "optimizer.h0"),
            ("optimizer", {"clip_radius": math.nan}, "optimizer.clip_radius"),
            ("dataset", {"kind": "synth", "spread": math.inf}, "dataset.spread"),
            ("partition", {"beta": math.nan}, "partition.beta"),
            ("federation", {"frozen_var": math.inf}, "federation.frozen_var"),
        ],
    )
    def test_rejected_with_field_path(self, tmp_path, section, body, path):
        with pytest.raises(ConfigError) as exc:
            load_config(write_json(tmp_path, with_section(section, body)))
        assert exc.value.path == path
        assert "finite" in str(exc.value)

    @pytest.mark.parametrize("top", ["inf", math.inf], ids=["string", "literal"])
    def test_lambda_accepts_infinity(self, tmp_path, top):
        path = write_json(tmp_path, with_section("personalization", {"lambdas": [0, top]}))
        cfg = load_config(path)
        assert cfg.personalization.lambdas == (0.0, math.inf)


class TestLoadConfig:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = load_config(str(path))
        assert cfg.dataset.kind == "synth"
