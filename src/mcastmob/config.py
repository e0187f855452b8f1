"""Experiment configuration: JSON scenario documents and the reference suite."""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import get_type_hints

from .handoff import STRATEGIES, HandoffConfig, HandoffError
from .movement import MODEL_KINDS
from .topology import GenerationError, GeneratorParams


class ConfigError(Exception):
    """Invalid or inconsistent scenario configuration."""


def stable_seed(*parts) -> int:
    """64-bit seed derived by hashing the parts; stable across runs and platforms."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# Topology names and types become report file names and CSV cells.
_LABEL = re.compile(r"[A-Za-z0-9_.-]+")


def _check_counts(obj, *names):
    """ConfigError unless each field is an int >= 1 (a float or a bool is no count)."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int or value < 1:
            raise ConfigError(f"{name} must be an integer >= 1, not {value!r}")


@dataclass(frozen=True)
class TopologySpec:
    """One topology to simulate: either an edge-list file or generator params."""

    name: str
    topo_type: str = "unknown"
    file: str | None = None
    generator: GeneratorParams | None = None

    def __post_init__(self):
        for key, label in (("name", self.name), ("type", self.topo_type)):
            if not (isinstance(label, str) and _LABEL.fullmatch(label)):
                raise ConfigError(f"topology {key} {label!r} must match [A-Za-z0-9_.-]+")
        if (self.file is None) == (self.generator is None):
            raise ConfigError(f"topology {self.name!r}: give exactly one of file/generator")


@dataclass(frozen=True)
class HandoffBlock(HandoffConfig):
    """Handoff sweep settings: the wire every handoff shares, and what the sweep covers.

    The block is itself the simulators' config: the sweep passes it with
    each row's strategy and seed.
    """

    strategies: tuple[str, ...] = STRATEGIES
    include_mobile_ip: bool = True
    max_moves: int = 20
    runs: int = 1

    def __post_init__(self):
        _check_counts(self, "max_moves", "runs")
        if type(self.include_mobile_ip) is not bool:
            raise ConfigError(f"include_mobile_ip must be true or false, not "
                              f"{self.include_mobile_ip!r}")
        bad = [s for s in self.strategies if s not in STRATEGIES]
        if bad or not self.strategies:
            raise ConfigError(f"invalid handoff strategies {bad or self.strategies}")
        if len(set(self.strategies)) != len(self.strategies):  # each row would repeat
            raise ConfigError(f"handoff strategies must be unique, not {list(self.strategies)}")
        try:
            super().__post_init__()
        except HandoffError as exc:
            raise ConfigError(f"handoff block: {exc}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of a full experiment matrix."""

    topologies: tuple[TopologySpec, ...]
    name: str = "scenario"
    master_seed: int = 0
    moves_per_run: int = 100
    seeds_per_scenario: int = 10
    movement_models: tuple[str, ...] = MODEL_KINDS
    cluster_radius: int = 6
    endpoint_policy: str = "per_run"
    handoff: HandoffBlock | None = None
    output_dir: str = "report"

    def __post_init__(self):
        if not self.topologies:
            raise ConfigError("at least one topology is required")
        names = [t.name for t in self.topologies]
        if len(set(names)) != len(names):
            raise ConfigError("topology names must be unique")
        if not self.movement_models:
            raise ConfigError("at least one movement model is required")
        bad = [m for m in self.movement_models if m not in MODEL_KINDS]
        if bad:
            raise ConfigError(f"unknown movement models {bad}")
        if len(set(self.movement_models)) != len(self.movement_models):  # each run would repeat
            raise ConfigError(f"movement models must be unique, not {list(self.movement_models)}")
        _check_counts(self, "moves_per_run", "seeds_per_scenario", "cluster_radius")
        if self.endpoint_policy not in ("per_run", "per_topology"):
            raise ConfigError(f"unknown endpoint_policy {self.endpoint_policy!r}")
        # a window of one id is a chain that ends at the node just above the CN
        if "cluster" in self.movement_models and self.cluster_radius < 2:
            raise ConfigError("cluster_radius must be >= 2 for the cluster model")

    def to_dict(self):
        doc = asdict(self)
        doc["topologies"] = [
            {_JSON_KEYS.get(k, k): v for k, v in asdict(t).items() if v is not None}
            for t in self.topologies
        ]
        if self.handoff is None:
            doc.pop("handoff")
        return doc

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def sha256(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


# The JSON key of each field named otherwise in its dataclass.
_JSON_KEYS = {"topo_type": "type"}

# What a field of each annotation takes from JSON, and how a message names it.
# An int field takes any number here: the classes' own integer checks run
# first and keep their messages, and `_build` holds the rest to integers.
_JSON_TYPES = {
    int: ("an integer", lambda v: type(v) in (int, float)),
    float: ("a number", lambda v: type(v) is float
            or type(v) is int and abs(v) <= sys.float_info.max),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    str | None: ("a string or null", lambda v: v is None or type(v) is str),
    tuple[str, ...]: ("an array of strings",
                      lambda v: type(v) is list and all(type(s) is str for s in v)),
}

_hints = functools.cache(get_type_hints)


def _object(doc, where):
    if type(doc) is not dict:
        raise ConfigError(f"{where} must be a JSON object, not {doc!r}")
    return doc


def _build(cls, doc, where, **nested):
    """The `cls` dataclass built from its JSON object; ConfigError naming `where`.

    The dataclass fields are the schema: an absent key keeps the field's
    default and a JSON array becomes a tuple. `nested` gives the fields
    whose objects the caller built.
    """
    names = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
    unknown = sorted(set(_object(doc, where)) - set(names))
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}")
    hints = _hints(cls)
    given = [(key, names[key], value) for key, value in doc.items() if names[key] not in nested]
    for key, name, value in given:
        expected, fits = _JSON_TYPES[hints[name]]
        if not fits(value):
            raise ConfigError(f"{where}: {key} must be {expected}, not {value!r}")
    try:
        obj = cls(**{name: tuple(v) if type(v) is list else v for _, name, v in given}, **nested)
    except (TypeError, GenerationError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    for key, name, value in given:
        if hints[name] is int and type(value) is not int:
            raise ConfigError(f"{where}: {key} must be an integer, not {value!r}")
    return obj


def from_dict(doc) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed JSON document."""
    topo_docs = _object(doc, "config").get("topologies")
    if type(topo_docs) is not list or not topo_docs:
        raise ConfigError("'topologies' must be a non-empty list")
    master_seed = doc.get("master_seed", ScenarioConfig.master_seed)  # checked by _build below
    specs = []
    for td in topo_docs:
        where = f"topology {_object(td, 'topology').get('name')!r}"
        gen = td.get("generator")
        if gen is not None:
            # the document may still give the seed the master seed would derive
            seed = stable_seed(master_seed, "topology", td.get("name"))
            gen = _build(GeneratorParams, {"seed": seed, **_object(gen, f"{where} generator")},
                         f"{where} generator")
        specs.append(_build(TopologySpec, td, where, generator=gen))
    handoff = doc.get("handoff")
    return _build(
        ScenarioConfig, doc, "config", topologies=tuple(specs),
        handoff=None if handoff is None else _build(HandoffBlock, handoff, "handoff block"),
    )


def from_json(text) -> ScenarioConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return from_dict(doc)


def load(path) -> ScenarioConfig:
    """The config file at `path`; a relative topology `file` is taken from its directory."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    base = os.path.dirname(path)
    specs = tuple(spec if spec.file is None else replace(spec, file=os.path.join(base, spec.file))
                  for spec in cfg.topologies)
    return replace(cfg, topologies=specs)


# Table of generator stand-ins for the published topology suite:
# (name, type, kind, nodes, target average degree).
REFERENCE_SUITE = (
    ("r50", "random", "flat_random", 50, 8.68),
    ("r100", "random", "flat_random", 100, 19.0),
    ("r150", "random", "flat_random", 150, 29.15),
    ("r200", "random", "flat_random", 200, 39.93),
    ("r250", "random", "flat_random", 250, 49.68),
    ("ts50", "transit_stub", "transit_stub", 50, 3.63),
    ("ts100", "transit_stub", "transit_stub", 100, 3.7),
    ("ts150", "transit_stub", "transit_stub", 150, 3.71),
    ("ts200", "transit_stub", "transit_stub", 200, 3.72),
    ("ts250", "transit_stub", "transit_stub", 250, 3.72),
    ("ts300", "transit_stub", "transit_stub", 300, 3.73),
    ("ts1000", "transit_stub", "transit_stub", 1000, 3.64),
    ("ti1000", "tiers", "tiers_like", 1000, 2.81),
)


def reference_suite_config(master_seed=7, seeds=10, moves=100, output_dir="report",
                           handoff=None) -> ScenarioConfig:
    """The generator stand-in suite: 13 topologies x 3 movement models."""
    cfg = from_dict({
        "topologies": [{"name": name, "type": ttype, "generator": {
            "kind": kind, "node_count": nodes, "target_avg_degree": deg}}
            for name, ttype, kind, nodes, deg in REFERENCE_SUITE],
        "name": "reference_suite",
        "master_seed": master_seed,
        "moves_per_run": moves,
        "seeds_per_scenario": seeds,
        "output_dir": output_dir,
    })
    return replace(cfg, handoff=handoff)
