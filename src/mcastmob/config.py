"""Experiment configuration: JSON scenario documents and the reference suite."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass

from .handoff import STRATEGIES, HandoffConfig, HandoffError
from .movement import MODEL_KINDS
from .topology import GENERATOR_KINDS, GeneratorParams


class ConfigError(Exception):
    """Invalid or inconsistent scenario configuration."""


def stable_seed(*parts) -> int:
    """64-bit seed derived by hashing the parts; stable across runs and platforms."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# Topology names and types become report file names and CSV cells.
_LABEL = re.compile(r"[A-Za-z0-9_.-]+")


def _check_counts(obj, *fields):
    """ConfigError unless each field is an int >= 1 (a float or a bool is no count)."""
    for name in fields:
        value = getattr(obj, name)
        if type(value) is not int or value < 1:
            raise ConfigError(f"{name} must be an integer >= 1, not {value!r}")


@dataclass(frozen=True)
class TopologySpec:
    """One topology to simulate: either an edge-list file or generator params."""

    name: str
    topo_type: str
    file: str | None = None
    generator: GeneratorParams | None = None

    def __post_init__(self):
        for key, label in (("name", self.name), ("type", self.topo_type)):
            if not (isinstance(label, str) and _LABEL.fullmatch(label)):
                raise ConfigError(f"topology {key} {label!r} must match [A-Za-z0-9_.-]+")
        if (self.file is None) == (self.generator is None):
            raise ConfigError(f"topology {self.name!r}: give exactly one of file/generator")


@dataclass(frozen=True)
class HandoffBlock:
    """Handoff sweep settings; strategy is swept, everything else is shared."""

    per_hop_delay: float = 10.0
    packet_interval: float = 20.0
    message_loss_rate: float = 0.0
    advance_lead: float = 100.0
    overlap: str = "make_before_break"
    refresh_period: float = 60_000.0
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
        try:
            self.handoff_config("plain_join", 0)
        except HandoffError as exc:
            raise ConfigError(f"handoff block: {exc}") from exc

    def handoff_config(self, strategy, seed) -> HandoffConfig:
        """The simulator settings of one handoff: the shared wire fields plus its own."""
        return HandoffConfig(
            per_hop_delay=self.per_hop_delay,
            packet_interval=self.packet_interval,
            message_loss_rate=self.message_loss_rate,
            strategy=strategy,
            advance_lead=self.advance_lead,
            overlap=self.overlap,
            refresh_period=self.refresh_period,
            seed=seed,
        )


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
        _check_counts(self, "moves_per_run", "seeds_per_scenario", "cluster_radius")
        if self.endpoint_policy not in ("per_run", "per_topology"):
            raise ConfigError(f"unknown endpoint_policy {self.endpoint_policy!r}")
        # a window of one id is a chain that ends at the node just above the CN
        if "cluster" in self.movement_models and self.cluster_radius < 2:
            raise ConfigError("cluster_radius must be >= 2 for the cluster model")

    def to_dict(self):
        doc = asdict(self)
        topo_docs = []
        for t in self.topologies:
            td = {k: v for k, v in asdict(t).items() if v is not None}
            td["type"] = td.pop("topo_type")  # JSON schema key
            topo_docs.append(td)
        doc["topologies"] = topo_docs
        if self.handoff is None:
            doc.pop("handoff")
        return doc

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def sha256(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _generator_from_dict(doc, topo_name, master_seed):
    known = {"kind", "node_count", "target_avg_degree", "seed", "stub_size", "stubs_per_transit"}
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"topology {topo_name!r}: unknown generator keys {sorted(extra)}")
    if doc.get("kind") not in GENERATOR_KINDS:
        raise ConfigError(f"topology {topo_name!r}: unknown generator kind {doc.get('kind')!r}")
    args = dict(doc)
    args.setdefault("seed", stable_seed(master_seed, "topology", topo_name))
    try:
        return GeneratorParams(**args)
    except Exception as exc:
        raise ConfigError(f"topology {topo_name!r}: {exc}") from exc


def from_dict(doc) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    known = {
        "name", "master_seed", "moves_per_run", "seeds_per_scenario", "movement_models",
        "cluster_radius", "endpoint_policy", "topologies", "handoff", "output_dir",
    }
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"unknown config keys {sorted(extra)}")
    master_seed = doc.get("master_seed", 0)
    topo_docs = doc.get("topologies")
    if not isinstance(topo_docs, list) or not topo_docs:
        raise ConfigError("'topologies' must be a non-empty list")
    specs = []
    for td in topo_docs:
        if not isinstance(td, dict) or "name" not in td:
            raise ConfigError(f"bad topology entry {td!r}")
        gen = td.get("generator")
        try:
            specs.append(
                TopologySpec(
                    name=td["name"],
                    topo_type=td.get("type", "unknown"),
                    file=td.get("file"),
                    generator=(
                        _generator_from_dict(gen, td["name"], master_seed)
                        if gen is not None
                        else None
                    ),
                )
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"topology {td.get('name')!r}: {exc}") from exc
    handoff_doc = doc.get("handoff")
    handoff_block = None
    if handoff_doc is not None:
        try:
            hd = dict(handoff_doc)
            if "strategies" in hd:
                hd["strategies"] = tuple(hd["strategies"])
            handoff_block = HandoffBlock(**hd)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"handoff block: {exc}") from exc
    try:
        return ScenarioConfig(
            topologies=tuple(specs),
            name=doc.get("name", "scenario"),
            master_seed=master_seed,
            moves_per_run=doc.get("moves_per_run", 100),
            seeds_per_scenario=doc.get("seeds_per_scenario", 10),
            movement_models=tuple(doc.get("movement_models", MODEL_KINDS)),
            cluster_radius=doc.get("cluster_radius", 6),
            endpoint_policy=doc.get("endpoint_policy", "per_run"),
            handoff=handoff_block,
            output_dir=doc.get("output_dir", "report"),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from exc


def from_json(text) -> ScenarioConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return from_dict(doc)


def load(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


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
    specs = tuple(
        TopologySpec(
            name=name,
            topo_type=ttype,
            generator=GeneratorParams(
                kind=kind,
                node_count=nodes,
                target_avg_degree=deg,
                seed=stable_seed(master_seed, "topology", name),
            ),
        )
        for name, ttype, kind, nodes, deg in REFERENCE_SUITE
    )
    return ScenarioConfig(
        topologies=specs,
        name="reference_suite",
        master_seed=master_seed,
        moves_per_run=moves,
        seeds_per_scenario=seeds,
        handoff=handoff,
        output_dir=output_dir,
    )
