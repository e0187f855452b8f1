"""Scenario configuration parsing and validation."""

import pytest

from mcastmob.config import (
    ConfigError,
    HandoffBlock,
    ScenarioConfig,
    TopologySpec,
    from_json,
    reference_suite_config,
    stable_seed,
)
from mcastmob.topology import GeneratorParams

MINIMAL = """
{
  "topologies": [
    {"name": "g", "type": "random",
     "generator": {"kind": "flat_random", "node_count": 12, "target_avg_degree": 3.0}}
  ]
}
"""


def test_minimal_document_defaults():
    cfg = from_json(MINIMAL)
    assert cfg.moves_per_run == 100
    assert cfg.seeds_per_scenario == 10
    assert cfg.movement_models == ("random", "neighbor", "cluster")
    assert cfg.topologies[0].generator.kind == "flat_random"
    assert cfg.handoff is None


def test_generator_seed_derived_from_master_seed():
    a = from_json(MINIMAL)
    b = from_json(MINIMAL.replace('"topologies"', '"master_seed": 9, "topologies"', 1))
    assert a.topologies[0].generator.seed != b.topologies[0].generator.seed
    assert b.topologies[0].generator.seed == stable_seed(9, "topology", "g")


def test_canonical_json_is_stable():
    cfg = from_json(MINIMAL)
    assert cfg.canonical_json() == from_json(MINIMAL).canonical_json()
    assert cfg.sha256() == from_json(MINIMAL).sha256()


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        ('{"topologies": []}', "non-empty list"),
        ('{"topologies": [{"name": "x"}]}', "exactly one of file/generator"),
        ('{"topologies": [{"name": "x", "file": "f", "generator": {"kind": "flat_random", '
         '"node_count": 5, "target_avg_degree": 3}}]}', "exactly one"),
        ('{"unknown_key": 1, "topologies": [{"name": "x", "file": "f"}]}', "unknown config keys"),
        ('{"movement_models": ["walk"], "topologies": [{"name": "x", "file": "f"}]}',
         "unknown movement models"),
        ('{"moves_per_run": 0, "topologies": [{"name": "x", "file": "f"}]}', "moves_per_run"),
        ('{"seeds_per_scenario": 0, "topologies": [{"name": "x", "file": "f"}]}', "seeds"),
        ('{"endpoint_policy": "sometimes", "topologies": [{"name": "x", "file": "f"}]}',
         "endpoint_policy"),
        ('{"topologies": [{"name": "x", "file": "a"}, {"name": "x", "file": "b"}]}', "unique"),
        ('{"handoff": {"strategies": ["warp"]}, "topologies": [{"name": "x", "file": "f"}]}',
         "strategies"),
        ('{"handoff": {"message_loss_rate": 1.5}, "topologies": [{"name": "x", "file": "f"}]}',
         "message_loss_rate"),
        ('{"handoff": {"per_hop_delay": 0}, "topologies": [{"name": "x", "file": "f"}]}',
         "must be positive"),
        ('{"handoff": {"refresh_period": 0}, "topologies": [{"name": "x", "file": "f"}]}',
         "must be positive"),
        ('{"handoff": {"advance_lead": -1}, "topologies": [{"name": "x", "file": "f"}]}',
         "advance_lead"),
        ('{"handoff": {"per_hop_delay": NaN}, "topologies": [{"name": "x", "file": "f"}]}',
         "finite"),
        ('{"handoff": {"advance_lead": Infinity}, "topologies": [{"name": "x", "file": "f"}]}',
         "advance_lead"),
        ('{"cluster_radius": 1, "topologies": [{"name": "x", "file": "f"}]}', "cluster_radius"),
        ('{"movement_models": ["cluster"], "cluster_radius": 0, '
         '"topologies": [{"name": "x", "file": "f"}]}', "cluster_radius"),
        ('{"topologies": [{"name": "../../escaped", "file": "f"}]}', "topology name"),
        ('{"topologies": [{"name": "x", "type": "x,y", "file": "f"}]}', "topology type"),
        ('{"topologies": [{"name": "", "file": "f"}]}', "topology name"),
        ('{"seeds_per_scenario": 2.5, "topologies": [{"name": "x", "file": "f"}]}',
         "seeds_per_scenario"),
        ('{"moves_per_run": 2.5, "topologies": [{"name": "x", "file": "f"}]}', "moves_per_run"),
        ('{"moves_per_run": true, "topologies": [{"name": "x", "file": "f"}]}', "moves_per_run"),
        ('{"cluster_radius": 2.5, "topologies": [{"name": "x", "file": "f"}]}', "cluster_radius"),
        ('{"movement_models": ["random"], "cluster_radius": 0, '
         '"topologies": [{"name": "x", "file": "f"}]}', "cluster_radius"),
        ('{"topologies": [{"name": "x", "generator": {"kind": "flat_random", '
         '"node_count": 20.5, "target_avg_degree": 3}}]}', "must be integers"),
        ('{"topologies": [{"name": "x", "generator": {"kind": "transit_stub", '
         '"node_count": 20, "target_avg_degree": 3, "stub_size": 2.5}}]}', "must be integers"),
        ('{"handoff": {"max_moves": 2.5}, "topologies": [{"name": "x", "file": "f"}]}',
         "max_moves"),
        ('{"handoff": {"runs": 1.5}, "topologies": [{"name": "x", "file": "f"}]}', "runs"),
        ('{"handoff": {"include_mobile_ip": "no"}, "topologies": [{"name": "x", "file": "f"}]}',
         "include_mobile_ip"),
        ("not json", "not valid JSON"),
    ],
)
def test_rejects_bad_documents(mutate, fragment):
    with pytest.raises(ConfigError, match=fragment):
        from_json(mutate)


def test_handoff_block_validation():
    with pytest.raises(ConfigError):
        HandoffBlock(overlap="diagonal")
    with pytest.raises(ConfigError):
        HandoffBlock(max_moves=0)
    block = HandoffBlock(strategies=("plain_join",))
    assert block.include_mobile_ip


def test_cluster_radius_is_free_without_the_cluster_model():
    doc = '{"movement_models": ["random"], "cluster_radius": 1, ' + MINIMAL.strip()[1:]
    assert from_json(doc).cluster_radius == 1


def test_topology_spec_requires_one_source():
    with pytest.raises(ConfigError):
        TopologySpec(name="x", topo_type="t")
    spec = TopologySpec(
        name="x", topo_type="t",
        generator=GeneratorParams("flat_random", 10, 3.0, seed=1),
    )
    assert spec.file is None


def test_stable_seed_is_stable():
    assert stable_seed(1, "a", 2) == stable_seed(1, "a", 2)
    assert stable_seed(1, "a", 2) != stable_seed(1, "a", 3)
    assert 0 <= stable_seed("x") < 2**64


def test_reference_suite_shape():
    cfg = reference_suite_config(master_seed=3, seeds=10, moves=100)
    assert len(cfg.topologies) == 13
    names = [t.name for t in cfg.topologies]
    assert names[0] == "r50" and "ts1000" in names and "ti1000" in names
    types = {t.topo_type for t in cfg.topologies}
    assert types == {"random", "transit_stub", "tiers"}
    assert cfg.movement_models == ("random", "neighbor", "cluster")
    assert cfg.seeds_per_scenario == 10


def test_round_trip_through_dict():
    cfg = reference_suite_config(master_seed=5, seeds=2, moves=10)
    doc = cfg.to_dict()
    import json

    rebuilt = from_json(json.dumps(doc))
    assert rebuilt.canonical_json() == cfg.canonical_json()
