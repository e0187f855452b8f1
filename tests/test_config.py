"""Scenario configuration parsing and validation."""

import hashlib
import json
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmob import experiment
from mcastmob.config import (
    ConfigError,
    HandoffBlock,
    ScenarioConfig,
    TopologySpec,
    from_json,
    load,
    reference_suite_config,
    stable_seed,
)
from mcastmob.topology import GeneratorParams

from conftest import key_paths

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


def test_generator_seed_without_a_master_seed_derives_from_0():
    assert from_json(MINIMAL).topologies[0].generator.seed == stable_seed(0, "topology", "g")


def test_a_document_without_a_master_seed_loads_as_master_seed_0():
    """The field's default is the master seed both of the run seeds and of the generator seeds."""
    explicit = from_json(MINIMAL.replace('"topologies"', '"master_seed": 0, "topologies"', 1))
    assert from_json(MINIMAL) == explicit
    assert explicit.master_seed == 0


def test_load_takes_a_relative_topology_file_from_the_config_directory(tmp_path):
    """Only a topology given by file is moved to the config's directory; a generated one has none."""
    doc = MINIMAL.replace('"topologies": [', '"topologies": [{"name": "f", "file": "edges.txt"},', 1)
    (tmp_path / "cfg.json").write_text(doc)
    cfg = load(str(tmp_path / "cfg.json"))
    assert [t.file for t in cfg.topologies] == [os.path.join(str(tmp_path), "edges.txt"), None]


def test_cluster_radius_2_is_the_least_the_cluster_model_takes():
    doc = '{"movement_models": ["cluster"], "cluster_radius": %d, ' + MINIMAL.strip()[1:]
    assert from_json(doc % 2).cluster_radius == 2
    with pytest.raises(ConfigError, match="cluster_radius must be >= 2 for the cluster model"):
        from_json(doc % 1)


def test_canonical_json_is_stable():
    cfg = from_json(MINIMAL)
    assert cfg.canonical_json() == from_json(MINIMAL).canonical_json()
    assert cfg.sha256() == from_json(MINIMAL).sha256()


def test_reference_suite_json_with_a_default_handoff_block_is_pinned():
    """The handoff block's JSON keys and defaults, byte for byte.

    A report's `config_sha256` is this digest, so a change to how the block
    is declared must not move it.
    """
    text = reference_suite_config(handoff=HandoffBlock()).canonical_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d9e881896597b9456431b02e7d11f0dbac6c70132854caea989ab99bd83e58ea"
    )


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
        ('{"movement_models": ["random", "random"], "topologies": [{"name": "x", "file": "f"}]}',
         "movement models must be unique"),
        ('{"handoff": {"strategies": ["plain_join", "plain_join"]}, '
         '"topologies": [{"name": "x", "file": "f"}]}', "handoff strategies must be unique"),
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
        ('{"master_seed": 2.5, "topologies": [{"name": "x", "file": "f"}]}',
         "master_seed must be an integer, not 2.5"),
        ('{"master_seed": "x", "topologies": [{"name": "x", "file": "f"}]}',
         "master_seed must be an integer, not 'x'"),
        ('{"master_seed": null, "topologies": [{"name": "x", "file": "f"}]}',
         "master_seed must be an integer, not None"),
        ('{"master_seed": [1], "topologies": [{"name": "x", "file": "f"}]}',
         r"master_seed must be an integer, not \[1\]"),
        ('{"name": 5, "topologies": [{"name": "x", "file": "f"}]}', "name must be a string"),
        ('{"handoff": {"per_hop_delay": true}, "topologies": [{"name": "x", "file": "f"}]}',
         "per_hop_delay must be a number, not True"),
        ('{"handoff": {"per_hop_delay": "x"}, "topologies": [{"name": "x", "file": "f"}]}',
         "per_hop_delay must be a number, not 'x'"),
        ('{"handoff": {"strategies": "plain_join"}, "topologies": [{"name": "x", "file": "f"}]}',
         "strategies must be an array of strings, not 'plain_join'"),
        ('{"movement_models": "random", "topologies": [{"name": "x", "file": "f"}]}',
         "movement_models must be an array of strings, not 'random'"),
        ('{"output_dir": 5, "topologies": [{"name": "x", "file": "f"}]}',
         "output_dir must be a string"),
        ('{"topologies": [{"name": "x", "generator": {"kind": "flat_random", '
         '"node_count": 20, "target_avg_degree": 3, "seed": "s"}}]}',
         "generator: seed must be an integer, not 's'"),
        ('{"topologies": [{"name": "x", "generator": {"kind": "flat_random", '
         '"node_count": 20, "target_avg_degree": null}}]}',
         "target_avg_degree must be a number, not None"),
        ('{"topologies": [{"name": "x", "generator": {"kind": "flat_random", '
         '"node_count": 20, "target_avg_degree": NaN}}]}', "target_avg_degree must be finite"),
        ('{"topologies": [{"name": "x", "generator": {"kind": "flat_random", '
         '"node_count": 20, "target_avg_degree": Infinity}}]}', "target_avg_degree must be finite"),
        ('{"topologies": [{"name": "x", "file": 7}]}', "file must be a string or null, not 7"),
        ('{"topologies": [{"name": "x", "file": "f", "size": 3}]}',
         r"unknown topology 'x' keys \['size'\]"),
        ('{"handoff": [], "topologies": [{"name": "x", "file": "f"}]}',
         "handoff block must be a JSON object"),
        pytest.param('{"handoff": {"per_hop_delay": 1%s}, "topologies": [{"name": "x", '
                     '"file": "f"}]}' % ("0" * 400), "per_hop_delay must be a number",
                     id="int_beyond_float_range"),
        # the largest float as an integer is a number, so the field's own check runs
        pytest.param('{"handoff": {"message_loss_rate": %d}, "topologies": [{"name": "x", '
                     '"file": "f"}]}' % int(sys.float_info.max),
                     r"message_loss_rate must be in \[0, 1\)", id="int_at_float_range"),
        ('{"handoff": {"strategies": []}, "topologies": [{"name": "x", "file": "f"}]}',
         r"^invalid handoff strategies \(\)$"),
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
    with pytest.raises(ConfigError, match="include_mobile_ip must be true or false, not 1"):
        HandoffBlock(include_mobile_ip=1)
    block = HandoffBlock(strategies=("plain_join",))
    assert block.include_mobile_ip


def test_a_scenario_needs_a_topology():
    with pytest.raises(ConfigError, match="at least one topology"):
        ScenarioConfig(topologies=())


def test_a_sweep_needs_a_handoff_block():
    cfg = ScenarioConfig(topologies=(TopologySpec(name="x", file="f"),))
    with pytest.raises(ValueError, match="no handoff block"):
        experiment.handoff_sweep(experiment.ExperimentResult(cfg, {}, (), None))


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


def test_round_trip_of_every_block():
    # an edge-list topology (the `type` key), the handoff block with an int
    # delay and non-default strategies, a generator with its own seed
    doc = {
        "name": "whole", "master_seed": 4, "endpoint_policy": "per_topology",
        "movement_models": ["cluster", "random"], "cluster_radius": 3,
        "topologies": [
            {"name": "e", "type": "measured", "file": "edges.txt"},
            {"name": "g", "generator": {"kind": "transit_stub", "node_count": 40,
                                        "target_avg_degree": 3.5, "seed": 17, "stub_size": 5}},
        ],
        "handoff": {"per_hop_delay": 5, "strategies": ["triple_join", "advance_join"],
                    "overlap": "break_before_make", "include_mobile_ip": False, "runs": 2},
    }
    cfg = from_json(json.dumps(doc))
    assert cfg.topologies[0].topo_type == "measured"
    assert cfg.topologies[1].topo_type == "unknown" and cfg.topologies[1].generator.seed == 17
    assert cfg.handoff.strategies == ("triple_join", "advance_join")
    assert type(cfg.handoff.per_hop_delay) is int
    assert from_json(json.dumps(cfg.to_dict())).canonical_json() == cfg.canonical_json()


@pytest.mark.parametrize("policy", ["per_run", "per_topology"])
def test_endpoint_policy(policy):
    doc = {
        "endpoint_policy": policy, "seeds_per_scenario": 4, "moves_per_run": 5,
        "topologies": [
            {"name": name, "generator": {"kind": "flat_random", "node_count": 30,
                                         "target_avg_degree": 4}}
            for name in ("a", "b")
        ],
    }
    result = experiment.execute_scenario(from_json(json.dumps(doc)))
    pairs = {}
    for run in result.runs:
        pairs.setdefault(run.record.topology, set()).add((run.cn, run.ha))
    assert len(result.runs) == 2 * 3 * 4
    if policy == "per_topology":  # one (cn, ha) for every run of a topology, across models
        assert all(len(p) == 1 for p in pairs.values())
        assert pairs["a"] != pairs["b"]
    else:  # drawn again for each run
        assert all(len(p) > 1 for p in pairs.values())


_REFERENCE = reference_suite_config(handoff=HandoffBlock()).to_dict()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(sorted(key_paths(_REFERENCE), key=repr)), value=_JSON_VALUES)
def test_a_reference_config_with_any_value_at_one_key_loads_or_raises_config_error(path, value):
    """Whatever JSON value one key holds, `from_json` returns a config or raises ConfigError."""
    doc = json.loads(json.dumps(_REFERENCE))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        cfg = from_json(json.dumps(doc))
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)

