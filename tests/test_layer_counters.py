"""``RunMetrics.layer_counters`` telescopes to the components' own
``int`` attributes, and nothing else feeds it."""

import pytest

from repro.bench.scenarios import Scenario, build_engine
from repro.comm import LAYER_NAMES, make_layers
from repro.netapi.nic import Fabric
from repro.obs import CommStatsContext, ProfileContext
from repro.sim.engine import Environment
from repro.sim.machine import stampede2

CELLS = [
    ("abelian", "lci", None),
    ("abelian", "mpi-probe", None),
    ("abelian", "mpi-rma", None),
    ("gemini", "lci", None),
    ("abelian", "lci", "drop-5pct"),
]


def _components(layer):
    """A host's layer and every library object it owns."""
    library = getattr(layer, "rt", None) or layer.ep
    link = getattr(library, "reliability", None)
    return [layer, library] + ([link] if link is not None else [])


@pytest.mark.parametrize("system, layer, plan", CELLS)
def test_layer_counters_telescope_to_component_attributes(system, layer, plan):
    sc = Scenario(app="bfs", graph="rmat", scale=9, hosts=4, layer=layer,
                  system=system, fault_plan=plan)
    commstats, profile = CommStatsContext(), ProfileContext()
    eng = build_engine(sc, commstats=commstats, profile=profile)
    m = eng.run()

    assert m.layer_counters
    for name, value in m.layer_counters.items():
        assert type(value) is int and value > 0, name
        owners = [[c for c in _components(l) if hasattr(c, name)]
                  for l in eng.layers]
        assert [len(o) for o in owners] == [1] * sc.hosts, name
        assert value == sum(getattr(o[0], name) for o in owners), name
    # One rule: a declared name is present once its count is non-zero.
    for name in eng.layers[0].counters():
        total = sum(l.counters()[name] for l in eng.layers)
        assert m.layer_counters.get(name, 0) == total, name
    if plan is not None:
        assert m.layer_counters["rel_sends"] >= m.layer_counters["acks"] > 0

    assert m.blobs_sent > 0
    assert m.blobs_sent == (m.layer_counters.get("blobs_sent", 0)
                            + m.layer_counters.get("puts", 0))
    injected = eng.fabric.total("pkts_sent")
    assert injected == commstats.comm_doc()["totals"]["wire_msgs"]
    assert injected == profile.counters_dict()["netapi.pkts_injected"]


def _layer(name):
    env, machine = Environment(), stampede2()
    return make_layers(name, env, Fabric(env, 2, machine), machine)[0]


@pytest.mark.parametrize("name", LAYER_NAMES)
def test_every_declared_counter_starts_as_an_int_zero(name):
    layer = _layer(name)
    counts = layer.counters()
    assert set(layer.COUNTERS) < set(counts)  # its own and its library's
    assert all(type(v) is int and v == 0 for v in counts.values()), counts


def test_counters_name_that_is_not_an_attribute_raises():
    layer = _layer("lci")
    layer.rt.COUNTERS += ("egr_sendz",)  # declared after construction
    with pytest.raises(AttributeError, match="egr_sendz"):
        layer.counters()
