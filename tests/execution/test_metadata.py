"""Tests for the metadata/data store."""

import random

import pytest

from repro.dataflow import OpGraph, ResourceType
from repro.execution import MetadataStore, estimate_payload_mb


def test_estimate_payload_mb():
    assert estimate_payload_mb(None) == 0.0
    assert estimate_payload_mb([1, 2, 3], mb_per_element=0.5) == 1.5
    assert estimate_payload_mb({0: [1, 2], 1: [3]}, mb_per_element=1.0) == 3.0
    assert estimate_payload_mb((1, 2), mb_per_element=2.0) == 4.0
    assert estimate_payload_mb(42, mb_per_element=0.1) == 0.1


def test_load_inputs_and_queries():
    g = OpGraph()
    d = g.create_data(3, "in")
    g.set_input(d, [10.0, 20.0, 30.0])
    meta = MetadataStore()
    meta.load_inputs(d)
    assert meta.size(d, 0) == 10.0
    assert sum(meta.size(d, i) for i in range(3)) == 60.0
    assert meta.get(d, 1).location is None
    assert meta.has(d, 2)


def test_get_missing_partition_raises():
    g = OpGraph()
    d = g.create_data(2, "x")
    meta = MetadataStore()
    with pytest.raises(KeyError):
        meta.get(d, 0)


def test_record_size_only():
    g = OpGraph()
    d = g.create_data(2)
    meta = MetadataStore()
    meta.record(d, 0, 12.5, location=3)
    rec = meta.get(d, 0)
    assert rec.size_mb == 12.5
    assert rec.location == 3
    assert rec.payload is None


def test_record_list_payload_sets_size():
    g = OpGraph()
    d = g.create_data(1)
    meta = MetadataStore(mb_per_element=0.5)
    meta.record(d, 0, 0.0, location=1, payload=[1, 2, 3, 4])
    assert meta.size(d, 0) == 2.0
    assert meta.get(d, 0).payload == [1, 2, 3, 4]


def _shuffle(g, src, width, weights=None):
    net = g.create_op(ResourceType.NETWORK, "sh").read(src).create(g.create_data(width))
    if weights is not None:
        net.set_shard_weights(weights)
    return net


def test_record_sharded_payload_sets_shard_sizes():
    g = OpGraph()
    d = g.create_data(1)
    net = _shuffle(g, d, 4)
    meta = MetadataStore(mb_per_element=1.0)
    meta.record(d, 0, 0.0, location=0, payload={0: [1, 2], 2: [3]})
    assert meta.size(d, 0) == 3.0
    assert meta.pull_sources(net, 0, num_machines=2) == [(0, 2.0)]
    assert meta.pull_sources(net, 1, num_machines=2) == [(0, 0.0)]
    assert meta.pull_sources(net, 2, num_machines=2) == [(0, 1.0)]
    assert meta.gather_shards(net, 2) == [3]
    assert meta.gather_shards(net, 1) == []


def test_shard_size_uniform_and_weighted():
    g = OpGraph()
    d = g.create_data(1)
    uniform = _shuffle(g, d, 4)
    weighted = _shuffle(g, d, 4, [1.0, 3.0, 0.0, 0.0])
    meta = MetadataStore()
    meta.record(d, 0, 100.0, location=0)
    assert meta.pull_sources(uniform, 0, num_machines=2) == [(0, 25.0)]
    assert meta.pull_sources(weighted, 1, num_machines=2) == [(0, 75.0)]
    assert meta.gather_shards(uniform, 0) is None


def test_pull_sources_locations_and_shards():
    g = OpGraph()
    src = g.create_data(2, "msg")
    net = _shuffle(g, src, 2)
    meta = MetadataStore()
    meta.record(src, 0, 40.0, location=0)
    meta.record(src, 1, 60.0, location=1)
    sources = meta.pull_sources(net, 0, num_machines=4)
    assert sources == [(0, 20.0), (1, 30.0)]


def test_pull_sources_external_input_round_robin():
    g = OpGraph()
    src = g.create_data(3, "in")
    g.set_input(src, [30.0, 30.0, 30.0])
    net = _shuffle(g, src, 1)
    meta = MetadataStore()
    meta.load_inputs(src)
    sources = meta.pull_sources(net, 0, num_machines=2)
    # the 'HDFS' partitions sit on machines 0, 1, 0: one entry per machine
    assert sources == [(0, 60.0), (1, 30.0)]


def _reference_pull(meta, net, k, num_machines):
    """The per-partition pull: one (machine, MB) entry per source partition."""
    weights = net.shard_weights
    out = []
    for h in net.reads:
        for i in range(h.num_partitions):
            rec = meta.get(h, i)
            if isinstance(rec.payload, dict):
                size = estimate_payload_mb(rec.payload.get(k), meta.mb_per_element)
            elif weights is not None:
                size = rec.size_mb * weights[k] / sum(weights)
            else:
                size = rec.size_mb / net.parallelism
            out.append((i % num_machines if rec.location is None else rec.location, size))
    return out


def _random_job(rng, num_machines, kind, weighted):
    """Two read datasets of one shuffle — a produced one (``kind``: size-only,
    list or sharded payloads) on random machines and an external input —
    and a builder that fills a fresh store."""
    g = OpGraph()
    width = rng.randint(1, 12)
    produced = g.create_data(rng.randint(1, 40), "produced")
    ext = g.create_data(rng.randint(1, 20), "ext")
    ext_payloads = None
    if kind == "sharded":
        ext_payloads = [
            {j: list(range(rng.randint(0, 5))) for j in range(width) if rng.random() < 0.7}
            for _ in range(ext.num_partitions)
        ]
    g.set_input(ext, [rng.uniform(0.0, 50.0) for _ in range(ext.num_partitions)], ext_payloads)
    net = g.create_op(ResourceType.NETWORK, "sh").read(produced, ext).create(g.create_data(width))
    if weighted:
        net.set_shard_weights([rng.uniform(0.1, 5.0) for _ in range(width)])
    writes = []
    for i in range(produced.num_partitions):
        payload = None
        if kind == "list":
            payload = list(range(rng.randint(0, 9)))
        elif kind == "sharded":
            payload = {j: list(range(rng.randint(0, 5))) for j in range(width)}
        writes.append((i, rng.uniform(0.0, 100.0), rng.randrange(num_machines), payload))

    def build():
        meta = MetadataStore(mb_per_element=0.25)
        meta.load_inputs(ext)
        for i, size, loc, payload in writes:
            meta.record(produced, i, size, loc, payload)
        return meta

    return net, writes, produced, build


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("kind", ["size", "list", "sharded"])
def test_pull_sources_match_per_partition_reference(kind, weighted, seed):
    rng = random.Random(seed)
    num_machines = rng.randint(1, 9)
    net, writes, produced, build = _random_job(rng, num_machines, kind, weighted)
    meta = build()
    for k in range(net.parallelism):
        pulled = meta.pull_sources(net, k, num_machines)
        assert len(pulled) <= num_machines
        machines = [m for m, _mb in pulled]
        assert machines == sorted(set(machines))
        expected: dict[int, float] = {}
        for m, mb in _reference_pull(meta, net, k, num_machines):
            expected[m] = expected.get(m, 0.0) + mb
        assert machines == sorted(expected)
        for m, mb in pulled:
            assert mb == pytest.approx(expected[m], rel=1e-12, abs=1e-12)
    # a pull after a machine dies and its partitions are re-recorded equals a
    # pull from a freshly built store (the memoised fold is rebuilt)
    dead = writes[0][2]
    dropped = meta.invalidate_machine(dead)
    assert dropped == sorted(
        (produced.data_id, i) for i, _s, loc, _p in writes if loc == dead
    )
    with pytest.raises(KeyError):
        meta.pull_sources(net, 0, num_machines)
    for i, size, loc, payload in writes:
        if loc == dead:
            meta.record(produced, i, size, loc, payload)
    fresh = build()
    for k in range(net.parallelism):
        assert meta.pull_sources(net, k, num_machines) == fresh.pull_sources(net, k, num_machines)
        assert meta.gather_shards(net, k) == fresh.gather_shards(net, k)
