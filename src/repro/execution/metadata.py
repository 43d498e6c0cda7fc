"""Per-job metadata store and data store (§4.1.3 "Metadata", §4.1.4).

The JM "maintains a metadata store that records the size and locality of each
dataset partition"; JPs keep the actual data.  In the simulation both live in
one :class:`MetadataStore` per job, which keeps each dataset's partitions as
columns: a size and a location per partition, and a payload only for the
partitions that carry real data (when the job runs actual UDFs).

Shuffle payloads: a CPU op feeding a shuffle produces *sharded* partitions —
a dict mapping the consumer's output-partition index to the items bound for
it.  A shuffle pull needs only the bytes each sender machine holds (the
receiver-side model of §4.2.3), so :meth:`MetadataStore.pull_sources` returns
one ``(machine, MB)`` pair per sender machine: the exact shard sizes for real
payloads, a weighted split of each machine's total otherwise.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from ..dataflow.graph import DataHandle, Op

__all__ = ["Partition", "MetadataStore", "estimate_payload_mb", "DEFAULT_MB_PER_ELEMENT"]

# Rough in-memory footprint of one deserialized record; only used to convert
# real payload sizes into simulated MB (tests pin behaviour, not realism).
DEFAULT_MB_PER_ELEMENT = 1e-4


def estimate_payload_mb(payload: Any, mb_per_element: float = DEFAULT_MB_PER_ELEMENT) -> float:
    """Estimate the MB footprint of a real partition payload."""
    if payload is None:
        return 0.0
    if isinstance(payload, dict):
        return sum(estimate_payload_mb(v, mb_per_element) for v in payload.values())
    if isinstance(payload, (list, tuple, set)):
        return max(len(payload) * mb_per_element, 0.0)
    return mb_per_element


class Partition(NamedTuple):
    """One recorded partition, as :meth:`MetadataStore.get` returns it."""

    size_mb: float
    location: Optional[int]   # machine index; None = external input (HDFS)
    payload: Any


class _Columns:
    """One dataset's partitions: ``size[i] is None`` until partition ``i`` is
    recorded; ``payload`` holds only partitions with real payloads; ``fold``
    memoises ``(num_machines, per-machine size totals)`` of a size-only
    dataset until its next write."""

    __slots__ = ("name", "size", "loc", "payload", "fold")

    def __init__(self, handle: DataHandle):
        self.name = handle.name
        self.size: list[Optional[float]] = [None] * handle.num_partitions
        self.loc: list[Optional[int]] = [None] * handle.num_partitions
        self.payload: dict[int, Any] = {}
        self.fold: Optional[tuple[int, list[tuple[int, float]]]] = None

    def placed(self, num_machines: int):
        """(partition, machine, size) of every partition; external inputs
        sit on a round-robin 'HDFS' machine."""
        for i, (size, loc) in enumerate(zip(self.size, self.loc)):
            if size is None:
                raise KeyError(f"partition {i} of dataset {self.name!r} not recorded yet")
            yield i, (i % num_machines if loc is None else loc), size

    def machine_totals(self, num_machines: int) -> list[tuple[int, float]]:
        """Sorted (machine, total MB) of the partitions without a sharded
        payload, folded afresh after each write."""
        if self.fold is None or self.fold[0] != num_machines:
            totals: dict[int, float] = {}
            for i, machine, size in self.placed(num_machines):
                if not isinstance(self.payload.get(i), dict):
                    totals[machine] = totals.get(machine, 0.0) + size
            self.fold = (num_machines, sorted(totals.items()))
        return self.fold[1]


class MetadataStore:
    """All partitions of one job, as per-dataset columns keyed by data_id."""

    def __init__(self, mb_per_element: float = DEFAULT_MB_PER_ELEMENT):
        self._data: dict[int, _Columns] = {}
        self.mb_per_element = mb_per_element

    def _columns(self, handle: DataHandle) -> _Columns:
        cols = self._data.get(handle.data_id)
        if cols is None:
            cols = self._data[handle.data_id] = _Columns(handle)
        cols.fold = None   # every caller writes
        return cols

    # -- loading job inputs ---------------------------------------------
    def load_inputs(self, handle: DataHandle) -> None:
        assert handle.initial is not None
        cols = self._columns(handle)
        for i, (size_mb, payload) in enumerate(handle.initial):
            cols.size[i] = float(size_mb)
            if payload is not None:
                cols.payload[i] = payload

    # -- recording produced partitions ------------------------------------
    def record(
        self,
        handle: DataHandle,
        partition: int,
        size_mb: float,
        location: int,
        payload: Any = None,
    ) -> None:
        cols = self._columns(handle)
        if payload is not None:
            size_mb = estimate_payload_mb(payload, self.mb_per_element)
            cols.payload[partition] = payload
        else:
            cols.payload.pop(partition, None)
        cols.size[partition] = float(size_mb)
        cols.loc[partition] = location

    # -- fault layer -------------------------------------------------------
    def invalidate_machine(self, machine: int) -> list[tuple[int, int]]:
        """Drop every partition located on ``machine`` (its data died with
        the worker) and return the dropped ``(data_id, partition)`` keys,
        sorted, so lineage recovery can decide which producer tasks must
        re-execute.  External inputs (location ``None``) survive — they
        model durable HDFS storage, not worker-local shards."""
        dropped: list[tuple[int, int]] = []
        for did, cols in self._data.items():
            for i, loc in enumerate(cols.loc):
                if loc == machine and cols.size[i] is not None:
                    cols.size[i] = cols.loc[i] = cols.fold = None
                    cols.payload.pop(i, None)
                    dropped.append((did, i))
        return sorted(dropped)

    # -- queries -----------------------------------------------------------
    def has(self, handle: DataHandle, partition: int) -> bool:
        cols = self._data.get(handle.data_id)
        return cols is not None and cols.size[partition] is not None

    def get(self, handle: DataHandle, partition: int) -> Partition:
        cols = self._data.get(handle.data_id)
        if cols is None or cols.size[partition] is None:
            raise KeyError(f"partition {partition} of dataset {handle.name!r} not recorded yet")
        return Partition(cols.size[partition], cols.loc[partition], cols.payload.get(partition))

    def size(self, handle: DataHandle, partition: int) -> float:
        return self.get(handle, partition).size_mb

    def pull_sources(
        self, net_op: Op, out_partition: int, num_machines: int
    ) -> list[tuple[int, float]]:
        """(machine, MB) pairs a network monotask pulls for one output
        partition, one per sender machine and sorted by machine: the
        matching shard of every partition of every read dataset.  A
        partition's shard is its weighted share, taken of per-machine totals
        in O(machines); a sharded real payload gives its own shard's size."""
        weights = net_op.shard_weights
        w, total_w = (
            (1.0, net_op.parallelism) if weights is None
            else (weights[out_partition], sum(weights))
        )
        per_machine: dict[int, float] = {}
        for handle in net_op.reads:
            cols = self._data[handle.data_id]
            for machine, mb in cols.machine_totals(num_machines):
                per_machine[machine] = per_machine.get(machine, 0.0) + mb * w / total_w
            if cols.payload:
                for i, machine, _size in cols.placed(num_machines):
                    p = cols.payload.get(i)
                    if isinstance(p, dict):
                        mb = estimate_payload_mb(p.get(out_partition), self.mb_per_element)
                        per_machine[machine] = per_machine.get(machine, 0.0) + mb
        return sorted(per_machine.items())

    def gather_shards(self, net_op: Op, out_partition: int) -> Optional[list]:
        """The real items a network monotask pulls for one output partition,
        in source-partition order; ``None`` when no read dataset carries
        sharded payloads (size-only runs)."""
        items: list = []
        real = False
        for handle in net_op.reads:
            payloads = self._data[handle.data_id].payload
            for i in sorted(payloads):
                if isinstance(payloads[i], dict):
                    real = True
                    items.extend(payloads[i].get(out_partition, ()))
        return items if real else None
