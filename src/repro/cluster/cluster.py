"""The simulated cluster: machines + network fabric + shared clock."""

from __future__ import annotations

from typing import Sequence

from ..simcore.engine import Simulation
from ..simcore.network import MaxMinFabric, NetworkFabric, ReceiverSideFabric
from ..simcore.tracing import TraceSet
from .machine import Machine
from .spec import ClusterSpec

__all__ = ["Cluster"]

#: trace kind -> the MachineSpec field that is its per-machine capacity
#: (None: the fabric records net_used in downlink-fraction units)
_CAPACITY = {
    "cpu_used": "cores", "cpu_alloc": "cores",
    "mem_used": "memory_mb", "mem_alloc": "memory_mb",
    "disk_used": "disks", "net_used": None,
}


class Cluster:
    """All simulated hardware for one experiment run.

    Everything that runs "on" the cluster (Ursa, baselines, workload drivers)
    shares ``cluster.sim`` as its clock and records into ``cluster.traces``.
    """

    def __init__(self, spec: ClusterSpec, sim: Simulation | None = None):
        self.spec = spec
        self.sim = sim if sim is not None else Simulation()
        self.traces = TraceSet()
        self.machines: list[Machine] = [
            Machine(self.sim, i, spec.machine, self.traces)
            for i in range(spec.num_machines)
        ]
        net_traces = [m.net_used for m in self.machines]
        if spec.fabric == "receiver":
            self.network: NetworkFabric = ReceiverSideFabric(
                self.sim, spec.num_machines, spec.machine.net_mbps, used_traces=net_traces
            )
        else:
            self.network = MaxMinFabric(
                self.sim, spec.num_machines, spec.machine.net_mbps, used_traces=net_traces
            )

    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.spec.num_machines

    @property
    def total_cores(self) -> int:
        return self.spec.total_cores

    @property
    def total_memory_mb(self) -> float:
        return self.spec.total_memory_mb

    def machine(self, index: int) -> Machine:
        return self.machines[index]

    # ------------------------------------------------------------------
    # aggregate views used by metrics and figures
    # ------------------------------------------------------------------
    def series_names(self, kind: str) -> list[str]:
        """Trace names for ``kind`` across machines (e.g. 'cpu_used')."""
        if kind not in _CAPACITY:
            raise ValueError(
                f"unknown trace kind {kind!r}; known kinds: {', '.join(_CAPACITY)}"
            )
        return [f"m{i}.{kind}" for i in range(self.num_machines)]

    def _capacity(self, kind: str) -> float:
        attr = _CAPACITY[kind]
        return getattr(self.spec.machine, attr) if attr else 1.0

    def mean_utilization(self, kind: str, t0: float, t1: float) -> float:
        """Cluster-average fraction of capacity used for a resource kind.

        ``kind`` is one of cpu_used/cpu_alloc/mem_used/mem_alloc/disk_used/
        net_used; the value is normalized by the per-machine capacity so the
        result is in [0, 1] (CPU alloc may exceed 1 under over-subscription).
        """
        vals = self.per_machine_utilization(kind, t0, t1)
        return sum(vals) / len(vals)

    def per_machine_utilization(self, kind: str, t0: float, t1: float) -> list[float]:
        names = self.series_names(kind)
        cap = self._capacity(kind)
        return [self.traces[name].mean(t0, t1) / cap for name in names]

    def utilization_timeseries(
        self, kind: str, t0: float, t1: float, dt: float = 1.0
    ) -> tuple[list[float], list[float]]:
        """Cluster-average utilization in [0,100] % resampled to ``dt`` bins —
        the series the paper's utilization figures plot."""
        names = self.series_names(kind)
        cap = self._capacity(kind)
        grid: list[float] = []
        acc: list[float] = []
        for i, name in enumerate(names):
            g, vals = self.traces[name].resample(t0, t1, dt)
            if i == 0:
                grid = g
                acc = [0.0] * len(vals)
            for j, v in enumerate(vals):
                acc[j] += v
        n = self.num_machines
        return grid, [100.0 * v / (cap * n) for v in acc]

    def integrate(self, kind: str, t0: float, t1: float) -> float:
        """Sum of the trace integrals across machines (e.g. core-seconds)."""
        return sum(self.traces[name].integral(t0, t1) for name in self.series_names(kind))
