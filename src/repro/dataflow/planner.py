"""Compiling an OpGraph into monotasks, tasks and stages (§4.1.3).

Steps, exactly as the paper describes:

1. **Collapse** connected subgraphs of CPU ops linked by async dependencies
   into one (fused) CPU op group, "for scalability in scheduling monotasks".
   After this, each task contains at most one CPU monotask.
2. **Generate monotasks** — one per output partition of each op group.  An
   async dependency becomes one-to-one monotask edges and a sync one
   all-to-all edges, except that the in-edges of network ops (all sync,
   see :meth:`OpGraph.validate`) are never materialised: they are the
   cuts between tasks.
3. **Form tasks** — each connected component of the monotask DAG is a
   task (its monotasks are collocated because transfers are pull-based),
   so every monotask edge stays inside its task.
4. **Form stages** — tasks whose monotasks come from the same ops form a
   stage.  Each op-group edge into a network op becomes one edge of the
   stage DAG, the only record of cross-task dependency: a network
   monotask pulls a shard of every partition it reads, so a consumer stage
   waits for every task of each producer stage.
"""

from __future__ import annotations

from collections import defaultdict

from .graph import DepType, GraphError, Op, OpGraph, ResourceType
from .monotask import Monotask, Stage, Task

__all__ = ["PlannedJob", "plan_job"]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class _OpGroup:
    """A fused group of CPU ops (or a singleton non-CPU op)."""

    __slots__ = ("group_id", "ops", "rtype", "in_edges", "out_edges")

    def __init__(self, group_id: int, ops: list[Op]):
        self.group_id = group_id
        self.ops = ops
        self.rtype = ops[0].rtype
        self.in_edges: list[tuple["_OpGroup", DepType]] = []
        self.out_edges: list[tuple["_OpGroup", DepType]] = []

    @property
    def parallelism(self) -> int:
        return self.ops[-1].parallelism

    @property
    def name(self) -> str:
        return "+".join(op.name for op in self.ops)


class PlannedJob:
    """The output of :func:`plan_job`: the monotask DAG, tasks and stages."""

    def __init__(
        self,
        graph: OpGraph,
        monotasks: list[Monotask],
        tasks: list[Task],
        stages: list[Stage],
    ):
        self.graph = graph
        self.monotasks = monotasks
        self.tasks = tasks
        self.stages = stages

    @property
    def root_tasks(self) -> list[Task]:
        return [t for t in self.tasks if not t.stage.parents]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PlannedJob({self.graph.name}: {len(self.monotasks)} monotasks, "
            f"{len(self.tasks)} tasks, {len(self.stages)} stages)"
        )


def plan_job(graph: OpGraph) -> PlannedJob:
    """Compile ``graph`` into its monotask DAG, tasks, and stages."""
    graph.validate()
    groups = _collapse_cpu_chains(graph)
    monotasks, per_group = _generate_monotasks(groups)
    tasks = _form_tasks(monotasks)
    stages = _form_stages(tasks)
    _wire_stages(groups, per_group)
    _check_stage_dag(stages)
    return PlannedJob(graph, monotasks, tasks, stages)


# ----------------------------------------------------------------------
# step 1: collapse async-connected CPU subgraphs
# ----------------------------------------------------------------------
def _collapse_cpu_chains(graph: OpGraph) -> list[_OpGroup]:
    uf = _UnionFind(len(graph.ops))
    for op in graph.ops:
        if op.rtype is not ResourceType.CPU:
            continue
        for child, dep in op.out_edges:
            if child.rtype is ResourceType.CPU and dep is DepType.ASYNC:
                uf.union(op.op_id, child.op_id)

    members: dict[int, list[Op]] = defaultdict(list)
    for op in graph.ops:
        members[uf.find(op.op_id)].append(op)

    # Fused ops execute in an order consistent with intra-group edges; the
    # global topological order restricted to the group provides it.
    topo_pos = {op.op_id: i for i, op in enumerate(graph.topological_order())}
    groups: list[_OpGroup] = []
    group_of: dict[int, _OpGroup] = {}
    for root in sorted(members, key=lambda r: min(topo_pos[o.op_id] for o in members[r])):
        ops = sorted(members[root], key=lambda o: topo_pos[o.op_id])
        parallelism = {op.parallelism for op in ops}
        if len(parallelism) != 1:
            raise GraphError(
                f"cannot fuse CPU ops {[o.name for o in ops]}: differing parallelism"
            )
        g = _OpGroup(len(groups), ops)
        groups.append(g)
        for op in ops:
            group_of[op.op_id] = g

    for op in graph.ops:
        g1 = group_of[op.op_id]
        for child, dep in op.out_edges:
            g2 = group_of[child.op_id]
            if g1 is g2:
                continue
            g1.out_edges.append((g2, dep))
            g2.in_edges.append((g1, dep))
    return groups


# ----------------------------------------------------------------------
# step 2: monotask generation + dependency wiring
# ----------------------------------------------------------------------
def _generate_monotasks(groups: list[_OpGroup]) -> tuple[list[Monotask], dict]:
    monotasks: list[Monotask] = []
    per_group: dict[int, list[Monotask]] = {}
    for g in groups:
        mts = [Monotask(len(monotasks) + i, g.ops, i) for i in range(g.parallelism)]
        monotasks.extend(mts)
        per_group[g.group_id] = mts

    for g in groups:
        for child_group, dep in g.out_edges:
            if child_group.rtype is ResourceType.NETWORK:
                continue  # a cut between tasks: wired as a stage edge
            srcs = per_group[g.group_id]
            dsts = per_group[child_group.group_id]
            if dep is DepType.SYNC:
                for s in srcs:
                    for d in dsts:
                        s.children.append(d)
                        d.parents.append(s)
            else:
                if len(srcs) != len(dsts):  # pragma: no cover - validated earlier
                    raise GraphError(
                        f"async edge {g.name!r}->{child_group.name!r} parallelism mismatch"
                    )
                for s, d in zip(srcs, dsts):
                    s.children.append(d)
                    d.parents.append(s)
    return monotasks, per_group


# ----------------------------------------------------------------------
# step 3: connected components of the monotask DAG
# ----------------------------------------------------------------------
def _form_tasks(monotasks: list[Monotask]) -> list[Task]:
    uf = _UnionFind(len(monotasks))
    for m in monotasks:
        for child in m.children:
            uf.union(m.mt_id, child.mt_id)

    members: dict[int, list[Monotask]] = defaultdict(list)
    for i, m in enumerate(monotasks):
        members[uf.find(i)].append(m)

    tasks: list[Task] = []
    for root in sorted(members, key=lambda r: min(mm.mt_id for mm in members[r])):
        mts = sorted(members[root], key=lambda mm: mm.mt_id)
        tasks.append(Task(len(tasks), mts))
    return tasks


# ----------------------------------------------------------------------
# step 4: stages + the stage DAG
# ----------------------------------------------------------------------
def _form_stages(tasks: list[Task]) -> list[Stage]:
    by_signature: dict[frozenset, list[Task]] = defaultdict(list)
    for t in tasks:
        sig = frozenset(op.op_id for m in t.monotasks for op in m.ops)
        by_signature[sig].append(t)

    stages: list[Stage] = []
    for sig in sorted(by_signature, key=lambda s: min(t.task_id for t in by_signature[s])):
        group = by_signature[sig]
        name = "+".join(
            sorted({op.name for m in group[0].monotasks for op in m.ops})
        )
        stages.append(Stage(len(stages), sig, group, name))
    return stages


def _wire_stages(groups: list[_OpGroup], per_group: dict) -> None:
    """One stage edge per (producer stage, consumer stage) pair of the
    op-group edges into network ops (a group's monotasks share one stage)."""
    for g in groups:
        for child_group, _dep in g.out_edges:
            if child_group.rtype is ResourceType.NETWORK:
                producer = per_group[g.group_id][0].task.stage
                consumer = per_group[child_group.group_id][0].task.stage
                if consumer not in producer.children:
                    producer.children.append(consumer)
                    consumer.parents.append(producer)
                    consumer.remaining_parents += 1


def _check_stage_dag(stages: list[Stage]) -> None:
    """Raise :class:`GraphError` naming the stages on a cycle, if any: a task
    waiting on its own stage would never become ready (e.g. a CPU chain fused
    across the shuffle it feeds)."""
    indeg = {s: len(s.parents) for s in stages}
    frontier = [s for s in stages if not s.parents]
    while frontier:
        for c in frontier.pop().children:
            indeg[c] -= 1
            if indeg[c] == 0:
                frontier.append(c)
    blocked = [s for s in stages if indeg[s] > 0]
    if not blocked:
        return
    # every blocked stage has a blocked parent: walk parents until one repeats
    path: list[Stage] = []
    cur = blocked[0]
    while cur not in path:
        path.append(cur)
        cur = next(p for p in cur.parents if indeg[p] > 0)
    cycle = path[path.index(cur):][::-1]
    raise GraphError(
        "stage DAG has a cycle: "
        + " -> ".join(repr(s.name) for s in cycle + cycle[:1])
        + " (a task would wait on its own stage)"
    )
