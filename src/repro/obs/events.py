"""Event schema of the observation log.

Every hook site appends one tuple to the active recorder's log::

    (kind, t, *trace_fields, *telemetry_fields)

* ``t`` — simulation time in seconds (never wall clock: the log is as
  deterministic as the simulation that produced it);
* ``kind`` — one of the constants below;
* the remaining slots follow :data:`SCHEMA` — the kind's trace fields, then
  the trailing fields only telemetry reads.

Two views read the log.  The **trace** (:attr:`~repro.obs.recorder.\
TraceRecorder.events`) materializes one plain dict per trace kind —
``{"t", "kind", "unit", *trace_fields}``, JSONL-ready and order-preserving,
where ``unit`` labels the simulation unit the entry belongs to (one label
per independent simulation; the Chrome-trace exporter maps each unit to
its own Perfetto process so overlapping t=0 clocks never collide).  The
trace skips the telemetry fields and the telemetry-only kinds.
**Telemetry** (:mod:`repro.obs.telemetry`) folds every entry into its
aggregates.

``rtype`` is always the :class:`~repro.dataflow.graph.ResourceType`
*value* string (``"cpu"`` / ``"network"`` / ``"disk"``), and jobs / tasks /
monotasks are referenced by their integer ids, so a trace can outlive the
objects.
"""

from __future__ import annotations

__all__ = [
    "WORKER_SPEC", "JOB_SUBMIT", "JOB_ADMIT", "JM_START", "TASK_READY",
    "TASK_DEPS", "SCHED_TICK", "TASK_PLACED", "QUEUE_PUSH", "QUEUE_POP",
    "MT_START", "RES_RELEASE", "MT_FINISH", "TASK_FINISH", "JOB_FINISH",
    "WORKER_DOWN", "WORKER_UP", "MT_LOST", "RETRY", "ALL_KINDS",
    "ENGINE", "QUEUE_EVICT", "WASTED_WORK", "FAULT_RECOVERY",
    "ADMISSION_QUEUE", "JOB_STARTED", "JOB_COMPLETED", "JOB_FAILED",
    "JOB_SHED", "AUTOSCALE", "TELEMETRY_KINDS", "SCHEMA", "OMIT_FALSE",
]

# ----------------------------------------------------------------------
# trace kinds (field lists: SCHEMA below)
# ----------------------------------------------------------------------
#: worker registered with the cluster (emitted once per worker at t=0).
#: Carries the concurrency limits and *nominal* per-slot rates so offline
#: analysis can compute idle capacity and contention slowdown (observed
#: service time vs work_mb / nominal_rate) without the Worker objects.
WORKER_SPEC = "worker_spec"
#: job arrived at the admission controller
JOB_SUBMIT = "job_submit"
#: admission granted (memory reserved)
JOB_ADMIT = "job_admit"
#: the job's JM started (after the creation delay)
JM_START = "jm_start"
#: all parent tasks done; estimates resolved
TASK_READY = "task_ready"
#: the task's monotask DAG, emitted right after ``task_ready`` once input
#: estimates are resolved; ``mts`` rows are [mt, rtype, input_mb, work_mb,
#: [parent_mt, ...]].  Parent ids cover both intra-task edges and
#: cross-task edges (shuffle reads), so the offline critical-path walk can
#: rebuild the full per-job monotask DAG from the trace alone.
TASK_DEPS = "task_deps"
#: one Algorithm-1 scheduling round finished
SCHED_TICK = "sched_tick"
#: placement decision (score = winning F(t,w))
TASK_PLACED = "task_placed"
#: monotask entered a per-resource worker queue
QUEUE_PUSH = "queue_push"
#: monotask left the queue (resources granted next)
QUEUE_POP = "queue_pop"
#: resources granted; monotask starts
MT_START = "mt_start"
#: worker released the slot / accounted completion
RES_RELEASE = "res_release"
#: the JM observed the monotask finish
MT_FINISH = "mt_finish"
#: last monotask of the task finished
TASK_FINISH = "task_finish"
#: last task of the job finished; a job killed by the fault layer carries
#: ``failed: True`` (jct is then time-to-failure)
JOB_FINISH = "job_finish"
#: fault layer took a worker offline (cause: crash|blackout)
WORKER_DOWN = "worker_down"
#: a blacked-out worker rejoined the cluster
WORKER_UP = "worker_up"
#: a queued/running monotask was evicted or aborted
#: (reason: crash|lineage|timeout|job_failed)
MT_LOST = "monotask_lost"
#: a task restart was charged against its retry budget
RETRY = "retry"

# ----------------------------------------------------------------------
# telemetry-only kinds (seams no trace event marks)
# ----------------------------------------------------------------------
#: ``Simulation.run`` returned: its clock and the events fired so far
ENGINE = "engine"
#: the fault layer evicted queued monotasks (keys: [(job, mt), ...])
QUEUE_EVICT = "queue_evict"
#: work an abort or rewind threw away
WASTED_WORK = "wasted_work"
#: seconds from a fault until its last restarted task re-completed
FAULT_RECOVERY = "fault_recovery"
#: the admission queue changed length outside submit
ADMISSION_QUEUE = "admission_queue"
#: a job's JM was created (running = active jobs after the change)
JOB_STARTED = "job_started"
JOB_COMPLETED = "job_completed"
JOB_FAILED = "job_failed"
#: an arrival rejected by admission backpressure
JOB_SHED = "job_shed"
#: the autoscaler added (+1) or drained (-1) a worker
AUTOSCALE = "autoscale"

#: kind -> (trace fields, telemetry-only trailing fields)
SCHEMA: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    WORKER_SPEC: (("worker", "cores", "disks", "net", "core_rate_mbps",
                   "net_mbps", "disk_mbps"), ()),
    JOB_SUBMIT: (("job", "name", "mem_mb", "qlen"), ()),
    JOB_ADMIT: (("job", "waited", "reserved_mb"), ()),
    JM_START: (("job",), ()),
    TASK_READY: (("job", "task", "stage", "n_mt", "input_mb"), ()),
    TASK_DEPS: (("job", "task", "mts"), ()),
    SCHED_TICK: (("assigned",), ()),
    TASK_PLACED: (("job", "task", "worker", "score", "n_mt"), ()),
    QUEUE_PUSH: (("worker", "rtype", "job", "mt", "qlen"), ("work_mb",)),
    QUEUE_POP: (("worker", "rtype", "job", "mt", "qlen"), ("work_mb",)),
    MT_START: (("worker", "rtype", "job", "mt", "running", "bypass"), ()),
    RES_RELEASE: (("worker", "rtype", "mt", "running"), ()),
    MT_FINISH: (("job", "task", "mt", "rtype", "worker"), ()),
    TASK_FINISH: (("job", "task", "worker"), ()),
    # unadmitted: the job failed while still waiting for admission
    JOB_FINISH: (("job", "jct", "failed"), ("unadmitted",)),
    WORKER_DOWN: (("worker", "cause"), ()),
    WORKER_UP: (("worker",), ()),
    # running: the monotask held a grant (its busy interval ends here)
    MT_LOST: (("worker", "rtype", "job", "task", "mt", "reason"), ("running",)),
    RETRY: (("job", "task", "attempt", "reason"), ()),
    ENGINE: ((), ("events_fired",)),
    QUEUE_EVICT: ((), ("worker", "rtype", "qlen", "work_mb", "keys")),
    WASTED_WORK: ((), ("mb",)),
    FAULT_RECOVERY: ((), ("duration",)),
    ADMISSION_QUEUE: ((), ("qlen",)),
    JOB_STARTED: ((), ("running",)),
    JOB_COMPLETED: ((), ("jct", "running")),
    JOB_FAILED: ((), ("running",)),
    JOB_SHED: ((), ()),
    AUTOSCALE: ((), ("direction", "active")),
}

#: trace fields the dict view drops while false, so failure-free traces
#: keep the exact pre-fault-layer schema
OMIT_FALSE = {JOB_FINISH: "failed"}

#: the kinds the trace view materializes (telemetry-only kinds have no
#: trace fields)
ALL_KINDS = frozenset(kind for kind, (trace, _) in SCHEMA.items() if trace)
TELEMETRY_KINDS = frozenset(SCHEMA) - ALL_KINDS
