"""Parallel execution engine: multiprocess fan-out of pipeline work.

The paper's co-processor extracts its speedup from the independence of
seed-filter-extend work items; this package is the software analogue —
an :class:`~repro.parallel.engine.ExecutionEngine` (process pool plus
shared-memory sequence transport).  It is the pool implementation of
the executor protocol (:class:`repro.core.executor.Executor`); the one
deterministic scheduler that fans anchors out across it, and the
assembly-unit orchestrator, are domain logic and live below this layer,
in :mod:`repro.core.stream` and :mod:`repro.core.pipeline`.  The task
functions they dispatch (:mod:`repro.core.worker`) are re-exported here
for convenience (``parallel`` may import ``core`` — the reverse
direction is what the layer DAG forbids; the pipelines reach up only
through deferred construction at call time).

Task callables submitted to the engine are pickled **by reference**:
they must be module-level functions, never lambdas or closures
(enforced by ``repro lint`` rules PAR001/PAR002).
"""

from ..core.worker import align_unit_task, extend_batch_task, resolve_sequence
from .engine import ExecutionEngine, SequenceHandle, install_signal_cleanup
from .supervise import ResilientDispatcher, Ticket

__all__ = [
    "ExecutionEngine",
    "ResilientDispatcher",
    "SequenceHandle",
    "Ticket",
    "align_unit_task",
    "extend_batch_task",
    "install_signal_cleanup",
    "resolve_sequence",
]
