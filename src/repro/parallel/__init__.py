"""Parallel execution engine: multiprocess fan-out of pipeline work.

The paper's co-processor extracts its speedup from the independence of
seed-filter-extend work items; this package is the software analogue —
an :class:`~repro.parallel.engine.ExecutionEngine` (process pool plus
shared-memory sequence transport).  It is the pool implementation of
the executor protocol (:class:`repro.core.executor.Executor`); the one
deterministic scheduler that fans anchors out across it, the
assembly-unit orchestrator and the task functions they dispatch are
domain logic and live below this layer, in :mod:`repro.core.stream`,
:mod:`repro.core.pipeline` and :mod:`repro.core.worker` (the pipelines
reach up to this layer only through deferred construction at call
time).

Task callables submitted to the engine are pickled **by reference**:
they must be module-level functions, never lambdas or closures
(enforced by ``repro lint`` rules PAR001/PAR002, and by FLOW003 under
``--flow``).
"""

from .engine import ExecutionEngine, SequenceHandle, install_signal_cleanup
from .supervise import ResilientDispatcher, Ticket

__all__ = [
    "ExecutionEngine",
    "ResilientDispatcher",
    "SequenceHandle",
    "Ticket",
    "install_signal_cleanup",
]
