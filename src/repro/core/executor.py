"""The executor protocol the schedulers run on.

:func:`repro.core.stream.stream_extension` (anchors within a pair) and
:func:`repro.core.pipeline.align_assemblies` (chromosome-pair units)
are the only schedulers, at every worker count.  They need nothing from
an executor beyond the :class:`Executor` surface below.
:class:`repro.parallel.engine.ExecutionEngine` provides it over a
process pool; :class:`InlineExecutor` runs every task in the calling
process, which is what a serial run is: one slot, so the in-flight
watermark admits one anchor (and one unit) and nothing is ever
speculated.
"""

from __future__ import annotations

from typing import Protocol

from ..obs.progress import NO_PROGRESS
from ..obs.tracer import NULL_TRACER

__all__ = ["INLINE", "Executor", "InlineExecutor"]


class Executor(Protocol):
    """What the schedulers dispatch on.

    ``resilience`` is the fault-injection/recovery bundle (or None),
    ``telemetry``/``bus`` are None when telemetry is off, and
    ``progress`` is never None.
    """

    workers: int
    resilience: object
    telemetry: object
    bus: object
    progress: object

    def share(self, seq): ...

    def dispatch(self, fn, /, *args, key: str = ""): ...

    def poll(self, ticket) -> bool: ...

    def result(self, ticket, tracer=NULL_TRACER): ...


class InlineExecutor:
    """Runs each dispatched task at once, in this process.

    There is no pool, shared memory, fault injection or telemetry bus:
    :meth:`share` hands back the sequence itself (which
    :func:`~repro.core.worker.resolve_sequence` passes through), and a
    ticket is the task's return value, so :meth:`poll` is always True.
    """

    workers = 1
    resilience = None
    telemetry = None
    bus = None
    progress = NO_PROGRESS

    def share(self, seq):
        return seq

    def dispatch(self, fn, /, *args, key: str = ""):
        return fn(*args)

    def poll(self, ticket) -> bool:
        return True

    def result(self, ticket, tracer=NULL_TRACER):
        return ticket


#: Stateless, so one instance serves every serial run.
INLINE = InlineExecutor()
