"""The loops both distributed transports share: :func:`serve`, the worker
loop (claim → heartbeat → execute → report over a :class:`TaskSource`),
and :class:`RemoteTransport`, the sweep side (submit, then collect until
nothing is outstanding or the deadline passes).  The queue directory and
the TCP coordinator each supply only their own storage or link handling.
"""

from __future__ import annotations

import threading
import time
from dataclasses import astuple, dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Protocol,
                    Sequence, Tuple)

from .lease import (
    DEFAULT_POLL,
    DEFAULT_TASK_ATTEMPTS,
    attempt_limit,
    heartbeat_interval,
    make_task_id,
    next_attempt,
    result_payload,
)
from .transport import TransportItem, execute_payload

__all__ = [
    "RemoteTransport",
    "SweepLink",
    "TaskSource",
    "WorkerSummary",
    "serve",
]

#: ``progress(task_id, result)``: called once per processed task.
Progress = Callable[[str, Dict[str, Any]], None]


@dataclass(eq=False)
class WorkerSummary:
    """What one worker did over its lifetime, for the shutdown summary.

    Compares equal to an ``int`` as the number of tasks processed, so the
    historical ``run_worker(...) == N`` contract keeps working.
    """

    worker_id: str = ""
    processed: int = 0
    done: int = 0
    failed: int = 0
    retried: int = 0
    heartbeats: int = 0
    reconnects: int = 0
    replayed: int = 0
    #: Whether the most recent task ended in a *terminal* failure (a retry
    #: does not count) — the CLI exits nonzero on it.
    last_task_failed: bool = False

    def __index__(self) -> int:
        return self.processed

    __int__ = __index__

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            return self.processed == other
        if isinstance(other, WorkerSummary):
            return astuple(self) == astuple(other)
        return NotImplemented

    def describe(self) -> str:
        """The one-line shutdown summary the worker CLI logs."""
        line = (f"worker {self.worker_id or '?'} done: "
                f"{self.processed} task(s) "
                f"({self.done} ok, {self.failed} failed, "
                f"{self.retried} retried), "
                f"{self.heartbeats} heartbeat(s) sent")
        if self.reconnects or self.replayed:
            line += (f", {self.reconnects} reconnect(s), "
                     f"{self.replayed} result(s) replayed")
        return line


# ---------------------------------------------------------------------------
# The worker loop
# ---------------------------------------------------------------------------

class TaskSource(Protocol):
    """Where :func:`serve` gets tasks and hands in outcomes; each
    implementation hides only its own storage or link handling."""

    worker_id: str
    lease_ttl: float  # the TTL heartbeats must beat (may change on reconnect)
    summary: WorkerSummary

    def claim(self) -> Optional[Dict[str, Any]]: ...  # None: no task now
    def heartbeat(self, task_id: str) -> bool: ...  # False: stop beating
    def report(self, task: Dict[str, Any], outcome: Dict[str, Any]) -> str: ...
    def stopped(self) -> bool: ...  # the operator asked workers to exit
    def undelivered(self) -> bool: ...  # an outcome awaits redelivery
    def close(self) -> None: ...


def serve(source: TaskSource,
          poll: float = DEFAULT_POLL,
          max_idle: Optional[float] = None,
          max_tasks: Optional[int] = None,
          progress: Optional[Progress] = None,
          checkpoint_dir: Optional[Any] = None,
          checkpoint_every: Optional[int] = None) -> WorkerSummary:
    """Claim, execute and report tasks from ``source`` until told to stop.

    Each task runs through
    :func:`~repro.orchestrator.transport.execute_payload` while a thread
    heartbeats its lease; ``checkpoint_*`` override the task's own
    checkpoint options.  ``source.report`` returns
    the fate — ``"done"``, ``"retry"``, ``"ignored"`` (lease lost) or
    ``"undelivered"`` — which ``progress`` gets as the result's
    ``"status"``.  Exits on ``source.stopped()``, after ``max_idle``
    seconds without work (counted from the last task's *end*), or after
    ``max_tasks`` tasks once no outcome awaits redelivery.
    """
    overrides: Dict[str, Any] = {}
    if checkpoint_dir is not None:
        overrides["checkpoint_dir"] = str(checkpoint_dir)
    if checkpoint_every is not None:
        overrides["checkpoint_every"] = int(checkpoint_every)
    summary = source.summary
    idle_since = time.monotonic()
    try:
        while not source.stopped():
            if (max_tasks is not None and summary.processed >= max_tasks
                    and not source.undelivered()):
                break
            task = source.claim()
            if task is None:
                if (max_idle is not None
                        and time.monotonic() - idle_since >= max_idle):
                    break
                time.sleep(poll)
                continue
            task_id = str(task["id"])
            outcome = _execute(source, task_id,
                               {**(task.get("options") or {}), **overrides},
                               task.get("config", {}))
            result = result_payload(task_id, task, outcome,
                                    next_attempt(task), source.worker_id)
            result["status"] = source.report(task, outcome)
            summary.last_task_failed = False
            if "record" in outcome:
                summary.done += 1
            elif result["status"] == "retry":
                summary.retried += 1
            else:
                summary.failed += 1
                summary.last_task_failed = True
            summary.processed += 1
            idle_since = time.monotonic()
            if progress is not None:
                progress(task_id, result)
    finally:
        source.close()
    return summary


def _execute(source: TaskSource, task_id: str, options: Dict[str, Any],
             config: Dict[str, Any]) -> Dict[str, Any]:
    """Run one task while a background thread heartbeats its lease."""
    stop = threading.Event()
    every = heartbeat_interval(source.lease_ttl)

    def beat() -> None:
        while not stop.wait(every):
            if not source.heartbeat(task_id):
                return  # the report will find out what happened
            source.summary.heartbeats += 1

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        return execute_payload(config, options or None)
    finally:
        stop.set()
        beater.join()


# ---------------------------------------------------------------------------
# The sweep side
# ---------------------------------------------------------------------------

class SweepLink(Protocol):
    """A sweep's connection to the task store for one
    :meth:`RemoteTransport.run`; ``submit`` is idempotent."""

    def submit(self, tasks: Sequence[Dict[str, Any]]) -> None: ...
    def collect(self, task_ids: Sequence[str]) -> List[Dict[str, Any]]: ...
    def live_workers(self) -> List[str]: ...
    def close(self) -> None: ...


class RemoteTransport:
    """Execute pending configs on remote workers through a :class:`SweepLink`.

    ``workers_expected`` makes the sweep wait (up to ``worker_timeout``
    seconds) for that many live workers, so a sweep nobody serves fails
    fast instead of hanging; ``timeout`` bounds the whole wait for results.
    """

    name = "remote"

    def __init__(self, poll: float = DEFAULT_POLL,
                 max_attempts: Optional[int] = DEFAULT_TASK_ATTEMPTS,
                 workers_expected: int = 0,
                 worker_timeout: float = 60.0,
                 timeout: Optional[float] = None) -> None:
        self.poll = float(poll)
        self.max_attempts = attempt_limit(max_attempts)
        self.workers_expected = int(workers_expected)
        self.worker_timeout = float(worker_timeout)
        self.timeout = timeout

    def _open(self, deadline: Optional[float]) -> SweepLink:
        raise NotImplementedError

    def _missing_workers(self) -> Tuple[str, str]:
        """``(where workers register, command that starts one)``."""
        raise NotImplementedError

    def run(self, items: Sequence[TransportItem],
            options: Optional[Dict[str, Any]] = None
            ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        link = self._open(deadline)
        try:
            if self.workers_expected > 0:
                self._await_workers(link)
            pending: Dict[str, int] = {}
            tasks: List[Dict[str, Any]] = []
            for index, config, digest in items:
                task_id = make_task_id(index, digest)
                pending[task_id] = index
                task = {"id": task_id, "digest": digest,
                        "config": config.to_dict(),
                        "max_attempts": self.max_attempts}
                if options:
                    task["options"] = dict(options)
                tasks.append(task)
            link.submit(tasks)
            while pending:
                ready = link.collect(sorted(pending))
                for payload in ready:
                    index = pending.pop(str(payload.get("id")), None)
                    if index is not None:
                        yield index, payload
                if not pending:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"{self.name} sweep timed out after {self.timeout}s "
                        f"with {len(pending)} task(s) unfinished (live "
                        f"workers: {link.live_workers() or 'none'})")
                if not ready:
                    time.sleep(self.poll)
        finally:
            link.close()

    def _await_workers(self, link: SweepLink) -> None:
        deadline = time.monotonic() + self.worker_timeout
        while True:
            alive = link.live_workers()
            if len(alive) >= self.workers_expected:
                return
            if time.monotonic() >= deadline:
                where, command = self._missing_workers()
                raise RuntimeError(
                    f"only {len(alive)} of {self.workers_expected} expected "
                    f"worker(s) {where} within {self.worker_timeout:.0f}s — "
                    f"start them with '{command}'")
            time.sleep(min(self.poll, 0.5))
