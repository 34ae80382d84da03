"""Filesystem task queue: distribute a sweep across machines.

Any number of ``python -m repro worker <queue-dir>`` daemons on machines
that share a filesystem pull tasks from one queue directory; the sweep
coordinator (:class:`QueueTransport`) enqueues the pending configs, waits
for their result files, and feeds them back through the normal
:func:`~repro.orchestrator.pool.run_sweep` bookkeeping — so cache,
ledger, ordering and aggregation behave exactly as in a local run.

Every lease decision is :mod:`~repro.orchestrator.lease`'s, shared with
the TCP coordinator; this module stores them with POSIX renames alone:

* **Claiming is an atomic rename** of ``tasks/<id>.json`` into
  ``leases/<id>.json``.  Exactly one worker wins; losers get ``ENOENT``
  and move on.
* **Leases are heartbeats**: the owning worker re-touches its lease file
  while it executes.  A lease whose mtime is older than ``lease_ttl`` is
  presumed dead and *reclaimed* — renamed away under a private name (again
  atomic, so only one reclaimer wins) and re-enqueued with its attempt
  counter bumped.
* **Failures are reported under the same rename**, and only by the
  worker the lease file names — a late failure from a worker whose lease
  was reclaimed is ignored.
* **Results are atomic too** (temp file + ``os.replace``), so the
  coordinator never reads a torn result.

Directory layout under the queue root::

    tasks/<id>.json     pending work, claimable
    leases/<id>.json    claimed work; mtime is the owner's heartbeat
    results/<id>.json   finished work (a record or an error payload)
    workers/<id>.json   live worker registrations; mtime is the heartbeat
    STOP                sentinel: workers exit at the next loop turn
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..telemetry import counter as _metric
from .fsutil import read_json as _read_json
from .fsutil import write_json_atomic as _write_json_atomic
from .lease import (
    DEFAULT_LEASE_TTL,
    DEFAULT_POLL,
    DEFAULT_TASK_ATTEMPTS,
    RESULT_KIND,
    TASK_KIND,
    board_status,
    charge_failure,
    heartbeat_interval,
    is_final,
    make_task_id,
    new_task,
    next_attempt,
    result_payload,
)
from .remote import Progress, RemoteTransport, SweepLink, WorkerSummary, serve

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_POLL",
    "STATUS_FILENAME",
    "FileTaskQueue",
    "QueueTransport",
    "WorkerSummary",
    "run_worker",
]

PathLike = Union[str, Path]

WORKER_KIND = "sweep-worker"
STOP_FILENAME = "STOP"
#: Coordinator-published live status snapshot (atomic write, JSON).
STATUS_FILENAME = "status.json"


def _touch(path: Path) -> None:
    try:
        os.utime(path, None)
    except OSError:
        pass  # raced a reclaim/cleanup; the owner will find out shortly


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass  # already gone: someone else finished the job


class FileTaskQueue:
    """The on-disk queue shared by the coordinator and the workers."""

    def __init__(self, root: PathLike,
                 lease_ttl: float = DEFAULT_LEASE_TTL) -> None:
        self.root = Path(root)
        self.lease_ttl = float(lease_ttl)
        self.tasks = self.root / "tasks"
        self.leases = self.root / "leases"
        self.results = self.root / "results"
        self.workers = self.root / "workers"

    def ensure_layout(self) -> None:
        for directory in (self.tasks, self.leases, self.results, self.workers):
            directory.mkdir(parents=True, exist_ok=True)

    # -- identities ---------------------------------------------------------

    task_id = staticmethod(make_task_id)

    def task_path(self, task_id: str) -> Path:
        return self.tasks / f"{task_id}.json"

    def lease_path(self, task_id: str) -> Path:
        return self.leases / f"{task_id}.json"

    def result_path(self, task_id: str) -> Path:
        return self.results / f"{task_id}.json"

    def _private_path(self, task_id: str) -> Path:
        """A fresh ``.reclaim`` name: :meth:`reclaim_stale` recovers it if
        the process holding it dies."""
        return self.leases / f".{task_id}.{uuid.uuid4().hex}.reclaim"

    # -- coordinator side ---------------------------------------------------

    def enqueue(self, task_id: str, config_dict: Dict[str, Any], digest: str,
                max_attempts: Optional[int] = DEFAULT_TASK_ATTEMPTS,
                options: Optional[Dict[str, Any]] = None) -> str:
        """Make ``task_id`` runnable: ``"result-exists"`` (a success can be
        consumed now), ``"pending"`` (already waiting or running) or
        ``"enqueued"``.  A lingering *failed* result is deleted and retried.
        """
        self.ensure_layout()
        result = _read_json(self.result_path(task_id))
        if is_final(result):
            return "result-exists"
        if result is not None:
            _unlink(self.result_path(task_id))
        if self.task_path(task_id).exists() or self.lease_path(task_id).exists():
            return "pending"
        _write_json_atomic(self.task_path(task_id), new_task(
            task_id, config_dict, digest, max_attempts, options))
        _metric("queue.enqueued").inc()
        return "enqueued"

    def live_workers(self, ttl: Optional[float] = None) -> List[str]:
        """Ids of workers whose registration heartbeat is fresh."""
        ttl = self.lease_ttl if ttl is None else float(ttl)
        now = time.time()
        alive = []
        for path in self.workers.glob("*.json"):
            try:
                if now - path.stat().st_mtime <= ttl:
                    alive.append(path.stem)
            except OSError:
                continue
        return sorted(alive)

    def status_snapshot(self, window: float = 60.0,
                        now: Optional[float] = None) -> Dict[str, Any]:
        """A JSON-ready snapshot of the board for ``repro status``, from
        directory listings and mtimes alone — so any process that sees the
        directory gets the same answer.  ``window`` bounds the throughput
        estimate (results with an mtime in the last ``window`` seconds)."""
        now = time.time() if now is None else now
        self.ensure_layout()
        leases: List[Dict[str, Any]] = []
        for path in sorted(self.leases.glob("*.json")):
            try:
                age = max(0.0, now - path.stat().st_mtime)
            except OSError:
                continue  # completed or reclaimed while we looked
            payload = _read_json(path) or {}
            leases.append({"id": path.stem,
                           "worker": payload.get("worker"),
                           "age": round(age, 3)})
        done = completed_in_window = 0
        for path in self.results.glob("*.json"):
            done += 1
            try:
                if now - path.stat().st_mtime <= window:
                    completed_in_window += 1
            except OSError:
                continue
        workers: List[Dict[str, Any]] = []
        for path in sorted(self.workers.glob("*.json")):
            try:
                beat_age = max(0.0, now - path.stat().st_mtime)
            except OSError:
                continue
            payload = _read_json(path) or {}
            workers.append({"id": path.stem,
                            "heartbeat_age": round(beat_age, 3),
                            "host": payload.get("host"),
                            "pid": payload.get("pid")})
        return {
            "kind": "queue-status",
            "root": str(self.root),
            "lease_ttl": self.lease_ttl,
            "board": board_status(sum(1 for _ in self.tasks.glob("*.json")),
                                  leases, done, completed_in_window, window),
            "workers": workers,
            "stop": (self.root / STOP_FILENAME).exists(),
        }

    # -- worker side --------------------------------------------------------

    def claim(self, worker_id: Optional[str] = None
              ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Atomically claim the lowest-id pending task, or ``None``.  A
        given ``worker_id`` is written into the lease: ``repro status``
        shows it and :meth:`report` checks ownership against it."""
        for task_path in sorted(self.tasks.glob("*.json")):
            lease_path = self.leases / task_path.name
            try:
                os.rename(task_path, lease_path)
            except OSError:
                continue  # another worker won the rename
            # rename() preserves the task file's mtime; refresh it so the
            # lease clock starts at claim time, not enqueue time —
            # otherwise a task that waited longer than the TTL would be
            # born stale and reclaimed out from under its live owner.
            _touch(lease_path)
            payload = _read_json(lease_path)
            if self._unreadable(task_path.stem, payload):
                continue
            if worker_id is not None:
                payload["worker"] = worker_id
                # The atomic rewrite also refreshes the lease mtime.
                _write_json_atomic(lease_path, payload)
            _metric("queue.claims").inc()
            return task_path.stem, payload
        return None

    def touch_lease(self, task_id: str) -> None:
        """Heartbeat: prove the lease owner is still alive."""
        _touch(self.lease_path(task_id))
        _metric("queue.heartbeats").inc()

    def report(self, task: Dict[str, Any], outcome: Dict[str, Any]) -> str:
        """Consume the outcome of a task claimed by ``task["worker"]``; same
        contract as :meth:`~repro.orchestrator.net.TaskBoard.complete`."""
        task_id = str(task["id"])
        worker = task.get("worker")
        if "record" in outcome:
            published = self.complete(task_id, result_payload(
                task_id, task, outcome, next_attempt(task), worker))
            return "done" if published else "ignored"
        private = self._take_lease(task_id, worker)
        if private is None:
            return "ignored"
        terminal = charge_failure(task, outcome, worker)
        self._release(private, task, terminal)
        return "retry" if terminal is None else "done"

    def complete(self, task_id: str, payload: Dict[str, Any]) -> bool:
        """Publish a result (record or terminal error) and drop the lease.
        Returns whether it was written: a published success is final."""
        published = self._publish(task_id, payload)
        _unlink(self.lease_path(task_id))
        return published

    def release_for_retry(self, task_id: str, payload: Dict[str, Any]) -> bool:
        """Put a failed-but-retryable task back on the queue if
        ``payload["worker"]`` still owns its lease; returns whether it did."""
        private = self._take_lease(task_id, payload.get("worker"))
        if private is None:
            return False
        self._release(private, payload, None)
        return True

    def _publish(self, task_id: str, payload: Dict[str, Any]) -> bool:
        payload.setdefault("kind", RESULT_KIND)
        payload.setdefault("id", task_id)
        _metric("queue.completes").inc()
        if is_final(_read_json(self.result_path(task_id))):
            return False
        _write_json_atomic(self.result_path(task_id), payload)
        return True

    def _unreadable(self, task_id: str,
                    payload: Optional[Dict[str, Any]]) -> bool:
        """An unreadable task must still terminate: it becomes a failed
        result (rather than vanishing) so no coordinator waits forever."""
        if payload is not None and payload.get("kind") == TASK_KIND:
            return False
        self.complete(task_id, {
            "error": f"unreadable task payload for {task_id!r}", "attempt": 1})
        return True

    def _take_lease(self, task_id: str, worker: Optional[str]
                    ) -> Optional[Path]:
        """Rename ``task_id``'s lease to a private name if ``worker`` owns
        it; only the process that wins the rename acts on the task."""
        lease_path = self.lease_path(task_id)
        held = _read_json(lease_path)
        if held is None or held.get("worker") != worker:
            return None
        private = self._private_path(task_id)
        try:
            os.rename(lease_path, private)
        except OSError:
            return None  # reclaimed or completed since the read
        taken = _read_json(private) or {}
        if taken.get("worker") == worker:
            return private
        # Reclaimed and re-claimed between the read and the rename: the
        # lease is someone else's, give it back.
        try:
            os.rename(private, lease_path)
        except OSError:
            pass
        return None

    def _release(self, private: Path, task: Dict[str, Any],
                 terminal: Optional[Dict[str, Any]]) -> None:
        """Finish a taken lease: re-enqueue ``task`` or publish its
        ``terminal`` failure, then drop the private file (in that order, so
        a crash in between leaves the ``.reclaim`` file to recover)."""
        if terminal is None:
            _metric("queue.retries").inc()
            _write_json_atomic(self.task_path(str(task["id"])), task)
        else:
            self._publish(str(task["id"]), terminal)
        _unlink(private)

    # -- maintenance: long-lived queue directories ---------------------------

    def gc(self, ttl: float = 24 * 3600.0, now: Optional[float] = None,
           reclaim: bool = True) -> Dict[str, int]:
        """Prune a long-lived queue directory; returns per-category counts.

        Stale leases are first reclaimed (so no work is lost); then results,
        dead worker registrations and a ``STOP`` sentinel older than ``ttl``
        seconds are deleted.  Use a ``ttl`` larger than any sweep's
        duration: a live coordinator whose result file is deleted
        re-enqueues the task.
        """
        now = time.time() if now is None else now
        self.ensure_layout()
        counts = {"reclaimed": 0, "results": 0, "workers": 0, "stop": 0}
        if reclaim:
            counts["reclaimed"] = len(self.reclaim_stale(now))
        for category, directory in (("results", self.results),
                                    ("workers", self.workers)):
            for path in directory.glob("*.json"):
                try:
                    if now - path.stat().st_mtime <= ttl:
                        continue
                    path.unlink()
                except OSError:
                    continue  # raced another janitor / consumer
                counts[category] += 1
        stop = self.root / STOP_FILENAME
        try:
            if stop.exists() and now - stop.stat().st_mtime > ttl:
                stop.unlink()
                counts["stop"] = 1
        except OSError:
            pass
        return counts

    # -- shared: stale-lease recovery ---------------------------------------

    def reclaim_stale(self, now: Optional[float] = None) -> List[str]:
        """Recover leases whose owner stopped heartbeating (each consumes
        one attempt).  Workers and coordinators call this opportunistically;
        ``.reclaim`` files orphaned by a process that died mid-recovery are
        swept by the same pass, so no task is stranded."""
        now = time.time() if now is None else now
        reclaimed: List[str] = []
        candidates = list(self.leases.glob("*.json"))
        candidates += list(self.leases.glob(".*.reclaim"))
        for path in candidates:
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # completed or reclaimed while we looked
            if age <= self.lease_ttl:
                continue
            task_id = self._reclaim_one(path)
            if task_id is not None:
                reclaimed.append(task_id)
                _metric("queue.reclaims").inc()
        return reclaimed

    def _reclaim_one(self, path: Path) -> Optional[str]:
        """Recover one stale lease (or orphaned reclaim file): rename it to
        a private name (exactly one reclaimer wins), then :meth:`_release`."""
        if path.suffix == ".json":
            fallback_id = path.stem
        else:  # ".<task-id>.<nonce>.reclaim" left by a dead process
            fallback_id = path.name.lstrip(".").rsplit(".", 2)[0]
        private = self._private_path(fallback_id)
        try:
            os.rename(path, private)
        except OSError:
            return None  # lost the race to another reclaimer / completion
        payload = _read_json(private)
        if self._unreadable(fallback_id, payload):
            _unlink(private)
            return fallback_id
        task_id = payload.setdefault("id", fallback_id)
        # If the task turned out to be alive after all — its result was
        # published, it was re-enqueued, or it is leased again — recovering
        # would resurrect finished work; just drop the stale copy.
        if (self.task_path(task_id).exists()
                or self.lease_path(task_id).exists()
                or is_final(_read_json(self.result_path(task_id)))):
            _unlink(private)
            return None
        self._release(private, payload, charge_failure(payload))
        return task_id


# ---------------------------------------------------------------------------
# The worker daemon — ``python -m repro worker <queue-dir>``
# ---------------------------------------------------------------------------

class _DirectorySource:
    """Tasks from a queue directory; the worker registers under
    ``workers/`` and keeps its registration and leases fresh by mtime."""

    def __init__(self, queue: FileTaskQueue, worker_id: str,
                 poll: float) -> None:
        self.queue = queue
        self.worker_id = worker_id
        self.lease_ttl = queue.lease_ttl
        self.summary = WorkerSummary(worker_id)
        queue.ensure_layout()
        self.registration = queue.workers / f"{worker_id}.json"
        _write_json_atomic(self.registration, {
            "kind": WORKER_KIND, "id": worker_id, "host": socket.gethostname(),
            "pid": os.getpid(), "started_at": time.time()})
        self._beat_every = heartbeat_interval(queue.lease_ttl)
        self._reclaim_every = max(queue.lease_ttl / 4.0, poll)
        self._last_beat = self._last_reclaim = float("-inf")

    def stopped(self) -> bool:
        return (self.queue.root / STOP_FILENAME).exists()

    def claim(self) -> Optional[Dict[str, Any]]:
        now = time.monotonic()
        if now - self._last_beat >= self._beat_every:
            _touch(self.registration)
            self.summary.heartbeats += 1
            self._last_beat = now
        if now - self._last_reclaim >= self._reclaim_every:
            self.queue.reclaim_stale()
            self._last_reclaim = now
        claimed = self.queue.claim(self.worker_id)
        return None if claimed is None else claimed[1]

    def heartbeat(self, task_id: str) -> bool:
        self.queue.touch_lease(task_id)
        _touch(self.registration)
        return True

    def report(self, task: Dict[str, Any], outcome: Dict[str, Any]) -> str:
        return self.queue.report(task, outcome)

    def undelivered(self) -> bool:
        return False

    def close(self) -> None:
        _unlink(self.registration)


def run_worker(queue_dir: PathLike,
               worker_id: Optional[str] = None,
               lease_ttl: float = DEFAULT_LEASE_TTL,
               poll: float = DEFAULT_POLL,
               max_idle: Optional[float] = None,
               max_tasks: Optional[int] = None,
               progress: Optional[Progress] = None,
               checkpoint_dir: Optional[PathLike] = None,
               checkpoint_every: Optional[int] = None,
               ) -> WorkerSummary:
    """Serve a queue directory with :func:`~repro.orchestrator.remote.serve`;
    returns its :class:`WorkerSummary`.  A ``STOP`` file in the queue root
    also ends the loop.  ``checkpoint_dir`` / ``checkpoint_every`` override
    the task's own options — e.g. to point at a directory shared between
    workers when the coordinator's path is not.
    """
    queue = FileTaskQueue(queue_dir, lease_ttl=lease_ttl)
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    return serve(_DirectorySource(queue, worker_id, poll), poll=poll,
                 max_idle=max_idle, max_tasks=max_tasks, progress=progress,
                 checkpoint_dir=checkpoint_dir,
                 checkpoint_every=checkpoint_every)


# ---------------------------------------------------------------------------
# The coordinator-side transport
# ---------------------------------------------------------------------------

class _DirectoryLink:
    """A sweep's view of the queue directory; it also reclaims stale leases
    and republishes ``status.json`` every quarter TTL and when done."""

    def __init__(self, queue: FileTaskQueue, poll: float) -> None:
        self.queue = queue
        queue.ensure_layout()
        self._reclaim_every = max(queue.lease_ttl / 4.0, poll)
        self._last_reclaim = float("-inf")
        self._total = 0

    def submit(self, tasks: Sequence[Dict[str, Any]]) -> None:
        for task in tasks:
            self.queue.enqueue(task["id"], task["config"], task["digest"],
                               max_attempts=task["max_attempts"],
                               options=task.get("options"))
        self._total = len(tasks)

    def collect(self, task_ids: Sequence[str]) -> List[Dict[str, Any]]:
        if time.monotonic() - self._last_reclaim >= self._reclaim_every:
            self.queue.reclaim_stale()
            self._publish_status(len(task_ids))
            self._last_reclaim = time.monotonic()
        # One directory listing per poll instead of one stat per pending
        # task — kinder to the network filesystems this is designed for.
        try:
            ready = {entry[:-5] for entry in os.listdir(self.queue.results)
                     if entry.endswith(".json")}
        except OSError:
            ready = set()
        results = []
        for task_id in sorted(ready.intersection(task_ids)):
            payload = _read_json(self.queue.result_path(task_id))
            if payload is not None:
                payload.setdefault("id", task_id)
                results.append(payload)
        if len(results) == len(task_ids):
            self._publish_status(0)
        return results

    def live_workers(self) -> List[str]:
        return self.queue.live_workers()

    def close(self) -> None:
        pass

    def _publish_status(self, outstanding: int) -> None:
        """Best-effort: a sweep never dies over its status file."""
        try:
            snapshot = self.queue.status_snapshot()
            snapshot["coordinator"] = {
                "enqueued": self._total,
                "collected": self._total - outstanding,
                "outstanding": outstanding,
                "published_at": time.time(),
            }
            _write_json_atomic(self.queue.root / STATUS_FILENAME, snapshot)
        except OSError:
            pass


class QueueTransport(RemoteTransport):
    """Execute pending configs through a shared filesystem task queue.

    Construct with the queue directory the workers watch and pass to
    :func:`~repro.orchestrator.pool.run_sweep` (or use
    ``repro sweep --transport queue --queue-dir DIR``); the other options
    are :class:`~repro.orchestrator.remote.RemoteTransport`'s.
    """

    name = "queue"

    def __init__(self, queue_dir: PathLike,
                 lease_ttl: float = DEFAULT_LEASE_TTL, **options: Any) -> None:
        super().__init__(**options)
        self.queue_dir = Path(queue_dir)
        self.lease_ttl = float(lease_ttl)

    def _open(self, deadline: Optional[float]) -> SweepLink:
        return _DirectoryLink(
            FileTaskQueue(self.queue_dir, lease_ttl=self.lease_ttl),
            self.poll)

    def _missing_workers(self) -> Tuple[str, str]:
        return (f"registered under {self.queue_dir}",
                f"python -m repro worker {self.queue_dir}")
