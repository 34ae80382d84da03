"""The lease policy shared by the file queue and the TCP coordinator.

:class:`~repro.orchestrator.queue.FileTaskQueue` (atomic renames) and
:class:`~repro.orchestrator.net.TaskBoard` (one lock) store the same
per-task state machine — *pending*, *leased* to one worker, or *done* —
and make every decision of it through the plain functions over task dicts
below, so they differ in how they store, never in what they decide.  Both
enforce one ownership rule: a failure reported by a worker that no longer
holds the lease burns no budget and is ignored, while a success from such
a worker is still published.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..telemetry import summarize_ages

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_POLL",
    "DEFAULT_TASK_ATTEMPTS",
    "RESULT_KIND",
    "TASK_KIND",
    "attempt_limit",
    "board_status",
    "charge_failure",
    "heartbeat_interval",
    "is_final",
    "make_task_id",
    "new_task",
    "next_attempt",
    "result_payload",
]

TASK_KIND = "sweep-task"
RESULT_KIND = "sweep-task-result"

#: Seconds without a heartbeat after which a lease is presumed dead.
DEFAULT_LEASE_TTL = 60.0
#: Seconds between idle polls (workers) and result scans (coordinators).
DEFAULT_POLL = 0.2
#: Default per-task execution budget (first try included).
DEFAULT_TASK_ATTEMPTS = 3


def make_task_id(index: int, digest: str) -> str:
    """Stable id: the spec index keeps claim order ≈ spec order, the
    digest makes concurrent coordinators running the same spec share
    (rather than duplicate) tasks."""
    return f"{index:06d}-{digest}"


def attempt_limit(value: Any) -> Optional[int]:
    """Normalise a retry budget: ``None`` / ``<= 0`` mean unlimited."""
    if value is None:
        return None
    limit = int(value)
    return limit if limit > 0 else None


def heartbeat_interval(lease_ttl: float) -> float:
    """Seconds between a lease owner's heartbeats: four per TTL, clamped
    to 50 ms – 5 s."""
    return max(min(lease_ttl / 4.0, 5.0), 0.05)


def new_task(task_id: str, config: Dict[str, Any], digest: str,
             max_attempts: Optional[int] = DEFAULT_TASK_ATTEMPTS,
             options: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """A fresh task document; ``options`` (checkpointing) rides along so
    every worker — one resuming a reclaimed task too — runs it alike."""
    task: Dict[str, Any] = {
        "kind": TASK_KIND,
        "id": task_id,
        "digest": digest,
        "config": config,
        "attempt": 0,
        "max_attempts": attempt_limit(max_attempts),
        "enqueued_at": time.time(),
    }
    if options:
        task["options"] = dict(options)
    return task


def next_attempt(task: Dict[str, Any]) -> int:
    """The attempt number a report on ``task`` is about (1-based)."""
    return int(task.get("attempt", 0)) + 1


def is_final(result: Optional[Dict[str, Any]]) -> bool:
    """Whether ``result`` is a published success, which nothing replaces."""
    return result is not None and "record" in result


def result_payload(task_id: str, task: Dict[str, Any],
                   outcome: Dict[str, Any], attempt: int,
                   worker: Optional[str] = None) -> Dict[str, Any]:
    """The result document for one finished attempt of ``task``, from an
    :func:`~repro.orchestrator.transport.execute_payload` ``outcome``."""
    payload: Dict[str, Any] = {
        "kind": RESULT_KIND,
        "id": task_id,
        "digest": task.get("digest", ""),
        "config": task.get("config", outcome.get("config", {})),
    }
    if "elapsed" in outcome:
        payload["elapsed"] = outcome["elapsed"]
    if worker is not None:
        payload["worker"] = worker
    payload["attempt"] = attempt
    if "resumed_round" in outcome:
        payload["resumed_round"] = outcome["resumed_round"]
    if "record" in outcome:
        payload["record"] = outcome["record"]
    else:
        payload["error"] = outcome.get("error", "unknown error")
    return payload


def charge_failure(task: Dict[str, Any],
                   outcome: Optional[Dict[str, Any]] = None,
                   worker: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """Charge one failed attempt to ``task`` (bumping its ``attempt`` in
    place): returns the terminal failed result once the budget is spent,
    else ``None`` (back to pending).  ``outcome`` is the failing worker's
    report; ``None`` means its lease expired."""
    attempt = next_attempt(task)
    task["attempt"] = attempt
    limit = attempt_limit(task.get("max_attempts", DEFAULT_TASK_ATTEMPTS))
    if limit is None or attempt < limit:
        return None
    if outcome is None:
        outcome = {"error": (f"worker lease expired and the task is out of "
                             f"attempts ({attempt}/{limit})")}
    return result_payload(str(task.get("id", "")), task, outcome, attempt,
                          worker)


def board_status(pending: int, leases: List[Dict[str, Any]], done: int,
                 completed: int, window: float) -> Dict[str, Any]:
    """The board document ``repro status`` shows for either backend:
    ``leases`` holds ``{"id", "worker", "age"}`` per live lease and
    ``completed`` counts results published in the last ``window`` s."""
    return {
        "pending": pending,
        "leased": len(leases),
        "done": done,
        "lease_ages": summarize_ages([lease["age"] for lease in leases]),
        "leases": leases,
        "throughput": {
            "window": window,
            "completed": completed,
            "per_second": round(completed / window, 4) if window > 0 else 0.0,
        },
    }
