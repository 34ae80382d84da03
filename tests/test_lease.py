"""One lease policy, two storages: `FileTaskQueue` and `TaskBoard` must agree.

Every test runs against both backends through a thin adapter, so a
decision that drifts between the directory queue and the in-memory board
fails here.  ``expire()`` lets every live lease go stale and reclaims it:
the queue by reclaiming at a wall-clock time past the TTL, the board by
advancing its injectable monotonic clock.
"""

import time

import pytest

from repro.orchestrator import RunConfig, config_digest, default_code_version
from repro.orchestrator.fsutil import read_json
from repro.orchestrator.net import TaskBoard
from repro.orchestrator.queue import FileTaskQueue

CONFIG = RunConfig(algorithm="dle", family="hexagon", size=2, seed=0)
TTL = 1.0


class _Queue:
    def __init__(self, tmp_path):
        self.store = FileTaskQueue(tmp_path / "q", lease_ttl=TTL)

    def enqueue(self, task_id, **kwargs):
        return self.store.enqueue(task_id, CONFIG.to_dict(), "d", **kwargs)

    def claim(self, worker):
        claimed = self.store.claim(worker)
        return None if claimed is None else claimed[1]

    def expire(self):
        return self.store.reclaim_stale(now=time.time() + 5 * TTL)

    def report(self, worker, task, outcome):
        assert task["worker"] == worker
        return self.store.report(task, outcome)

    def result(self, task_id):
        return read_json(self.store.result_path(task_id))


class _Board:
    def __init__(self, tmp_path):
        self.store = TaskBoard(lease_ttl=TTL)
        self.clock = 0.0

    def enqueue(self, task_id, **kwargs):
        return self.store.enqueue(task_id, CONFIG.to_dict(), "d", **kwargs)

    def claim(self, worker):
        return self.store.claim(worker, now=self.clock)

    def expire(self):
        self.clock += 5 * TTL
        return self.store.reclaim_stale(now=self.clock)

    def report(self, worker, task, outcome):
        return self.store.complete(worker, task["id"], outcome)

    def result(self, task_id):
        found = self.store.collect([task_id])
        return found[0] if found else None


@pytest.fixture(params=[_Queue, _Board], ids=["queue", "board"])
def backend(request, tmp_path):
    return request.param(tmp_path)


def _task_id(index=0):
    return FileTaskQueue.task_id(
        index, config_digest(CONFIG, default_code_version()))


def test_claim_order_is_lowest_id_first_and_exclusive(backend):
    first, second = _task_id(0), _task_id(1)
    assert backend.enqueue(second) == "enqueued"
    assert backend.enqueue(first) == "enqueued"
    assert backend.enqueue(first) == "pending"
    assert backend.claim("w0")["id"] == first
    assert backend.claim("w1")["id"] == second
    assert backend.claim("w2") is None


def test_reclaims_exhaust_the_budget_into_a_failed_result(backend):
    task_id = _task_id()
    backend.enqueue(task_id, max_attempts=2)
    for worker in ("w1", "w2"):
        assert backend.claim(worker) is not None
        assert backend.expire() == [task_id]
    result = backend.result(task_id)
    assert "out of attempts (2/2)" in result["error"]
    assert result["attempt"] == 2 and "record" not in result
    assert backend.claim("w3") is None


def test_a_failure_never_overwrites_a_success(backend):
    task_id = _task_id()
    backend.enqueue(task_id)
    late = backend.claim("A")
    backend.expire()
    owner = backend.claim("B")
    assert backend.report("B", owner, {"record": {"rounds": 7}}) == "done"
    # The presumed-dead worker reports late: neither outcome replaces it.
    assert backend.report("A", late, {"error": "late"}) == "ignored"
    assert backend.report("A", late, {"record": {"rounds": 9}}) == "ignored"
    assert backend.result(task_id)["record"] == {"rounds": 7}
    assert backend.enqueue(task_id) == "result-exists"


def test_a_late_failure_burns_no_budget_and_keeps_the_new_lease(backend):
    task_id = _task_id()
    backend.enqueue(task_id, max_attempts=3)
    late = backend.claim("A")
    assert backend.expire() == [task_id]
    owner = backend.claim("B")
    assert owner["attempt"] == 1
    assert backend.report("A", late, {"error": "late"}) == "ignored"
    assert backend.claim("C") is None  # B still holds it; nothing re-pending
    assert backend.result(task_id) is None
    # B's own failure is charged normally: attempt 2 of 3, back to pending.
    assert backend.report("B", owner, {"error": "boom"}) == "retry"
    retry = backend.claim("C")
    assert retry["attempt"] == 2
    assert backend.report("C", retry, {"error": "boom"}) == "done"
    result = backend.result(task_id)
    assert result["error"] == "boom" and result["attempt"] == 3


def test_result_payload_keeps_worker_attempt_and_resumed_round(backend):
    task_id = _task_id()
    backend.enqueue(task_id)
    task = backend.claim("w0")
    outcome = {"record": {"rounds": 3}, "elapsed": 0.5, "resumed_round": 10}
    assert backend.report("w0", task, outcome) == "done"
    result = backend.result(task_id)
    assert result["kind"] == "sweep-task-result" and result["id"] == task_id
    assert (result["worker"], result["attempt"]) == ("w0", 1)
    assert (result["elapsed"], result["resumed_round"]) == (0.5, 10)
