"""TCP coordinator/worker transport: distribute a sweep with no shared state.

The :mod:`~repro.orchestrator.queue` transport needs a shared filesystem;
this module needs only a network.  A **coordinator** process
(``python -m repro serve``) owns the task set in memory
(:class:`TaskBoard`, with the queue's lease policy from
:mod:`~repro.orchestrator.lease`) and speaks a JSON-lines protocol over
TCP to two kinds of clients, both reconnecting with exponential backoff:

* **workers** (``python -m repro worker --connect HOST:PORT``) run the
  shared :func:`~repro.orchestrator.remote.serve` loop against it;
* **submitters** (:class:`TcpTransport`, behind ``repro sweep --transport
  tcp --coordinator HOST:PORT``) enqueue the sweep's pending configs and
  poll for their results, re-submitting them after a coordinator restart
  (submission is idempotent).

Task and result payloads are the queue's, so a TCP sweep's ledger is
byte-comparable with a ``--jobs 1`` run of the same spec.

Wire protocol (one JSON object per line, UTF-8):

* the server greets each connection with ``{"server": ..., "proto": 1,
  "nonce": ...}``;
* the client answers ``{"op": "hello", "role": "worker"|"submitter", ...}``
  carrying ``auth = HMAC-SHA256(secret, nonce)`` when the coordinator was
  started with a shared secret (the secret itself never crosses the wire);
* every subsequent line is one request → one ``{"ok": ...}`` response:
  ``submit`` / ``collect`` / ``workers`` for submitters, ``claim`` /
  ``heartbeat`` / ``result`` for workers, ``ping`` for everyone.
"""

from __future__ import annotations

import hmac
import json
import os
import socket
import socketserver
import threading
import time
import uuid
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .lease import (
    DEFAULT_LEASE_TTL,
    DEFAULT_POLL,
    DEFAULT_TASK_ATTEMPTS,
    board_status,
    charge_failure,
    is_final,
    new_task,
    next_attempt,
    result_payload,
)
from .remote import Progress, RemoteTransport, SweepLink, WorkerSummary, serve

__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "CoordinatorClient",
    "CoordinatorServer",
    "HandshakeError",
    "TaskBoard",
    "TcpTransport",
    "fetch_status",
    "parse_address",
    "run_server",
    "run_tcp_worker",
]

#: Default port ``python -m repro serve`` listens on.
DEFAULT_PORT = 7643
#: Bumped when the wire protocol changes incompatibly.
PROTOCOL_VERSION = 1
#: How many tasks/result-ids travel in one protocol line (bounds line size).
_BATCH = 256
#: Reconnect backoff: first delay and cap, seconds.
_BACKOFF_FIRST = 0.2
_BACKOFF_MAX = 5.0

#: Seconds an uncollected result stays on the board (the in-memory analog
#: of ``repro queue-gc --ttl``); a submitter whose result was pruned simply
#: re-enqueues the task.
DEFAULT_RESULT_TTL = 24 * 3600.0

SERVER_NAME = "repro-coordinator"


class HandshakeError(ConnectionError):
    """The coordinator rejected the handshake (bad secret, bad protocol).
    Never retried: the same credentials can never succeed."""


def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``:PORT`` / ``PORT``) into a pair."""
    text = str(address).strip()
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = "", text
    host = host or "127.0.0.1"
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"invalid coordinator address {address!r}; expected HOST:PORT"
        ) from None


def _auth_token(secret: str, nonce: str) -> str:
    return hmac.new(secret.encode("utf-8"), nonce.encode("utf-8"),
                    "sha256").hexdigest()


# ---------------------------------------------------------------------------
# The coordinator-side task set
# ---------------------------------------------------------------------------

class TaskBoard:
    """In-memory task set: the queue directory's pending/leased/done states
    behind one lock (every protocol handler thread goes through it), with
    every decision made by :mod:`~repro.orchestrator.lease`."""

    def __init__(self, lease_ttl: float = DEFAULT_LEASE_TTL,
                 result_ttl: float = DEFAULT_RESULT_TTL) -> None:
        self.lease_ttl = float(lease_ttl)
        self.result_ttl = float(result_ttl)
        self._lock = threading.Lock()
        #: task id -> task payload (kind/id/digest/config/attempt/...).
        self._tasks: Dict[str, Dict[str, Any]] = {}
        #: claimable task ids (subset of ``_tasks``).
        self._pending: set = set()
        #: task id -> (worker id, heartbeat deadline, leased-at stamp) —
        #: the last entry feeds the lease-age percentiles in ``stats()``.
        self._leases: Dict[str, Tuple[str, float, float]] = {}
        #: task id -> finished result payload (record or terminal error).
        self._results: Dict[str, Dict[str, Any]] = {}
        #: task id -> when its result was published / last collected, on
        #: the same monotonic clock as the lease deadlines.  Results older
        #: than ``result_ttl`` are pruned so a long-lived coordinator's
        #: memory is bounded by its active campaigns, not its history.
        self._result_times: Dict[str, float] = {}
        #: Lifetime op counters for ``stats()`` / the ``status`` op.
        self._counters: Dict[str, int] = {}
        self._counter_lock = threading.Lock()
        #: Monotonic stamps of recent completions (rolling throughput).
        self._completions: deque = deque(maxlen=4096)

    def note(self, name: str, amount: int = 1) -> None:
        """Bump a lifetime counter (safe with or without the board lock)."""
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    # -- submitter side -----------------------------------------------------

    def enqueue(self, task_id: str, config_dict: Dict[str, Any], digest: str,
                max_attempts: Optional[int] = DEFAULT_TASK_ATTEMPTS,
                options: Optional[Dict[str, Any]] = None) -> str:
        """Make ``task_id`` runnable; same contract as
        :meth:`~repro.orchestrator.queue.FileTaskQueue.enqueue`."""
        with self._lock:
            result = self._results.get(task_id)
            if is_final(result):
                return "result-exists"
            if result is not None:
                del self._results[task_id]
                self._result_times.pop(task_id, None)
            if task_id in self._tasks:
                return "pending"
            self._tasks[task_id] = new_task(task_id, config_dict, digest,
                                            max_attempts, options)
            self._pending.add(task_id)
        self.note("enqueued")
        return "enqueued"

    def collect(self, task_ids: Sequence[str]) -> List[Dict[str, Any]]:
        """Finished result payloads among ``task_ids`` (stateless: results
        stay on the board, so a reconnecting submitter can ask again)."""
        now = time.monotonic()
        with self._lock:
            found = [task_id for task_id in task_ids
                     if task_id in self._results]
            for task_id in found:
                self._result_times[task_id] = now
            return [dict(self._results[task_id]) for task_id in found]

    # -- worker side --------------------------------------------------------

    def claim(self, worker_id: str,
              now: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Lease the lowest-id pending task to ``worker_id``, or ``None``."""
        now = time.monotonic() if now is None else now
        with self._lock:
            if not self._pending:
                return None
            task_id = min(self._pending)
            self._pending.discard(task_id)
            self._leases[task_id] = (worker_id, now + self.lease_ttl, now)
            task = dict(self._tasks[task_id])
        self.note("claims")
        return task

    def heartbeat(self, worker_id: str, task_id: str,
                  now: Optional[float] = None) -> bool:
        """Extend the lease deadline; ``False`` if the lease is no longer
        this worker's (reclaimed, completed, or never claimed)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            lease = self._leases.get(task_id)
            if lease is None or lease[0] != worker_id:
                return False
            # The leased-at stamp survives heartbeats: a lease's age is
            # measured from its claim, not its last proof of life.
            self._leases[task_id] = (worker_id, now + self.lease_ttl,
                                     lease[2])
        self.note("heartbeats")
        return True

    def complete(self, worker_id: str, task_id: str,
                 outcome: Dict[str, Any]) -> str:
        """Consume a worker's ``execute_payload`` outcome; returns the
        task's fate: ``"done"`` (published — a record, or a failure that
        spent the budget), ``"retry"`` or ``"ignored"`` (a success exists,
        or the failing worker no longer owns the lease)."""
        with self._lock:
            if is_final(self._results.get(task_id)):
                return "ignored"
            # An unknown task (the board restarted) still takes a success,
            # so the work is not wasted.
            task = self._tasks.get(task_id, {})
            if "record" in outcome:
                self._finish(task_id, result_payload(
                    task_id, task, outcome, next_attempt(task), worker_id))
                return "done"
            lease = self._leases.get(task_id)
            if lease is None or lease[0] != worker_id:
                # A reclaimed lease already consumed this attempt; a late
                # failure from the presumed-dead worker burns no budget.
                return "ignored"
            del self._leases[task_id]
            terminal = charge_failure(task, outcome, worker_id)
            if terminal is None:
                self._pending.add(task_id)
                self.note("retries")
                return "retry"
            self._finish(task_id, terminal)
            self.note("exhausted")
            return "done"

    # -- shared: stale-lease recovery ---------------------------------------

    def reclaim_stale(self, now: Optional[float] = None) -> List[str]:
        """Recover leases whose heartbeat deadline passed; each reclaim
        consumes one attempt."""
        now = time.monotonic() if now is None else now
        reclaimed: List[str] = []
        with self._lock:
            for task_id, (_worker, deadline, _leased_at) in \
                    list(self._leases.items()):
                if deadline > now:
                    continue
                del self._leases[task_id]
                terminal = charge_failure(self._tasks[task_id])
                if terminal is None:
                    self._pending.add(task_id)
                else:
                    self._finish(task_id, terminal, now=now)
                    self.note("exhausted")
                reclaimed.append(task_id)
                self.note("reclaims")
            # Bounded memory for long-lived coordinators: results nobody
            # published or collected within result_ttl are dropped (the
            # in-memory analog of ``repro queue-gc``).
            for task_id, stamp in list(self._result_times.items()):
                if now - stamp > self.result_ttl:
                    self._results.pop(task_id, None)
                    del self._result_times[task_id]
        return reclaimed

    # -- introspection ------------------------------------------------------

    def stats(self, now: Optional[float] = None,
              window: float = 60.0) -> Dict[str, Any]:
        """The :func:`~repro.orchestrator.lease.board_status` document plus
        lifetime ``counters``; ``now`` is on the monotonic clock."""
        now = time.monotonic() if now is None else now
        with self._lock:
            leases = [{"id": task_id, "worker": worker,
                       "age": round(max(0.0, now - leased_at), 3)}
                      for task_id, (worker, _deadline, leased_at)
                      in sorted(self._leases.items())]
            completed = sum(1 for stamp in self._completions
                            if now - stamp <= window)
            status = board_status(len(self._pending), leases,
                                  len(self._results), completed, window)
        with self._counter_lock:
            status["counters"] = dict(self._counters)
        return status

    # -- internals (call with the lock held) --------------------------------

    def _finish(self, task_id: str, payload: Dict[str, Any],
                now: Optional[float] = None) -> None:
        """Publish ``payload`` as the task's result and retire the task."""
        now = time.monotonic() if now is None else now
        self._results[task_id] = payload
        self._result_times[task_id] = now
        self._completions.append(now)
        self._tasks.pop(task_id, None)
        self._pending.discard(task_id)
        self._leases.pop(task_id, None)
        self.note("completed")


# ---------------------------------------------------------------------------
# The coordinator server
# ---------------------------------------------------------------------------

class _Handler(socketserver.StreamRequestHandler):
    """One connection: greeting, handshake, then request/response lines."""

    server: "_TcpServer"

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        board = self.server.board
        nonce = uuid.uuid4().hex
        self._send({"server": SERVER_NAME, "proto": PROTOCOL_VERSION,
                    "nonce": nonce, "lease_ttl": board.lease_ttl})
        hello = self._recv()
        if hello is None or hello.get("op") != "hello":
            self._send({"ok": False, "error": "expected a hello"})
            return
        if int(hello.get("proto", 0)) != PROTOCOL_VERSION:
            self._send({"ok": False,
                        "error": f"protocol mismatch: coordinator speaks "
                                 f"{PROTOCOL_VERSION}"})
            return
        secret = self.server.secret
        if secret is not None:
            auth = str(hello.get("auth", ""))
            if not hmac.compare_digest(auth, _auth_token(secret, nonce)):
                self._send({"ok": False, "error": "handshake rejected: "
                                                  "bad shared secret"})
                return
        role = hello.get("role", "worker")
        worker_id = str(hello.get("worker") or f"tcp-{nonce[:8]}")
        self._send({"ok": True, "server": SERVER_NAME,
                    "proto": PROTOCOL_VERSION, "lease_ttl": board.lease_ttl})
        if role == "worker":
            self.server.worker_connected(worker_id)
        try:
            while True:
                request = self._recv()
                if request is None:
                    return
                try:
                    response = self._dispatch(role, worker_id, request)
                except Exception as exc:  # defensive: never kill the server
                    response = {"ok": False, "error": repr(exc)}
                self._send(response)
        finally:
            if role == "worker":
                self.server.worker_gone(worker_id)

    # -- framing ------------------------------------------------------------

    def _send(self, payload: Dict[str, Any]) -> None:
        self.wfile.write(json.dumps(payload).encode("utf-8") + b"\n")

    def _recv(self) -> Optional[Dict[str, Any]]:
        try:
            line = self.rfile.readline()
        except OSError:
            return None
        if not line:
            return None
        try:
            data = json.loads(line)
        except ValueError:
            return None
        return data if isinstance(data, dict) else None

    # -- request dispatch ---------------------------------------------------

    def _dispatch(self, role: str, worker_id: str,
                  request: Dict[str, Any]) -> Dict[str, Any]:
        board = self.server.board
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "stats": board.stats()}
        if op == "workers":
            return {"ok": True, "workers": self.server.live_workers()}
        if op == "status":
            # One self-describing snapshot for ``repro status``: board
            # depth + lease ages + counters + throughput, plus the
            # connection-level worker view the board cannot see.
            board.reclaim_stale()
            return {"ok": True, "status": {
                "server": SERVER_NAME,
                "proto": PROTOCOL_VERSION,
                "lease_ttl": board.lease_ttl,
                "board": board.stats(),
                "workers": self.server.live_workers(),
                "stop": self.server.stop_workers_flag.is_set(),
            }}
        if op == "submit":
            board.reclaim_stale()
            return {"ok": True, "statuses": {
                str(task["id"]): board.enqueue(
                    str(task["id"]), task.get("config", {}),
                    str(task.get("digest", "")),
                    task.get("max_attempts", DEFAULT_TASK_ATTEMPTS),
                    task.get("options"))
                for task in request.get("tasks", [])}}
        if op == "collect":
            board.reclaim_stale()
            results = board.collect([str(i) for i in request.get("ids", [])])
            return {"ok": True, "results": results}
        if op == "claim":
            if self.server.stop_workers_flag.is_set():
                # The TCP analog of the queue directory's STOP file:
                # workers exit at their next claim instead of idling out.
                board.note("stops_served")
                return {"ok": True, "task": None, "stop": True}
            board.reclaim_stale()
            task = board.claim(worker_id)
            return {"ok": True, "task": task}
        if op == "heartbeat":
            known = board.heartbeat(worker_id, str(request.get("id", "")))
            return {"ok": True, "known": known}
        if op == "result":
            status = board.complete(worker_id, str(request.get("id", "")),
                                    request.get("outcome", {}))
            return {"ok": True, "status": status}
        return {"ok": False, "error": f"unknown op {op!r}"}


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], board: TaskBoard,
                 secret: Optional[str]) -> None:
        super().__init__(address, _Handler)
        self.board = board
        self.secret = secret
        self.stop_workers_flag = threading.Event()
        self._workers_lock = threading.Lock()
        #: worker id -> number of open connections (connection liveness).
        self._worker_connections: Dict[str, int] = {}
        #: every open connection socket, so a stopping server can sever
        #: them — ``shutdown()`` alone only stops *accepting*; established
        #: connections would keep talking to a ghost coordinator.
        self._connections: set = set()

    def process_request(self, request, client_address) -> None:
        with self._workers_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._workers_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        with self._workers_lock:
            # Socket teardown order is immaterial: nothing downstream
            # observes it, and sockets are not sortable anyway.
            connections = list(self._connections)  # repro: lint-ok[D102]
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def worker_connected(self, worker_id: str) -> None:
        with self._workers_lock:
            self._worker_connections[worker_id] = (
                self._worker_connections.get(worker_id, 0) + 1)

    def worker_gone(self, worker_id: str) -> None:
        with self._workers_lock:
            count = self._worker_connections.get(worker_id, 0) - 1
            if count <= 0:
                self._worker_connections.pop(worker_id, None)
            else:
                self._worker_connections[worker_id] = count

    def live_workers(self) -> List[str]:
        with self._workers_lock:
            return sorted(self._worker_connections)


class CoordinatorServer:
    """The coordinator behind ``python -m repro serve``: a :class:`TaskBoard`
    served from a background thread.  ``start()`` binds (``port=0`` picks a
    free port; see :attr:`address`), ``stop()`` shuts down; also a context
    manager."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 secret: Optional[str] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 result_ttl: float = DEFAULT_RESULT_TTL) -> None:
        self.host = host
        self.port = int(port)
        self.secret = secret
        self.board = TaskBoard(lease_ttl=lease_ttl, result_ttl=result_ttl)
        self._server: Optional[_TcpServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            return (self.host, self.port)
        return self._server.server_address[:2]

    @property
    def endpoint(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "CoordinatorServer":
        if self._server is not None:
            raise RuntimeError("coordinator already started")
        self._server = _TcpServer((self.host, self.port), self.board,
                                  self.secret)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        # Sever live worker/submitter connections too: their reconnect
        # logic must kick in, exactly as after a coordinator crash.
        self._server.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._server = None
        self._thread = None

    def live_workers(self) -> List[str]:
        return self._server.live_workers() if self._server else []

    def stop_workers(self) -> None:
        """Tell every connected worker to exit at its next claim (the TCP
        analog of touching ``STOP`` in a queue directory)."""
        if self._server is not None:
            self._server.stop_workers_flag.set()

    def __enter__(self) -> "CoordinatorServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def run_server(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
               secret: Optional[str] = None,
               lease_ttl: float = DEFAULT_LEASE_TTL,
               result_ttl: float = DEFAULT_RESULT_TTL,
               ready: Optional[Callable[[str], None]] = None) -> int:
    """Blocking entry point for ``python -m repro serve``: serves until
    interrupted; ``ready`` gets the bound ``host:port`` endpoint once."""
    server = CoordinatorServer(host=host, port=port, secret=secret,
                               lease_ttl=lease_ttl, result_ttl=result_ttl)
    server.start()
    if ready is not None:
        ready(server.endpoint)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 130
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# The protocol client
# ---------------------------------------------------------------------------

class CoordinatorClient:
    """One authenticated JSON-lines connection to a coordinator.

    ``request()`` holds a lock, so a heartbeat thread can share the
    connection with the main loop.  Link failures raise ``OSError`` (for
    callers to retry); a rejected handshake raises :class:`HandshakeError`.
    """

    def __init__(self, address: Any, secret: Optional[str] = None,
                 role: str = "submitter", worker_id: Optional[str] = None,
                 timeout: float = 30.0) -> None:
        self.address = (parse_address(address)
                        if isinstance(address, str) else tuple(address))
        self.secret = secret
        self.role = role
        self.worker_id = worker_id
        self.timeout = float(timeout)
        self.lease_ttl = DEFAULT_LEASE_TTL
        #: Successful connections so far (the first one included).
        self.connects = 0
        self._backoff = _BACKOFF_FIRST
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._file: Any = None

    @property
    def connected(self) -> bool:
        return self._file is not None

    def redial(self) -> bool:
        """One (re)connection attempt: after a link failure, sleep an
        exponential backoff and return ``False``.  A rejected handshake is
        raised, never retried."""
        try:
            self.connect()
        except HandshakeError:
            raise
        except OSError:
            time.sleep(self._backoff)
            self._backoff = min(self._backoff * 2, _BACKOFF_MAX)
            return False
        self._backoff = _BACKOFF_FIRST
        return True

    def connect(self) -> "CoordinatorClient":
        sock = socket.create_connection(self.address, timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handle = sock.makefile("rwb")
            greeting = json.loads(handle.readline() or b"null")
            if (not isinstance(greeting, dict)
                    or greeting.get("server") != SERVER_NAME):
                raise HandshakeError(
                    f"{self.address[0]}:{self.address[1]} is not a repro "
                    f"coordinator")
            hello: Dict[str, Any] = {"op": "hello", "proto": PROTOCOL_VERSION,
                                     "role": self.role}
            if self.worker_id:
                hello["worker"] = self.worker_id
            if self.secret is not None:
                hello["auth"] = _auth_token(self.secret,
                                            str(greeting.get("nonce", "")))
            handle.write(json.dumps(hello).encode("utf-8") + b"\n")
            handle.flush()
            reply = json.loads(handle.readline() or b"null")
            if not isinstance(reply, dict) or not reply.get("ok"):
                error = (reply or {}).get("error", "connection closed")
                raise HandshakeError(f"coordinator refused the handshake: "
                                     f"{error}")
            self.lease_ttl = float(reply.get("lease_ttl", DEFAULT_LEASE_TTL))
        except Exception:
            sock.close()
            raise
        self._sock, self._file = sock, handle
        self.connects += 1
        return self

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request → one response; raises ``OSError`` on link failure."""
        with self._lock:
            if self._file is None:
                raise OSError("not connected")
            self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
            self._file.flush()
            line = self._file.readline()
            if not line:
                raise OSError("coordinator closed the connection")
            response = json.loads(line)
        if not isinstance(response, dict):
            raise OSError("malformed coordinator response")
        if not response.get("ok"):
            raise RuntimeError(f"coordinator error: "
                               f"{response.get('error', 'unknown')}")
        return response

    def close(self) -> None:
        with self._lock:
            for closer in (self._file, self._sock):
                try:
                    if closer is not None:
                        closer.close()
                except OSError:
                    pass
            self._file = self._sock = None

    def __enter__(self) -> "CoordinatorClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def fetch_status(address: Any, secret: Optional[str] = None,
                 timeout: float = 10.0) -> Dict[str, Any]:
    """One-shot ``status`` query against a live coordinator; raises
    ``OSError`` / :class:`HandshakeError` like any other client call."""
    client = CoordinatorClient(address, secret=secret, role="status",
                               timeout=timeout)
    client.connect()
    try:
        return client.request({"op": "status"})["status"]
    finally:
        client.close()


# ---------------------------------------------------------------------------
# The network worker — ``python -m repro worker --connect HOST:PORT``
# ---------------------------------------------------------------------------

class _CoordinatorSource:
    """Tasks from a coordinator: the next claim after a link failure
    reconnects, and first re-sends an outcome the failure left
    undelivered."""

    def __init__(self, address: Any, secret: Optional[str],
                 worker_id: str) -> None:
        self.client = CoordinatorClient(address, secret=secret, role="worker",
                                        worker_id=worker_id)
        self.worker_id = worker_id
        self.lease_ttl = DEFAULT_LEASE_TTL
        self.summary = WorkerSummary(worker_id)
        self._stop = False
        #: (task_id, outcome) that could not be delivered before a drop.
        self._unsent: Optional[Tuple[str, Dict[str, Any]]] = None

    def stopped(self) -> bool:
        return self._stop

    def undelivered(self) -> bool:
        return self._unsent is not None

    def claim(self) -> Optional[Dict[str, Any]]:
        if not self.client.connected:
            if not self.client.redial():
                return None
            self.summary.reconnects = self.client.connects - 1
            self.lease_ttl = self.client.lease_ttl
        try:
            if self._unsent is not None:
                self.client.request({"op": "result", "id": self._unsent[0],
                                     "outcome": self._unsent[1]})
                self._unsent = None
                self.summary.replayed += 1
                return None
            response = self.client.request({"op": "claim"})
        except OSError:
            self.client.close()
            return None
        # The TCP analog of the queue directory's STOP file.
        self._stop = bool(response.get("stop"))
        task: Optional[Dict[str, Any]] = response.get("task")
        return task

    def heartbeat(self, task_id: str) -> bool:
        try:
            self.client.request({"op": "heartbeat", "id": task_id})
        except (OSError, RuntimeError):
            return False
        return True

    def report(self, task: Dict[str, Any], outcome: Dict[str, Any]) -> str:
        try:
            return str(self.client.request(
                {"op": "result", "id": task["id"], "outcome": outcome}
            ).get("status", "done"))
        except OSError:
            self.client.close()
            self._unsent = (str(task["id"]), outcome)
            return "undelivered"

    def close(self) -> None:
        self.client.close()


def run_tcp_worker(address: Any,
                   secret: Optional[str] = None,
                   worker_id: Optional[str] = None,
                   poll: float = DEFAULT_POLL,
                   max_idle: Optional[float] = None,
                   max_tasks: Optional[int] = None,
                   progress: Optional[Progress] = None,
                   checkpoint_dir: Optional[str] = None,
                   checkpoint_every: Optional[int] = None) -> WorkerSummary:
    """Serve a TCP coordinator with :func:`~repro.orchestrator.remote.serve`;
    returns its :class:`~repro.orchestrator.remote.WorkerSummary`.

    Link failures reconnect (time spent disconnected counts as idle); a
    stop broadcast (:meth:`CoordinatorServer.stop_workers`) ends the loop
    and a rejected handshake (:class:`HandshakeError`) is raised.
    ``checkpoint_dir`` / ``checkpoint_every`` override the task's options:
    a sweep's directory is only meaningful on storage the workers share.
    """
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    return serve(_CoordinatorSource(address, secret, worker_id), poll=poll,
                 max_idle=max_idle, max_tasks=max_tasks, progress=progress,
                 checkpoint_dir=checkpoint_dir,
                 checkpoint_every=checkpoint_every)


class _SubmitterLink:
    """The sweep side: a link failure while collecting reconnects (within
    the sweep's deadline) and re-submits every still-pending task —
    submission is idempotent, so whatever a restarted board lost re-runs."""

    def __init__(self, transport: "TcpTransport",
                 deadline: Optional[float]) -> None:
        self.client = CoordinatorClient(transport.coordinator,
                                        secret=transport.secret)
        self.timeout, self.deadline = transport.timeout, deadline
        self.tasks: List[Dict[str, Any]] = []
        try:
            self.client.connect()
        except HandshakeError:
            raise
        except OSError as exc:
            host, port = self.client.address
            raise ConnectionError(
                f"cannot reach the coordinator at {host}:{port} ({exc}); "
                f"start it with 'python -m repro serve --port {port}'"
            ) from exc

    def _request(self, op: str, key: str, values: Sequence[Any]
                 ) -> List[Dict[str, Any]]:
        responses = []
        for start in range(0, len(values), _BATCH):
            responses.append(self.client.request(
                {"op": op, key: list(values[start:start + _BATCH])}))
        return responses

    def submit(self, tasks: Sequence[Dict[str, Any]]) -> None:
        self.tasks = list(tasks)
        self._request("submit", "tasks", self.tasks)

    def collect(self, task_ids: Sequence[str]) -> List[Dict[str, Any]]:
        try:
            return [result for response in
                    self._request("collect", "ids", task_ids)
                    for result in response.get("results", [])]
        except OSError:
            self.client.close()
        while not self.client.redial():
            if self.deadline is not None and time.monotonic() >= self.deadline:
                raise TimeoutError(
                    f"tcp sweep timed out after {self.timeout}s while "
                    f"reconnecting to the coordinator")
        wanted = set(task_ids)
        self._request("submit", "tasks",
                      [task for task in self.tasks if task["id"] in wanted])
        return []

    def live_workers(self) -> List[str]:
        try:
            return list(self.client.request({"op": "workers"})
                        .get("workers", []))
        except (OSError, RuntimeError):
            return []

    def close(self) -> None:
        self.client.close()


class TcpTransport(RemoteTransport):
    """Execute pending configs through a TCP coordinator.

    Construct with the coordinator's ``HOST:PORT`` and pass to
    :func:`~repro.orchestrator.pool.run_sweep` (or use ``repro sweep
    --transport tcp --coordinator HOST:PORT``); the other options are
    :class:`~repro.orchestrator.remote.RemoteTransport`'s.  The sweep
    survives a coordinator restart (see :class:`_SubmitterLink`).
    """

    name = "tcp"

    def __init__(self, coordinator: Any, secret: Optional[str] = None,
                 **options: Any) -> None:
        super().__init__(**options)
        self.coordinator = coordinator
        self.secret = secret

    def _open(self, deadline: Optional[float]) -> SweepLink:
        return _SubmitterLink(self, deadline)

    def _missing_workers(self) -> Tuple[str, str]:
        return ("connected to the coordinator",
                "python -m repro worker --connect HOST:PORT")
