"""Pluggable sweep executors: where a config actually runs.

:func:`~repro.orchestrator.pool.run_sweep` resolves every config it can
from the ledger and the result cache first; whatever remains is handed to a
*transport*, an object with one method::

    run(items) -> iterator of (index, payload)

``items`` is a sequence of ``(index, config, digest)`` triples in spec
order; results may come in any completion order — the pool reassembles
spec order from the indices.  A payload is the JSON-safe outcome of
:func:`execute_payload`: a ``"record"`` or an ``"error"``, plus
``"elapsed"``.  Four backends ship: :class:`InlineTransport` (this
process; the ``jobs=1`` default), :class:`ProcessTransport` (a local
``multiprocessing`` pool; the ``jobs>1`` default),
:class:`~repro.orchestrator.queue.QueueTransport` (worker daemons sharing
a filesystem) and :class:`~repro.orchestrator.net.TcpTransport` (worker
daemons sharing only a network).  :data:`TRANSPORTS` is the single
registry behind the CLI's ``--transport`` choices, its error messages and
:func:`resolve_transport`.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

__all__ = [
    "TRANSPORTS",
    "TRANSPORT_HELP",
    "InlineTransport",
    "ProcessTransport",
    "TransportItem",
    "execute_payload",
    "resolve_transport",
]

#: ``(spec index, config, digest)`` — the unit of work a transport executes.
TransportItem = Tuple[int, Any, str]


def _run(config: Any, options: Optional[Dict[str, Any]]
         ) -> Tuple[Dict[str, Any], Optional[Exception]]:
    """The one execution body: ``(payload, exception or None)``."""
    from ..io import records_to_dicts  # looked up per call, so wrappable
    from ..session import Session

    options = options or {}
    started = time.perf_counter()
    try:
        session = Session(
            config,
            checkpoint_every=options.get("checkpoint_every"),
            checkpoint_dir=options.get("checkpoint_dir"))
        record = session.execute()
        payload: Dict[str, Any] = {
            "record": records_to_dicts([record])[0],
            "elapsed": time.perf_counter() - started,
        }
        if session.resumed_round is not None:
            payload["resumed_round"] = session.resumed_round
        return payload, None
    except Exception as exc:
        return {"error": traceback.format_exc(),
                "elapsed": time.perf_counter() - started}, exc


def execute_payload(config_dict: Dict[str, Any],
                    options: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """Run one serialised config; never raises.

    The shared worker body: process-pool workers call it across a pickle
    boundary, queue and TCP workers call it and report the returned
    payload.  Every side therefore speaks the same dialect.

    ``options`` carries execution options that are not part of the run's
    identity — ``checkpoint_every`` / ``checkpoint_dir`` — so a worker
    killed mid-run leaves a checkpoint the next lease holder resumes.  A
    resumed run reports the round it continued from as ``"resumed_round"``
    in the payload (ledger records ignore the extra key).
    """
    payload, _exception = _run(config_dict, options)
    return {"config": config_dict, **payload}


def _indexed_payload(
        item: Tuple[int, Dict[str, Any], Optional[Dict[str, Any]]],
) -> Tuple[int, Dict[str, Any]]:
    """Pool worker: pairs each payload with the caller's index so results
    can be matched up regardless of completion order (top-level so it is
    picklable)."""
    index, config_dict, options = item
    return index, execute_payload(config_dict, options)


class InlineTransport:
    """Execute configs in the calling process, one at a time.

    The payloads additionally carry the live ``"exception"`` object so
    ``SweepResult.raise_failures`` can re-raise the original type —
    behaviour the serial front-ends rely on and process boundaries cannot
    provide.
    """

    name = "inline"

    def run(self, items: Sequence[TransportItem],
            options: Optional[Dict[str, Any]] = None
            ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        for index, config, _digest in items:
            payload, exception = _run(config, options)
            if exception is not None:
                payload["exception"] = exception
            yield index, payload


class ProcessTransport:
    """Execute configs on a ``multiprocessing`` pool on this machine."""

    name = "process"

    def __init__(self, jobs: int = 2) -> None:
        self.jobs = max(1, int(jobs))

    def run(self, items: Sequence[TransportItem],
            options: Optional[Dict[str, Any]] = None
            ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        payloads = [(index, config.to_dict(), options)
                    for index, config, _ in items]
        with multiprocessing.Pool(
                processes=min(self.jobs, len(payloads))) as pool:
            results = pool.imap_unordered(_indexed_payload, payloads,
                                          chunksize=1)
            try:
                for index, payload in results:
                    yield index, payload
            except KeyboardInterrupt:
                pool.terminate()
                raise


# ---------------------------------------------------------------------------
# The transport registry
# ---------------------------------------------------------------------------

def _make_inline(jobs: int, **_options: Any) -> InlineTransport:
    return InlineTransport()


def _make_process(jobs: int, **_options: Any) -> ProcessTransport:
    return ProcessTransport(jobs=jobs)


def _make_queue(jobs: int, queue_dir: Any = None,
                **queue_options: Any) -> Any:
    if queue_dir is None:
        raise ValueError(
            "transport='queue' needs a queue directory: pass queue_dir= "
            "or construct repro.orchestrator.queue.QueueTransport directly")
    from .queue import QueueTransport

    return QueueTransport(queue_dir, **queue_options)


def _make_tcp(jobs: int, coordinator: Any = None,
              **tcp_options: Any) -> Any:
    if coordinator is None:
        raise ValueError(
            "transport='tcp' needs a coordinator address: pass "
            "coordinator='HOST:PORT' or construct "
            "repro.orchestrator.net.TcpTransport directly")
    from .net import TcpTransport

    return TcpTransport(coordinator, **tcp_options)


#: Name -> factory: the single source of truth for every transport the
#: orchestrator knows.  ``list(TRANSPORTS)`` (iteration yields the names)
#: is what the CLI exposes as ``--transport`` choices.
TRANSPORTS: Dict[str, Callable[..., Any]] = {
    "inline": _make_inline,
    "process": _make_process,
    "queue": _make_queue,
    "tcp": _make_tcp,
}

#: One-line description per transport, used to build the CLI help text.
TRANSPORT_HELP: Dict[str, str] = {
    "inline": "this process (the --jobs 1 default)",
    "process": "local multiprocessing pool (the --jobs N default)",
    "queue": "worker daemons watching a shared --queue-dir",
    "tcp": "worker daemons connected to a --coordinator HOST:PORT",
}


def resolve_transport(transport: Any = None, jobs: int = 1,
                      **options: Any) -> Any:
    """Turn a transport name (or ``None``) into a transport object.

    ``None`` preserves the historical behaviour: in-process for
    ``jobs <= 1``, a local worker pool otherwise.  Objects that already
    look like transports (anything with a ``run`` method) pass through, so
    callers can hand :func:`~repro.orchestrator.pool.run_sweep` a
    pre-configured :class:`~repro.orchestrator.queue.QueueTransport` or
    :class:`~repro.orchestrator.net.TcpTransport`.

    Unknown names raise ``ValueError`` up front, before any backend is
    constructed — a typo can never leave a half-built pool or an opened
    socket behind.  Backend-specific keywords (``queue_dir=``,
    ``coordinator=``, ``lease_ttl=`` …) are forwarded to the factory.
    """
    if transport is not None and not isinstance(transport, str):
        if hasattr(transport, "run"):
            return transport
        raise TypeError(f"not a transport: {transport!r}")
    name = transport or ("inline" if jobs <= 1 else "process")
    if name not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {name!r}; known: {list(TRANSPORTS)}")
    return TRANSPORTS[name](jobs=jobs, **options)
