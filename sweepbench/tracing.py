"""In-memory spans around the public calls of each layer, and their roll-up.

The traced run wraps public functions of ``repro`` from the outside — it
edits nothing under ``src/`` — and records one span per wrapped call:
name, start, end, parent span and the config digest the call works for
(inherited from the parent when the call itself names no config).  Spans
stay in memory while the sweep runs and are written out once it ends.

A span's *self time* is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Every span
nests in a root span, so the self times of all spans under the roots add
up to the roots' total duration: that is how the per-layer table accounts
for a sweep's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Layer of each span name, by the prefix before the first dot.  ``core``
#: spans (OBD, Collect) are part of the simulation layer that the
#: ``sim.<algorithm>`` driver spans open.
LAYER_OF_PREFIX: Dict[str, str] = {
    "grid": "grid",
    "amoebot": "amoebot",
    "sim": "sim",
    "core": "sim",
    "state": "state",
    "session": "session",
    "cache": "cache",
    "ledger": "ledger",
    "io": "io",
    "transport": "transport",
    "sweep": "sweep",
}


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``"other"`` when unknown)."""
    return LAYER_OF_PREFIX.get(name.split(".", 1)[0], "other")


@dataclass
class Span:
    """One wrapped call."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    ident: Optional[str]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of the process.

    Each thread keeps its own stack of open spans, so spans of another
    thread never nest under the sweep's.  ``active`` gates
    recording: wrappers installed but inactive only add one attribute
    read per call.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ident: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ident is None and parent is not None:
            ident = self.spans[parent].ident
        span = Span(name, self.clock(), 0.0, parent, ident,
                    threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn: Callable[..., Any],
             ident: Optional[Callable[..., Optional[str]]] = None,
             on_result: Optional[Callable[["Tracer", Any], None]] = None,
             ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call.

        ``ident(*args, **kwargs)`` names the config the call works for;
        ``on_result(tracer, result)`` records counts read off the result,
        outside the span.  A call that raises counts under
        ``<name>.errors``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.begin(name, ident(*args, **kwargs) if ident else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(name + ".errors")
                raise
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def wrap_iterator(self, name: str, iterator: Iterator[Any]) -> Iterator[Any]:
        """Re-yield ``iterator`` with a span around each ``next()``: the
        time the consumer waited for the next item."""
        while True:
            if not self.active:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                yield item
                continue
            index = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(index)
            yield item

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (parent = line index)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "id": span.ident,
                    "thread": span.thread}) + "\n")


# ---------------------------------------------------------------------------
# Roll-up
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus its direct children's durations."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def roots(spans: Sequence[Span]) -> List[int]:
    """Per span: the index of the outermost span it nests in."""
    root: List[int] = []
    for index, span in enumerate(spans):
        # Parents are always recorded before their children.
        root.append(index if span.parent is None else root[span.parent])
    return root


@dataclass
class Rollup:
    """Per-name and per-layer totals of a span list."""

    calls: Counter
    busy: Counter
    layer_self: Counter
    #: Sum of self times of spans nested in a root span named ``root``.
    rooted_self: float
    #: Total duration of the root spans named ``root``.
    rooted_wall: float


def rollup(spans: Sequence[Span], root: str = "sweep") -> Rollup:
    """Calls and busy time per span name, self time per layer.

    Busy time of a name counts only its outermost calls, so a recursive
    or re-entrant wrapper is not counted twice.
    """
    calls: Counter = Counter()
    busy: Counter = Counter()
    layer_self: Counter = Counter()
    own = self_times(spans)
    outer = roots(spans)
    rooted_self = rooted_wall = 0.0
    for index, span in enumerate(spans):
        calls[span.name] += 1
        parent = span.parent
        nested_in_same = False
        while parent is not None:
            if spans[parent].name == span.name:
                nested_in_same = True
                break
            parent = spans[parent].parent
        if not nested_in_same:
            busy[span.name] += span.duration
        layer_self[layer_of(span.name)] += own[index]
        if spans[outer[index]].name == root:
            rooted_self += own[index]
            if span.parent is None:
                rooted_wall += span.duration
    return Rollup(calls, busy, layer_self, rooted_self, rooted_wall)


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def _config_ident(config: Any) -> Optional[str]:
    """The first 16 hex digits of the digest the ledger files ``config`` under."""
    from repro.orchestrator.cache import config_digest, default_code_version
    from repro.orchestrator.spec import RunConfig

    if not isinstance(config, RunConfig):
        return None
    return config_digest(config, default_code_version())[:16]


def _ident_from_config_arg(_self: Any, config: Any, *_a: Any, **_k: Any) -> Optional[str]:
    return _config_ident(config)


def _ident_from_session(session: Any, *_a: Any, **_k: Any) -> Optional[str]:
    return _config_ident(getattr(session, "config", None))


def _ident_from_digest(_self: Any, digest: Any, *_a: Any, **_k: Any) -> Optional[str]:
    return str(digest)[:16]


def _count_scheduler(tracer: Tracer, result: Any) -> None:
    tracer.count("amoebot.rounds", getattr(result, "rounds", 0))
    tracer.count("amoebot.activations", getattr(result, "activations", 0))
    tracer.count("amoebot.moves", getattr(result, "moves", 0))


def _count_cache_hit(tracer: Tracer, result: Any) -> None:
    if result is not None:
        tracer.count("cache.get.hits")


def _count_checkpoint_bytes(tracer: Tracer, result: Any) -> None:
    try:
        tracer.count("state.write_checkpoint.bytes", Path(result).stat().st_size)
    except (OSError, TypeError):
        pass


#: ``(module, attribute path, span name, ident, on_result)`` for every
#: wrapped call.  Module functions are patched where their callers look
#: them up (``make_shape`` / ``compute_metrics`` as ``pool`` imports
#: them), methods on the class that defines them.
TARGETS: Tuple[Tuple[str, str, str, Any, Any], ...] = (
    ("repro.orchestrator.pool", "make_shape", "grid.make_shape", None, None),
    ("repro.orchestrator.pool", "compute_metrics", "grid.compute_metrics", None, None),
    ("repro.grid.metrics", "diameter_within", "grid.diameter_within", None, None),
    ("repro.grid.metrics", "grid_diameter", "grid.grid_diameter", None, None),
    ("repro.amoebot.scheduler", "SequentialScheduler.run", "amoebot.scheduler_run",
     None, _count_scheduler),
    ("repro.core.obd", "OuterBoundaryDetection.run", "core.obd", None, None),
    ("repro.core.collect", "CollectSimulator.run", "core.collect", None, None),
    ("repro.state", "write_checkpoint", "state.write_checkpoint", None,
     _count_checkpoint_bytes),
    ("repro.state", "read_checkpoint", "state.read_checkpoint", None, None),
    ("repro.session", "Session.execute", "session.execute", _ident_from_session, None),
    ("repro.orchestrator.cache", "ResultCache.get", "cache.get",
     _ident_from_config_arg, _count_cache_hit),
    ("repro.orchestrator.cache", "ResultCache.put", "cache.put",
     _ident_from_config_arg, None),
    ("repro.orchestrator.store", "RunLedger.append", "ledger.append",
     _ident_from_digest, None),
    ("repro.orchestrator.store", "RunLedger.completed", "ledger.completed", None, None),
    ("repro.orchestrator.store", "RunLedger.failures", "ledger.failures", None, None),
    ("repro.io", "records_to_dicts", "io.records_to_dicts", None, None),
    ("repro.io", "records_from_dicts", "io.records_from_dicts", None, None),
)

#: Transports whose ``run`` generator is re-yielded under ``transport.next``.
TRANSPORT_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.orchestrator.transport", "InlineTransport"),
)

#: Simulation drivers: ``ALGORITHMS[name]`` in ``repro.analysis.experiments``.
SIM_ALGORITHMS: Tuple[str, ...] = ("dle", "erosion", "randomized", "obd+dle+collect")


def sim_span_name(algorithm: str) -> str:
    """``sim.<algorithm>`` with ``+`` spelled ``-`` (metric-name safe)."""
    return "sim." + algorithm.replace("+", "-")


_INHERITED = object()


class Installation:
    """The wrappers a :func:`install` call put in place, undoable."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []
        #: Targets that no longer exist in the program (reported, skipped).
        self.missing: List[str] = []

    def patch(self, owner: Any, attribute: str, value: Any) -> None:
        # Restore from the owner's own dict: an inherited method is
        # deleted again, a staticmethod comes back as itself.
        original = vars(owner).get(attribute, _INHERITED)
        setattr(owner, attribute, value)
        if original is _INHERITED:
            self._undo.append(lambda: delattr(owner, attribute))
        else:
            self._undo.append(lambda: setattr(owner, attribute, original))

    def patch_item(self, mapping: Dict[str, Any], key: str, value: Any) -> None:
        original = mapping[key]
        mapping[key] = value
        self._undo.append(functools.partial(mapping.__setitem__, key, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(tracer: Tracer) -> Installation:
    """Wrap every target; missing ones are listed, not fatal."""
    installation = Installation()
    for module_name, path, name, ident, on_result in TARGETS:
        try:
            owner, attribute, fn = _resolve(module_name, path)
        except (ImportError, AttributeError):
            installation.missing.append(f"{module_name}.{path}")
            continue
        installation.patch(owner, attribute,
                           tracer.wrap(name, fn, ident=ident, on_result=on_result))

    try:
        from repro.analysis.experiments import ALGORITHMS
    except ImportError:
        installation.missing.append("repro.analysis.experiments.ALGORITHMS")
    else:
        for algorithm in SIM_ALGORITHMS:
            if algorithm not in ALGORITHMS:
                installation.missing.append(f"ALGORITHMS[{algorithm!r}]")
                continue
            installation.patch_item(
                ALGORITHMS, algorithm,
                tracer.wrap(sim_span_name(algorithm), ALGORITHMS[algorithm]))

    for module_name, class_name in TRANSPORT_TARGETS:
        try:
            owner, attribute, cls = _resolve(module_name, class_name)
        except (ImportError, AttributeError):
            installation.missing.append(f"{module_name}.{class_name}")
            continue
        run = getattr(cls, "run", None)
        if run is None:
            installation.missing.append(f"{module_name}.{class_name}.run")
            continue
        installation.patch(cls, "run", _traced_transport_run(tracer, run))
    return installation


def _traced_transport_run(tracer: Tracer, run: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(run)
    def traced(self: Any, *args: Any, **kwargs: Any) -> Iterable[Any]:
        return tracer.wrap_iterator("transport.next", iter(run(self, *args, **kwargs)))

    return traced
