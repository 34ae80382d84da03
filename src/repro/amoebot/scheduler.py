"""Strong schedulers for the amoebot model.

The paper assumes a *strong* scheduler: particles are activated one at a
time, each activation is atomic, and every fair execution activates every
particle infinitely often.  The adversary chooses the activation order.

An *asynchronous round* is a minimal execution fragment in which every
particle is activated at least once; the round complexity of an algorithm is
the number of rounds until all particles reach a final state (Section 2.2).

This module provides several activation-order policies:

* ``round_robin`` — a fixed cyclic order (the canonical fair schedule);
* ``random`` — an independent uniformly random permutation per round
  (seeded, reproducible);
* ``reversed`` — round-robin in reverse id order (useful to catch
  order-dependent bugs);
* a user-supplied callable producing the order for each round, which lets
  tests construct adversarial schedules.

All policies activate each particle exactly once per round, which makes the
reported round count a faithful upper-bound witness of the definition above
(any schedule activating particles more often can only be grouped into at
least as many rounds).

Execution engines
-----------------

Two engines share the round accounting above and produce *identical traces
and round counts* — they differ only in how much Python work a round costs:

* :class:`SequentialScheduler` (``engine="sweep"``) — the legacy engine:
  every non-terminated particle is activated every round, O(n) activations
  per round no matter how many particles still have work to do.
* :class:`EventDrivenScheduler` (``engine="event"``) — particles whose
  algorithm declares them *quiescent* (see
  :meth:`~repro.amoebot.algorithm.AmoebotAlgorithm.is_quiescent`) are
  parked and skipped; a parked particle is re-woken when an adjacent
  particle acts or when a :class:`~repro.amoebot.system.ParticleSystem`
  movement operation publishes a dirty-neighborhood event touching it.
  Because a parked particle's activation would have been a no-op by
  contract, skipping it leaves the execution — and therefore the round
  count — unchanged, while the per-round cost drops from O(n) activations
  to O(active front).

Both engines draw the activation order for the *full* particle id list from
the same policy and the same seeded RNG stream, so a given
``(order, seed)`` pair yields the same per-round permutations regardless of
the engine — the event engine merely skips the parked suffix of the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ..state import decode_rng, encode_rng
from ..telemetry import get_registry as _get_registry
from .algorithm import QUIESCENT, TERMINATED, AmoebotAlgorithm
from .faults import FaultInjector, FaultSpec
from .system import ParticleSystem

__all__ = [
    "ENGINES",
    "SCHEDULER_ORDERS",
    "SchedulerResult",
    "Scheduler",
    "SequentialScheduler",
    "EventDrivenScheduler",
    "make_scheduler",
    "run_algorithm",
]

OrderPolicy = Callable[[int, List[int], random.Random], List[int]]


def _round_robin_order(round_index: int, ids: List[int],
                       rng: random.Random) -> List[int]:
    return list(ids)


def _reversed_order(round_index: int, ids: List[int],
                    rng: random.Random) -> List[int]:
    return list(reversed(ids))


def _key_function(ids: List[int], keys: List[float]):
    """Map a drawn key list onto a pid -> key function."""
    if ids and ids[0] == 0 and ids[-1] == len(ids) - 1:
        # ids is sorted and unique, so first==0 and last==n-1 means it is
        # exactly range(n): each id indexes its own key.
        return keys.__getitem__
    positions = {pid: index for index, pid in enumerate(ids)}
    return lambda pid: keys[positions[pid]]


def _draw_random_keys(ids: List[int], rng: random.Random):
    """Draw one uniform key per particle and return a pid -> key function.

    This is the single source of the ``random`` policy's RNG stream: both
    the sweep's full-permutation sort and the event engine's awake-only
    heap call it, which is what guarantees the two engines consume the RNG
    identically and therefore order particles identically.
    """
    rand = rng.random
    # ``iter(rand, None)`` never hits its sentinel, so this draws exactly
    # len(ids) keys with no per-key bytecode — ~2x faster than a list
    # comprehension for the one O(n)-per-round cost round-fairness forces
    # on both engines.
    return _key_function(ids, list(islice(iter(rand, None), len(ids))))


class _UniformKeyStream:
    """Bulk source of the ``random`` policy's per-round keys.

    Produces floats **bit-identical** to calling ``rng.random()`` once per
    particle: when numpy is importable, the stdlib generator's Mersenne
    Twister state is transplanted into a ``numpy.random.RandomState`` —
    both implement the same MT19937 and the same 53-bit double derivation
    — and the keys are drawn in one C call per round; without numpy the
    stdlib generator itself is used.  Either way the engines consume the
    exact same key sequence, so traces and round counts are engine- and
    numpy-independent (asserted by tests/test_scheduler.py).

    ``getstate()``/``setstate()`` expose the stream position in one
    canonical JSON-ready form — ``{"key": [624 words], "pos": int}`` —
    regardless of which backend produced it, so a checkpoint written on a
    numpy build restores bit-identically on a pure-Python build and vice
    versa (the two backends share the MT19937 state layout).
    """

    __slots__ = ("draw", "draw_raw", "getstate", "setstate")

    def __init__(self, rng: random.Random) -> None:
        try:
            import numpy
        except ImportError:
            rand = rng.random
            self.draw = lambda n: list(islice(iter(rand, None), n))
            self.draw_raw = self.draw

            def getstate() -> Dict[str, Any]:
                internal = rng.getstate()[1]
                return {"key": [int(word) for word in internal[:-1]],
                        "pos": int(internal[-1])}

            def setstate(data: Dict[str, Any]) -> None:
                rng.setstate((3, tuple(int(word) for word in data["key"])
                              + (int(data["pos"]),), None))

            self.getstate = getstate
            self.setstate = setstate
        else:
            internal = rng.getstate()[1]
            state = numpy.random.RandomState()
            state.set_state(("MT19937",
                             numpy.array(internal[:-1], dtype=numpy.uint32),
                             internal[-1]))
            sample = state.random_sample
            self.draw = lambda n: sample(n).tolist()
            # The raw ndarray: float64 entries compare identically to the
            # converted floats, and the event engine only ever *reads* a
            # handful of keys per round, so skipping the bulk conversion
            # is a net win there (the sweep sorts 10k+ keys and keeps the
            # converted list).
            self.draw_raw = sample

            def getstate() -> Dict[str, Any]:
                _kind, key, pos = state.get_state()[:3]
                return {"key": [int(word) for word in key], "pos": int(pos)}

            def setstate(data: Dict[str, Any]) -> None:
                state.set_state(("MT19937",
                                 numpy.array(data["key"],
                                             dtype=numpy.uint32),
                                 int(data["pos"])))

            self.getstate = getstate
            self.setstate = setstate


def _random_order(round_index: int, ids: List[int],
                  rng: random.Random) -> List[int]:
    # Sorting by independent uniform keys yields a uniformly random
    # permutation (key collisions have probability zero, and the stable
    # sort breaks any tie by ascending id, deterministically).  This is
    # several times faster per round than ``rng.shuffle`` because both the
    # key draw and the sort run in C, and the per-round order generation is
    # the one O(n) cost the event-driven engine cannot park away.
    return sorted(ids, key=_draw_random_keys(ids, rng))


_POLICIES: Dict[str, OrderPolicy] = {
    "round_robin": _round_robin_order,
    "reversed": _reversed_order,
    "random": _random_order,
}

#: The built-in activation-order policy names (the ``order=`` choices).
SCHEDULER_ORDERS: tuple = tuple(sorted(_POLICIES))


@dataclass
class SchedulerResult:
    """Outcome of running an algorithm to termination."""

    rounds: int
    activations: int
    terminated: bool
    moves: int
    #: Optional per-round statistics recorded by the algorithm's trace hook.
    history: List[dict] = field(default_factory=list)
    #: Activations the event-driven engine skipped because the particle was
    #: parked as quiescent or already terminated (always 0 for the sweep
    #: engine).
    skipped: int = 0
    #: Which engine produced this result (``"sweep"`` or ``"event"``).
    engine: str = "sweep"

    def __repr__(self) -> str:
        status = "terminated" if self.terminated else "TIMED OUT"
        return (
            f"SchedulerResult({status}, rounds={self.rounds}, "
            f"activations={self.activations}, moves={self.moves})"
        )


class _SweepFaultHooks:
    """The sweep engine's side of the fault injector's hook protocol.

    The sweep holds no park/wake state — a crashed particle is simply
    excluded from the round order via ``injector.crashed`` — so only the
    removal of a particle needs bookkeeping (its id must leave the
    engine's ``done`` set or a later shape-add reusing nothing would
    still skip it... ids are never reused, but the set must not grow
    stale entries across checkpoints either).
    """

    __slots__ = ("_done",)

    def __init__(self, done: Set[int]) -> None:
        self._done = done

    def crash(self, pid: int) -> None:
        """No-op: the sweep order excludes ``injector.crashed`` directly."""

    def revive(self, pid: int) -> None:
        """No-op: leaving ``injector.crashed`` re-admits the particle."""

    def wake(self, pids: Sequence[int]) -> None:
        """No-op: the sweep examines every live particle every round."""

    def remove(self, pid: int) -> None:
        self._done.discard(pid)


class _EventFaultHooks:
    """The event engine's side of the fault injector's hook protocol:
    crash/revive/wake translate to the active/parked partition."""

    __slots__ = ("_state",)

    def __init__(self, state: "_EventState") -> None:
        self._state = state

    def crash(self, pid: int) -> None:
        state = self._state
        state.active.discard(pid)
        state.parked.discard(pid)

    def revive(self, pid: int) -> None:
        # Conservatively revive into the active set (we do not know
        # whether the particle was parked when it crashed): if it is
        # quiescent the next examination re-parks it without acting —
        # exactly what the sweep's unconditional activation would do.
        state = self._state
        if pid not in state.done:
            state.parked.discard(pid)
            state.active.add(pid)
            state.wakes += 1

    def wake(self, pids: Sequence[int]) -> None:
        state = self._state
        for pid in pids:
            if pid in state.parked:
                state.parked.discard(pid)
                state.active.add(pid)
                state.wakes += 1

    def remove(self, pid: int) -> None:
        state = self._state
        state.active.discard(pid)
        state.parked.discard(pid)
        state.done.discard(pid)


class SequentialScheduler:
    """Runs an :class:`AmoebotAlgorithm` on a :class:`ParticleSystem` by
    activating every non-terminated particle once per round (the legacy
    full-sweep engine)."""

    engine = "sweep"

    def __init__(self, order: str | OrderPolicy = "random",
                 seed: int = 0,
                 faults: "str | FaultSpec | None" = None) -> None:
        #: The run's fault plan (``FaultSpec.parse("")`` when disabled).
        #: A disabled plan injects nothing, consumes no randomness and
        #: adds one ``is None`` check per round — disabled runs are
        #: bit-identical to runs predating the fault layer.
        self.faults = FaultSpec.parse(faults)
        #: The live injector of the current run (None when disabled).
        self._injector: Optional[FaultInjector] = None
        if callable(order):
            self._policy: OrderPolicy = order
            self.order_name = getattr(order, "__name__", "custom")
            # Only user-supplied policies need the every-particle-once check;
            # the built-in policies are permutations by construction and the
            # per-round O(n log n) validation would dominate small rounds.
            self._validate_order = True
        else:
            try:
                self._policy = _POLICIES[order]
            except KeyError:
                raise ValueError(
                    f"unknown scheduler order {order!r}; "
                    f"known: {sorted(_POLICIES)}"
                ) from None
            self.order_name = order
            self._validate_order = False
        self.seed = seed

    def run(self, algorithm: AmoebotAlgorithm, system: ParticleSystem,
            max_rounds: int = 1_000_000,
            round_hook: Optional[Callable[[int, ParticleSystem], None]] = None,
            checkpoint_every: Optional[int] = None,
            checkpoint_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
            resume_state: Optional[Dict[str, Any]] = None,
            ) -> SchedulerResult:
        """Run ``algorithm`` until all particles terminate.

        ``max_rounds`` bounds the execution; if it is reached the result is
        returned with ``terminated=False`` rather than raising, so callers
        (e.g. negative tests about algorithms that cannot terminate) can
        inspect the partial execution.

        ``checkpoint_sink`` (with a ``checkpoint_every`` round period)
        receives a JSON-ready scheduler-state document at each period
        boundary: RNG stream, round/activation/move counters and the
        engine's private sets.  Passing such a document back as
        ``resume_state`` — with ``system`` and the algorithm already
        restored to the matching snapshot — continues the run exactly
        where it stopped; the continued execution is bit-identical to the
        uninterrupted one (``algorithm.setup`` is *not* re-run).
        """
        if (checkpoint_sink is not None or resume_state is not None) \
                and self._validate_order:
            raise ValueError(
                "checkpointing requires a built-in activation order; "
                "user-supplied order policies carry unserializable state")
        rng = random.Random(self.seed)
        if resume_state is not None:
            self._check_resume(resume_state)
            decode_rng(resume_state["rng"], rng)
        # Faulty runs are capped (a permanently crashed particle can make
        # termination impossible; see faults.DEFAULT_FAULT_CAP).  The cap
        # derives from the plan alone, so resumed runs agree on it.
        max_rounds = self.faults.max_rounds(max_rounds)
        injector = self._injector = (FaultInjector(self.faults)
                                     if self.faults.enabled else None)
        if injector is not None and resume_state is not None:
            # ``system`` is already restored (run_checkpointed_stage order),
            # so the stale-view proxies re-bind to the live particles here.
            injector.restore_state(resume_state["fault_state"], system)
        # For the built-in ``random`` policy the scheduler rng feeds the
        # per-round key draws and nothing else, so the draws can come from
        # the bulk stream (same floats, one C call per round).  Custom
        # policies receive ``rng`` directly and keep the plain path.
        if not self._validate_order and self.order_name == "random":
            self._key_stream = _UniformKeyStream(rng)
        else:
            self._key_stream = None
        activations = 0
        skipped = 0
        rounds = 0
        moves_already = 0
        resume_engine = None
        if resume_state is None:
            algorithm.setup(system)
        else:
            key_stream_state = resume_state.get("key_stream")
            if self._key_stream is not None and key_stream_state is not None:
                self._key_stream.setstate(key_stream_state)
            rounds = int(resume_state["rounds"])
            activations = int(resume_state["activations"])
            skipped = int(resume_state["skipped"])
            moves_already = int(resume_state["moves"])
            resume_engine = resume_state.get("engine_state")
        state = self._start(algorithm, system, resume=resume_engine)
        fault_hooks = self._fault_hooks(state) if injector is not None \
            else None
        # Credit the moves the checkpointed prefix already performed, so
        # the resumed result reports the same whole-run total.
        moves_before = system.move_count - moves_already
        history: List[dict] = []
        try:
            while rounds < max_rounds:
                if algorithm.has_terminated(system):
                    break
                if injector is not None:
                    injector.begin_round(rounds, system, fault_hooks)
                done, skip = self._run_round(algorithm, system, rounds, rng,
                                             state)
                activations += done
                skipped += skip
                rounds += 1
                algorithm.on_round_end(rounds, system)
                if round_hook is not None:
                    round_hook(rounds, system)
                if (checkpoint_sink is not None and checkpoint_every
                        and rounds % checkpoint_every == 0
                        and not algorithm.has_terminated(system)):
                    checkpoint_sink(self._checkpoint_state(
                        rng, rounds, activations, skipped,
                        system.move_count - moves_before, state))
        finally:
            self._finish(system, state)
            if injector is not None:
                injector.finish(system)
        terminated = algorithm.has_terminated(system)
        moves = system.move_count - moves_before
        self._record_metrics(rounds, activations, skipped, moves, state)
        return SchedulerResult(
            rounds=rounds,
            activations=activations,
            terminated=terminated,
            moves=moves,
            history=history,
            skipped=skipped,
            engine=self.engine,
        )

    def _record_metrics(self, rounds: int, activations: int, skipped: int,
                        moves: int, state: Optional[object]) -> None:
        """Publish run totals to the telemetry registry.

        Called once per run, never per round or activation, so the hot
        loops carry no instrumentation; with the default no-op registry
        the whole call is one early return.
        """
        registry = _get_registry()
        if not registry.enabled:
            return
        prefix = f"engine.{self.engine}."
        registry.counter(prefix + "runs").inc()
        registry.counter(prefix + "rounds").inc(rounds)
        registry.counter(prefix + "activations").inc(activations)
        registry.counter(prefix + "skipped").inc(skipped)
        registry.counter(prefix + "moves").inc(moves)
        if self._injector is not None:
            for name, value in self._injector.counters.items():
                registry.counter("fault." + name).inc(value)

    # -- checkpoint plumbing --------------------------------------------------

    def _check_resume(self, resume_state: Dict[str, Any]) -> None:
        """Refuse to resume a checkpoint another scheduler wrote: the RNG
        stream and engine sets only make sense under the same
        (engine, order, seed) triple."""
        expected = {"engine": self.engine, "order": self.order_name,
                    "seed": self.seed}
        saved = {key: resume_state.get(key) for key in expected}
        if saved != expected:
            raise ValueError(
                f"checkpoint was written by scheduler {saved}; "
                f"this scheduler is {expected}")
        # Checkpoints predating the fault layer carry no "faults" key;
        # they resume only under a disabled plan (the empty string).
        saved_faults = resume_state.get("faults") or ""
        if saved_faults != self.faults.to_string():
            raise ValueError(
                f"checkpoint was written under fault plan {saved_faults!r}; "
                f"this scheduler runs {self.faults.to_string()!r}")

    def _checkpoint_state(self, rng: random.Random, rounds: int,
                          activations: int, skipped: int, moves: int,
                          state: Optional[object]) -> Dict[str, Any]:
        """The JSON-ready scheduler-state document handed to the sink."""
        document: Dict[str, Any] = {
            "engine": self.engine,
            "order": self.order_name,
            "seed": self.seed,
            "rounds": rounds,
            "activations": activations,
            "skipped": skipped,
            "moves": moves,
            "rng": encode_rng(rng),
            "engine_state": self._snapshot_engine_state(state),
        }
        if self._key_stream is not None:
            document["key_stream"] = self._key_stream.getstate()
        if self._injector is not None:
            document["faults"] = self.faults.to_string()
            document["fault_state"] = self._injector.snapshot_state()
        return document

    # -- engine-specific hooks ------------------------------------------------

    def _start(self, algorithm: AmoebotAlgorithm, system: ParticleSystem,
               resume: Optional[Dict[str, Any]] = None) -> Optional[object]:
        """Per-run engine state, created after ``algorithm.setup`` (or
        restored from a checkpoint's ``engine_state`` when resuming).

        The sweep keeps one set: the particles it has observed terminated.
        Final states are absorbing (the model's contract, already relied on
        by the event engine's ``done`` set), so a terminated particle is
        dropped from future rounds without re-asking the algorithm — the
        sweep's per-round cost becomes O(live particles), not O(n).
        """
        if resume is not None:
            return set(resume.get("done", ()))
        return set()

    def _fault_hooks(self, state: Optional[object]) -> object:
        """The engine's receiver of the fault injector's hook calls."""
        return _SweepFaultHooks(state)

    def _snapshot_engine_state(self,
                               state: Optional[object]) -> Dict[str, Any]:
        """The engine's private per-run sets, JSON-ready."""
        return {"done": sorted(state or ())}

    def _finish(self, system: ParticleSystem, state: Optional[object]) -> None:
        """Tear down per-run engine state (always called, even on error)."""

    def _round_order(self, system: ParticleSystem, round_index: int,
                     rng: random.Random) -> List[int]:
        """The full activation order for one round, policy-validated."""
        ids = system.particle_ids()
        order = self._policy(round_index, ids, rng)
        if self._validate_order and sorted(order) != sorted(ids):
            raise ValueError(
                "scheduler order policy must activate every particle "
                "exactly once per round"
            )
        return order

    def _run_round(self, algorithm: AmoebotAlgorithm, system: ParticleSystem,
                   round_index: int, rng: random.Random,
                   state: Set[int]):
        """Activate one round; returns (activations, skipped)."""
        done = state
        injector = self._injector
        excluded = done
        if injector is not None and injector.crashed:
            # Crashed particles are skipped exactly like terminated ones,
            # but stay in the full id list so the key draws (the RNG
            # stream both engines share) are unaffected by who is down.
            # ``excluded`` is a throwaway union — terminations observed
            # this round still land in ``done`` (the engine state) below.
            excluded = done | injector.crashed.keys()
        name = None if self._validate_order else self.order_name
        if name == "random":
            # Draw keys for the *full* id list (the RNG stream the event
            # engine reproduces), then order only the live particles: the
            # sub-order of a stable key sort is the same whether or not the
            # terminated particles are sorted along.
            ids = system._ids_snapshot()
            keyfn = _key_function(ids, self._key_stream.draw(len(ids)))
            live = [pid for pid in ids if pid not in excluded] \
                if excluded else ids
            order = sorted(live, key=keyfn)
        elif name == "round_robin":
            ids = system._ids_snapshot()
            order = [pid for pid in ids if pid not in excluded] \
                if excluded else ids
        elif name == "reversed":
            ids = system._ids_snapshot()
            order = [pid for pid in reversed(ids) if pid not in excluded] \
                if excluded else list(reversed(ids))
        else:
            order = self._round_order(system, round_index, rng)
            if excluded:
                order = [pid for pid in order if pid not in excluded]
        particles = system._particles
        is_terminated = algorithm.is_terminated
        activate = algorithm.activate
        activations = 0
        if algorithm.reports_termination:
            # Terminating activations hand back the TERMINATED sentinel, so
            # the per-particle is_terminated poll is unnecessary.
            done_add = done.add
            for particle_id in order:
                if activate(particles[particle_id], system) is TERMINATED:
                    done_add(particle_id)
                activations += 1
            return activations, 0
        for particle_id in order:
            particle = particles[particle_id]
            if is_terminated(particle, system):
                done.add(particle_id)
                continue
            activate(particle, system)
            activations += 1
        return activations, 0


#: Backwards-compatible name: the scheduler everybody imported before the
#: event-driven engine existed is the sequential sweep.
Scheduler = SequentialScheduler


class _EventState:
    """Per-run bookkeeping of the event-driven engine."""

    __slots__ = ("active", "parked", "done", "listener", "heap", "keyfn",
                 "round_limit", "parks", "wakes")

    def __init__(self) -> None:
        #: Particles that are awake: neither parked nor observed terminated.
        self.active: Set[int] = set()
        #: Particles currently parked as quiescent (skipped until woken).
        self.parked: Set[int] = set()
        #: Particles observed terminated (final states are absorbing, so
        #: they are skipped without re-asking the algorithm every round).
        self.done: Set[int] = set()
        self.listener = None
        #: The (key, pid) schedule of the round currently executing, and the
        #: key function that positions a particle in the round's order;
        #: ``keyfn`` is None outside keyed rounds, which tells the wake path
        #: that no heap insertion is needed.
        self.heap: Optional[List] = None
        self.keyfn = None
        #: Exclusive upper bound on the particle ids the executing round's
        #: order covers (ids are allocated monotonically); particles created
        #: mid-round compare >= and are deferred to the next round.
        self.round_limit = 0
        #: Quiescence transitions this run: times a particle was parked as
        #: quiescent, and times a parked particle was re-woken.  Counted at
        #: the (rare) transition sites and published once per run.
        self.parks = 0
        self.wakes = 0


class EventDrivenScheduler(SequentialScheduler):
    """Event-driven activation engine.

    Per round the engine examines only the particles that are awake, in
    exactly the sub-order the sweep's full permutation would have activated
    them in: for the built-in policies the awake particles are scheduled on
    a heap keyed by the same per-round random keys (or by id) the sweep's
    order uses, so the full permutation is never materialised; a
    user-supplied policy falls back to generating the full order and
    filtering it.  A particle whose algorithm reports
    :meth:`~repro.amoebot.algorithm.AmoebotAlgorithm.is_quiescent` is parked
    without being activated (its activation would be a no-op by contract).
    Parked particles are re-woken by exactly the changes that can affect
    their next activation:

    * an adjacent particle was activated and acted (covers memory writes —
      the amoebot model only lets a particle write its own and its
      neighbours' memories), or
    * a movement operation published a dirty-neighborhood event touching
      them (covers occupancy changes, including a particle expanding *into*
      their neighbourhood from two hops away).

    With the conservative default ``is_quiescent`` (always ``False``) no
    particle is ever parked and the engine is activation-for-activation
    identical to the sweep; with precise quiescence declarations the trace
    and round counts are still identical while quiescent regions cost
    nothing.
    """

    engine = "event"

    def _fault_hooks(self, state: "_EventState") -> object:
        return _EventFaultHooks(state)

    def _start(self, algorithm: AmoebotAlgorithm, system: ParticleSystem,
               resume: Optional[Dict[str, Any]] = None) -> _EventState:
        state = _EventState()
        if resume is not None:
            # A checkpointed run's park/done partition is part of its
            # semantics (a parked particle stays skipped until an event
            # wakes it), so it is restored verbatim rather than re-derived.
            state.active = set(resume["active"])
            state.parked = set(resume["parked"])
            state.done = set(resume["done"])
            state.parks = int(resume.get("parks", 0))
            state.wakes = int(resume.get("wakes", 0))
        else:
            initial = algorithm.initially_active_ids(system)
            all_ids = system.particle_ids()
            if initial is None:
                state.active = set(all_ids)
            else:
                # The algorithm enumerated the particles whose first
                # activation may act; everyone else starts parked instead
                # of being examined (and re-parked) during round one.
                state.active = set(initial)
                state.parked = set(all_ids) - state.active
                state.parks = len(state.parked)
        active = state.active
        parked = state.parked
        done = state.done
        # Algorithms that keep the conservative default (every movement
        # wakes) skip the per-particle filter call entirely.
        movement_filter = None
        if (type(algorithm).wakes_on_movement
                is not AmoebotAlgorithm.wakes_on_movement):
            movement_filter = algorithm.wakes_on_movement
        gain_insensitive = not algorithm.occupancy_gain_wakes
        particles = system._particles
        mirror = system._points
        # The injector's crashed map, captured by reference: crashed
        # particles are in neither active nor done, and a dirty event must
        # not resurrect them — their revive (not the event) re-admits
        # them.  None/empty whenever crash faults are off.
        crashed = (self._injector.crashed
                   if self._injector is not None else None)

        def wake(dirty_points, affected_ids):
            # Everything affected that is not terminated must be awake:
            # parked particles are woken (unless the algorithm declares
            # them movement-insensitive), brand-new particles (added while
            # the run executes) become active.
            woken = affected_ids - active - done
            if crashed:
                woken = woken - crashed.keys()
            if not woken:
                return
            if gain_insensitive:
                for point in dirty_points:
                    if point not in mirror:
                        break
                else:
                    # Every dirty point is occupied afterwards: a pure
                    # occupancy gain, which this algorithm declares unable
                    # to end anyone's quiescence — only brand-new
                    # particles (not yet tracked) still need scheduling.
                    woken = woken - parked
                    if not woken:
                        return
            keyfn = state.keyfn
            heap = state.heap
            limit = state.round_limit
            candidates = woken & parked
            for w in woken - candidates if len(candidates) != len(woken) \
                    else ():
                # Brand-new particles (added while the run executes): they
                # have no slot in the current round's order — the sweep
                # would not reach them either — so they join via ``active``.
                active.add(w)
            for w in candidates:
                if (movement_filter is not None
                        and not movement_filter(particles[w], system)):
                    continue
                parked.discard(w)
                active.add(w)
                state.wakes += 1
                if keyfn is not None and w < limit:
                    heappush(heap, (keyfn(w), w))

        state.listener = system.add_change_listener(wake)
        return state

    def _finish(self, system: ParticleSystem, state: _EventState) -> None:
        if state.listener is not None:
            system.remove_change_listener(state.listener)

    def _snapshot_engine_state(self, state: _EventState) -> Dict[str, Any]:
        return {
            "active": sorted(state.active),
            "parked": sorted(state.parked),
            "done": sorted(state.done),
            "parks": state.parks,
            "wakes": state.wakes,
        }

    def _record_metrics(self, rounds: int, activations: int, skipped: int,
                        moves: int, state: _EventState) -> None:
        super()._record_metrics(rounds, activations, skipped, moves, state)
        registry = _get_registry()
        if registry.enabled:
            registry.counter("engine.event.parks").inc(state.parks)
            registry.counter("engine.event.wakes").inc(state.wakes)

    def _round_keyfn(self, system: ParticleSystem, round_index: int,
                     rng: random.Random):
        """The key function positioning each particle in this round's order
        for the built-in policies, or None for user-supplied policies.

        For the ``random`` policy the keys are drawn exactly as
        :func:`_random_order` draws them (same RNG stream, same
        key-then-ascending-id tie order), so the event engine schedules the
        awake particles in precisely the sub-order the sweep would have
        activated them in — without materialising, sorting, or walking the
        full permutation.
        """
        name = self.order_name
        if name == "random" and self._key_stream is not None:
            # The stream is only built for the *built-in* random policy; a
            # user-supplied callable that happens to be named "random" must
            # fall through to the materialise-full-order path below.
            ids = system._ids_snapshot()
            return _key_function(ids, self._key_stream.draw_raw(len(ids)))
        if name == "round_robin":
            return lambda pid: pid
        if name == "reversed":
            return lambda pid: -pid
        return None

    def _run_round(self, algorithm: AmoebotAlgorithm, system: ParticleSystem,
                   round_index: int, rng: random.Random, state: _EventState):
        active = state.active
        parked = state.parked
        done = state.done
        particles = system._particles
        is_terminated = algorithm.is_terminated
        is_quiescent = algorithm.is_quiescent
        activate = algorithm.activate
        # Wakes are an engine computation, not a particle observation:
        # they read the *live* neighbourhood even when the activated
        # particle's own reads are served stale by a delay fault
        # (identical to ``neighbors_of`` whenever no overlay is active).
        neighbors_of = system.live_neighbors_of
        # A precise wake list returned by a delayed particle was computed
        # from stale data and may under-wake, so with delay faults active
        # the conservative live-neighbourhood wake is forced instead.
        force_conservative = (self._injector is not None
                              and self._injector.spec.delay_rate > 0)
        # With reports_termination, terminating activations return the
        # TERMINATED sentinel, so the per-examination poll is skipped;
        # with reports_quiescence, quiescent activations return the
        # QUIESCENT sentinel and replace the is_quiescent pre-check (the
        # activation itself is the quiescence test).
        poll_terminated = not algorithm.reports_termination
        poll_quiescent = not algorithm.reports_quiescence
        activations = 0
        examined = 0

        keyfn = self._round_keyfn(system, round_index, rng)
        if keyfn is None:
            # User-supplied policy: materialise the full order and walk it.
            # ``filter`` re-tests membership lazily as the iteration
            # advances, so particles parked or woken mid-round are handled
            # exactly like the sweep's walk would — but the test runs in C.
            population = len(particles)
            schedule = filter(
                active.__contains__,
                self._round_order(system, round_index, rng))
            for particle_id in schedule:
                examined += 1
                particle = particles[particle_id]
                if poll_terminated and is_terminated(particle, system):
                    done.add(particle_id)
                    active.discard(particle_id)
                    continue
                if poll_quiescent and is_quiescent(particle, system):
                    parked.add(particle_id)
                    active.discard(particle_id)
                    state.parks += 1
                    continue
                acted = activate(particle, system)
                activations += 1
                if acted is False:
                    continue
                if acted is QUIESCENT:
                    parked.add(particle_id)
                    active.discard(particle_id)
                    state.parks += 1
                    continue
                if acted is TERMINATED:
                    done.add(particle_id)
                    active.discard(particle_id)
                    continue
                if force_conservative or (type(acted) is not list
                                          and type(acted) is not tuple):
                    # Anything but a precise wake list (True, None, or any
                    # legacy truthy flag) keeps the conservative wake: the
                    # post-activation neighbourhood plus the movement
                    # events fired during the activation cover every
                    # pre-activation neighbour (a vacated point's event
                    # wakes whoever only touched it).
                    acted = neighbors_of(particle)
                for q in acted:
                    qid = q.particle_id
                    if qid in parked:
                        parked.discard(qid)
                        active.add(qid)
                        state.wakes += 1
            return activations, population - examined

        # Built-in policy: schedule only the awake particles, in the exact
        # sub-order the full permutation would give them.  Mid-round wakes
        # are pushed into the heap; a pushed entry whose position is already
        # behind the cursor pops out of order and is dropped — matching the
        # sweep, where a particle woken after its slot passed is not
        # reached again until the next round.  Dropped-duplicate entries
        # (same particle woken twice) compare equal to the cursor and are
        # dropped the same way.
        population = len(particles)
        heap = [(keyfn(pid), pid) for pid in active]
        heapify(heap)
        state.heap = heap
        state.round_limit = system._next_id
        state.keyfn = keyfn
        last = (float("-inf"), -1)
        try:
            while heap:
                entry = heappop(heap)
                if entry <= last:
                    continue
                last = entry
                particle_id = entry[1]
                examined += 1
                particle = particles[particle_id]
                if poll_terminated and is_terminated(particle, system):
                    done.add(particle_id)
                    active.discard(particle_id)
                    continue
                if poll_quiescent and is_quiescent(particle, system):
                    parked.add(particle_id)
                    active.discard(particle_id)
                    state.parks += 1
                    continue
                # The particle acts: anything it writes lives in its own or
                # a neighbour's memory, so waking its neighbourhood (plus
                # the movement events fired during the activation, which
                # wake the neighbourhood of every vacated or occupied
                # point) covers every particle whose quiescence this
                # activation can end.  An activation returning exactly
                # ``False`` declares it changed nothing a neighbour
                # observes (or that its only observable change was a
                # movement, whose event already woke the right particles),
                # so the wake is skipped entirely; QUIESCENT additionally
                # parks the particle, TERMINATED retires it, and a
                # particle list narrows the wake to exactly those.
                acted = activate(particle, system)
                activations += 1
                if acted is False:
                    continue
                if acted is QUIESCENT:
                    parked.add(particle_id)
                    active.discard(particle_id)
                    state.parks += 1
                    continue
                if acted is TERMINATED:
                    done.add(particle_id)
                    active.discard(particle_id)
                    continue
                if force_conservative or (type(acted) is not list
                                          and type(acted) is not tuple):
                    # Any non-list hint keeps the conservative wake:
                    # post-activation neighbourhood + movement events
                    # cover every pre-activation neighbour.
                    acted = neighbors_of(particle)
                for q in acted:
                    qid = q.particle_id
                    if qid in parked:
                        parked.discard(qid)
                        active.add(qid)
                        state.wakes += 1
                        heappush(heap, (keyfn(qid), qid))
        finally:
            state.heap = None
            state.keyfn = None
        # Every particle was either examined (activated, parked, or newly
        # observed terminated) or skipped as parked/terminated.
        return activations, population - examined


#: Registry of activation engines, keyed by the ``--engine`` CLI value.
ENGINES: Dict[str, type] = {
    "sweep": SequentialScheduler,
    "event": EventDrivenScheduler,
}


def make_scheduler(engine: str = "sweep", order: str | OrderPolicy = "random",
                   seed: int = 0,
                   faults: "str | FaultSpec | None" = None
                   ) -> SequentialScheduler:
    """Build the scheduler for ``engine`` (``"sweep"`` or ``"event"``).

    ``faults`` is a :class:`~repro.amoebot.faults.FaultSpec` or its spec
    string (None/"" = no fault injection).
    """
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown activation engine {engine!r}; known: {sorted(ENGINES)}"
        ) from None
    return cls(order=order, seed=seed, faults=faults)


def run_algorithm(algorithm: AmoebotAlgorithm, system: ParticleSystem,
                  order: str | OrderPolicy = "random", seed: int = 0,
                  max_rounds: int = 1_000_000,
                  engine: str = "sweep",
                  faults: "str | FaultSpec | None" = None) -> SchedulerResult:
    """Convenience wrapper: build a scheduler and run the algorithm."""
    return make_scheduler(engine, order=order, seed=seed, faults=faults).run(
        algorithm, system, max_rounds=max_rounds)
