"""Erosion-only deterministic leader election (baseline, no movement).

This baseline represents the family of deterministic algorithms that elect a
leader by *eroding* boundary particles without ever moving them — Di Luna et
al. [22] and Gastineau et al. [27] in the paper's Table 1.  Those algorithms
require the initial shape to be **hole-free**: a particle occupying a
strictly-convex-and-erodable point of the current candidate set withdraws
(becomes a follower), and the last remaining candidate is the leader.  Their
round complexity is ``O(n)`` in general (``O(r + m_tree)`` for [27], which is
``Omega(D)``), and they are simply inapplicable when the shape has holes —
which is exactly the gap the paper's Algorithm DLE closes.

The implementation below is a faithful per-activation algorithm on the
amoebot simulator.  Like Algorithm DLE it maintains per-port ``eligible``
flags, but the eligible set starts as the *occupied points only* (there is
no hole to include when the shape is hole-free) and particles never move.
On a shape with holes the erosion stalls (no SCE point of the remaining
candidate set is guaranteed to exist once the candidate set wraps around a
hole) or elects several leaders; :func:`run_erosion_election` detects both
failure modes and reports them, which the benchmark harness uses to
reproduce the "No holes" restriction column of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..amoebot.algorithm import (
    QUIESCENT,
    STATUS_FOLLOWER,
    STATUS_KEY,
    STATUS_LEADER,
    STATUS_UNDECIDED,
    TERMINATED,
    AmoebotAlgorithm,
    StatusMixin,
    is_sce_flag_arc,
)
from ..amoebot.particle import Particle
from ..amoebot.scheduler import make_scheduler
from ..amoebot.system import ParticleSystem
from ..grid.coords import NUM_DIRECTIONS, Point
from ..state import run_checkpointed_stage

__all__ = ["ErosionLeaderElection", "ErosionOutcome", "run_erosion_election"]

ELIGIBLE_KEY = "eligible"
TERMINATED_KEY = "terminated"


class ErosionLeaderElection(AmoebotAlgorithm, StatusMixin):
    """SCE-erosion leader election without movement (hole-free shapes)."""

    name = "erosion-baseline"
    reports_termination = True
    reports_quiescence = True

    def __init__(self) -> None:
        #: Instrumentation: candidate points still eligible.
        self.eligible_points: Set[Point] = set()
        #: Number of state changes in the current round (stall detection).
        self._changes_this_round = 0
        #: Set once a full round passes with no change and no termination.
        self.stalled = False
        #: Particles whose ``terminated`` flag is set (absorbing), so
        #: ``has_terminated`` is O(1) instead of an O(n) scan per round.
        self._terminated_count = 0
        self._population = 0
        #: Setup-time ids of the particles whose first activation acts
        #: (flags empty or SCE) — the event engine's initial active set.
        self._initially_active: Set[int] = set()

    # -- setup -----------------------------------------------------------------

    def setup(self, system: ParticleSystem) -> None:
        shape = system.shape()
        if not shape.is_connected():
            raise ValueError("erosion baseline requires a connected configuration")
        if not system.all_contracted():
            raise ValueError("erosion baseline requires a contracted configuration")
        occupied = system.occupied_points()
        self.eligible_points = set(occupied)
        self.stalled = False
        self._changes_this_round = 0
        self._terminated_count = 0
        self._population = len(system)
        self._initially_active = initially_active = set()
        for particle in system.particles():
            particle[STATUS_KEY] = STATUS_UNDECIDED
            particle[TERMINATED_KEY] = False
            eligible = [False] * NUM_DIRECTIONS
            for port in range(NUM_DIRECTIONS):
                eligible[port] = particle.head_neighbor(port) in occupied
            particle[ELIGIBLE_KEY] = eligible
            if True not in eligible or is_sce_flag_arc(eligible):
                initially_active.add(particle.particle_id)

    # -- termination --------------------------------------------------------------

    def is_terminated(self, particle: Particle, system: ParticleSystem) -> bool:
        return particle.memory.get(TERMINATED_KEY, False) or self.stalled

    def has_terminated(self, system: ParticleSystem) -> bool:
        # The terminated flag is set in exactly one place and never cleared;
        # the counter kept there (plus the stall flag, which terminates
        # everyone at once) replaces the default O(n) scan.
        if self.stalled:
            return True
        n = len(system)
        if n != self._population:
            return super().has_terminated(system)
        return self._terminated_count >= n

    def on_round_end(self, round_index: int, system: ParticleSystem) -> None:
        if self._changes_this_round == 0:
            # Nothing changed during a whole round: the configuration is a
            # fixed point, so it will never change again.  On hole-free
            # shapes this only happens after termination; with holes it is
            # the stall the paper's Table 1 restrictions predict.
            if self._terminated_count < len(system):
                self.stalled = True
        self._changes_this_round = 0

    # -- quiescence (event-driven engine) -----------------------------------------

    def is_quiescent(self, particle: Particle, system: ParticleSystem) -> bool:
        """Same structure as Algorithm DLE's declaration: a particle is
        quiescent while it waits on its neighbours — decided with an
        undecided neighbour, or undecided at a non-SCE point of the
        candidate set.  Both inputs only change when a neighbour acts."""
        memory = particle.memory
        if memory[STATUS_KEY] != STATUS_UNDECIDED:
            for q in system.neighbors_of(particle):
                if q.memory[STATUS_KEY] == STATUS_UNDECIDED:
                    return True
            return False
        flags = memory[ELIGIBLE_KEY]
        if True not in flags:
            return False  # would elect itself leader
        # SCE is rotation invariant: test the port-indexed flags directly.
        return not is_sce_flag_arc(flags)

    def initially_active_ids(self, system: ParticleSystem):
        """At setup every particle is undecided, so the particles whose
        first activation acts are exactly those with actionable flags."""
        return self._initially_active

    # -- activation ---------------------------------------------------------------

    def activate(self, particle: Particle, system: ParticleSystem) -> object:
        # Returns the visibility hint of the base-class contract (``False``
        # = nothing a neighbour observes changed; neighbours only read each
        # other's ``status``).
        memory = particle.memory
        status = memory[STATUS_KEY]

        if status != STATUS_UNDECIDED:
            if all(q.memory[STATUS_KEY] != STATUS_UNDECIDED
                   for q in system.neighbors_of(particle)):
                if not memory[TERMINATED_KEY]:
                    memory[TERMINATED_KEY] = True
                    self._terminated_count += 1
                    self._changes_this_round += 1
                # Neither the flag nor the transition is neighbour-visible;
                # the sentinel also retires the particle (reports_termination).
                return TERMINATED
            return QUIESCENT  # waiting on an undecided neighbour

        eligible = memory[ELIGIBLE_KEY]

        if True not in eligible:
            memory[STATUS_KEY] = STATUS_LEADER
            self._changes_this_round += 1
            # Only decided neighbours act on the status change (an
            # undecided particle's next step depends on its own flags).
            return [q for q, _ in
                    system.head_adjacent_particles(particle.head)
                    if q.memory[STATUS_KEY] != STATUS_UNDECIDED]

        # SCE is rotation invariant, so the common no-op activation is
        # rejected straight off the port-indexed flags — the action path
        # below no longer needs the direction translation at all.
        if not is_sce_flag_arc(eligible):
            return QUIESCENT  # no-op activation until a flag is written

        # Erode: the particle withdraws from candidacy and its point leaves
        # the eligible set; neighbours with an adjacent head fix their flags.
        # The wake list evaluates the quiescence predicate at the write
        # site: an undecided neighbour is woken only when its new flags
        # make it act (no eligible ports left, or SCE), a decided
        # neighbour only for the status change it waits on.
        point = particle.head
        self.eligible_points.discard(point)
        memory[STATUS_KEY] = STATUS_FOLLOWER
        self._changes_this_round += 1
        wake: List[Particle] = []
        for q, direction in system.head_adjacent_particles(point):
            qmemory = q.memory
            # ``direction`` points from v to q's head; the head port facing
            # v is the opposite direction, in q's own port numbering.
            port = (direction + 3 - q.orientation) % NUM_DIRECTIONS
            qflags = qmemory[ELIGIBLE_KEY]
            qflags[port] = False
            if qmemory[STATUS_KEY] == STATUS_UNDECIDED:
                if True not in qflags or is_sce_flag_arc(qflags):
                    wake.append(q)
            else:
                wake.append(q)
        return wake

    # -- checkpoint state protocol -------------------------------------------

    def snapshot_state(self, system: ParticleSystem) -> dict:
        """Algorithm-private state outside particle memories.  Taken at
        round boundaries, where ``_changes_this_round`` has just been reset
        by :meth:`on_round_end` — it is serialized anyway for exactness."""
        return {
            "eligible_points": [list(point)
                                for point in sorted(self.eligible_points)],
            "changes_this_round": self._changes_this_round,
            "stalled": self.stalled,
            "terminated_count": self._terminated_count,
            "population": self._population,
            "initially_active": sorted(self._initially_active),
        }

    def restore_state(self, state: dict, system: ParticleSystem) -> None:
        self.eligible_points = {tuple(point)
                                for point in state["eligible_points"]}
        self._changes_this_round = int(state["changes_this_round"])
        self.stalled = bool(state["stalled"])
        self._terminated_count = int(state["terminated_count"])
        self._population = int(state["population"])
        self._initially_active = {int(pid)
                                  for pid in state["initially_active"]}

    @staticmethod
    def _is_sce(eligible_dirs: List[int]) -> bool:
        """Same purely local SCE test as Algorithm DLE: 1-3 eligible
        neighbours forming one contiguous clockwise arc."""
        k = len(eligible_dirs)
        if k == 0 or k > 3:
            return False
        eligible_set = set(eligible_dirs)
        starts = sum(
            1 for d in eligible_set
            if (d - 1) % NUM_DIRECTIONS not in eligible_set
        )
        return starts == 1


@dataclass
class ErosionOutcome:
    """Result of running the erosion baseline."""

    rounds: int
    succeeded: bool
    stalled: bool
    num_leaders: int
    leader_point: Optional[Point] = None
    #: Whether the scheduler run terminated (vs hitting the round cap).
    #: ``terminated and not succeeded`` distinguishes a *wrong* final
    #: answer (a safety violation — e.g. zero or several leaders under
    #: fault injection) from a mere liveness loss.
    terminated: bool = True


def run_erosion_election(system: ParticleSystem, order: str = "random",
                         seed: int = 0,
                         max_rounds: Optional[int] = None,
                         engine: str = "sweep",
                         checkpoint=None,
                         faults: str = "") -> ErosionOutcome:
    """Run the erosion baseline and classify the outcome.

    ``succeeded`` is True only when a unique leader was elected and every
    other particle is a follower.  On shapes with holes the run typically
    ends ``stalled`` (the documented restriction of this algorithm family).
    ``engine`` selects the activation engine (``"sweep"`` or ``"event"``);
    ``checkpoint`` is an optional
    :class:`repro.state.CheckpointContext` making the run resumable;
    ``faults`` is a :class:`repro.amoebot.faults.FaultSpec` spec string
    ("" = no fault injection).
    """
    if max_rounds is None:
        max_rounds = 10 * len(system) + 100
    algorithm = ErosionLeaderElection()
    scheduler = make_scheduler(engine, order=order, seed=seed, faults=faults)
    result = run_checkpointed_stage(checkpoint, "erosion", algorithm, system,
                                    scheduler, max_rounds)
    leaders = [p for p in system.particles() if p.get(STATUS_KEY) == STATUS_LEADER]
    followers = [p for p in system.particles() if p.get(STATUS_KEY) == STATUS_FOLLOWER]
    succeeded = (
        not algorithm.stalled
        and result.terminated
        and len(leaders) == 1
        and len(leaders) + len(followers) == len(system)
    )
    return ErosionOutcome(
        rounds=result.rounds,
        succeeded=succeeded,
        stalled=algorithm.stalled,
        num_leaders=len(leaders),
        leader_point=leaders[0].head if len(leaders) == 1 else None,
        terminated=result.terminated,
    )
