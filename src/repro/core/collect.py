"""Algorithm Collect — reconnecting the system after DLE (Section 4.3).

After Algorithm DLE terminates the particle system may be disconnected, but
by Lemma 19 it is disconnected in a very structured way: when the leader
occupies point ``l``, there is a contracted particle at *every* grid distance
``0..eps_G(l)`` from ``l`` ("breadcrumbs").  Algorithm Collect exploits this
to gather all particles in ``O(D_G)`` rounds: a *stem* of collected particles
anchored at ``l`` repeatedly (1) marches outward (primitive OMP), (2) sweeps
a full rotation around ``l`` like a fan blade, collecting every particle at
grid distance ``k .. 2k-1`` (primitive PRP, six 60-degree rotations), and
(3) returns to ``l`` while doubling its size using the newly collected
particles (primitive SDP).  The algorithm terminates after the first phase
that collects nothing, at which point the collected particles form a
connected configuration.

Fidelity note (see EXPERIMENTS.md, "Fidelity: simulated vs charged round
counts").  The paper implements the three primitives with token/permit
pipelining and "virtual particle" simulation whose low-level message formats
are only sketched.  This module executes the *net particle movement* of each
phase on the real grid — so collection, connectivity (Lemma 20) and the
doubling behaviour (Lemma 21 / Corollary 22) are genuinely simulated and
checked — while the number of rounds of each primitive is charged
analytically from the paper's own pipelining analysis:

* OMP on a stem of size ``k``:   ``OMP_ROUNDS_PER_UNIT * k``   (Lemma 24),
* one 60-degree PRP rotation:    ``PRP_ROUNDS_PER_UNIT * k``   (Lemma 26),
* SDP:                            ``SDP_ROUNDS_PER_UNIT * k``   (Lemma 27).

The constants are explicit so that experiments report a concrete round
count whose growth in ``D_G`` is the quantity the paper's Theorem 23 claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..amoebot.particle import Particle
from ..amoebot.system import ParticleSystem
from ..grid.coords import Point
from ..grid.packed import (
    pack_point,
    packed_grid_distance,
    packed_ring,
    packed_translate,
)
from ..grid.shape import is_connected

__all__ = [
    "CollectPhase",
    "CollectResult",
    "CollectSimulator",
    "OMP_ROUNDS_PER_UNIT",
    "PRP_ROUNDS_PER_UNIT",
    "SDP_ROUNDS_PER_UNIT",
]

#: Rounds charged per stem particle for the outward-movement primitive OMP:
#: an expansion wave followed by a contraction wave, each pipelined over the
#: stem (proof of Lemma 24 charges O(1) rounds per forwarded permit).
OMP_ROUNDS_PER_UNIT = 4
#: Rounds charged per stem particle for one 60-degree partial rotation (PRP):
#: part (1) moves the stem k points using 2k pipelined messages, part (2)
#: rotates it around its root with the same message structure (Lemma 26).
PRP_ROUNDS_PER_UNIT = 8
#: Rounds charged per stem particle for the stem-doubling primitive SDP
#: (expansion towards l, contraction, then absorption of branch particles;
#: Lemma 27).
SDP_ROUNDS_PER_UNIT = 6
#: Number of 60-degree rotations forming one full sweep around the leader.
ROTATIONS_PER_PHASE = 6


@dataclass
class CollectPhase:
    """Statistics of one phase of Algorithm Collect."""

    index: int
    stem_size: int
    newly_collected: int
    stem_size_after: int
    rounds: int


@dataclass
class CollectResult:
    """Outcome of running Algorithm Collect."""

    rounds: int
    phases: List[CollectPhase] = field(default_factory=list)
    connected: bool = False
    leader_point: Optional[Point] = None

    @property
    def num_phases(self) -> int:
        return len(self.phases)


class CollectSimulator:
    """Structured simulation of Algorithm Collect (Section 4.3.2).

    Parameters
    ----------
    system:
        The particle system, in the configuration left by Algorithm DLE
        (all particles contracted, exactly one leader).
    leader:
        The leader particle (occupying the last eligible point ``l``).
    outward_direction:
        The global direction the leader chooses as the stem direction
        ``v_out`` (the choice is immaterial; direction 0 by default).
    """

    def __init__(self, system: ParticleSystem, leader: Particle,
                 outward_direction: int = 0) -> None:
        if leader.is_expanded:
            raise ValueError("Collect expects a contracted leader")
        if not system.all_contracted():
            raise ValueError("Collect expects all particles contracted")
        self.system = system
        self.leader = leader
        self.leader_point: Point = leader.head
        self.outward_direction = outward_direction
        #: Packed-int mirror of ``leader_point``: all planning geometry
        #: (rays, rings, distances, relocation targets) runs in the packed
        #: domain and only particle-facing APIs see tuple points.
        self._leader_packed: int = pack_point(leader.head)
        self.collected: Set[int] = {leader.particle_id}
        self.phases: List[CollectPhase] = []
        self.rounds = 0

    def is_quiescent(self, particle: Particle, system: ParticleSystem) -> bool:
        """Explicit quiescence declaration for the event-driven engine.

        Collect is a structured simulation: each phase's net movement is
        applied with :meth:`ParticleSystem.bulk_relocate` and the rounds are
        charged analytically, so no particle performs scheduler-driven work.
        Every particle is vacuously quiescent for the simulator's duration;
        the bulk relocations still publish dirty-neighborhood events, so an
        event-driven stage running afterwards starts from fresh neighbour
        caches and a correctly re-woken configuration.
        """
        return True

    # -- geometry helpers -----------------------------------------------------

    def _ray_point(self, distance: int) -> int:
        """The packed stem point at the given grid distance from the leader."""
        return packed_translate(self._leader_packed, self.outward_direction,
                                distance)

    def _parking_positions(self, max_distance: int) -> List[int]:
        """Off-ray packed positions within ``max_distance`` of the leader,
        listed so that filling them in order keeps the collected set
        connected.

        Ring ``j`` is filled counter-clockwise starting from the neighbour of
        the ray point at distance ``j``; consecutive ring points are adjacent
        and the first one is adjacent to the stem, so every prefix of the
        returned list together with the stem is connected.
        """
        positions: List[int] = []
        for j in range(1, max_distance + 1):
            ring_points = packed_ring(self._leader_packed, j)
            # ring_points[0] is the ray point (the ring starts at
            # center + j * direction); walking the list backwards goes
            # counter-clockwise from it.
            rotated = self._align_ring_to_ray(ring_points, j)
            positions.extend(reversed(rotated[1:]))
        return positions

    def _align_ring_to_ray(self, ring_points: List[int], j: int) -> List[int]:
        """Rotate the ring list so it starts at the ray point at distance j."""
        ray = self._ray_point(j)
        index = ring_points.index(ray)
        return ring_points[index:] + ring_points[:index]

    # -- phase execution ---------------------------------------------------------

    def _uncollected_at_distances(self, low: int, high: int) -> List[int]:
        """Ids of uncollected particles at grid distance in ``[low, high]``."""
        found: List[int] = []
        leader_packed = self._leader_packed
        for particle in self.system.particles():
            if particle.particle_id in self.collected:
                continue
            d = packed_grid_distance(pack_point(particle.head), leader_packed)
            if low <= d <= high:
                found.append(particle.particle_id)
        return found

    def _reposition_collected(self, stem_size: int) -> None:
        """Place the collected particles: the stem on the ray, extras parked
        on the rings nearest the leader (never beyond the stem's reach)."""
        collected_ids = sorted(self.collected)
        stem_targets = [self._ray_point(i) for i in range(stem_size)]
        extras = len(collected_ids) - stem_size
        if extras < 0:
            raise RuntimeError("stem larger than the collected set")
        parking = self._parking_positions(stem_size - 1)
        if extras > len(parking):
            raise RuntimeError(
                "not enough parking positions for the collected particles; "
                "this contradicts the capacity argument of Lemma 21"
            )
        targets = stem_targets + parking[:extras]
        # Keep particles that are already on a target in place, assign the
        # rest greedily; particles are anonymous so any assignment is valid.
        current: Dict[int, int] = {
            pid: pack_point(self.system.get_particle(pid).head)
            for pid in collected_ids
        }
        target_set = set(targets)
        stay = {pid for pid, pt in current.items() if pt in target_set}
        # Make sure two stationary particles do not claim the same target
        # (cannot happen: particles occupy distinct points).
        taken = {current[pid] for pid in stay}
        free_targets = [t for t in targets if t not in taken]
        movers = [pid for pid in collected_ids if pid not in stay]
        assignment = {pid: point for pid, point in zip(movers, free_targets)}
        if assignment:
            self.system.bulk_relocate_packed(assignment)

    def _phase_rounds(self, stem_size: int) -> int:
        """Rounds charged for one phase with the given starting stem size."""
        per_unit = (OMP_ROUNDS_PER_UNIT
                    + ROTATIONS_PER_PHASE * PRP_ROUNDS_PER_UNIT
                    + SDP_ROUNDS_PER_UNIT)
        return per_unit * max(1, stem_size)

    def run_phase(self, index: int, stem_size: int) -> CollectPhase:
        """Execute one phase: sweep distances ``[k, 2k-1]``, collect, double."""
        k = stem_size
        newly = self._uncollected_at_distances(k, 2 * k - 1)
        self.collected.update(newly)
        n_collected = len(self.collected)
        stem_after = min(2 * k, n_collected)
        self._reposition_collected(stem_after)
        rounds = self._phase_rounds(k)
        phase = CollectPhase(
            index=index,
            stem_size=k,
            newly_collected=len(newly),
            stem_size_after=stem_after,
            rounds=rounds,
        )
        self.phases.append(phase)
        self.rounds += rounds
        return phase

    def _final_reconnect(self) -> None:
        """Terminal reconnection step: stretch the stem far enough that every
        parked particle's ring is anchored to a stem point.

        By Lemma 19 there is at least one collected particle per grid
        distance up to the farthest one, so the stem can always be extended
        to cover it; the extra rounds are at most another ``O(D_G)`` and are
        charged below.
        """
        # Reduced straight to max(): iterating the ``collected`` set must
        # never materialise a hash-ordered list (D102) — only the extremum
        # is order-free.
        max_distance = max(
            (packed_grid_distance(
                pack_point(self.system.get_particle(pid).head),
                self._leader_packed)
             for pid in self.collected), default=0)
        needed_stem = max_distance + 1
        if needed_stem > len(self.collected):
            needed_stem = len(self.collected)
        self._reposition_collected(needed_stem)
        self.rounds += SDP_ROUNDS_PER_UNIT * needed_stem

    # -- main entry point -----------------------------------------------------------

    def run(self, max_phases: int = 64) -> CollectResult:
        """Run Algorithm Collect to termination and return its statistics."""
        stem_size = 1
        index = 0
        while index < max_phases:
            index += 1
            phase = self.run_phase(index, stem_size)
            if phase.newly_collected == 0:
                break
            stem_size = phase.stem_size_after
        else:
            raise RuntimeError("Collect did not terminate within max_phases")
        self._final_reconnect()
        connected = is_connected(self.system.occupied_points())
        result = CollectResult(
            rounds=self.rounds,
            phases=list(self.phases),
            connected=connected,
            leader_point=self.leader_point,
        )
        return result
