"""Adversarial activation-order policies for the strong scheduler.

The paper's scheduler is adversarial-but-fair: within every asynchronous
round the adversary chooses the order in which particles are activated.  The
basic policies (`round_robin`, `random`, `reversed`) are order-oblivious;
the factories below build *state-dependent* adversaries that inspect the
current configuration before every round and try to slow the election down:

* :func:`outside_in_order` — activates the particles closest to the leader
  point / centroid first, so the particles whose points are about to become
  erodable (those far out on the boundary) are reached as late as possible;
* :func:`inside_out_order` — the opposite, a friendly schedule;
* :func:`sticky_order` — keeps one fixed victim particle last in every
  round, the classical "one slow particle" adversary;
* :func:`alternating_order` — flips between forward and reversed id order,
  which breaks algorithms that accidentally rely on a fixed sweep direction.

All factories return a policy with the scheduler's expected signature
``(round_index, ids, rng) -> ids`` and always return a permutation of the
input ids, so fairness (every particle once per round) is preserved — these
are adversaries over ordering, not over enabling.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..grid.coords import Point, grid_distance
from .scheduler import OrderPolicy
from .system import ParticleSystem

__all__ = [
    "outside_in_order",
    "inside_out_order",
    "sticky_order",
    "sticky_factory",
    "alternating_order",
    "alternating_factory",
    "ADVERSARY_FACTORIES",
]


def _reference_point(system: ParticleSystem) -> Point:
    """A deterministic reference point: the centroid-most occupied point."""
    points = sorted(system.occupied_points())
    mean_q = sum(p[0] for p in points) / len(points)
    mean_r = sum(p[1] for p in points) / len(points)
    return min(points, key=lambda p: (abs(p[0] - mean_q) + abs(p[1] - mean_r), p))


def outside_in_order(system: ParticleSystem) -> OrderPolicy:
    """Activate central particles first and peripheral particles last.

    Erosion-style algorithms make progress at the outer boundary, so
    delaying the peripheral particles within each round is the natural
    slow-down attempt for DLE and the erosion baseline.
    """

    def policy(round_index: int, ids: List[int], rng: random.Random) -> List[int]:
        center = _reference_point(system)
        return sorted(
            ids,
            key=lambda pid: (grid_distance(system.get_particle(pid).head, center), pid),
        )

    policy.__name__ = "outside_in"
    return policy


def inside_out_order(system: ParticleSystem) -> OrderPolicy:
    """Activate peripheral particles first (the friendly counterpart)."""

    def policy(round_index: int, ids: List[int], rng: random.Random) -> List[int]:
        center = _reference_point(system)
        return sorted(
            ids,
            key=lambda pid: (-grid_distance(system.get_particle(pid).head, center), pid),
        )

    policy.__name__ = "inside_out"
    return policy


def sticky_order(victim_index: Optional[int] = None, *,
                 seed: Optional[int] = None) -> OrderPolicy:
    """Always activate one chosen victim particle last in every round.

    ``victim_index`` pins the victim to a position in the round's id
    list.  When it is None the victim slot is drawn once — from
    ``random.Random(seed)`` when ``seed`` is given, otherwise from the
    scheduler rng on the first round — and then held for the rest of the
    run, so the "one slow particle" stays the *same* particle instead of
    silently defaulting to index 0.
    """
    slot: List[int] = []

    def policy(round_index: int, ids: List[int], rng: random.Random) -> List[int]:
        if victim_index is not None:
            index = victim_index
        else:
            if not slot:
                picker = rng if seed is None else random.Random(seed)
                slot.append(picker.randrange(len(ids)))
            index = slot[0]
        victim = ids[index % len(ids)]
        rest = [pid for pid in ids if pid != victim]
        return rest + [victim]

    policy.__name__ = "sticky"
    return policy


def alternating_order() -> OrderPolicy:
    """Alternate between forward and reversed id order every round."""

    def policy(round_index: int, ids: List[int], rng: random.Random) -> List[int]:
        return list(ids) if round_index % 2 == 0 else list(reversed(ids))

    policy.__name__ = "alternating"
    return policy


def sticky_factory(system: ParticleSystem,
                   victim_index: Optional[int] = None,
                   seed: Optional[int] = None) -> OrderPolicy:
    """Build a sticky adversary for ``system`` with a selectable victim.

    Pass ``victim_index`` to pin the victim to a position in the id
    list, or ``seed`` to draw it reproducibly.  With neither, the draw
    is seeded by the system's population, so equal-sized systems
    victimise the same slot and the choice is deterministic without
    being hard-wired to particle 0.
    """
    if victim_index is None and seed is None:
        seed = len(system)
    return sticky_order(victim_index, seed=seed)


def alternating_factory(system: ParticleSystem) -> OrderPolicy:
    """Build the alternating adversary (state-oblivious: ``system`` is
    accepted only to match the factory signature)."""
    return alternating_order()


#: Named adversary factories, ``factory(system) -> order policy``; the
#: scheduler-ablation benchmark and tests iterate this table.  Each value
#: is a documented function (see its docstring for the adversary's
#: strategy); ``sticky_factory`` additionally takes ``victim_index`` /
#: ``seed`` keywords when called directly.
ADVERSARY_FACTORIES = {
    "outside_in": outside_in_order,
    "inside_out": inside_out_order,
    "sticky": sticky_factory,
    "alternating": alternating_factory,
}
