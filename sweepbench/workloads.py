"""The three workloads: which configs each sweeps, and how.

Every workload is a list of :class:`repro.orchestrator.RunConfig` drawn
from the benchmark's ``--seed`` (config seeds, blob seeds and fault-plan
seeds alike), a set-up step, and the timed *passes*: calls of the public
``run_sweep`` entry point, one after another, from one process.  The
engine is left at the ``RunConfig`` default throughout.

Each workload also carries four *defect probes*: ``dle`` under a
``shape:rate=1`` fault plan, which at the time of writing always raises
``KeyError`` (a particle added mid-run never went through ``setup``).  They keep ``error_frac`` above zero on every workload, so the
metric has a median to bound against, and a fix of the defect lowers it
everywhere.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, Dict, List

from repro.orchestrator import RunConfig, SweepSpec

#: The seed whose records are compared against ``reference/``.
DEFAULT_SEED = 0

#: Checkpoint cadence of ``faults-ckpt``, in scheduler rounds.
CHECKPOINT_EVERY = 5

#: Warm re-run + resume repeats per process in ``rerun-warm``: the timed
#: part is short next to the cache fill, so it is repeated.
WARM_REPEATS = 8

TABLE1_ALGORITHMS = ("randomized", "erosion", "dle", "obd+dle+collect")
#: Shapes on which ``dle`` hit the shape-fault defect for every one of 200
#: plan seeds tried.  ``erosion`` is left out: on holey shapes it can stall
#: and stop before a particle is added, so its failure is not certain.
PROBE_SHAPES = (("hexagon", 3), ("hexagon", 4), ("holey", 2), ("holey", 3))


def workload_rng(workload: str, seed: int) -> random.Random:
    """The one random stream a workload draws all its inputs from."""
    return random.Random(f"{workload}/{seed}")


def defect_probes(rng: random.Random) -> List[RunConfig]:
    """Four configs hitting the recorded shape-fault ``KeyError``."""
    plan = f"shape:rate=1;seed={rng.randrange(1, 10_000)}"
    seed = rng.randrange(1, 10_000)
    return [RunConfig(algorithm="dle", family=family, size=size, seed=seed,
                      faults=plan)
            for family, size in PROBE_SHAPES]


def table1_configs(seed: int) -> List[RunConfig]:
    """Table 1: four algorithms x hexagon/blob/holey x sizes 2-5 x 2 seeds.

    Size 1 is left out: its configs take about as long as one durable
    cache write, so the interval percentiles would measure the disk.
    """
    rng = workload_rng("table1-cold", seed)
    spec = SweepSpec(algorithms=TABLE1_ALGORITHMS,
                     families=("hexagon", "blob", "holey"),
                     sizes=(2, 3, 4, 5), seeds=rng.sample(range(10_000), 2))
    return spec.expand() + defect_probes(rng)


def fault_plans(rng: random.Random) -> List[str]:
    """Sixteen plans: transient crashes, delays, capped permanent crashes
    and the two shape plans that hit the recorded defect.

    Rates are fixed and only the plan seeds vary, so the amount of work
    hardly depends on the benchmark seed.
    """
    templates = (["crash:rate=0.02,rounds=4"] * 5 + ["delay:rate=0.3,max=2"] * 5
                 + ["crash:rate=0.02;cap=60"] * 4 + ["shape:rate=1"] * 2)
    return [f"{template};seed={rng.randrange(1, 10_000)}" for template in templates]


def faults_configs(seed: int) -> List[RunConfig]:
    """dle/erosion x hexagon/holey 3-4 x sixteen fault plans.

    One config seed for all: fault plans do not change the shape key, so
    each shape's metrics are computed once and the simulation dominates.
    """
    rng = workload_rng("faults-ckpt", seed)
    config_seed = rng.randrange(10_000)
    return SweepSpec(algorithms=("dle", "erosion"), families=("hexagon", "holey"),
                     sizes=(3, 4), seeds=(config_seed,),
                     faults=fault_plans(rng)).expand()


def warm_configs(seed: int) -> List[RunConfig]:
    """1200 small configs (sizes 1-2 of five families, 40 seeds) + probes."""
    rng = workload_rng("rerun-warm", seed)
    spec = SweepSpec(algorithms=("dle", "erosion", "randomized"),
                     families=("hexagon", "line", "comb", "parallelogram", "blob"),
                     sizes=(1, 2), seeds=rng.sample(range(10_000), 40))
    return spec.expand() + defect_probes(rng)


# ---------------------------------------------------------------------------
# Set-up, passes, teardown
# ---------------------------------------------------------------------------

class Pass:
    """One timed ``run_sweep`` call: the repeat it belongs to and its
    keyword arguments."""

    def __init__(self, repeat: int = 0, **kwargs: Any) -> None:
        self.repeat = repeat
        self.kwargs = kwargs


class Workload:
    """Configs, set-up and timed passes of one workload."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.configs = self.make_configs(seed)

    @staticmethod
    def make_configs(seed: int) -> List[RunConfig]:
        raise NotImplementedError

    def setup(self) -> None:
        """Untimed by the sweep clock; counted in ``setup_s``."""

    def passes(self) -> List[Pass]:
        raise NotImplementedError


class Table1Cold(Workload):
    name = "table1-cold"

    make_configs = staticmethod(table1_configs)

    def passes(self) -> List[Pass]:
        return [Pass(cache=self.work / "cache", ledger=self.work / "ledger.jsonl")]


class FaultsCkpt(Workload):
    name = "faults-ckpt"

    make_configs = staticmethod(faults_configs)

    def passes(self) -> List[Pass]:
        return [Pass(cache=self.work / "cache", ledger=self.work / "ledger.jsonl",
                     checkpoint_every=CHECKPOINT_EVERY,
                     checkpoint_dir=str(self.work / "checkpoints"))]


class RerunWarm(Workload):
    name = "rerun-warm"

    make_configs = staticmethod(warm_configs)

    def setup(self) -> None:
        from repro.orchestrator import run_sweep

        run_sweep(self.configs, cache=self.work / "cache",
                  ledger=self.work / "fill.jsonl")

    def passes(self) -> List[Pass]:
        passes = []
        for repeat in range(WARM_REPEATS):
            ledger = self.work / f"rerun-{repeat}.jsonl"
            passes.append(Pass(repeat, cache=self.work / "cache", ledger=ledger))
            passes.append(Pass(repeat, cache=self.work / "cache",
                               ledger=ledger, resume=True))
        return passes


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in
                              (Table1Cold, FaultsCkpt, RerunWarm)}


def make_workload(name: str, seed: int, work: Path) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}") from None
    return cls(seed, work)
