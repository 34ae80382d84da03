"""repro — a reproduction of "Efficient Deterministic Leader Election for
Programmable Matter" (Dufoulon, Kutten, Moses Jr., PODC 2021).

The package implements, from scratch:

* a triangular-grid and amoebot-model substrate (:mod:`repro.grid`,
  :mod:`repro.amoebot`),
* the paper's contribution — Algorithm DLE, Algorithm Collect and the
  outer-boundary-detection primitive OBD (:mod:`repro.core`),
* the prior-work baselines of Table 1 (:mod:`repro.baselines`), and
* the experiment harness that regenerates the paper's comparison table and
  asymptotic claims (:mod:`repro.analysis`).

The public API is :mod:`repro.api`.  Quick start::

    from repro.api import hexagon_with_holes, ParticleSystem, elect_leader

    shape = hexagon_with_holes(radius=7)
    system = ParticleSystem.from_shape(shape, orientation_seed=1)
    outcome = elect_leader(system)
    print(outcome.stage_rounds())
"""

__version__ = "1.2.0"
