"""repro.sweep — deterministic parallel sweeps for batched what-if studies.

The paper's §5.4 headline use case is re-running one generated
communication specification across a grid of what-if configurations
(compute acceleration, network parameters, rank counts, fault plans).
This package makes that a first-class, parallel operation:

* :class:`SweepPlan` — a digest-keyed YAML/JSON description of the grid
  (shared ``base`` config + cartesian ``axes`` + explicit ``points``);
* :func:`run_sweep` — fans the points across worker processes, sharing
  the content-addressed artifact cache (cross-process locked) so the
  expensive trace/generate work happens once, and merges the results
  order-independently;
* :class:`SweepResult` — the merged outcome, whose canonical rendering
  is byte-identical whether the sweep ran on 1 worker or N.

Quick start::

    from repro.sweep import SweepPlan, run_sweep

    plan = SweepPlan(name="whatif", base={"app": "bt", "nranks": 16,
                                          "cls": "B", "platform": "arc"},
                     axes=[{"field": "compute_scale",
                            "values": [1.0, 0.5, 0.0]}])
    result = run_sweep(plan, workers=4)
    print(result.report())        # per-point status + makespans

See ``docs/SWEEPS.md`` for the plan schema, determinism guarantees, and
cache-sharing semantics.
"""

from repro.sweep.engine import (PointResult, SweepResult, default_workers,
                                run_sweep)
from repro.sweep.plan import (MODES, TEMPLATE, SweepAxis, SweepPlan,
                              SweepPoint, build_config)

__all__ = [
    "MODES",
    "PointResult",
    "SweepAxis",
    "SweepPlan",
    "SweepPoint",
    "SweepResult",
    "TEMPLATE",
    "build_config",
    "default_workers",
    "run_sweep",
]
