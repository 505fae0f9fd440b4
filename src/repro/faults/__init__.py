"""repro.faults — seeded, deterministic fault injection for the simulator.

The paper's what-if methodology (§5.4) re-runs one communication
specification under a changed platform; this package extends it to
*misbehaving* platforms: message drop/duplication/reorder, transient
link degradation, compute stragglers, and rank crashes, all described by
a declarative :class:`FaultPlan` and decided by pure hashes of the plan
seed so that every run is bit-deterministic.

Quick start::

    from repro.faults import FaultPlan, FaultInjector
    from repro.mpi import run_spmd

    plan = FaultPlan(seed=7, drop_rate=0.05)
    result = run_spmd(app, nranks=8, faults=FaultInjector(plan))
    print(result.fault_report)

or, from the CLI::

    repro faults template -o plan.yaml
    repro pipeline --app jacobi --np 8 --fault-plan plan.yaml
"""

from repro.faults.injector import FaultInjector, SendFate
from repro.faults.plan import FaultPlan, LinkWindow, TEMPLATE
from repro.faults.report import FaultReport, build_fault_report

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "LinkWindow",
    "SendFate",
    "TEMPLATE",
    "build_fault_report",
]
