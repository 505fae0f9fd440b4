"""repro.fuzz — the schedule-space fuzzer.

The simulator's canonical schedule is *one* legal execution of an MPI
program; real runtimes promise only MPI's matching rules, not that
order.  This package explores the rest of the legal schedule space:

* :class:`FuzzCampaign` — a digest-keyed YAML/JSON description of a
  campaign: application cells x topologies x seeded scheduler policies
  (:mod:`repro.sim.policy`) x N seeds, plus one canonical baseline
  point per cell;
* :func:`run_campaign` — expands the campaign into a
  :class:`~repro.sweep.plan.SweepPlan`, fans it across the sweep
  engine's worker pool, and dedupes the outcomes into *equivalence
  classes* (same makespan + trace fingerprint, or same deadlock
  wait-for cycle);
* :class:`FuzzReport` — the classified result: per-cell classes, seed
  counts, a minimal reproducer seed per divergent class, and the exact
  ``repro pipeline --schedule-policy ... --schedule-seed ...`` command
  that replays it.

Quick start::

    from repro.fuzz import FuzzCampaign, run_campaign

    campaign = FuzzCampaign(
        name="race-hunt",
        apps=({"app": "race", "nranks": 5, "cls": "W",
               "platform": "ethernet"},),
        policies=("random", "adversarial-delay"),
        seeds=16)
    report = run_campaign(campaign, workers=4)
    print(report.summary())

See ``docs/FUZZING.md`` for policy semantics, the campaign schema, and
how to reproduce a divergence outside the fuzzer.
"""

from repro.fuzz.campaign import (CAMPAIGN_MODES, TEMPLATE, FuzzCampaign,
                                 FuzzCell, FuzzPoint)
from repro.fuzz.runner import (FuzzReport, load_corpus, run_campaign,
                               save_corpus)

__all__ = [
    "CAMPAIGN_MODES",
    "FuzzCampaign",
    "FuzzCell",
    "FuzzPoint",
    "FuzzReport",
    "TEMPLATE",
    "load_corpus",
    "run_campaign",
    "save_corpus",
]
