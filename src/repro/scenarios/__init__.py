"""First-class execution scenarios: adversarial traffic, congestion,
and degradation compositions over the what-if dimensions.

The package layers (see ``docs/SCENARIOS.md``):

* :mod:`repro.scenarios.spec` — the digest-keyed :class:`Scenario`
  value object (YAML + programmatic) composing the execution-only
  pipeline dimensions plus a list of adversaries;
* :mod:`repro.scenarios.adversaries` — topology-aware generators that
  expand adversary specs into concrete link-targeted fault-plan
  content for a concrete (app, nranks) run;
* :mod:`repro.scenarios.registry` — the curated named scenarios, and
  :func:`scenario_plan`, which turns one scenario × app cell into its
  one-point sweep plan (what ``repro scenarios run`` and a service
  ``scenario`` submission both execute).
"""

from repro.scenarios.adversaries import (ADVERSARIES,
                                         scenario_fault_plan)
from repro.scenarios.registry import (SCENARIOS, get_scenario,
                                     scenario_names, scenario_plan)
from repro.scenarios.spec import TEMPLATE, AdversarySpec, Scenario

__all__ = [
    "ADVERSARIES",
    "AdversarySpec",
    "SCENARIOS",
    "Scenario",
    "TEMPLATE",
    "get_scenario",
    "scenario_fault_plan",
    "scenario_names",
    "scenario_plan",
]
