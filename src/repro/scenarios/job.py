"""Scenario jobs: one scenario × app cell as an executable sweep.

A :class:`ScenarioJob` binds a scenario (curated name or inline spec)
to a concrete workload and compiles to a one-point
:class:`~repro.sweep.plan.SweepPlan`.  That compilation is the whole
byte-parity story: ``repro scenarios run`` and the service's
``scenario`` job kind both execute the *same* plan through the same
:func:`~repro.sweep.engine.run_sweep` entry point, so their canonical
JSON results are identical byte for byte — the same contract the sweep
and fuzz kinds already honor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple, Union

from repro.errors import ScenarioError
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import Scenario
from repro.spec import Spec, canonical

#: job fields that are not free-form config overrides
_OWN_KEYS = ("scenario", "app", "nranks", "cls", "platform", "mode",
             "overrides")


@dataclass(frozen=True)
class ScenarioJob(Spec):
    """One scenario × app execution, digest-keyed like every other job."""

    what = "scenario job"
    error = ScenarioError

    scenario: Union[str, Scenario]  #: curated name or inline spec
    app: str                        #: workload from repro.apps.APPS
    nranks: int                     #: simulated world size
    cls: str = "S"                  #: problem class
    platform: str = "bluegene"      #: trace/generate platform preset
    mode: str = "run"               #: pipeline suffix (sweep MODES)
    #: extra PipelineConfig overrides (e.g. max_steps), normalized to
    #: a sorted tuple of pairs
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self):
        if isinstance(self.scenario, Mapping):
            object.__setattr__(self, "scenario",
                               Scenario.from_dict(self.scenario))
        # resolves curated names and validates inline specs
        self.resolved_scenario()
        from repro.apps import APPS
        if not isinstance(self.app, str) or self.app.lower() not in APPS:
            raise ScenarioError(
                f"unknown application {self.app!r}; choose from "
                f"{sorted(APPS)}")
        if not isinstance(self.nranks, int) or isinstance(
                self.nranks, bool) or self.nranks <= 0:
            raise ScenarioError(
                f"nranks must be a positive int, got {self.nranks!r}")
        from repro.sweep.plan import MODES
        if self.mode not in MODES:
            raise ScenarioError(
                f"unknown mode {self.mode!r}; choose from {MODES}")
        object.__setattr__(
            self, "overrides",
            tuple(sorted(dict(self.overrides or {}).items())))
        clash = sorted(set(k for k, _ in self.overrides)
                       & set(_OWN_KEYS))
        if clash:
            raise ScenarioError(
                f"override(s) {clash} collide with the job's own "
                f"fields; set them directly")
        # the sweep plan's point validation (build_config) will catch
        # bad cls/platform/override values; fail here, at construction
        self.to_sweep_plan()

    def resolved_scenario(self) -> Scenario:
        """The concrete :class:`Scenario` this job runs under."""
        return get_scenario(self.scenario)

    def job_name(self) -> str:
        """Stable display name: ``scenario-<scenario>-<app>``."""
        return f"scenario-{self.resolved_scenario().name}-{self.app}"

    @property
    def name(self) -> str:
        """Display name, matching the sweep/fuzz plan attribute the
        job service stores."""
        return self.job_name()

    # -- compilation ---------------------------------------------------------
    def to_sweep_plan(self):
        """The equivalent one-point :class:`~repro.sweep.plan.SweepPlan`.

        The point is the canonical (plain-data) form of the job: a
        curated scenario stays a name, an inline spec or an override
        object becomes its mapping, so the plan is picklable to sweep
        workers, digestable, and identical no matter which surface
        built it.
        """
        from repro.errors import SweepPlanError
        from repro.sweep.plan import SweepPlan
        point = canonical({"app": self.app, "nranks": self.nranks,
                           "cls": self.cls, "platform": self.platform,
                           "scenario": self.scenario,
                           **dict(self.overrides)}, ScenarioError)
        try:
            plan = SweepPlan(name=self.job_name(), mode=self.mode,
                             extra_points=(point,))
            plan.check()
        except SweepPlanError as exc:
            raise ScenarioError(f"bad scenario job: {exc}") from None
        return plan

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        scenario = self.scenario
        if isinstance(scenario, Scenario):
            scenario = scenario.to_dict()
        out: Dict[str, Any] = {
            "scenario": scenario, "app": self.app,
            "nranks": self.nranks, "cls": self.cls,
            "platform": self.platform, "mode": self.mode,
        }
        if self.overrides:
            out["overrides"] = dict(self.overrides)
        return out

    @classmethod
    def _build(cls, data: Dict[str, Any]) -> "ScenarioJob":
        """The job from file keys; ``scenario``, ``app`` and ``nranks``
        are required."""
        for need in ("scenario", "app", "nranks"):
            if need not in data:
                raise ScenarioError(f"scenario job needs {need!r}")
        return cls(**data)

    def describe(self) -> str:
        """One-line human summary."""
        return (f"{self.job_name()}: app={self.app} nranks={self.nranks} "
                f"cls={self.cls} platform={self.platform} "
                f"mode={self.mode} (digest {self.digest()})")
