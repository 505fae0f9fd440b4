"""Contract: execution-only config fields never key cached artifacts.

``EXECUTION_ONLY_FIELDS`` names every :class:`PipelineConfig` field
that may change *how* a benchmark executes, or whether a simulation
finishes within its step budget, but never changes a finished trace or
source the pipeline produces.  The artifact cache (and the sweep's
cross-point sharing, and the scenario axis) all rest on this: varying
any of these fields must leave the trace/align/resolve/emit cache keys
byte-identical, so one cached trace serves every execution variant.

Each field is varied with a representative non-default value (plus
whatever companion fields its validation requires) and the rolling
key parts of every generation-side stage are compared against the
baseline.  A new config field that leaks into a generation key — or a
key_parts change that starts consulting an execution-only field —
fails here by name.
"""

import pytest

from repro.pipeline.config import EXECUTION_ONLY_FIELDS, PipelineConfig
from repro.pipeline.context import RunContext
from repro.pipeline.stages import (AlignStage, EmitStage, ResolveStage,
                                   TraceStage)

#: per-field variation: the kwargs that flip that field to a
#: non-default value (companion fields included where validation
#: demands them, e.g. codel requires a routed topology)
_VARIATIONS = {
    "max_steps": {"max_steps": 4 * 10**8},
    "compute_scale": {"compute_scale": 2.5},
    "run_platform": {"run_platform": "ethernet"},
    "run_platform_params": {"run_platform": "ethernet",
                            "run_platform_params": {"latency": 1e-5}},
    "topology": {"topology": "torus3d"},
    "topology_params": {"topology": "torus3d",
                        "topology_params": {"dims": [2, 2, 1]}},
    "placement": {"topology": "torus3d", "placement": "roundrobin"},
    "scenario": {"scenario": "torus-hotlink"},
    "queue_discipline": {"topology": "torus3d",
                         "queue_discipline": "codel"},
    "queue_params": {"topology": "torus3d",
                     "queue_discipline": "codel",
                     "queue_params": {"target": 1e-6}},
}

_GENERATION_STAGES = (TraceStage, AlignStage, ResolveStage, EmitStage)


def _generation_keys(**kwargs):
    ctx = RunContext(PipelineConfig(app="ring", nranks=4, **kwargs))
    return tuple(stage().key_parts(ctx) for stage in _GENERATION_STAGES)


def test_every_execution_only_field_has_a_variation():
    """A field added to EXECUTION_ONLY_FIELDS must be covered here."""
    assert set(_VARIATIONS) == set(EXECUTION_ONLY_FIELDS)


def test_execution_only_fields_exist_on_the_config():
    config_fields = set(vars(PipelineConfig(app="ring", nranks=4)))
    assert set(EXECUTION_ONLY_FIELDS) <= config_fields


@pytest.mark.parametrize("field", sorted(_VARIATIONS))
def test_field_does_not_change_generation_cache_keys(field):
    baseline = _generation_keys()
    varied = _generation_keys(**_VARIATIONS[field])
    assert varied == baseline, (
        f"execution-only field {field!r} leaked into a generation "
        f"stage's cache key")


def test_trace_key_still_sees_generation_fields():
    """Guard against over-exclusion: fields that DO shape the trace
    must keep keying it."""
    base = _generation_keys()
    assert _generation_keys(cls="W") != base
    assert _generation_keys(platform="ethernet") != base
