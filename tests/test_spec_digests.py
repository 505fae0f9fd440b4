"""Spec digests are identities: pinned bytes for every shipped spec.

``tests/golden/spec_digests.json`` (regenerated only on purpose by
``scripts/make_spec_digests.py``) records the digest of each ``repro *
template`` text, the nightly fuzz campaign, every curated scenario, an
inline fault plan and the sweep plan of an inline scenario × app cell.
Fault-plan and scenario digests feed pipeline cache keys; sweep and fuzz
digests key results, the service's dedup and the fuzz corpus — so none
of them may move when the spec code does.
"""

import json
import os

import pytest
import yaml

from repro.faults import FaultPlan
from repro.fuzz import FuzzCampaign
from repro.scenarios import SCENARIOS, Scenario, scenario_plan
from repro.sweep import SweepPlan

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "spec_digests.json")

#: family -> spec from data; a scenario job pins its sweep plan's digest
BUILD = {"faults": FaultPlan.from_dict, "sweep": SweepPlan.from_dict,
         "fuzz": FuzzCampaign.from_dict, "scenario": Scenario.from_dict,
         "scenario-job": scenario_plan}

with open(GOLDEN) as _fh:
    ENTRIES = json.load(_fh)


def _data(entry):
    """The parsed spec content an entry pins."""
    source = entry["source"]
    if source == "template":
        import importlib
        module = {"faults": "repro.faults", "sweep": "repro.sweep",
                  "fuzz": "repro.fuzz",
                  "scenario": "repro.scenarios"}[entry["family"]]
        return yaml.safe_load(importlib.import_module(module).TEMPLATE)
    if source == "curated":
        return SCENARIOS[entry["name"]].to_dict()
    if source == "inline":
        return entry["data"]
    with open(os.path.join(ROOT, source)) as fh:
        return yaml.safe_load(fh)


def test_golden_covers_every_shipped_spec():
    pinned = {(e["family"], e["name"]) for e in ENTRIES}
    assert {(f, "template") for f in ("faults", "sweep", "fuzz",
                                      "scenario")} <= pinned
    assert ("fuzz", "nightly") in pinned
    assert {("scenario", name) for name in SCENARIOS} <= pinned


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[f"{e['family']}-{e['name']}"
                              for e in ENTRIES])
def test_digest_is_pinned(entry):
    spec = BUILD[entry["family"]](_data(entry))
    assert spec.digest() == entry["digest"]
    if entry["source"] == "curated":
        assert SCENARIOS[entry["name"]].digest() == entry["digest"]
