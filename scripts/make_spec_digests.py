"""Regenerate the spec-digest golden file.

Writes ``tests/golden/spec_digests.json``: the content digest of every
spec the repository ships — the four ``repro * template`` texts, the
nightly fuzz campaign, every curated scenario — plus one inline
``FaultPlan`` with windows, stragglers and crashes and the sweep plan
of one inline scenario × app cell (``scenario_plan``).  Run from the
repo root:

    PYTHONPATH=src python scripts/make_spec_digests.py

Fault-plan and scenario digests are pipeline cache-key ingredients,
sweep and fuzz digests key results and the fuzz corpus, so the
committed file pins them byte for byte (see
``tests/test_spec_digests.py``).  Only regenerate after an
*intentional* change to a template, a curated scenario or the digest
rule, never to paper over drift.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

ROOT = os.path.join(os.path.dirname(__file__), "..")
OUT = os.path.join(ROOT, "tests", "golden", "spec_digests.json")

#: inline specs pinned alongside the shipped ones
INLINE = [
    ("faults", "windows-stragglers-crashes", {
        "seed": 7, "drop_rate": 0.05, "duplicate_rate": 0.01,
        "reorder_rate": 0.1, "reorder_max_delay": 2.0e-4,
        "windows": [{"t_start": 0.0, "t_end": 0.01,
                     "latency_factor": 3.0, "bandwidth_factor": 2.0,
                     "ranks": [2, 1]},
                    {"t_start": 0.0, "t_end": 0.005,
                     "latency_factor": 8.0, "links": ["x+:0,0,0"]}],
        "stragglers": [{"rank": 2, "factor": 1.5}],
        "crashes": [{"rank": 5, "time": 0.02}],
        "max_retries": 6, "retry_timeout": 5.0e-5, "retry_backoff": 1.5}),
    ("scenario-job", "inline-hotlink-lu", {
        "scenario": {"name": "inline", "topology": "torus3d",
                     "fault_plan": {"seed": 3, "drop_rate": 0.02},
                     "adversaries": [{"kind": "hot-link",
                                      "params": {"count": 2}}]},
        "app": "lu", "nranks": 8, "cls": "S", "platform": "bluegene",
        "mode": "run", "overrides": {"max_steps": 50000}}),
]


def builders():
    """Family name -> spec builder from data, keyed as in the golden
    file; a scenario job pins the digest of its sweep plan."""
    from repro.faults import FaultPlan
    from repro.fuzz import FuzzCampaign
    from repro.scenarios import Scenario, scenario_plan
    from repro.sweep import SweepPlan
    return {"faults": FaultPlan.from_dict, "sweep": SweepPlan.from_dict,
            "fuzz": FuzzCampaign.from_dict, "scenario": Scenario.from_dict,
            "scenario-job": scenario_plan}


def entries():
    """Every pinned spec as ``(family, name, source, data)``: ``source``
    says where the spec text lives, ``data`` is its parsed content."""
    import yaml

    from repro.faults import TEMPLATE as FAULTS
    from repro.fuzz import TEMPLATE as FUZZ
    from repro.scenarios import SCENARIOS
    from repro.scenarios import TEMPLATE as SCENARIO
    from repro.sweep import TEMPLATE as SWEEP
    out = [(family, "template", "template", yaml.safe_load(text))
           for family, text in (("faults", FAULTS), ("sweep", SWEEP),
                                ("fuzz", FUZZ), ("scenario", SCENARIO))]
    path = "benchmarks/fuzz_nightly.yaml"
    with open(os.path.join(ROOT, path)) as fh:
        out.append(("fuzz", "nightly", path, yaml.safe_load(fh)))
    out.extend(("scenario", name, "curated", scn.to_dict())
               for name, scn in SCENARIOS.items())
    out.extend((family, name, "inline", data)
               for family, name, data in INLINE)
    return out


def main() -> int:
    build = builders()
    golden = []
    for family, name, source, data in entries():
        entry = {"family": family, "name": name, "source": source,
                 "digest": build[family](data).digest()}
        if source == "inline":
            entry["data"] = data
        golden.append(entry)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} spec digests -> {os.path.relpath(OUT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
