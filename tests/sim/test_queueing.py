"""Per-link queue disciplines: resolution, CoDel mechanics, FIFO parity.

The load-bearing contract: selecting ``fifo`` (by name or by default)
resolves to *no* discipline object, so the engine keeps its original
inline fold and every golden byte survives; ``codel`` only changes
behavior when sojourns actually persist above target."""

import json
import math
import os

import pytest

from repro.apps import make_app
from repro.mpi.world import run_spmd
from repro.sim.network import make_model
from repro.sim.queueing import (QUEUE_DISCIPLINES, CoDelDiscipline,
                                FifoDiscipline, resolve_queue_discipline)
from repro.topology import make_topology_model
from tests.sim.reference_loop import LOOPS, executor

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                       "routed_fabric.json")


def _routed(nranks=8, topology="torus3d", placement="block"):
    return make_topology_model(make_model("bluegene"), topology, nranks,
                               placement=placement)


class TestResolution:
    def test_fifo_and_none_resolve_to_no_discipline(self):
        assert resolve_queue_discipline(None) is None
        assert resolve_queue_discipline("fifo") is None

    def test_codel_resolves_fresh_instances(self):
        a = resolve_queue_discipline("codel", {"target": 1e-6})
        b = resolve_queue_discipline("codel", {"target": 1e-6})
        assert isinstance(a, CoDelDiscipline)
        assert a is not b       # per-run persistence state

    def test_prebuilt_discipline_passes_through(self):
        d = CoDelDiscipline()
        assert resolve_queue_discipline(d) is d
        with pytest.raises(ValueError, match="already-built"):
            resolve_queue_discipline(d, {"target": 1e-6})

    @pytest.mark.parametrize("disc,params,needle", [
        ("nope", None, "unknown queue discipline"),
        ("fifo", {"target": 1e-6}, "no parameters"),
        ("codel", {"bogus": 1}, "unknown codel parameter"),
        ("codel", {"target": -1.0}, "positive"),
        ("codel", {"target": "soon"}, "number"),
        ("codel", {"penalty": "inf"}, "infinite"),
    ])
    def test_bad_specs_rejected(self, disc, params, needle):
        with pytest.raises(ValueError, match=needle):
            resolve_queue_discipline(disc, params)

    def test_inf_target_accepted_by_name(self):
        d = resolve_queue_discipline("codel", {"target": "inf"})
        assert math.isinf(d.target)

    def test_registry_names(self):
        assert QUEUE_DISCIPLINES == ("fifo", "codel")


class TestAdmissionArithmetic:
    def test_fifo_admit_is_max_and_never_drops(self):
        f = FifoDiscipline()
        assert f.admit("l", 1.0, 0.1, 0.5) == (1.0, 0)
        assert f.admit("l", 1.0, 0.1, 2.0) == (2.0, 0)

    def test_codel_inf_target_matches_fifo(self):
        c = CoDelDiscipline(target=math.inf)
        f = FifoDiscipline()
        for reach, avail in [(0.0, 0.0), (1.0, 0.5), (1.0, 5.0)]:
            assert c.admit("l", reach, 0.1, avail) == \
                f.admit("l", reach, 0.1, avail)

    def test_codel_drops_only_after_persistent_sojourn(self):
        c = CoDelDiscipline(target=1e-6, interval=1e-3, penalty=1e-2)
        # first over-target admission arms the tracker, no drop yet
        start, drops = c.admit("l", 0.0, 1e-4, 1.0)
        assert (start, drops) == (1.0, 0)
        # still inside the interval: no drop
        start, drops = c.admit("l", 1.0, 1e-4, 1.0005)
        assert drops == 0
        # a full interval above target: drop + penalty
        start, drops = c.admit("l", 1.0, 1e-4, 2.5)
        assert drops == 1
        assert start == 2.5 + 1e-2

    def test_codel_recovers_when_sojourn_dips_under_target(self):
        c = CoDelDiscipline(target=1e-3, interval=1e-3)
        c.admit("l", 0.0, 1e-4, 1.0)          # over target: armed
        c.admit("l", 1.0, 1e-4, 1.0)          # zero sojourn: disarmed
        _, drops = c.admit("l", 1.0, 1e-4, 5.0)  # over again: re-arm only
        assert drops == 0

    def test_codel_tracks_links_independently(self):
        c = CoDelDiscipline(target=1e-6, interval=1e-4)
        c.admit("a", 0.0, 1e-4, 1.0)
        _, drops = c.admit("b", 0.0, 1e-4, 9.0)  # b's first: armed only
        assert drops == 0


class TestEngineIntegration:
    def test_nonfifo_requires_routed_model(self):
        with pytest.raises(ValueError, match="routed"):
            run_spmd(make_app("ring", 4, "S"), 4,
                     model=make_model("bluegene"),
                     queue_discipline="codel")

    def test_explicit_fifo_is_byte_identical_to_default(self):
        prog = make_app("halo3d", 8, "S")
        base = run_spmd(prog, 8, model=_routed())
        fifo = run_spmd(prog, 8, model=_routed(),
                        queue_discipline="fifo")
        assert fifo.total_time.hex() == base.total_time.hex()
        assert [t.hex() for t in fifo.per_rank_times] == \
            [t.hex() for t in base.per_rank_times]
        assert fifo.link_stats == base.link_stats

    def test_default_link_stats_have_no_drops_key(self):
        result = run_spmd(make_app("halo3d", 8, "S"), 8, model=_routed())
        for st in result.link_stats.values():
            assert "drops" not in st

    def test_codel_link_stats_carry_drops(self):
        result = run_spmd(make_app("halo3d", 8, "S"), 8, model=_routed(),
                          queue_discipline="codel",
                          queue_params={"target": 1e-6,
                                        "interval": 1e-5,
                                        "penalty": 5e-5})
        assert result.link_stats
        for st in result.link_stats.values():
            assert "drops" in st and st["drops"] >= 0

    def test_tight_codel_drops_and_slows_the_run(self):
        prog = make_app("sweep3d", 16, "W")
        base = run_spmd(prog, 16, model=_routed(16))
        codel = run_spmd(prog, 16, model=_routed(16),
                         queue_discipline="codel",
                         queue_params={"target": 1e-6,
                                       "interval": 1e-5,
                                       "penalty": 5e-5})
        total_drops = sum(st["drops"]
                          for st in codel.link_stats.values())
        assert total_drops > 0
        assert codel.total_time > base.total_time

    @pytest.mark.parametrize("loop", LOOPS)
    def test_explicit_fifo_reproduces_the_routed_goldens(self, loop):
        """Selecting ``fifo`` by name must reproduce the pre-split
        goldens bit for bit — the pluggable seam never touches the
        pinned bytes.  A sample of cells per topology keeps it fast;
        the full grid runs (under the default) in the golden suite."""
        with open(_GOLDEN) as fh:
            golden = json.load(fh)
        keys = sorted(k for k in golden
                      if len(k.split("/")) == 5
                      and k.endswith("/block"))[:4]
        assert keys, "golden sample must not be empty"
        for key in keys:
            app, np_s, preset, topology, placement = key.split("/")[:5]
            nranks = int(np_s[2:])
            model = make_topology_model(make_model(preset), topology,
                                        nranks, placement=placement)
            with executor(loop):
                result = run_spmd(make_app(app, nranks, "S"), nranks,
                                  model=model, queue_discipline="fifo")
            want = golden[key]
            assert result.total_time.hex() == want["total_time_hex"], key
            assert [t.hex() for t in result.per_rank_times] == \
                want["per_rank_hex"], key
            got_links = {
                name: {"msgs": st["msgs"],
                       "busy_s_hex": st["busy_s"].hex(),
                       "wait_s_hex": st["wait_s"].hex()}
                for name, st in result.link_stats.items()}
            assert got_links == want["link_stats"], key

    @pytest.mark.parametrize("loop", LOOPS)
    def test_codel_is_deterministic_in_both_modes(self, loop):
        kwargs = dict(model=_routed(16), queue_discipline="codel",
                      queue_params={"target": 1e-6, "interval": 1e-5,
                                    "penalty": 5e-5})
        prog = make_app("sweep3d", 16, "W")
        with executor(loop):
            a = run_spmd(prog, 16, **kwargs)
            kwargs["model"] = _routed(16)
            b = run_spmd(prog, 16, **kwargs)
        assert a.total_time.hex() == b.total_time.hex()
        assert a.link_stats == b.link_stats
