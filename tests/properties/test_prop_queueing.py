"""Queue-discipline equivalence properties.

CoDel with an infinite sojourn target can never classify any message
as a persistent queuer, so its admission arithmetic degenerates to the
FIFO expression exactly.  The property pins that equivalence — bit for
bit, including the order-sensitive per-link stats — across apps,
topologies and placements.  It is the
guarantee that makes the pluggable discipline seam safe: the hook
sits on the hot routed path, and this is the proof it is invisible
until a finite target turns it on.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps import make_app
from repro.mpi.world import run_spmd
from repro.sim.network import make_model
from repro.topology import make_topology_model
from tests.sim.reference_loop import reference_loop

#: point-to-point-heavy apps: these actually route per-link traffic
_APPS = [("ring", 5), ("ring", 8), ("halo3d", 8), ("sweep3d", 8),
         ("lu", 8), ("jacobi", 6)]


def _run(app, nranks, topology, placement, discipline, params):
    model = make_topology_model(make_model("bluegene"), topology,
                                nranks, placement=placement)
    return run_spmd(make_app(app, nranks, "S"), nranks, model=model,
                    queue_discipline=discipline, queue_params=params)


def _signature(result):
    """Every bit the golden suites pin, plus drop counters."""
    return (result.total_time.hex(),
            tuple(t.hex() for t in result.per_rank_times),
            result.messages_sent, result.bytes_sent,
            tuple(sorted(
                (name, st_["msgs"], st_["busy_s"].hex(),
                 st_["wait_s"].hex())
                for name, st_ in result.link_stats.items())))


@settings(max_examples=20, deadline=None)
@given(cell=st.sampled_from(_APPS),
       topology=st.sampled_from(["torus3d", "fattree"]),
       placement=st.sampled_from(["block", "roundrobin"]))
def test_codel_with_infinite_target_is_fifo(cell, topology, placement):
    app, nranks = cell
    fifo = _run(app, nranks, topology, placement, "fifo", None)
    codel = _run(app, nranks, topology, placement, "codel",
                 {"target": "inf"})
    assert _signature(codel) == _signature(fifo)
    # the discipline was active, so drop counters exist — and are zero
    assert all(st_["drops"] == 0 for st_ in codel.link_stats.values())


@settings(max_examples=10, deadline=None)
@given(cell=st.sampled_from(_APPS),
       placement=st.sampled_from(["block", "roundrobin"]))
def test_scalar_batch_parity_under_codel(cell, placement):
    """A finite target must stay bit-identical between the production
    loop and the reference loop: the admission points are reached in the
    same order, so the drops and penalties land identically."""
    app, nranks = cell
    params = {"target": 1e-6, "interval": 1e-5, "penalty": 5e-5}

    def signature():
        result = _run(app, nranks, "torus3d", placement, "codel", params)
        drops = tuple(sorted((name, st_["drops"])
                             for name, st_ in result.link_stats.items()))
        return _signature(result), drops

    with reference_loop():
        reference = signature()
    assert signature() == reference
