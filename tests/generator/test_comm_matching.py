"""Algorithm 2 matches inside a communicator (§4.4 under MPI's rules).

Peers are written in communicator ranks, and a send only ever matches a
receive posted on the same communicator.  Each program here is
deadlock-free: it must generate, run, and keep every rank's per-op
message counts and volumes (§5.2).
"""

import pytest

from repro.cli import main
from repro.generator import generate_from_application, trace_application
from repro.mpi import ANY_SOURCE, run_spmd
from repro.mpi.hooks import MPIHook
from repro.scalatrace.serialize import dump_trace
from repro.sim import SimpleModel
from repro.tools.mpip import MpiPHook, stats_match

NP = 8


def split_gather(wildcard: bool, per_rank_sizes: bool):
    """The world splits into two halves; each half's rank 0 receives one
    message from every other member, from ``ANY_SOURCE`` or in order."""
    def app(mpi):
        comm = yield from mpi.comm_split(None, mpi.rank * 2 // mpi.size,
                                         mpi.rank)
        me = comm.rank_of_world(mpi.rank)
        if me == 0:
            for src in range(1, comm.size):
                yield from mpi.recv(source=ANY_SOURCE if wildcard else src,
                                    comm=comm)
        else:
            yield from mpi.send(dest=0, comm=comm,
                                nbytes=8 * me if per_rank_sizes else 8)
        yield from mpi.finalize()
    return app


def dup_pair(mpi):
    """Rank 1 receives on a duplicate of the world communicator, then on
    the world communicator, both from ``ANY_SOURCE``; rank 0 sends on the
    world communicator and rank 2 on the duplicate."""
    dup = yield from mpi.comm_dup(None)
    if mpi.rank == 0:
        yield from mpi.send(dest=1, nbytes=8)
    elif mpi.rank == 2:
        yield from mpi.send(dest=1, nbytes=16, comm=dup)
    elif mpi.rank == 1:
        yield from mpi.recv(source=ANY_SOURCE, comm=dup)
        yield from mpi.recv(source=ANY_SOURCE)
    yield from mpi.finalize()


class _Matches(MPIHook):
    """communicator id -> the world rank each receive matched."""

    def __init__(self):
        self.sources = {}

    def on_event(self, event):
        if event.op == "Recv":
            self.sources.setdefault(event.comm.id, []).append(
                event.matched_source)


def _roundtrip(app, nranks, hooks=()):
    """Generate ``app`` and run both; assert §5.2's per-op counts and
    volumes agree.  Returns the generated benchmark."""
    bench = generate_from_application(app, nranks, model=SimpleModel())
    orig, gen = MpiPHook(), MpiPHook()
    run_spmd(app, nranks, model=SimpleModel(), hooks=[orig, *hooks])
    bench.program.run(nranks, model=SimpleModel(), hooks=[gen])
    ok, diff = stats_match(orig, gen)
    assert ok, diff
    return bench


def _world_sources(trace, rank):
    """Per communicator, the world ranks ``rank``'s receives name."""
    out = {}
    for ev in trace.iter_rank(rank):
        if ev.op == "Recv":
            out.setdefault(ev.comm_id, []).append(
                trace.comm_ranks(ev.comm_id)[ev.peer])
    return out


SPLITS = [(True, False), (True, True), (False, True)]


@pytest.mark.parametrize("wildcard,per_rank_sizes", SPLITS,
                         ids=["any-source", "any-source-sizes",
                              "in-order-sizes"])
def test_split_gather(wildcard, per_rank_sizes):
    bench = _roundtrip(split_gather(wildcard, per_rank_sizes), NP)
    assert bench.was_resolved == wildcard
    for root, senders in ((0, [1, 2, 3]), (4, [5, 6, 7])):
        (sources,) = _world_sources(bench.trace, root).values()
        assert sorted(sources) == senders
    assert "ANY TASK" not in bench.source


def test_dup_receive_resolves_to_the_engine_match():
    matches = _Matches()
    bench = _roundtrip(dup_pair, 3, hooks=[matches])
    assert bench.was_resolved
    assert matches.sources == {1: [2], 0: [0]}
    assert _world_sources(bench.trace, 1) == matches.sources


def test_split_trace_with_per_rank_sizes_generates(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    dump_trace(trace_application(split_gather(False, True), NP,
                                 model=SimpleModel()), "split.trace")
    assert main(["generate", "split.trace", "-o", "split.ncptl"]) == 0
    with open("split.ncptl") as fh:
        assert "8 BYTES" in fh.read()
    assert capsys.readouterr().err == ""
