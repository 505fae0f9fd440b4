"""Round-trip tests for trace serialization."""

import pytest

from repro.errors import TraceError
from repro.mpi import ANY_SOURCE, run_spmd
from repro.scalatrace import ScalaTraceHook
from repro.scalatrace.rsd import EventNode, LoopNode
from repro.scalatrace.serialize import dumps_trace, loads_trace
from repro.sim import SimpleModel


def traced(program, nranks):
    hook = ScalaTraceHook()
    run_spmd(program, nranks, model=SimpleModel(), hooks=[hook])
    return hook.trace


def assert_equivalent(a, b):
    assert a.world_size == b.world_size
    assert a.comm_table == b.comm_table
    assert a.node_count() == b.node_count()
    for r in range(a.world_size):
        ea = [e.key() for e in a.iter_rank(r)]
        eb = [e.key() for e in b.iter_rank(r)]
        assert ea == eb


class TestRoundTrip:
    def test_ring(self):
        def program(mpi):
            right = (mpi.rank + 1) % mpi.size
            for _ in range(25):
                rreq = yield from mpi.irecv(source=(mpi.rank - 1) % mpi.size)
                yield from mpi.send(dest=right, nbytes=2048)
                yield from mpi.wait(rreq)
            yield from mpi.finalize()

        t = traced(program, 8)
        t2 = loads_trace(dumps_trace(t))
        assert_equivalent(t, t2)

    def test_collectives_and_subcomms(self):
        def program(mpi):
            sub = yield from mpi.comm_split(None, color=mpi.rank % 2,
                                            key=mpi.rank)
            yield from mpi.bcast(1024, root=0)
            yield from mpi.allreduce(8, comm=sub)
            yield from mpi.alltoallv([8 * (i + 1) for i in range(sub.size)],
                                     comm=sub)
            yield from mpi.finalize()

        t = traced(program, 4)
        t2 = loads_trace(dumps_trace(t))
        assert_equivalent(t, t2)

    def test_wildcards_preserved(self):
        def program(mpi):
            if mpi.rank == 0:
                for _ in range(3):
                    yield from mpi.recv(source=ANY_SOURCE, tag=7)
            else:
                for _ in range(3):
                    yield from mpi.send(dest=0, nbytes=4, tag=7)
            yield from mpi.finalize()

        t = traced(program, 2)
        t2 = loads_trace(dumps_trace(t))
        assert_equivalent(t, t2)
        recvs = [e for e in t2.iter_rank(0) if e.op == "Recv"]
        assert all(e.peer == ANY_SOURCE for e in recvs)

    def test_timing_survives(self):
        def program(mpi):
            for _ in range(5):
                yield from mpi.compute(1e-3)
                yield from mpi.barrier()
            yield from mpi.finalize()

        t = traced(program, 2)
        t2 = loads_trace(dumps_trace(t))

        def total_time(tr):
            def walk(nodes):
                for n in nodes:
                    if isinstance(n, EventNode):
                        yield n.time.total
                    else:
                        yield from walk(n.body)
            return sum(walk(tr.nodes))

        assert total_time(t2) == pytest.approx(total_time(t))

    def test_callsites_survive(self):
        def program(mpi):
            yield from mpi.barrier()
            yield from mpi.finalize()

        t = traced(program, 2)
        t2 = loads_trace(dumps_trace(t))

        def first_event(tr):
            n = tr.nodes[0]
            while isinstance(n, LoopNode):
                n = n.body[0]
            return n

        assert first_event(t2).callsite == first_event(t).callsite


class TestQuoting:
    """Embedded newlines, backslashes, tabs, and percent signs in string
    fields must neither corrupt the line-oriented format nor change the
    bytes of untouched traces."""

    NASTY_LABELS = [
        "space in label",
        "line\nbreak",
        "crlf\r\nlabel",
        "tab\tchar",
        "back\\slash",
        "percent%20literal",
        "%25%0A",
        "\\n is not a newline",
        " \n\r\t\\% ",
    ]

    @staticmethod
    def _trace_with_label(label):
        from repro.scalatrace import CompressionQueue, Trace
        from repro.util.callsite import Callsite

        q = CompressionQueue(0)
        q.append_event("Barrier", Callsite.synthetic(label, 1), 0, size=0)
        return Trace(1, q.nodes, {0: (0,)})

    @pytest.mark.parametrize("label", NASTY_LABELS)
    def test_nasty_callsite_round_trips(self, label):
        t = self._trace_with_label(label)
        text = dumps_trace(t)
        t2 = loads_trace(text)
        assert t2.nodes[0].callsite.frames[0][0] == label
        # re-dump is byte-identical (the round-trip property)
        assert dumps_trace(t2) == text

    @pytest.mark.parametrize("label", NASTY_LABELS)
    def test_quoted_fields_stay_one_line(self, label):
        text = dumps_trace(self._trace_with_label(label))
        # magic + world + comm + "nodes {" + event + "}" — a raw newline
        # in the callsite would add lines and break the framing
        assert len(text.splitlines()) == 6

    def test_quote_unquote_inverse(self):
        from repro.scalatrace.serialize import _quote, _unquote
        for label in self.NASTY_LABELS:
            assert _unquote(_quote(label)) == label
            assert " " not in _quote(label)
            assert "\n" not in _quote(label)


class TestStreaming:
    def test_file_round_trip(self, tmp_path):
        from repro.scalatrace.serialize import dump_trace, load_trace

        def program(mpi):
            for _ in range(10):
                yield from mpi.barrier()
            yield from mpi.finalize()

        t = traced(program, 4)
        path = str(tmp_path / "trace.txt")
        dump_trace(t, path)
        t2 = load_trace(path)
        assert_equivalent(t, t2)
        assert dumps_trace(t2) == dumps_trace(t)

    def test_iter_trace_lines_matches_dumps(self):
        from repro.scalatrace.serialize import iter_trace_lines

        def program(mpi):
            yield from mpi.allreduce(64)
            yield from mpi.finalize()

        t = traced(program, 2)
        assert "\n".join(iter_trace_lines(t)) + "\n" == dumps_trace(t)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(TraceError):
            loads_trace("NOT A TRACE\n")

    def test_truncated(self):
        def program(mpi):
            yield from mpi.finalize()

        text = dumps_trace(traced(program, 2))
        with pytest.raises(TraceError):
            loads_trace(text[: len(text) // 2])

    def test_bad_node_line(self):
        with pytest.raises(TraceError):
            loads_trace("SCALATRACE 1\nworld 2\nnodes {\nbogus line\n}\n")


_HEADER = "SCALATRACE 1\nworld 4\ncomm 0 0,1,2,3\ncomm 1 0,2\nnodes {\n"


def _one_event(event, loop=None):
    """Trace text holding one event line, optionally inside a loop."""
    body = event + "\n"
    if loop is not None:
        body = f"loop {loop} ranks=0:3 {{\n{body}}}\n"
    return _HEADER + body + "}\n"


class TestSemanticValidation:
    """A trace that parses is one the generator can expand: the parser
    rejects events that would crash Algorithms 1 and 2 or emission."""

    def test_valid_event_loads(self):
        trace = loads_trace(_one_event(
            "event Send ranks=0:3 comm=0 inst=1 peer=ER1%4 size=Q8x4 "
            "tag=Q0x4 time=-", loop=4))
        assert [e.peer for e in trace.iter_rank(3)] == [0] * 4

    @pytest.mark.parametrize("event, loop, message", [
        ("event Send ranks=0:3 comm=0 inst=1 size=Q8x4 tag=Q0x4 time=-",
         4, "Send event has no peer"),
        ("event Send ranks=0:3 comm=0 inst=1 peer=Q3x3 size=Q8x4 tag=Q0x4 "
         "time=-", 4, "peer has 3 values but the event runs 4 times"),
        ("event Send ranks=0:3 comm=0 inst=2 peer=Q3 size=Q8,9,8,9 "
         "tag=Q0 time=-", 4, "size has 4 values but the event runs 8"),
        ("event Send ranks=0:3 comm=0 inst=1 peer=Q4 size=Q8 time=-",
         None, "peer 4 outside communicator 0 (4 ranks)"),
        ("event Recv ranks=0,2 comm=1 inst=1 peer=Q2 size=Q8 time=-",
         None, "peer 2 outside communicator 1 (2 ranks)"),
        ("event Send ranks=0:3 comm=0 inst=1 peer=Q-1 size=Q8 time=-",
         None, "peer -1 outside communicator 0"),
        ("event Bcast ranks=0:3 comm=0 inst=1 size=Q8 root=Q07 time=-",
         None, "root 7 outside communicator 0"),
        ("event Bcast ranks=0:3 comm=0 inst=1 size=Q8 root=Q time=-",
         None, "root has 0 values"),
        ("event Send ranks=0:3 comm=0 inst=1 peer=ET0=1,1=2 size=Q8 "
         "time=-", None, "rank 2 not in table expression"),
        ("event Send ranks=0:3 comm=0 inst=1 peer=M0=1;1=2 size=Q8 "
         "time=-", None, "peer: rank 2 missing from rank_map"),
        ("event Barrier ranks=0:3 comm=1 inst=1 size=Q0 time=-",
         None, "rank 1 not in communicator 1"),
        ("event Barrier ranks=0:3 comm=7 inst=1 size=Q0 time=-",
         None, "unknown communicator 7"),
        ("event Barrier ranks=0:3 comm=0 inst=0 size=Q0 time=-",
         None, "event instance count must be >= 1"),
        ("event Barrier ranks=0:3 comm=0 inst=1 size=Q0 time=42:1:1e305",
         None, "bad histogram bin"),
        ("event Waitall ranks=0:3 comm=0 inst=1 offsets=0,0,2 time=-",
         None, "wait offsets 0,0,2 repeat or are negative"),
        ("event Wait ranks=0:3 comm=0 inst=1 offsets=-1 time=-",
         None, "wait offsets -1 repeat or are negative"),
    ])
    def test_rejected(self, event, loop, message):
        with pytest.raises(TraceError, match="bad trace at line ") as exc:
            loads_trace(_one_event(event, loop))
        assert message in str(exc.value)

    def test_wildcard_receive_loads(self):
        text = _one_event(
            "event Recv ranks=0:3 comm=0 inst=1 peer=Q-1 size=Q8 time=-")
        assert loads_trace(text).nodes[0].peer.constant_value() == \
            ANY_SOURCE

    @pytest.mark.parametrize("header, message", [
        ("world 2\ncomm 1 0,2", "communicator 1 is not a set of ranks"),
        ("world 2\ncomm 1 1,1", "communicator 1 is not a set of ranks"),
        ("world 0", "world size must be >= 1"),
    ])
    def test_rejected_header(self, header, message):
        with pytest.raises(TraceError, match=message):
            loads_trace(f"SCALATRACE 1\n{header}\nnodes {{\n}}\n")


class TestIrregularFieldRoundTrip:
    def test_rank_map_fields_survive(self):
        """CG's butterfly peers merge into per-rank maps; serialization
        must round-trip them losslessly."""
        from repro.apps import make_app
        from repro.scalatrace.rsd import EventNode

        prog = make_app("cg", 8, "S")
        hook = ScalaTraceHook()
        run_spmd(prog, 8, model=SimpleModel(), hooks=[hook])
        t = hook.trace

        def has_rank_map(nodes):
            for n in nodes:
                if isinstance(n, EventNode):
                    if any(getattr(n, f) is not None
                           and getattr(n, f).rank_map is not None
                           for f in ("peer", "size", "tag", "root")):
                        return True
                elif has_rank_map(n.body):
                    return True
            return False

        assert has_rank_map(t.nodes)
        t2 = loads_trace(dumps_trace(t))
        assert_equivalent(t, t2)

    def test_first_rest_histograms_survive(self):
        def program(mpi):
            yield from mpi.compute(5e-3)
            for _ in range(4):
                yield from mpi.barrier()
                yield from mpi.compute(1e-4)
            yield from mpi.finalize()

        t = traced(program, 2)
        t2 = loads_trace(dumps_trace(t))

        def first_event(tr):
            from repro.scalatrace.rsd import LoopNode
            n = tr.nodes[0]
            while isinstance(n, LoopNode):
                n = n.body[0]
            return n

        a, b = first_event(t), first_event(t2)
        assert b.time_first.count == a.time_first.count
        assert b.time_rest.count == a.time_rest.count
        assert b.time_first.total == pytest.approx(a.time_first.total)
