"""Text serialization of compressed traces.

The on-disk format is line-oriented and human-inspectable, mirroring how
ScalaTrace traces are shipped to the (offline) benchmark generator on a
standalone workstation (§5.1).  Example::

    SCALATRACE 1
    world 4
    comm 0 0:3
    nodes {
    loop 100 ranks=0:3 {
    event Isend ranks=0:3 comm=0 inst=1 peer=ER1%4 size=Q1024 tag=Q0 time=... cs=...
    }
    event Finalize ranks=0:3 comm=0 inst=1 size=Q0 time=... cs=...
    }

Every field round-trips exactly (rank sets, parameter expressions, value
sequences, timing histograms, call-site signatures).

Both directions stream: :func:`iter_trace_lines` yields the file line by
line (the writer holds one line plus a loop-nesting stack, never the
whole text), and the parser consumes any line iterator — including a
lazily read file handle — so loading never materialises the file either.
"""

from __future__ import annotations

import io
from typing import (Dict, Iterable, Iterator, List, Optional, Set, TextIO,
                    Union)

from repro import obs
from repro.errors import TraceError
from repro.mpi.hooks import P2P_OPS
from repro.scalatrace.rsd import EventNode, LoopNode, Node, ParamField, Trace
from repro.util.callsite import Callsite
from repro.util.expr import ANY_SOURCE
from repro.util.histogram import TimeHistogram
from repro.util.rankset import RankSet

_MAGIC = "SCALATRACE 1"


def _quote(text: str) -> str:
    # '%' first so later escapes never double-encode; every '%' in the
    # output starts exactly one escape triple, which is what makes
    # _unquote's fixed replace order collision-free.
    return (text.replace("%", "%25")
                .replace("\\", "%5C")
                .replace("\n", "%0A")
                .replace("\r", "%0D")
                .replace("\t", "%09")
                .replace(" ", "%20"))


def _unquote(text: str) -> str:
    # Exact reverse order; '%25' last, since it is the only replacement
    # that reintroduces a literal '%'.
    return (text.replace("%20", " ")
                .replace("%09", "\t")
                .replace("%0D", "\r")
                .replace("%0A", "\n")
                .replace("%5C", "\\")
                .replace("%25", "%"))


def _node_lines(nodes: List[Node]) -> Iterator[str]:
    for node in nodes:
        if isinstance(node, LoopNode):
            yield f"loop {node.count} ranks={node.ranks.serialize()} {{"
            yield from _node_lines(node.body)
            yield "}"
        else:
            parts = [f"event {node.op}",
                     f"ranks={node.ranks.serialize()}",
                     f"comm={node.comm_id}",
                     f"inst={node.instances}"]
            for name in ("peer", "size", "tag", "root"):
                field: Optional[ParamField] = getattr(node, name)
                if field is not None:
                    parts.append(f"{name}={_quote(field.serialize())}")
            if node.wait_offsets is not None:
                off = ",".join(str(o) for o in node.wait_offsets) or "-"
                parts.append(f"offsets={off}")
            parts.append(f"tfirst={_quote(node.time_first.serialize())}")
            parts.append(f"time={_quote(node.time_rest.serialize())}")
            if node.callsite is not None:
                parts.append(f"cs={_quote(node.callsite.serialize())}")
            yield " ".join(parts)


def iter_trace_lines(trace: Trace) -> Iterator[str]:
    """Yield ``trace``'s serialized form one line at a time (newlines
    excluded).  Joining with ``"\\n"`` plus a trailing newline is
    byte-identical to :func:`dumps_trace`."""
    yield _MAGIC
    yield f"world {trace.world_size}"
    for cid in sorted(trace.comm_table):
        ranks = trace.comm_table[cid]
        body = ",".join(str(r) for r in ranks) if ranks else "-"
        yield f"comm {cid} {body}"
    yield "nodes {"
    yield from _node_lines(trace.nodes)
    yield "}"


def dump_trace(trace: Trace, out: Union[TextIO, str]) -> None:
    """Write ``trace`` to a file path or text stream, one line at a time
    (constant memory in the trace's text size)."""
    if isinstance(out, str):
        with open(out, "w") as fh:
            dump_trace(trace, fh)
        return
    for line in iter_trace_lines(trace):
        out.write(line + "\n")


def dumps_trace(trace: Trace) -> str:
    buf = io.StringIO()
    dump_trace(trace, buf)
    return buf.getvalue()


class _Parser:
    """Incremental line parser: pulls from any string iterator (list,
    generator, or a lazily read file handle) and never looks ahead more
    than one line."""

    def __init__(self, lines: Iterable[str]):
        self._lines = iter(lines)
        self.consumed = 0
        #: comm_id -> {world rank: communicator rank}, from the header
        self.comm_pos: Dict[int, Dict[int, int]] = {}

    def next_line(self) -> str:
        for raw in self._lines:
            self.consumed += 1
            line = raw.strip()
            if line:
                return line
        raise TraceError("unexpected end of trace file")

    def parse_nodes(self, repeats: int = 1) -> List[Node]:
        """Parse a node list whose enclosing loops run ``repeats`` times
        in total, so each event's per-rank instance count is known."""
        nodes: List[Node] = []
        while True:
            line = self.next_line()
            if line == "}":
                return nodes
            if line.startswith("loop "):
                head = line[:-1].strip()  # strip trailing '{'
                bits = head.split()
                count = int(bits[1])
                ranks = RankSet.parse(self._kv(bits, "ranks"))
                body = self.parse_nodes(repeats * max(count, 1))
                nodes.append(LoopNode(count, body, ranks))
            elif line.startswith("event "):
                node = self._parse_event(line)
                self._check_event(node, repeats * node.instances)
                nodes.append(node)
            else:
                raise TraceError(f"bad trace line: {line!r}")

    def _check_event(self, node: EventNode, instances: int) -> None:
        """Reject an event the generator could not expand: every p2p
        event names a peer, every value sequence holds one value or one
        per instance on each rank, peers and roots lie inside the
        event's communicator, and a wait's offsets name distinct,
        non-negative requests."""
        if node.instances < 1:
            raise TraceError("event instance count must be >= 1")
        pos = self.comm_pos.get(node.comm_id)
        if pos is None:
            raise TraceError(f"unknown communicator {node.comm_id}")
        try:
            comm_ranks = [pos[r] for r in node.ranks]
        except KeyError as exc:
            raise TraceError(f"rank {exc.args[0]} not in communicator "
                             f"{node.comm_id}") from None
        if node.op in P2P_OPS and node.peer is None:
            raise TraceError(f"{node.op} event has no peer")
        offsets = node.wait_offsets or ()
        if len(set(offsets)) != len(offsets) or min(offsets, default=0) < 0:
            raise TraceError(f"wait offsets {','.join(map(str, offsets))} "
                             f"repeat or are negative")
        for name in ("peer", "size", "tag", "root"):
            field = getattr(node, name)
            if field is None:
                continue
            values = _field_values(field, comm_ranks, instances, name)
            if name in ("size", "tag"):
                continue
            wildcard_ok = name == "peer" and node.op in ("Recv", "Irecv")
            for v in values:
                if not (isinstance(v, int) and 0 <= v < len(pos)) and \
                        not (wildcard_ok and v == ANY_SOURCE):
                    raise TraceError(
                        f"{name} {v!r} outside communicator "
                        f"{node.comm_id} ({len(pos)} ranks)")

    @staticmethod
    def _kv(bits: List[str], key: str, default: str = None) -> str:
        prefix = key + "="
        for b in bits:
            if b.startswith(prefix):
                return b[len(prefix):]
        if default is not None:
            return default
        raise TraceError(f"missing field {key!r}")

    def _parse_event(self, line: str) -> EventNode:
        bits = line.split()
        op = bits[1]
        ranks = RankSet.parse(self._kv(bits, "ranks"))
        comm_id = int(self._kv(bits, "comm"))
        instances = int(self._kv(bits, "inst"))
        fields = {}
        for name in ("peer", "size", "tag", "root"):
            raw = self._kv(bits, name, default="\0")
            fields[name] = (None if raw == "\0"
                            else ParamField.parse(_unquote(raw)))
        off_raw = self._kv(bits, "offsets", default="\0")
        if off_raw == "\0":
            offsets = None
        elif off_raw == "-":
            offsets = ()
        else:
            offsets = tuple(int(x) for x in off_raw.split(","))
        time_first = TimeHistogram.parse(
            _unquote(self._kv(bits, "tfirst", default="-")))
        time_rest = TimeHistogram.parse(_unquote(self._kv(bits, "time")))
        cs_raw = self._kv(bits, "cs", default="\0")
        callsite = None if cs_raw == "\0" else Callsite.parse(_unquote(cs_raw))
        return EventNode(op, callsite, comm_id, ranks, instances,
                         fields["peer"], fields["size"], fields["tag"],
                         fields["root"], offsets, time_first, time_rest)


def _field_values(field: ParamField, comm_ranks: List[int],
                  instances: int, name: str) -> Set:
    """The distinct values ``field`` takes on ``comm_ranks``; raises
    :class:`TraceError` when a sequence's length is neither one (a
    constant) nor the per-rank instance count."""
    if field.expr is not None:
        try:
            return {field.expr.evaluate(r) for r in comm_ranks}
        except KeyError as exc:
            raise TraceError(f"{name}: {exc.args[0]}") from None
    if field.seq is not None:
        seqs = [field.seq]
    else:
        missing = set(comm_ranks) - field.rank_map.keys()
        if missing:
            raise TraceError(f"{name}: rank {min(missing)} missing from "
                             f"rank_map")
        seqs = list(field.rank_map.values())
    for seq in seqs:
        if len(seq) not in (1, instances):
            raise TraceError(
                f"{name} has {len(seq)} values but the event runs "
                f"{instances} times per rank")
    return {v for seq in seqs for v, _ in seq.runs}


def load_trace(source: Union[TextIO, str]) -> Trace:
    """Read a trace from a file path, text stream, or serialized string.

    File paths and streams are consumed line by line; the whole file is
    never held in memory."""
    if isinstance(source, str):
        if "\n" in source:
            return loads_trace(source)
        with open(source) as fh:
            return _load_stream(fh)
    return _load_stream(source)


def _load_stream(stream: Iterable[str]) -> Trace:
    """Parse a trace; every malformed input ends in one
    :class:`TraceError` naming the line the parser stopped at."""
    parser = _Parser(stream)
    with obs.span("scalatrace.parse"):
        try:
            trace = _parse_trace(parser)
        except (TraceError, ValueError, IndexError, ArithmeticError,
                RecursionError) as exc:
            raise TraceError(
                f"bad trace at line {parser.consumed}: {exc}") from None
        obs.count("scalatrace.parse_lines", parser.consumed)
    return trace


def _parse_trace(parser: _Parser) -> Trace:
    if parser.next_line() != _MAGIC:
        raise TraceError("not a ScalaTrace file (bad magic)")
    head = parser.next_line().split()
    if head[0] != "world":
        raise TraceError("expected 'world <n>'")
    world_size = int(head[1])
    if world_size < 1:
        raise TraceError(f"world size must be >= 1, not {world_size}")
    comm_table = {}
    while True:
        line = parser.next_line()
        if line.startswith("comm "):
            _, cid, body = line.split()
            ranks = (tuple() if body == "-"
                     else tuple(int(r) for r in body.split(",")))
            if len(set(ranks)) != len(ranks) or \
                    not all(0 <= r < world_size for r in ranks):
                raise TraceError(f"communicator {cid} is not a set of "
                                 f"ranks in a world of {world_size}")
            comm_table[int(cid)] = ranks
            parser.comm_pos[int(cid)] = {r: i for i, r in enumerate(ranks)}
        elif line == "nodes {":
            break
        else:
            raise TraceError(f"unexpected header line: {line!r}")
    if not comm_table:
        parser.comm_pos[0] = {r: r for r in range(world_size)}
    nodes = parser.parse_nodes()
    return Trace(world_size, nodes, comm_table)


def loads_trace(text: str) -> Trace:
    return _load_stream(io.StringIO(text))
