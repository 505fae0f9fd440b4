"""Reference pair merge: the eager weighted-LCS DP that
:mod:`repro.scalatrace.merge` replaced with its weight-only alignment.

The eager DP builds a complete merged node (parameter expressions, rank
sets, histogram copies, recursive loop-body merges) for every DP cell it
tries, then reads each cell's weight off that node.  The production merge
computes the same weights without building anything and builds merged
nodes only along the traceback; the differential tests hold the two to
byte-identical output.  Nothing of the alignment is shared with the
production module: the match weight, the fast-path gate, the event and
loop merges, the DP and the traceback are the pre-change node-walking
code, and every accumulator merge runs its own DP (no shared
alignments).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.mpi.hooks import COLLECTIVE_OPS
from repro.scalatrace import merge as production
from repro.scalatrace.rsd import EventNode, LoopNode, Node
from repro.util.rankset import RankSet


def _match_weight(node: Node) -> int:
    """Collectives outweigh any number of point-to-point matches; a loop
    weighs its contents."""
    if isinstance(node, EventNode):
        return 10_000 if node.op in COLLECTIVE_OPS else 1
    return sum(_match_weight(n) for n in node.body)


def _identical_structure(a: Node, b: Node) -> bool:
    """Equal event shapes; equal loop counts and pairwise identical
    bodies."""
    if isinstance(a, EventNode):
        return isinstance(b, EventNode) and a.shape == b.shape
    return (isinstance(b, LoopNode) and a.count == b.count
            and len(a.body) == len(b.body)
            and all(_identical_structure(x, y)
                    for x, y in zip(a.body, b.body)))


def _event_keys(node: Node) -> set:
    """(signature, instances) of every event in a node's subtree."""
    if isinstance(node, EventNode):
        return {(node.sig, node.instances)}
    return set().union(*(_event_keys(n) for n in node.body))


def _diagonal_safe(nodes: List[Node]) -> bool:
    """No two distinct loops of equal count share an event: then the
    diagonal is the DP's own alignment of the list with itself."""
    loops = [n for n in nodes if isinstance(n, LoopNode)]
    return not any(a.count == b.count and _event_keys(a) & _event_keys(b)
                   for k, a in enumerate(loops) for b in loops[k + 1:])


def _try_merge_nodes(a: Node, b: Node,
                     comm_table: Dict[int, Tuple[int, ...]]) -> Optional[Node]:
    """Merged node covering both rank sets, or None if incompatible."""
    if isinstance(a, EventNode) and isinstance(b, EventNode):
        if a.signature() != b.signature() or a.instances != b.instances:
            return None
        comm_ranks = comm_table.get(a.comm_id)
        comm_size = len(comm_ranks) if comm_ranks else None
        index = {w: i for i, w in enumerate(comm_ranks)} if comm_ranks else {}
        a_cranks = [index.get(r, r) for r in a.ranks]
        b_cranks = [index.get(r, r) for r in b.ranks]
        merged = {}
        for name in ("peer", "size", "tag", "root"):
            fa, fb = getattr(a, name), getattr(b, name)
            if (fa is None) != (fb is None):
                return None
            if fa is None:
                merged[name] = None
                continue
            merged[name] = fa.merge_ranks(RankSet(a_cranks), fb,
                                          RankSet(b_cranks), comm_size)
        time_first = a.time_first.copy()
        time_first.merge(b.time_first)
        time_rest = a.time_rest.copy()
        time_rest.merge(b.time_rest)
        return EventNode(a.op, a.callsite, a.comm_id, a.ranks | b.ranks,
                         a.instances, merged["peer"], merged["size"],
                         merged["tag"], merged["root"], a.wait_offsets,
                         time_first, time_rest)
    if isinstance(a, LoopNode) and isinstance(b, LoopNode):
        if a.count != b.count:
            return None
        body = merge_node_lists(a.body, b.body, comm_table)
        if len(body) == len(a.body) + len(b.body):
            return None
        return LoopNode(a.count, body, a.ranks | b.ranks)
    return None


def _splice_identical(xs: List[Node], ys: List[Node],
                      comm_table) -> Optional[List[Node]]:
    out: List[Node] = []
    for x, y in zip(xs, ys):
        merged = _try_merge_nodes(x, y, comm_table)
        if merged is None:
            return None
        out.append(merged)
    return out


def _lcs_pairs(xs: List[Node], ys: List[Node],
               comm_table) -> List[Tuple[int, int, Node]]:
    """Maximum-weight common subsequence of mergeable nodes; returns
    matched index pairs with their pre-computed merged node."""
    n, m = len(xs), len(ys)
    merged_cache: Dict[Tuple[int, int], Optional[Node]] = {}

    def mergeable(i, j):
        key = (i, j)
        if key not in merged_cache:
            merged_cache[key] = _try_merge_nodes(xs[i], ys[j], comm_table)
        return merged_cache[key]

    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            best = max(dp[i + 1][j], dp[i][j + 1])
            node = mergeable(i, j)
            if node is not None:
                best = max(best, dp[i + 1][j + 1] + _match_weight(node))
            dp[i][j] = best
    pairs = []
    i = j = 0
    while i < n and j < m:
        node = mergeable(i, j)
        if node is not None and \
                dp[i][j] == dp[i + 1][j + 1] + _match_weight(node):
            pairs.append((i, j, node))
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def merge_node_lists(xs: List[Node], ys: List[Node],
                     comm_table) -> List[Node]:
    """The eager pair merge, honouring the production fast-path toggle."""
    if production._FASTPATH and xs and len(xs) == len(ys) \
            and all(_identical_structure(x, y) for x, y in zip(xs, ys)) \
            and _diagonal_safe(xs):
        out = _splice_identical(xs, ys, comm_table)
        if out is not None:
            return out
    out = []
    xi = yi = 0
    for i, j, merged in _lcs_pairs(xs, ys, comm_table):
        out.extend(xs[xi:i])
        out.extend(ys[yi:j])
        out.append(merged)
        xi, yi = i + 1, j + 1
    out.extend(xs[xi:])
    out.extend(ys[yi:])
    return out


def unshared_merge(acc: production.TraceMergeAccumulator, xs: List[Node],
                   xshape: int, ys: List[Node], yshape: int):
    """``TraceMergeAccumulator._merge`` without shared alignments: every
    pair goes through ``merge_node_lists`` (looked up on the production
    module, so :func:`eager_merge` reaches it too)."""
    obs.count("scalatrace.pair_merges", 1)
    return production.merge_node_lists(xs, ys, acc.comm_table), xshape


@contextmanager
def eager_merge():
    """Route every pair merge in the process (tracer Finalize merge,
    ``merge_traces``, the generator's re-merge) through the eager DP,
    one DP per merge."""
    acc = production.TraceMergeAccumulator
    saved = production.merge_node_lists, acc._merge
    production.merge_node_lists = merge_node_lists
    acc._merge = unshared_merge
    try:
        yield
    finally:
        production.merge_node_lists, acc._merge = saved
