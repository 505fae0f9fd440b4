"""Host-speed calibration for the pipeline benchmark.

On a shared host the same single-threaded Python work runs up to twice as
slow for minutes at a time, and CPU time slows exactly as wall time does,
so raw seconds from two runs minutes apart are not comparable.  The
benchmark therefore also reports every time in *reference seconds*: raw
seconds x ``REF_S / k``, where ``k`` is the mean time of the fixed kernel
below over samples taken around and within the timed work (see
:class:`Clock`), and ``REF_S`` is the kernel's time on an idle reference
host
(2-vCPU Intel Xeon at 2.0 GHz, CPython 3.11.7).  The kernel uses no
``repro`` code, so a change to the program cannot move it; it mixes the
interpreter work the pipeline does (small objects, dict and heap
operations, generators, a recursive expression walk) and keeps a small
memory footprint.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: kernel seconds on the reference host
REF_S = 0.0105


class _Obj:
    __slots__ = ("a", "b")


def _objects() -> int:
    heap, table, acc = [], {}, 0

    def gen(k):
        for i in range(k):
            yield i

    for i in range(3000):
        obj = _Obj()
        obj.a, obj.b = i, (i, i + 1)
        table[i % 97] = obj
        acc += sum(gen(6)) + len(str(i)) + table[i % 97].a
        items = [j * i for j in range(8)]
        items.sort(reverse=True)
        heapq.heappush(heap, (i % 31, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def _tree(depth: int, seed: int):
    """A full binary expression tree as nested tuples, built without
    ``random`` so it is the same on every interpreter."""
    if depth == 0:
        return ("num", seed % 9 + 1) if seed % 2 else ("var", "xyz"[seed % 3])
    return ("+*%-"[seed % 4], _tree(depth - 1, seed * 7 + 1),
            _tree(depth - 1, seed * 13 + 5))


_TREES = [_tree(6, s) for s in range(4)]


def _eval(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    a, b = _eval(node[1], env), _eval(node[2], env)
    if kind == "+":
        return a + b
    if kind == "*":
        return a * b % 1000003
    if kind == "%":
        return a % (b or 1)
    return a - b


def _expressions() -> int:
    acc = 0
    for i in range(60):
        env = {"x": i, "y": i + 1, "z": 3}
        for tree in _TREES:
            acc += _eval(tree, env)
    return acc


def _scheduler() -> int:
    def rank(r, n):
        for i in range(n):
            yield (r + i) % 7

    gens = [rank(r, 40) for r in range(64)]
    heap = [(0, r) for r in range(64)]
    acc = 0
    while heap:
        t, r = heapq.heappop(heap)
        try:
            d = next(gens[r])
        except StopIteration:
            continue
        acc += d
        heapq.heappush(heap, (t + d + 1, r))
    return acc


def kernel() -> int:
    return _objects() + _expressions() + _scheduler()


def sample(runs: int = 3) -> float:
    """Median seconds of ``runs`` kernel runs (about 35 ms in all)."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times work in raw seconds and samples host speed around it.

    Each ``with clock:`` block is timed, and ``tick()`` inside one ends a
    segment and starts the next; a kernel sample is taken at every
    segment boundary and never counted as work.  :meth:`since` turns the
    work done since a :meth:`mark` into reference seconds using the mean
    of the samples taken over that stretch (including the one right
    before it): the mean tracks the share of the stretch that ran slow,
    whether the slow-down came as one long phase or as many short bursts.
    """

    def __init__(self):
        self.samples = [sample()]
        self.raw = 0.0
        self._t0 = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def tick(self, *_) -> None:
        self.raw += time.perf_counter() - self._t0
        self.samples.append(sample())
        self._t0 = time.perf_counter()

    def __exit__(self, *exc) -> bool:
        self.tick()
        return False

    def mark(self):
        return self.raw, len(self.samples) - 1

    def since(self, mark):
        """``(raw, reference)`` seconds of the work done since ``mark``."""
        raw0, first = mark
        raw = self.raw - raw0
        return raw, raw * REF_S / statistics.mean(self.samples[first:])
