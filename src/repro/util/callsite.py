"""Call-site (stack) signatures.

ScalaTrace distinguishes MPI calls issued from different source locations
by hashing the call stack at interposition time; loop compression then only
folds events that share a signature.  We capture the analogous signature
from the Python stack of the simulated application, skipping frames that
belong to the repro framework itself so that signatures reflect *application*
structure only.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Tuple

#: Stack frames whose file lives under any of these package directories are
#: framework frames, not application frames.
_FRAMEWORK_DIRS = ("repro/sim", "repro/mpi", "repro/scalatrace",
                   "repro/conceptual", "repro/tools")


class Callsite:
    """Immutable stack signature: a tuple of ``file:line:function`` frames,
    innermost first."""

    __slots__ = ("frames", "_hash")

    def __init__(self, frames: Tuple[Tuple[str, int, str], ...]):
        self.frames = tuple(frames)
        self._hash = hash(self.frames)

    @classmethod
    def synthetic(cls, label: str, index: int = 0) -> "Callsite":
        """Signature for code with no meaningful Python stack (e.g. compiled
        coNCePTuaL programs use the AST node path as the signature)."""
        return cls(((label, index, "<synthetic>"),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Callsite):
            return NotImplemented
        return self.frames == other.frames

    def __hash__(self) -> int:
        return self._hash

    def serialize(self) -> str:
        return "|".join(f"{f}:{ln}:{fn}" for f, ln, fn in self.frames)

    @classmethod
    def parse(cls, text: str) -> "Callsite":
        frames = []
        for part in text.split("|"):
            f, ln, fn = part.rsplit(":", 2)
            frames.append((f, int(ln), fn))
        return cls(tuple(frames))

    def __repr__(self) -> str:
        if not self.frames:
            return "Callsite(<empty>)"
        f, ln, fn = self.frames[0]
        more = f" (+{len(self.frames) - 1})" if len(self.frames) > 1 else ""
        return f"Callsite({f}:{ln} in {fn}{more})"


def _is_framework_frame(filename: str) -> bool:
    norm = filename.replace(os.sep, "/")
    return any(d in norm for d in _FRAMEWORK_DIRS)


#: Frame classes: the engine's scheduler frame ends the walk (everything
#: below it is harness, not application structure); framework frames are
#: skipped; any other frame is an application frame, kept as
#: ``(basename, function)`` so signatures are stable across checkouts.
_STOP, _SKIP = "stop", "skip"

#: id(code) -> (code, class).  Each code object is classified once; the
#: entry holds the code object, so its id cannot be reused while cached.
_CODE_CLASS: Dict[int, tuple] = {}

#: (id(code), line, ...) chain of a capture's application frames -> the
#: one interned :class:`Callsite` for it.
_INTERNED: Dict[tuple, Callsite] = {}


def _classify(code) -> object:
    norm = code.co_filename.replace(os.sep, "/")
    if "repro/sim" in norm:
        kind = _STOP
    elif _is_framework_frame(norm):
        kind = _SKIP
    else:
        kind = (os.path.basename(code.co_filename), code.co_name)
    _CODE_CLASS[id(code)] = (code, kind)
    return kind


def capture_callsite(max_depth: int = 8, skip: int = 1) -> Callsite:
    """Capture the application portion of the current call stack.

    ``skip`` framework-internal callers at the top are always dropped;
    remaining framework frames are filtered by path.  Filenames are reduced
    to basenames so signatures are stable across checkouts.

    A repeat capture from the same call chain returns the same
    :class:`Callsite` object: the walk reads each frame's code class from
    a cache and looks the chain up in an intern table.
    """
    frame = sys._getframe(skip)
    classes = _CODE_CLASS
    chain = []
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        entry = classes.get(id(code))
        kind = entry[1] if entry is not None else _classify(code)
        if kind is _STOP:
            break
        if kind is not _SKIP:
            chain.append(id(code))
            chain.append(frame.f_lineno)
            depth += 1
        frame = frame.f_back
    key = tuple(chain)
    site = _INTERNED.get(key)
    if site is None:
        site = _INTERNED[key] = Callsite(tuple(
            (classes[key[i]][1][0], key[i + 1], classes[key[i]][1][1])
            for i in range(0, len(key), 2)))
    return site
