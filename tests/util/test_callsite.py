"""Unit tests for repro.util.callsite."""

import os
import sys

import pytest

from repro.apps import PAPER_SUITE, make_app
from repro.mpi import api
from repro.mpi.hooks import MPIHook
from repro.mpi.world import run_spmd
from repro.util import callsite
from repro.util.callsite import Callsite, _is_framework_frame, capture_callsite


def reference_capture(max_depth: int = 8, skip: int = 1) -> Callsite:
    """The frame walk ``capture_callsite`` replaced, kept as an oracle:
    every frame is classified by path on every capture, nothing is
    cached and every capture builds a new Callsite."""
    frame = sys._getframe(skip)
    frames = []
    while frame is not None and len(frames) < max_depth:
        code = frame.f_code
        norm = code.co_filename.replace(os.sep, "/")
        if "repro/sim" in norm:
            break
        if not _is_framework_frame(code.co_filename):
            frames.append((os.path.basename(code.co_filename),
                           frame.f_lineno, code.co_name))
        frame = frame.f_back
    return Callsite(tuple(frames))


def _call_from_here():
    return capture_callsite(skip=1)


def _nested_outer():
    return _nested_inner()


def _nested_inner():
    return capture_callsite(skip=1)


class TestCapture:
    def test_innermost_frame_is_caller(self):
        cs = _call_from_here()
        fname, line, func = cs.frames[0]
        assert fname == "test_callsite.py"
        assert func == "_call_from_here"

    def test_distinct_lines_distinct_signatures(self):
        a = capture_callsite(skip=1)
        b = capture_callsite(skip=1)
        assert a != b  # different line numbers

    def test_nesting_appears_in_signature(self):
        cs = _nested_outer()
        funcs = [f for _, _, f in cs.frames]
        assert "_nested_inner" in funcs
        assert "_nested_outer" in funcs

    def test_max_depth_respected(self):
        def recurse(n):
            if n == 0:
                return capture_callsite(max_depth=3, skip=1)
            return recurse(n - 1)

        cs = recurse(10)
        assert len(cs.frames) == 3


class TestSynthetic:
    def test_synthetic_identity(self):
        a = Callsite.synthetic("loop.body[0]", 1)
        b = Callsite.synthetic("loop.body[0]", 1)
        c = Callsite.synthetic("loop.body[1]", 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestSerialization:
    def test_roundtrip(self):
        cs = _nested_outer()
        assert Callsite.parse(cs.serialize()) == cs

    def test_synthetic_roundtrip(self):
        cs = Callsite.synthetic("node", 3)
        assert Callsite.parse(cs.serialize()) == cs

    def test_repr_mentions_location(self):
        cs = Callsite.synthetic("myprog", 7)
        assert "myprog" in repr(cs)


class TestAgainstReferenceWalk:
    @pytest.mark.parametrize("app", PAPER_SUITE)
    def test_every_app_call_site(self, app, monkeypatch):
        seen = []

        def checked(max_depth=8, skip=1):
            site = callsite.capture_callsite(max_depth, skip + 1)
            again = callsite.capture_callsite(max_depth, skip + 1)
            seen.append((site, again, reference_capture(max_depth, skip + 1)))
            return site

        monkeypatch.setattr(api, "capture_callsite", checked)
        # call sites are captured only while a hook listens
        run_spmd(make_app(app, 4), nranks=4, hooks=[MPIHook()])
        assert seen
        for site, again, oracle in seen:
            assert site.frames == oracle.frames
            assert again is site
            assert Callsite.parse(site.serialize()) == site

    def test_repeat_capture_is_interned(self):
        a, b = [capture_callsite(skip=1) for _ in range(2)]
        assert a is b
