"""Content-addressed artifact cache for pipeline stages.

Layout (under the cache root, default ``.repro-cache/``)::

    .repro-cache/
      ab/
        ab3f...e1.trace     # serialized ScalaTrace trace
        ab91...07.ncptl     # generated coNCePTuaL source (JSON envelope)
      locks/
        ab/
          ab3f...e1.lock    # per-key cross-process lock (same sharding)

Keys are SHA-256 hashes over a JSON rendering of ``(upstream key, stage
name, stage config)`` — a rolling chain, so a stage's key changes
whenever *anything* upstream of it changes (application, rank count,
problem class, platform, or any earlier stage's configuration).
Artifacts are written atomically (temp file + rename) so a crashed or
concurrent run can never leave a truncated entry behind.

Both artifacts and their lock files are sharded by the first two hex
digits of the key, so hot service traffic (many concurrent submissions
over one shared cache) fans out across 256 directories instead of
serializing directory operations on a single flat ``locks/``.  Entries
left in the older flat layout (``<root>/<key><suffix>``) are never read:
they are plain misses that recompute into the sharded location.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from typing import Any, Iterator, Optional

from repro import obs

try:  # POSIX advisory file locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: cache format version; bump to invalidate all previously cached entries
CACHE_VERSION = 2


def cache_key(*parts: Any) -> str:
    """SHA-256 content address of ``parts`` (JSON-rendered, stable)."""
    payload = json.dumps([CACHE_VERSION, list(parts)], sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactCache:
    """On-disk text-artifact store with hit/miss accounting."""

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0

    def key(self, *parts: Any) -> str:
        """Content address of ``parts`` (see :func:`cache_key`)."""
        return cache_key(*parts)

    def path(self, key: str, suffix: str = "") -> str:
        """Sharded on-disk location of ``key``'s artifact."""
        return os.path.join(self.root, key[:2], key + suffix)

    def get(self, key: str, suffix: str = "",
            record: bool = True) -> Optional[str]:
        """The cached artifact text, or None (counted as hit/miss).

        ``record=False`` reads without touching the hit/miss accounting
        — used by the double-checked read under :meth:`lock`, whose
        outcome is accounted for explicitly by the caller.
        """
        try:
            with open(self.path(key, suffix)) as fh:
                text = fh.read()
        except OSError:  # absent or unreadable
            text = None
        if record:
            if text is None:
                self.record_miss()
            else:
                self.record_hit()
        return text

    def record_hit(self) -> None:
        """Account one cache hit (for reads done with ``record=False``)."""
        self.hits += 1
        obs.count("pipeline.cache_hits")

    def record_miss(self) -> None:
        """Account one cache miss (for reads done with ``record=False``)."""
        self.misses += 1
        obs.count("pipeline.cache_misses")

    @contextlib.contextmanager
    def lock(self, key: str) -> Iterator[None]:
        """Cross-process advisory lock on ``key``.

        Serializes the *computation* of one artifact across concurrent
        pipeline runs (e.g. parallel sweep workers, concurrent service
        jobs): the first worker to reach a missing key computes it while
        the others block here, re-check the cache, and hit.  Lock files
        live under ``<root>/locks/<key[:2]>/`` — sharded like the
        artifacts themselves, so hot traffic does not serialize
        directory operations on one flat ``locks/`` directory.  On
        platforms without ``fcntl`` the lock degrades to a no-op —
        writes are still safe (atomic rename), only duplicate work is
        possible.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_dir = os.path.join(self.root, "locks", key[:2])
        os.makedirs(lock_dir, exist_ok=True)
        lock_path = os.path.join(lock_dir, key + ".lock")
        with open(lock_path, "w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def put(self, key: str, text: str, suffix: str = "") -> str:
        """Store ``text`` under ``key`` atomically; returns the path."""
        path = self.path(key, suffix)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-" + key[:8])
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def stats(self) -> str:
        """One-line hit/miss summary for reports."""
        return f"{self.hits} hit(s), {self.misses} miss(es)"
