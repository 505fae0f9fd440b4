"""Concurrency safety of the shared artifact cache: the per-key lock,
atomic writes under contention, and the dogpile guarantee (N workers,
one computation)."""

import glob
import threading
import time

from repro.pipeline import ArtifactCache, cache_key
from repro.sweep import SweepPlan, run_sweep


class TestKeyLock:
    def test_mutual_exclusion_across_threads(self, tmp_path):
        """Two lockers of one key never overlap in the critical section
        (flock on distinct fds excludes threads as well as processes)."""
        cache = ArtifactCache(str(tmp_path / "c"))
        key = cache_key("contended")
        active, overlaps, order = [0], [], []

        def critical(tag):
            with cache.lock(key):
                active[0] += 1
                overlaps.append(active[0])
                order.append(tag)
                time.sleep(0.02)
                active[0] -= 1

        threads = [threading.Thread(target=critical, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(overlaps) == 1
        assert sorted(order) == [0, 1, 2, 3]

    def test_independent_keys_do_not_serialize(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        entered = threading.Event()
        released = threading.Event()

        def holder():
            with cache.lock(cache_key("a")):
                entered.set()
                released.wait(timeout=5)

        t = threading.Thread(target=holder)
        t.start()
        assert entered.wait(timeout=5)
        # a different key must be immediately acquirable
        with cache.lock(cache_key("b")):
            pass
        released.set()
        t.join()

    def test_lock_files_stay_out_of_artifact_shards(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        key = cache_key("x")
        with cache.lock(key):
            cache.put(key, "artifact", ".trace")
        shard = tmp_path / "c" / key[:2]
        assert [p.name for p in shard.iterdir()] == [key + ".trace"]

    def test_lock_files_are_sharded_by_key_prefix(self, tmp_path):
        """Locks fan out over locks/<prefix>/ instead of one flat
        directory, so hot service traffic does not serialize on a
        single directory of locks."""
        cache = ArtifactCache(str(tmp_path / "c"))
        key = cache_key("sharded-lock")
        with cache.lock(key):
            pass
        lock_shard = tmp_path / "c" / "locks" / key[:2]
        assert [p.name for p in lock_shard.iterdir()] == [key + ".lock"]
        flat = [p.name for p in (tmp_path / "c" / "locks").iterdir()]
        assert flat == [key[:2]]

    def test_concurrent_puts_leave_one_intact_entry(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        key = cache_key("same")
        payload = "content " * 1000

        def put():
            for _ in range(20):
                cache.put(key, payload, ".trace")

        threads = [threading.Thread(target=put) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.get(key, ".trace") == payload
        shard = tmp_path / "c" / key[:2]
        assert [p.name for p in shard.iterdir()] == [key + ".trace"]


class TestRacingSameDigestClients:
    """Two clients submitting the same digest concurrently (the service
    dedup scenario at the cache layer) must keep exactly-one hit-or-miss
    accounting per artifact request."""

    def _race(self, cache_dir):
        from repro.pipeline import PipelineConfig, full_pipeline
        config = PipelineConfig(app="jacobi", nranks=4, use_cache=True,
                                cache_dir=cache_dir)
        results, errors = [], []

        def client():
            try:
                results.append(full_pipeline(run=False).run(config))
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        return results

    def test_cold_cache_accounts_one_miss_per_artifact(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        results = self._race(cache_dir)
        hits = sum(r.cache_hits() for r in results)
        misses = sum(sum(1 for rec in r.records if rec.cache == "miss")
                     for r in results)
        # 4 artifact requests (2 clients x trace+emit): each computed
        # exactly once, each request accounted exactly once
        assert misses == 2
        assert hits == 2
        assert len(glob.glob(cache_dir + "/*/*.trace")) == 1

    def test_legacy_flat_entries_are_plain_misses(self, tmp_path):
        """Entries in the pre-sharding flat layout are never read: the
        race accounts like a cold cache and recomputes into the shards."""
        import os
        cache_dir = str(tmp_path / "shared")
        # populate sharded, then flatten into the legacy layout
        self._race(cache_dir)
        for shard in os.listdir(cache_dir):
            full = os.path.join(cache_dir, shard)
            if shard == "locks" or not os.path.isdir(full):
                continue
            for name in os.listdir(full):
                os.replace(os.path.join(full, name),
                           os.path.join(cache_dir, name))
            os.rmdir(full)
        assert not glob.glob(cache_dir + "/*/*.trace")
        results = self._race(cache_dir)
        hits = sum(r.cache_hits() for r in results)
        misses = sum(sum(1 for rec in r.records if rec.cache == "miss")
                     for r in results)
        assert (hits, misses) == (2, 2)
        assert len(glob.glob(cache_dir + "/*/*.trace")) == 1


class TestDogpilePrevention:
    def test_racing_workers_compute_trace_once(self, tmp_path):
        """Two workers, same trace key, cold cache: exactly one trace
        artifact is computed; the waiter hits after blocking."""
        plan = SweepPlan(
            name="race", base={"app": "jacobi", "nranks": 4},
            # same trace/emit keys for both points: only the run varies
            axes=[{"field": "compute_scale", "values": [1.0, 0.5]}])
        cache_dir = str(tmp_path / "shared")
        result = run_sweep(plan, workers=2, cache_dir=cache_dir)
        assert result.counts()["ok"] == 2
        assert len(glob.glob(cache_dir + "/*/*.trace")) == 1
        assert len(glob.glob(cache_dir + "/*/*.ncptl")) == 1
        # 4 artifact requests (2 points x trace+emit), 2 computed
        assert result.cache_misses == 2
        assert result.cache_hits == 2
