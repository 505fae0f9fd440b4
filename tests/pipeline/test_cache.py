"""ArtifactCache and cache-key semantics."""

import os

import pytest

from repro.errors import SimulationError
from repro.pipeline import (ArtifactCache, Pipeline, PipelineConfig,
                            RunContext, TraceStage, cache_key,
                            full_pipeline, generation_stages)


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("a", 1, ("x",)) == cache_key("a", 1, ("x",))

    def test_differs_by_any_part(self):
        base = cache_key("trace", "lu", 8, "S", "bluegene")
        assert base != cache_key("trace", "lu", 16, "S", "bluegene")
        assert base != cache_key("trace", "lu", 8, "W", "bluegene")
        assert base != cache_key("trace", "cg", 8, "S", "bluegene")

    def test_is_hex_sha256(self):
        key = cache_key("x")
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestRollingKey:
    """The stage chain folds each stage's config into the context key,
    so cached artifacts are distinguished by everything upstream."""

    def _key_after_trace(self, **cfg):
        defaults = dict(app="lu", nranks=8)
        defaults.update(cfg)
        ctx = RunContext(PipelineConfig(**defaults))
        stage = TraceStage()
        return cache_key(ctx.key, stage.name, stage.key_parts(ctx))

    def test_platform_changes_key(self):
        assert self._key_after_trace(platform="bluegene") != \
            self._key_after_trace(platform="ethernet")

    def test_class_changes_key(self):
        assert self._key_after_trace(cls="S") != \
            self._key_after_trace(cls="W")

    def test_nranks_changes_key(self):
        assert self._key_after_trace(nranks=8) != \
            self._key_after_trace(nranks=16)

    def test_custom_inputs_disable_keying(self):
        config = PipelineConfig(app="lu", nranks=8)
        assert RunContext(config).key == ""  # keyable
        assert RunContext(config, program=lambda mpi: None).key is None
        assert RunContext(config, model=object()).key is None
        assert RunContext(config, hooks=[]).key is None
        assert RunContext(PipelineConfig(app="lu", nranks=8,
                                         platform=None)).key is None


class TestArtifactCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        key = cache_key("hello")
        cache.put(key, "payload", ".trace")
        assert cache.get(key, ".trace") == "payload"
        assert (cache.hits, cache.misses) == (1, 0)

    def test_miss_accounting(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        assert cache.get(cache_key("absent"), ".trace") is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert "1 miss(es)" in cache.stats()

    def test_sharded_layout(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        key = cache_key("x")
        path = cache.put(key, "data", ".ncptl")
        assert path == str(tmp_path / "c" / key[:2] / (key + ".ncptl"))
        assert os.path.exists(path)

    def test_atomic_put_leaves_no_temp_files(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        key = cache_key("y")
        cache.put(key, "data", ".trace")
        shard = tmp_path / "c" / key[:2]
        assert [p.name for p in shard.iterdir()] == [key + ".trace"]


class TestEndToEndCaching:
    def test_second_run_hits_and_matches(self, tmp_path):
        config = PipelineConfig(app="jacobi", nranks=4, use_cache=True,
                                cache_dir=str(tmp_path / "cache"))
        pipe = full_pipeline(run=False)
        first = pipe.run(config)
        assert first.cache_hits() == 0
        second = pipe.run(config)
        hits = {r.stage for r in second.records if r.cache == "hit"}
        assert hits == {"trace", "emit"}
        # cached artifacts reproduce the exact same benchmark source
        assert second.source == first.source

    def test_step_budget_shares_a_trace_it_fits(self, tmp_path):
        # the budget is not in the key: a budget the cached run fits
        # hits, and one it does not fit recomputes and trips as a cold
        # run would, so the outcome never depends on the cache
        cache_dir = str(tmp_path / "cache")
        pipe = full_pipeline(run=False)
        first = pipe.run(PipelineConfig(app="jacobi", nranks=4,
                                        use_cache=True, cache_dir=cache_dir))
        steps = first.artifacts["trace_run_result"].world.engine.steps
        fits = pipe.run(PipelineConfig(app="jacobi", nranks=4,
                                       max_steps=steps, use_cache=True,
                                       cache_dir=cache_dir))
        assert {r.stage for r in fits.records if r.cache == "hit"} == \
            {"trace", "emit"}
        with pytest.raises(SimulationError, match="max_steps"):
            pipe.run(PipelineConfig(app="jacobi", nranks=4,
                                    max_steps=steps - 1, use_cache=True,
                                    cache_dir=cache_dir))

    def test_different_config_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        pipe = full_pipeline(run=False)
        pipe.run(PipelineConfig(app="jacobi", nranks=4, use_cache=True,
                                cache_dir=cache_dir))
        other = pipe.run(PipelineConfig(app="jacobi", nranks=8,
                                        use_cache=True,
                                        cache_dir=cache_dir))
        assert other.cache_hits() == 0

    def test_uncacheable_run_stays_correct(self, tmp_path):
        # custom program => unkeyable => no cache reads or writes
        from repro.apps import make_app
        config = PipelineConfig(nranks=4, platform=None, use_cache=True,
                                cache_dir=str(tmp_path / "cache"))
        ctx = RunContext(config, program=make_app("ring", 4, "S"))
        Pipeline([TraceStage()] + generation_stages()).run(context=ctx)
        assert ctx.cache.hits == 0 and ctx.cache.misses == 0
        assert not os.path.exists(str(tmp_path / "cache"))
