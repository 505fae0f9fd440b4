"""PipelineConfig: validation, cache keying, replacement."""

import pytest

from repro.errors import PipelineConfigError, PipelineError, ReproError
from repro.pipeline import (PipelineConfig, RunContext, TraceStage,
                            generation_stages)


def _generation_keys(**kwargs):
    """The key parts of the trace stage and every generation stage."""
    ctx = RunContext(PipelineConfig(**kwargs))
    return tuple(stage.key_parts(ctx)
                 for stage in [TraceStage()] + generation_stages())


class TestValidation:
    def test_defaults_are_valid(self):
        c = PipelineConfig()
        assert c.cls == "S" and c.platform == "bluegene"
        assert c.align and c.resolve and c.include_timing

    def test_unknown_app(self):
        with pytest.raises(PipelineConfigError, match="unknown app"):
            PipelineConfig(app="quicksort")

    def test_bad_nranks(self):
        with pytest.raises(PipelineConfigError, match="nranks"):
            PipelineConfig(app="ring", nranks=0)
        with pytest.raises(PipelineConfigError, match="nranks"):
            PipelineConfig(app="ring", nranks=-4)

    def test_bad_class(self):
        with pytest.raises(PipelineConfigError, match="class"):
            PipelineConfig(app="lu", nranks=8, cls="X")

    def test_bad_platform(self):
        with pytest.raises(PipelineConfigError, match="platform"):
            PipelineConfig(platform="cray")

    def test_bad_max_steps(self):
        with pytest.raises(PipelineConfigError, match="max_steps"):
            PipelineConfig(max_steps=0)

    def test_empty_name(self):
        with pytest.raises(PipelineConfigError, match="name"):
            PipelineConfig(name="")

    def test_error_hierarchy(self):
        # config errors are catchable as pipeline and repro errors
        assert issubclass(PipelineConfigError, PipelineError)
        assert issubclass(PipelineError, ReproError)

    def test_none_platform_allowed(self):
        assert PipelineConfig(platform=None).platform is None


class TestFingerprint:
    """The stage key parts are the artifacts' content fingerprint."""

    def test_excludes_cache_bookkeeping(self):
        base = _generation_keys(app="lu", nranks=8)
        assert _generation_keys(app="lu", nranks=8, use_cache=True,
                                cache_dir="/elsewhere") == base
        assert _generation_keys(app="lu", nranks=8, profile=True) == base

    def test_differs_by_content_fields(self):
        base = _generation_keys(app="lu", nranks=8)
        assert base != _generation_keys(app="lu", nranks=16)
        assert base != _generation_keys(app="cg", nranks=8)
        assert base != _generation_keys(app="lu", nranks=8, cls="W")


class TestReplace:
    def test_replace_revalidates(self):
        c = PipelineConfig(app="lu", nranks=8)
        assert c.replace(nranks=16).nranks == 16
        assert c.nranks == 8  # frozen original untouched
        with pytest.raises(PipelineConfigError):
            c.replace(nranks=-1)


class TestWhatIfFields:
    """The §5.4 what-if hooks: compute_scale, run_platform[_params]."""

    def test_defaults(self):
        config = PipelineConfig(app="jacobi", nranks=4)
        assert config.compute_scale == 1.0
        assert config.run_platform is None
        assert config.run_platform_params is None

    def test_negative_compute_scale_rejected(self):
        with pytest.raises(PipelineConfigError, match="compute_scale"):
            PipelineConfig(app="jacobi", nranks=4, compute_scale=-0.1)

    def test_zero_compute_scale_allowed(self):
        PipelineConfig(app="jacobi", nranks=4, compute_scale=0.0)

    def test_unknown_run_platform_rejected(self):
        with pytest.raises(PipelineConfigError, match="run_platform"):
            PipelineConfig(app="jacobi", nranks=4, run_platform="mars")

    def test_params_mapping_normalized_to_sorted_tuple(self):
        config = PipelineConfig(app="jacobi", nranks=4,
                                run_platform_params={"latency": 1e-5,
                                                     "bandwidth": 1e8})
        assert config.run_platform_params == (("bandwidth", 1e8),
                                              ("latency", 1e-5))

    def test_params_bad_key_rejected(self):
        with pytest.raises(PipelineConfigError, match="keys"):
            PipelineConfig(app="jacobi", nranks=4,
                           run_platform_params={3: 1.0})

    def test_run_model_resolves_override(self):
        from repro.pipeline import RunContext
        from repro.sim.network import CongestionModel, LogGPModel
        ctx = RunContext(PipelineConfig(app="jacobi", nranks=4,
                                        run_platform="ethernet"))
        assert isinstance(ctx.model, LogGPModel)
        assert isinstance(ctx.run_model, CongestionModel)

    def test_run_model_params_applied(self):
        from repro.pipeline import RunContext
        ctx = RunContext(PipelineConfig(
            app="jacobi", nranks=4,
            run_platform_params={"latency": 0.25}))
        assert ctx.run_model.latency == 0.25
        assert ctx.model.latency != 0.25

    def test_bad_param_name_rejected_at_construction(self):
        # an unknown parameter fails when the config is *built* (so
        # `repro sweep validate` catches it), not mid-fan-out when a
        # worker first resolves the run model
        with pytest.raises(PipelineConfigError,
                           match="run_platform_params"):
            PipelineConfig(app="jacobi", nranks=4,
                           run_platform_params={"warp": 9.0})

    def test_preset_incompatible_param_rejected(self):
        # SimpleModel takes no eager_threshold; the other presets do
        with pytest.raises(PipelineConfigError, match="simple"):
            PipelineConfig(app="jacobi", nranks=4, run_platform="simple",
                           run_platform_params={"eager_threshold": 1})
        PipelineConfig(app="jacobi", nranks=4, run_platform="bluegene",
                       run_platform_params={"eager_threshold": 1})


class TestTopologyFields:
    """The routed-fabric what-if hooks: topology, topology_params,
    placement (all execution-only)."""

    def test_defaults(self):
        c = PipelineConfig(app="jacobi", nranks=4)
        assert c.topology is None
        assert c.topology_params is None
        assert c.placement == "block"

    def test_unknown_topology_rejected(self):
        with pytest.raises(PipelineConfigError, match="topology"):
            PipelineConfig(app="jacobi", nranks=4, topology="hypercube")

    def test_params_without_topology_rejected(self):
        with pytest.raises(PipelineConfigError, match="without"):
            PipelineConfig(app="jacobi", nranks=4,
                           topology_params={"nodes": 2})

    def test_bad_topology_param_rejected_at_construction(self):
        with pytest.raises(PipelineConfigError, match="torus3d"):
            PipelineConfig(app="jacobi", nranks=4, topology="torus3d",
                           topology_params={"arity": 4})

    def test_params_normalized_to_sorted_tuple(self):
        c = PipelineConfig(app="jacobi", nranks=4, topology="fattree",
                           topology_params={"nodes": 2, "arity": 2})
        assert c.topology_params == (("arity", 2), ("nodes", 2))

    def test_bad_placement_spec_rejected(self):
        with pytest.raises(PipelineConfigError, match="placement"):
            PipelineConfig(app="jacobi", nranks=4, placement="scatter")
        with pytest.raises(PipelineConfigError, match="placement"):
            PipelineConfig(app="jacobi", nranks=4, placement="")

    def test_profile_excluded_from_fingerprint(self):
        # profiling is execution policy: it must not invalidate cached
        # trace/source artifacts
        assert _generation_keys(app="jacobi", nranks=4) == \
            _generation_keys(app="jacobi", nranks=4, profile=True)

    def test_run_model_is_routed(self):
        from repro.pipeline import RunContext
        from repro.topology import TopologyModel
        ctx = RunContext(PipelineConfig(app="jacobi", nranks=4,
                                        topology="torus3d"))
        assert not getattr(ctx.model, "routed", False)
        assert isinstance(ctx.run_model, TopologyModel)

    def test_run_model_composes_with_run_platform(self):
        from repro.pipeline import RunContext
        from repro.sim.network import CongestionModel
        ctx = RunContext(PipelineConfig(
            app="jacobi", nranks=4, run_platform="ethernet",
            topology="fattree", topology_params={"arity": 2}))
        model = ctx.run_model
        assert model.routed
        assert isinstance(model.base, CongestionModel)

    def test_bad_map_file_raises_pipeline_error_lazily(self):
        # the spec parses (so the config builds — sweep plans validate
        # without touching the filesystem) but resolution fails
        from repro.pipeline import RunContext
        ctx = RunContext(PipelineConfig(
            app="jacobi", nranks=4, topology="torus3d",
            placement="map:/nonexistent/nodes.json"))
        with pytest.raises(PipelineError, match="topology config"):
            ctx.run_model
