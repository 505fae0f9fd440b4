"""FaultPlan schema: validation, serialization, digests, nullity."""

import pytest

from repro.errors import FaultPlanError
from repro.faults import FaultPlan, LinkWindow, TEMPLATE


class TestValidation:
    def test_default_plan_is_null(self):
        assert FaultPlan().is_null()

    def test_rates_must_be_probabilities(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(FaultPlanError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(FaultPlanError):
            FaultPlan(reorder_rate=2.0)

    def test_retry_policy_bounds(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(max_retries=-1)
        with pytest.raises(FaultPlanError):
            FaultPlan(retry_timeout=-1e-6)
        with pytest.raises(FaultPlanError):
            FaultPlan(retry_backoff=0.5)

    def test_window_bounds(self):
        with pytest.raises(FaultPlanError):
            LinkWindow(t_start=1.0, t_end=0.5)
        with pytest.raises(FaultPlanError):
            LinkWindow(t_start=0.0, t_end=1.0, latency_factor=0.5)

    def test_straggler_and_crash_bounds(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(stragglers=((0, 0.0),))
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=((0, -1.0),))

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError) as e:
            FaultPlan.from_dict({"drop_rtae": 0.1})
        assert "drop_rtae" in str(e.value)

    def test_non_mapping_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict([1, 2, 3])


class TestNullity:
    def test_seed_alone_is_null(self):
        assert FaultPlan(seed=999).is_null()

    def test_retry_policy_alone_is_null(self):
        assert FaultPlan(max_retries=9, retry_timeout=1e-3).is_null()

    def test_reorder_without_delay_is_null(self):
        assert FaultPlan(reorder_rate=0.5).is_null()

    def test_unit_factor_window_is_null(self):
        plan = FaultPlan(windows=(LinkWindow(0.0, 1.0),))
        assert plan.is_null()

    def test_unit_straggler_is_null(self):
        assert FaultPlan(stragglers=((3, 1.0),)).is_null()

    def test_any_real_fault_is_not_null(self):
        assert not FaultPlan(drop_rate=0.01).is_null()
        assert not FaultPlan(duplicate_rate=0.01).is_null()
        assert not FaultPlan(reorder_rate=0.1,
                             reorder_max_delay=1e-5).is_null()
        assert not FaultPlan(
            windows=(LinkWindow(0.0, 1.0, latency_factor=2.0),)).is_null()
        assert not FaultPlan(stragglers=((0, 2.0),)).is_null()
        assert not FaultPlan(crashes=((0, 1.0),)).is_null()


class TestSerialization:
    def _rich_plan(self):
        return FaultPlan(
            seed=7, drop_rate=0.05, duplicate_rate=0.01, reorder_rate=0.1,
            reorder_max_delay=2e-4,
            windows=(LinkWindow(0.0, 0.01, latency_factor=3.0,
                                bandwidth_factor=2.0, ranks=(1, 2)),),
            stragglers=((2, 1.5),), crashes=((5, 0.02),),
            max_retries=6, retry_timeout=5e-5, retry_backoff=1.5)

    def test_roundtrip(self):
        plan = self._rich_plan()
        again = FaultPlan.loads(plan.dumps())
        assert again == plan
        assert again.digest() == plan.digest()

    def test_template_parses_and_is_valid(self):
        plan = FaultPlan.loads(TEMPLATE)
        assert plan.seed == 42
        assert plan.drop_rate == 0.05
        assert not plan.is_null()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.yaml"
        path.write_text("seed: 3\ndrop_rate: 0.2\n")
        plan = FaultPlan.load(str(path))
        assert plan.seed == 3 and plan.drop_rate == 0.2

    def test_load_missing_file(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.load("/nonexistent/plan.yaml")

    def test_json_text_accepted(self):
        plan = FaultPlan.loads('{"seed": 4, "drop_rate": 0.1}')
        assert plan.seed == 4

    def test_garbage_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.loads("{ not yaml ][")

    def test_empty_text_is_null_plan(self):
        assert FaultPlan.loads("").is_null()

    def test_digest_distinguishes_plans(self):
        assert FaultPlan(seed=1).digest() != FaultPlan(seed=2).digest()
        assert FaultPlan(drop_rate=0.1).digest() != \
            FaultPlan(drop_rate=0.2).digest()

    def test_digest_stable_across_instances(self):
        assert self._rich_plan().digest() == self._rich_plan().digest()
