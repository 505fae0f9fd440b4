"""Scheduler-policy layer: validation, determinism, and the race fixture.

The policy layer (``repro.sim.policy``) must (a) reject bad specs with
clear ValueErrors at *construction* time, (b) leave canonical runs
byte-identical to an engine that never heard of policies, (c) make
every (policy, seed) pair a fully deterministic schedule, shared by the
production loop and the test-only reference loop, and (d) actually
find the seeded ``race`` fixture's schedule-dependent deadlock.
"""

import pytest

from repro.apps import make_app
from repro.errors import PipelineConfigError, SimDeadlockError
from repro.mpi.world import run_spmd
from repro.pipeline import PipelineConfig, RunContext, TraceStage
from repro.sim.engine import Engine
from repro.sim.network import make_model
from repro.sim.synth import wildcard_programs
from repro.sim.policy import (POLICIES, SEEDED_POLICIES,
                              AdversarialDelayPolicy, CanonicalPolicy,
                              RandomPolicy, resolve_policy)
from tests.sim.reference_loop import LOOPS, executor


def _race(policy=None, seed=None, nranks=4, cls="S", platform="simple",
          loop="batch"):
    prog = make_app("race", nranks, cls)
    with executor(loop):
        return run_spmd(prog, nranks, model=make_model(platform),
                        schedule_policy=policy, schedule_seed=seed)


class TestResolvePolicy:
    def test_none_and_name_give_canonical(self):
        assert resolve_policy(None).canonical
        assert resolve_policy("canonical").canonical

    def test_seeded_policies_default_seed_zero(self):
        p = resolve_policy("random")
        assert isinstance(p, RandomPolicy) and p.seed == 0
        p = resolve_policy("adversarial-delay", 7)
        assert isinstance(p, AdversarialDelayPolicy) and p.seed == 7

    def test_unknown_policy_lists_choices(self):
        with pytest.raises(ValueError, match="unknown schedule policy"):
            resolve_policy("chaos")
        with pytest.raises(ValueError, match="docs/FUZZING.md"):
            resolve_policy("chaos")

    def test_seed_on_canonical_rejected(self):
        with pytest.raises(ValueError, match="meaningless"):
            resolve_policy("canonical", 3)
        with pytest.raises(ValueError, match="meaningless"):
            resolve_policy(None, 0)

    def test_non_int_seed_rejected(self):
        with pytest.raises(ValueError, match="must be an int"):
            resolve_policy("random", "3")
        with pytest.raises(ValueError, match="must be an int"):
            resolve_policy("random", True)

    def test_policy_object_passes_through_but_rejects_seed(self):
        obj = RandomPolicy(5)
        assert resolve_policy(obj) is obj
        with pytest.raises(ValueError, match="already-built"):
            resolve_policy(obj, 5)

    def test_fresh_instance_per_resolve(self):
        assert resolve_policy("random", 1) is not resolve_policy(
            "random", 1)

    def test_registry_constants(self):
        assert set(SEEDED_POLICIES) == set(POLICIES) - {"canonical"}


class TestEngineConstruction:
    def test_bad_mode_rejected_at_construction(self):
        # the engine has one executor: a stale caller still passing the
        # retired executor switch fails loudly instead of being ignored
        with pytest.raises(TypeError, match="mode"):
            Engine(2, make_model("simple"), mode="scalar")

    def test_bad_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown schedule policy"):
            Engine(2, make_model("simple"), schedule_policy="chaos")

    def test_seed_without_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="meaningless"):
            Engine(2, make_model("simple"), schedule_seed=1)

    def test_valid_policy_accepted(self):
        eng = Engine(2, make_model("simple"), schedule_policy="random",
                     schedule_seed=3)
        assert eng.policy.seed == 3


class TestPipelineConfigValidation:
    def test_bad_policy_is_config_error(self):
        with pytest.raises(PipelineConfigError,
                           match="unknown schedule policy"):
            PipelineConfig(app="ring", nranks=4,
                           schedule_policy="chaos")

    def test_seed_on_canonical_is_config_error(self):
        with pytest.raises(PipelineConfigError, match="meaningless"):
            PipelineConfig(app="ring", nranks=4, schedule_seed=1)

    def test_policy_enters_fingerprint(self):
        # the trace's cache key is its content fingerprint: a policy
        # changes which wildcard matches the trace records
        a = PipelineConfig(app="ring", nranks=4)
        b = PipelineConfig(app="ring", nranks=4,
                           schedule_policy="random", schedule_seed=1)
        stage = TraceStage()
        assert stage.key_parts(RunContext(a)) != \
            stage.key_parts(RunContext(b))


class TestCanonicalByteIdentity:
    @pytest.mark.parametrize("loop", LOOPS)
    def test_explicit_canonical_matches_default(self, loop):
        base = _race(loop=loop)
        explicit = _race(policy="canonical", loop=loop)
        assert explicit.total_time.hex() == base.total_time.hex()
        assert [t.hex() for t in explicit.per_rank_times] == \
               [t.hex() for t in base.per_rank_times]
        assert explicit.messages_sent == base.messages_sent


class TestRaceFixture:
    @pytest.mark.parametrize("platform",
                             ["simple", "bluegene", "ethernet", "arc"])
    def test_canonical_completes_everywhere(self, platform):
        result = _race(platform=platform)
        assert result.total_time > 0

    def test_adversarial_delay_finds_the_deadlock(self):
        with pytest.raises(SimDeadlockError) as exc:
            _race(policy="adversarial-delay", seed=0)
        diag = exc.value.diagnostic
        assert diag is not None
        # the straggler's directed receive starves: the cycle ties the
        # master (rank 0) to the last rank
        assert tuple(diag.cycle) == (0, 3)

    def test_random_seeds_diverge(self):
        outcomes = {}
        for seed in range(3):
            try:
                outcomes[seed] = _race(policy="random",
                                       seed=seed).total_time.hex()
            except SimDeadlockError:
                outcomes[seed] = "deadlock"
        assert "deadlock" in outcomes.values()
        assert any(v != "deadlock" for v in outcomes.values())

    def test_validate_rejects_tiny_worlds(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="at least 3"):
            make_app("race", 2, "S")


class TestSeededDeterminism:
    @pytest.mark.parametrize("policy,seed",
                             [("random", 0), ("random", 1),
                              ("adversarial-delay", 0)])
    def test_same_seed_same_schedule(self, policy, seed):
        def outcome():
            try:
                r = _race(policy=policy, seed=seed)
                return ("ok", r.total_time.hex())
            except SimDeadlockError as exc:
                return ("deadlock",
                        tuple(exc.diagnostic.cycle)
                        if exc.diagnostic else None)
        assert outcome() == outcome()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalar_batch_identical_under_random(self, seed):
        """The production loop replays the reference loop's schedule."""
        def run(loop):
            try:
                r = _race(policy="random", seed=seed, loop=loop)
                return ("ok", r.total_time.hex(),
                        [t.hex() for t in r.per_rank_times])
            except SimDeadlockError as exc:
                return ("deadlock",
                        tuple(exc.diagnostic.cycle)
                        if exc.diagnostic else None)
        assert run("scalar") == run("batch")


class _CountingMemo(dict):
    """A defer memo that counts its writes."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


def _wildcard_run(policy=None, seed=None, loop="batch"):
    eng = Engine(16, make_model("simple"), schedule_policy=policy,
                 schedule_seed=seed)
    memo = eng._match.defer_memo = _CountingMemo()
    with executor(loop):
        total = eng.run(wildcard_programs(16))
    return memo.writes, total.hex(), eng.matches_committed


class TestPolicyDrain:
    """Every policy drains through ``drain_batch``; a non-canonical one
    skips the candidate heap, so it never memoizes a deferral."""

    def test_canonical_run_memoizes_deferrals(self):
        writes, _, _ = _wildcard_run()
        assert writes > 0

    @pytest.mark.parametrize("policy", SEEDED_POLICIES)
    def test_policy_run_never_writes_the_memo(self, policy):
        writes, total, matches = _wildcard_run(policy, 0)
        assert writes == 0
        _, ref_total, ref_matches = _wildcard_run(policy, 0, loop="scalar")
        assert (total, matches) == (ref_total, ref_matches)
