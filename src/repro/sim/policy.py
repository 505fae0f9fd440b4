"""Scheduler policies: the engine's tie-break decision points, pluggable.

The engine makes exactly two kinds of *choices* while simulating; every
other step is forced by MPI semantics and virtual time:

* **wildcard match selection** — which candidate message an ANY_SOURCE
  receive takes when several channels hold a compatible message (the
  engine's one drain, :func:`repro.sim.matching.drain_batch`);
* **cohort ordering** — which rank runs next when several runnable
  ranks share the same virtual clock (the executor's ready-heap pop, or
  :meth:`repro.sim.sched.Scheduler.pop_ready_policy`).

The canonical policy pins both to one deterministic order (earliest
arrival estimate, then source, then sequence number; lowest rank first)
— that is the bit-deterministic contract the golden suites pin, and the
single legal schedule every run before this layer explored.  Real MPI
runtimes promise neither order.  A :class:`SchedulerPolicy` makes the
choice points explicit so the schedule-space fuzzer (``repro fuzz``,
see ``docs/FUZZING.md``) can explore *other* legal schedules:

* ``canonical`` — byte-identical to the engine without the layer (the
  drain keeps its candidate heap and the executor its inlined pop;
  this class exists so callers can hold a policy object uniformly);
* ``random`` — seeded uniform choice over the legal candidates at each
  decision point, simsched-style;
* ``adversarial-delay`` — the wildcard match that maximizes receiver
  wait (the last-arriving candidate), with seeded cohort ordering so
  different seeds still explore distinct interleavings.

Determinism contract: a (policy, seed) pair fully determines the run.
RNG draws happen only at *actual* choice points — a singleton candidate
set or cohort consumes no draw, and deferral/freeze decisions (which
stay canonical: they gate *when* a wildcard may match, not *what* it
matches) consume no draw — so any loop that reaches the same choice
points in the same order (the test-only reference loop included)
replays the same draw sequence.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.sim.matching import _Message, _PendingRecv, arrival_est

#: the recognized policy names, in CLI/choices order
POLICIES = ("adversarial-delay", "canonical", "random")

#: policies that accept (and require, to be explored) a seed
SEEDED_POLICIES = ("adversarial-delay", "random")


class SchedulerPolicy:
    """One rule for the engine's two tie-break decision points.

    Subclasses implement :meth:`choose_match` (wildcard candidate
    selection) and :meth:`pick_rank` (same-clock cohort ordering).
    ``canonical`` is True only for :class:`CanonicalPolicy`, whose code
    paths the engine never routes through this object — the flag is how
    the drain and the executor decide whether to consult the policy at
    all.
    """

    name = "policy"
    canonical = False

    def choose_match(self, pr: _PendingRecv,
                     cands: Sequence[_Message]) -> _Message:
        """The candidate message ``pr`` (an ANY_SOURCE receive) matches.

        ``cands`` is the reference candidate enumeration: the first
        tag-compatible unmatched message of each eligible channel, in
        ascending source order (see ``MatchIndex.candidates_for``) —
        every element is a legal match under MPI semantics.
        """
        raise NotImplementedError

    def pick_rank(self, ranks: List[int]) -> int:
        """The rank that runs next out of ``ranks`` — the runnable ranks
        tied at the smallest virtual clock, in ascending order."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human rendering for reports and logs."""
        return self.name


class CanonicalPolicy(SchedulerPolicy):
    """Today's deterministic order (earliest arrival, lowest rank).

    Production runs never call these methods (canonical runs keep the
    candidate-heap drain and the inlined pop), but they implement the
    same order: the test-only reference loop's full-scan drain picks
    through this policy as its oracle.
    """

    name = "canonical"
    canonical = True

    def choose_match(self, pr, cands):
        """Earliest (arrival estimate, source, sequence) candidate."""
        return min(cands, key=lambda msg: (
            arrival_est(msg, pr.post_time), msg.src, msg.seq))

    def pick_rank(self, ranks):
        """Lowest rank first."""
        return ranks[0]


class RandomPolicy(SchedulerPolicy):
    """Seeded uniform choice at every decision point (simsched-style)."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose_match(self, pr, cands):
        """Uniform over the legal candidates; no draw for singletons."""
        if len(cands) == 1:
            return cands[0]
        return self._rng.choice(cands)

    def pick_rank(self, ranks):
        """Uniform over the tied ranks; no draw for singletons."""
        if len(ranks) == 1:
            return ranks[0]
        return self._rng.choice(ranks)

    def describe(self):
        """Name plus the seed that reproduces the run."""
        return f"{self.name}(seed={self.seed})"


class AdversarialDelayPolicy(SchedulerPolicy):
    """Maximize receiver wait: always match the last-arriving candidate.

    The match choice is deterministic (latest ``(est, src, seq)``), so
    the seed only drives cohort ordering — that is what lets different
    seeds reach different wildcard races to be adversarial *about*.
    """

    name = "adversarial-delay"

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose_match(self, pr, cands):
        """Latest (arrival estimate, source, sequence) candidate."""
        return max(cands, key=lambda msg: (
            arrival_est(msg, pr.post_time), msg.src, msg.seq))

    def pick_rank(self, ranks):
        """Seeded uniform over the tied ranks; no draw for singletons."""
        if len(ranks) == 1:
            return ranks[0]
        return self._rng.choice(ranks)

    def describe(self):
        """Name plus the seed that reproduces the run."""
        return f"{self.name}(seed={self.seed})"


def resolve_policy(policy=None,
                   schedule_seed: Optional[int] = None) -> SchedulerPolicy:
    """A fresh :class:`SchedulerPolicy` from a spec, validated up front.

    ``policy`` may be None (canonical), a policy name from
    :data:`POLICIES`, or an already-built :class:`SchedulerPolicy`
    (passed through; ``schedule_seed`` must then be None).  Invalid
    names, a seed on the canonical policy, and a missing/non-int seed on
    a seeded policy all raise :class:`ValueError` here — at construction
    — rather than deep inside a run.  A *fresh* instance is returned for
    named seeded policies because the RNG is per-run state.
    """
    if isinstance(policy, SchedulerPolicy):
        if schedule_seed is not None:
            raise ValueError(
                "schedule_seed cannot be combined with an already-built "
                f"policy object ({policy.describe()}); seed the policy "
                "at construction instead")
        return policy
    if policy is None:
        policy = "canonical"
    if not isinstance(policy, str) or policy not in POLICIES:
        raise ValueError(
            f"unknown schedule policy {policy!r}: expected one of "
            f"{POLICIES} (see docs/FUZZING.md)")
    if policy == "canonical":
        if schedule_seed is not None:
            raise ValueError(
                "schedule_seed is meaningless for the canonical policy; "
                f"pick a seeded policy from {SEEDED_POLICIES} or drop "
                "the seed")
        return CanonicalPolicy()
    seed = 0 if schedule_seed is None else schedule_seed
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(
            f"schedule_seed must be an int, got {schedule_seed!r}")
    if policy == "random":
        return RandomPolicy(seed)
    return AdversarialDelayPolicy(seed)
