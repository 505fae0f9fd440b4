"""Execution tests: compiled coNCePTuaL programs running on the simulator."""

import pytest

from repro import obs
from repro.conceptual import ConceptualProgram
from repro.errors import ConceptualSemanticError, SimulationError
from repro.mpi import RecordingHook
from repro.sim import SimpleModel


def run(text, nranks, hooks=None):
    prog = ConceptualProgram.from_source(text)
    return prog.run(nranks, model=SimpleModel(), hooks=hooks)


def run_with_events(text, nranks):
    hook = RecordingHook()
    result, logs = run(text, nranks, hooks=[hook])
    return result, logs, hook.events


class TestPaperExample:
    def test_ring_benchmark_runs_and_logs(self):
        text = '''
        FOR 100 REPETITIONS {
          ALL TASKS RESET THEIR COUNTERS THEN
          ALL TASKS t ASYNCHRONOUSLY SEND A 1 KILOBYTE MESSAGE
            TO TASK (t+1) MOD num_tasks THEN
          ALL TASKS AWAIT COMPLETION THEN
          ALL TASKS LOG THE MEDIAN OF elapsed_usecs AS "Time (us)"
        }
        '''
        result, logs, events = run_with_events(text, 8)
        sends = [e for e in events if e.op == "Isend"]
        recvs = [e for e in events if e.op == "Irecv"]
        assert len(sends) == 100 * 8
        assert len(recvs) == 100 * 8
        assert all(e.nbytes == 1024 for e in sends)
        # 8 ranks x 100 repetitions of the LOG statement
        assert len(logs.samples("Time (us)")) == 800
        assert logs.value("Time (us)") > 0


class TestPointToPoint:
    def test_sync_send_pairs_implicitly(self):
        text = "TASK 0 SENDS A 256 BYTE MESSAGE TO TASK 1"
        _, _, events = run_with_events(text, 2)
        ops = sorted(e.op for e in events if e.op in ("Send", "Recv"))
        assert ops == ["Recv", "Send"]

    def test_unsuspecting_send_with_explicit_receive(self):
        text = ('TASK 0 SENDS A 256 BYTE MESSAGE TO UNSUSPECTING TASK 1 THEN '
                'TASK 1 RECEIVES A 256 BYTE MESSAGE FROM TASK 0')
        _, _, events = run_with_events(text, 2)
        assert [e.op for e in events if e.op in ("Send", "Recv")] in (
            ["Send", "Recv"], ["Recv", "Send"])

    def test_receive_from_any_resolves(self):
        text = ('TASK 1 SENDS A 64 BYTE MESSAGE TO UNSUSPECTING TASK 0 THEN '
                'TASK 0 RECEIVES A 64 BYTE MESSAGE FROM ANY TASK')
        _, _, events = run_with_events(text, 3)
        recv = [e for e in events if e.op == "Recv"][0]
        assert recv.matched_source == 1

    def test_message_count_multiplies(self):
        text = "TASK 0 SENDS 4 32 BYTE MESSAGES TO TASK 1"
        _, _, events = run_with_events(text, 2)
        assert len([e for e in events if e.op == "Send"]) == 4

    def test_task_variable_in_dest_and_size(self):
        text = ("TASKS t SUCH THAT t < 2 ASYNCHRONOUSLY SEND A "
                "(t + 1) * 100 BYTES MESSAGE TO TASK t + 2 THEN "
                "ALL TASKS AWAIT COMPLETION")
        _, _, events = run_with_events(text, 4)
        sends = sorted((e.rank, e.peer, e.nbytes) for e in events
                       if e.op == "Isend")
        assert sends == [(0, 2, 100), (1, 3, 200)]

    def test_tags_respected(self):
        text = ('TASK 0 SENDS A 8 BYTE MESSAGE TO UNSUSPECTING TASK 1 '
                'WITH TAG 5 THEN '
                'TASK 0 SENDS A 16 BYTE MESSAGE TO UNSUSPECTING TASK 1 '
                'WITH TAG 6 THEN '
                'TASK 1 RECEIVES A 16 BYTE MESSAGE FROM TASK 0 WITH TAG 6 '
                'THEN '
                'TASK 1 RECEIVES A 8 BYTE MESSAGE FROM TASK 0 WITH TAG 5')
        _, _, events = run_with_events(text, 2)
        recvs = [e for e in events if e.op == "Recv"]
        assert [r.nbytes for r in recvs] == [16, 8]


class TestCollectives:
    def test_multicast_single_source_is_bcast(self):
        text = "TASK 0 MULTICASTS A 1 KILOBYTE MESSAGE TO ALL TASKS"
        _, _, events = run_with_events(text, 4)
        bcasts = [e for e in events if e.op == "Bcast"]
        assert len(bcasts) == 4
        assert all(e.nbytes == 1024 for e in bcasts)

    def test_multicast_all_to_all(self):
        text = "ALL TASKS MULTICAST A 256 BYTE MESSAGE TO ALL TASKS"
        _, _, events = run_with_events(text, 4)
        a2a = [e for e in events if e.op == "Alltoall"]
        assert len(a2a) == 4

    def test_reduce_to_single_task(self):
        text = "ALL TASKS REDUCE A 8 BYTE VALUE TO TASK 0"
        _, _, events = run_with_events(text, 4)
        reds = [e for e in events if e.op == "Reduce"]
        assert len(reds) == 4
        assert all(e.root == 0 for e in reds)

    def test_reduce_to_all_is_allreduce(self):
        text = "ALL TASKS REDUCE A 8 BYTE VALUE TO ALL TASKS"
        _, _, events = run_with_events(text, 4)
        assert len([e for e in events if e.op == "Allreduce"]) == 4

    def test_reduce_subset_to_subset_root_plus_bcast(self):
        text = ("TASKS t SUCH THAT t < 3 REDUCE A 8 BYTE VALUE TO "
                "TASKS u SUCH THAT u >= 3")
        _, _, events = run_with_events(text, 6)
        assert any(e.op == "Reduce" for e in events)
        assert any(e.op == "Bcast" for e in events)

    def test_subset_synchronize(self):
        text = "TASKS t SUCH THAT t MOD 2 = 0 SYNCHRONIZE"
        _, _, events = run_with_events(text, 6)
        barriers = [e for e in events if e.op == "Barrier"]
        assert sorted(e.rank for e in barriers) == [0, 2, 4]

    def test_reduce_paper_predicate(self):
        text = ("TASKS xyz SUCH THAT 3 DIVIDES xyz REDUCE A DOUBLEWORD "
                "VALUE TO TASK 0")
        _, _, events = run_with_events(text, 9)
        reds = [e for e in events if e.op == "Reduce"]
        assert sorted(e.rank for e in reds) == [0, 3, 6]


class TestControlFlow:
    def test_for_each_binds_variable(self):
        text = ("FOR EACH i IN {1, ..., 3} TASK 0 SENDS A i * 10 BYTES "
                "MESSAGE TO TASK 1")
        _, _, events = run_with_events(text, 2)
        sizes = [e.nbytes for e in events if e.op == "Send"]
        assert sizes == [10, 20, 30]

    def test_if_on_loop_variable(self):
        text = ('FOR EACH i IN {0, ..., 3} { IF i MOD 2 = 0 THEN TASK 0 '
                'SENDS A 10 BYTE MESSAGE TO TASK 1 OTHERWISE TASK 0 SENDS '
                'A 20 BYTE MESSAGE TO TASK 1 }')
        _, _, events = run_with_events(text, 2)
        sizes = [e.nbytes for e in events if e.op == "Send"]
        assert sizes == [10, 20, 10, 20]

    def test_nested_loops(self):
        text = ('FOR 2 REPETITIONS { FOR 3 REPETITIONS { ALL TASKS '
                'SYNCHRONIZE } }')
        _, _, events = run_with_events(text, 2)
        assert len([e for e in events if e.op == "Barrier"]) == 2 * 3 * 2

    def test_compute_advances_time(self):
        result, _ = run("ALL TASKS COMPUTE FOR 1500 MICROSECONDS", 2)
        assert result.total_time >= 1.5e-3


class TestLoopBudget:
    """With ``max_steps`` set, every rank's loop iterations count against
    it too: the engine's steps are MPI operations, which a loop whose
    iterations issue none never takes."""

    RUNAWAY = ("FOR EACH v IN {0, ..., 99999999999} { IF v = 5 THEN "
               "{ TASK 0 COMPUTES FOR 1 MICROSECONDS } }")

    @pytest.mark.parametrize("text, max_steps", [
        (RUNAWAY, 1000),
        ("FOR 99999999999 REPETITIONS ALL TASKS RESET THEIR COUNTERS",
         1000),
        # a per-iteration (unrolled) form: 4 iterations, 2 allowed
        ("FOR EACH v IN {0, ..., 3} { IF v = 1 THEN TASK 0 COMPUTES "
         "FOR 1 MICROSECONDS }", 2),
    ])
    def test_loops_past_max_steps_raise(self, text, max_steps):
        prog = ConceptualProgram.from_source(text)
        with pytest.raises(SimulationError, match="max_steps"):
            prog.run(2, model=SimpleModel(), max_steps=max_steps)

    def test_loops_within_max_steps_run_as_without_it(self):
        text = self.RUNAWAY.replace("99999999999", "99")
        prog = ConceptualProgram.from_source(text)
        free, _ = prog.run(2, model=SimpleModel())
        bounded, _ = prog.run(2, model=SimpleModel(), max_steps=100)
        assert bounded.total_time == free.total_time >= 1e-6


class TestCountersAndLogs:
    def test_elapsed_usecs_measures_since_reset(self):
        text = ('ALL TASKS COMPUTE FOR 9999 MICROSECONDS THEN '
                'ALL TASKS RESET THEIR COUNTERS THEN '
                'ALL TASKS COMPUTE FOR 500 MICROSECONDS THEN '
                'ALL TASKS LOG THE MEAN OF elapsed_usecs AS "T"')
        _, logs = run(text, 2)
        assert logs.value("T") == pytest.approx(500, rel=0.01)

    def test_bytes_sent_counter(self):
        text = ('ALL TASKS RESET THEIR COUNTERS THEN '
                'TASK 0 SENDS A 1 KILOBYTE MESSAGE TO TASK 1 THEN '
                'TASK 0 LOGS THE SUM OF bytes_sent AS "B"')
        _, logs = run(text, 2)
        assert logs.value("B") == 1024

    def test_report_renders(self):
        text = 'ALL TASKS LOG THE MAXIMUM OF msgs_sent AS "count"'
        _, logs = run(text, 2)
        assert "count" in logs.report()

    def test_canonical_source_property(self):
        prog = ConceptualProgram.from_source("ALL TASKS SYNCHRONIZE")
        assert "SYNCHRONIZE" in prog.source


class TestSemanticErrors:
    def test_unbound_variable(self):
        with pytest.raises(ConceptualSemanticError):
            ConceptualProgram.from_source(
                "ALL TASKS COMPUTE FOR bogus MICROSECONDS")

    def test_unknown_counter(self):
        with pytest.raises(ConceptualSemanticError):
            ConceptualProgram.from_source(
                'ALL TASKS LOG THE MEAN OF warp_factor AS "w"')

    def test_task_out_of_range_at_runtime(self):
        prog = ConceptualProgram.from_source(
            "TASK 9 SENDS A 1 BYTE MESSAGE TO TASK 0")
        with pytest.raises(ConceptualSemanticError):
            prog.run(2, model=SimpleModel())

    def test_loop_variable_scoping(self):
        # i out of scope after the loop
        with pytest.raises(ConceptualSemanticError):
            ConceptualProgram.from_source(
                "FOR EACH i IN {0, ..., 2} ALL TASKS SYNCHRONIZE THEN "
                "ALL TASKS COMPUTE FOR i MICROSECONDS")


class TestTypedRuntimeErrors:
    """Arithmetic faults raise ConceptualSemanticError naming the
    statement's call site, when execution reaches the statement."""

    @pytest.mark.parametrize("text, cause, site", [
        ("ALL TASKS COMPUTE FOR 1/0 MICROSECONDS", ZeroDivisionError, 0),
        ("ALL TASKS t SEND A 4 BYTE MESSAGE TO TASK t MOD 0",
         ZeroDivisionError, 0),
        ("FOR 1e400 REPETITIONS { ALL TASKS SYNCHRONIZE }",
         OverflowError, 0),
        ("ALL TASKS SYNCHRONIZE THEN TASK 1 COMPUTES FOR 1 MOD 0 "
         "MICROSECONDS", ZeroDivisionError, 1),
    ])
    def test_fault_is_typed_and_names_the_call_site(self, text, cause, site):
        prog = ConceptualProgram.from_source(text, name="faulty")
        with pytest.raises(ConceptualSemanticError) as info:
            prog.run(2, model=SimpleModel())
        assert isinstance(info.value.__cause__, cause)
        assert f"faulty:{site}:" in str(info.value)

    def test_fault_surfaces_after_the_preceding_statements_ran(self):
        hook = RecordingHook()
        prog = ConceptualProgram.from_source(
            "ALL TASKS SYNCHRONIZE THEN "
            "ALL TASKS COMPUTE FOR 1/0 MICROSECONDS")
        with pytest.raises(ConceptualSemanticError):
            prog.run(2, model=SimpleModel(), hooks=[hook])
        assert {e.op for e in hook.events} == {"Barrier"}

    @pytest.mark.parametrize("stmt", [
        "TASK 99 SENDS A 1 BYTE MESSAGE TO TASK 0",
        "TASK 99 COMPUTES FOR 1/0 MICROSECONDS",
    ])
    def test_unreached_fault_never_raises(self, stmt):
        result, _ = run(f"IF 0 = 1 THEN {stmt} "
                        "THEN ALL TASKS COMPUTE FOR 5 MICROSECONDS", 2)
        assert result.total_time >= 5e-6
        assert result.messages_sent == 0

    def test_fault_in_a_loop_raises_only_when_reached(self):
        text = ("FOR EACH i IN {0, ..., 2} IF i = 2 THEN "
                "TASK 0 COMPUTES FOR 1 / (i - 2) MICROSECONDS")
        with pytest.raises(ConceptualSemanticError):
            run(text, 2)
        run(text.replace("i = 2", "i = 5"), 2)  # never reached: no error


class TestSpecialisation:
    def test_each_rank_keeps_only_its_statements(self):
        prog = ConceptualProgram.from_source(
            "FOR EACH i IN {0, ..., 3} { "
            "IF i = 0 THEN { TASK 0 SENDS A 8 BYTE MESSAGE TO UNSUSPECTING "
            "TASK 1 } THEN "
            "IF i = 0 THEN { TASK 1 RECEIVES A 8 BYTE MESSAGE FROM TASK 0 } "
            "} THEN ALL TASKS SYNCHRONIZE")
        bodies = prog.specialise(4)
        # ranks 0 and 1: FOR EACH, IF, leaf + SYNCHRONIZE; 2 and 3: only
        # the SYNCHRONIZE
        assert [len(body) for body in bodies] == [2, 2, 1, 1]
        assert prog.specialise(4) is bodies  # once per rank count

    def test_specialise_span_and_rank_statement_counter(self):
        inst = obs.Instrumentation()
        prog = ConceptualProgram.from_source(
            "TASK 0 SENDS A 1 BYTE MESSAGE TO TASK 1 THEN "
            "ALL TASKS SYNCHRONIZE")
        with obs.instrumented(inst):
            prog.run(4, model=SimpleModel())
            prog.run(4, model=SimpleModel())
        assert inst.span_totals()["conceptual.specialise"][0] == 1
        # the send on ranks 0 and 1, the barrier on all four
        assert inst.counters["conceptual.rank_statements"] == 6


class TestDeterminism:
    def test_identical_runs(self):
        text = '''
        FOR 50 REPETITIONS {
          ALL TASKS t ASYNCHRONOUSLY SEND A 2 KILOBYTE MESSAGE
            TO TASK (t+1) MOD num_tasks THEN
          ALL TASKS AWAIT COMPLETION
        } THEN ALL TASKS LOG THE FINAL OF elapsed_usecs AS "T"
        '''
        t1 = run(text, 8)[0].total_time
        t2 = run(text, 8)[0].total_time
        assert t1 == t2
