"""Smoke test of how the benchmark harness in perfbench/ couples to hqca.

The harness's traced runs rebuild the stepping loop from public calls
(perfbench/spans.py), its verify workload wraps hqca.cli's verify calls by
name (perfbench/worker.py), and its workload inputs and oracles import
hqca names directly (perfbench/workloads.py).  A refactor that breaks any
of them shows up here, not only in a benchmark run.  The harness is
imported, never edited.
"""

from pathlib import Path

import pytest

from hqca import BuildSpec, StepBudget, build_initial, cli, rule_set, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import worker
    import workloads  # noqa: F401 - fails on a removed or renamed hqca name
    return spans, worker


@pytest.mark.parametrize("tier, budget, check_uog", [
    ("I", StepBudget(1000, "dead_end"), False),
    ("III", StepBudget(300, "step_limit"), True),
], ids=["tier1_dead_end", "tier3_300_check_uog"])
def test_step_tracer_walks_like_run(perfbench, example_circuit, random_work,
                                    tier, budget, check_uog):
    spans, _ = perfbench
    start = build_initial(BuildSpec(example_circuit, tier, random_work))
    traj = run(start, budget, check_uog=check_uog)
    tracer = spans.StepTracer(rule_set(tier))
    final, stop = tracer.run(start, budget.max_steps, check_uog=check_uog)
    assert tracer.labels == traj.labels
    assert tracer.sites == traj.sites
    assert stop == traj.stop_reason
    assert final.snapshot() == traj.final.snapshot()
    assert tracer.uog_violations == traj.uog_violations == []


def test_verify_calls_are_cli_attributes(perfbench):
    _, worker = perfbench
    assert [name for name in worker.VERIFY_CALLS
            if not hasattr(cli, name)] == []


def test_verify_suite_makes_one_cli_run(perfbench, tmp_path, monkeypatch):
    # worker.verify_suite fails the operation unless `hqca verify --suite
    # all` makes exactly one cli.run call, which checks the walk line with
    # no observer; verify_uog reads that run's check and reruns nothing,
    # and check_claim_b replays its record
    import workloads
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counted)
    path = tmp_path / "instance.txt"
    path.write_text(workloads.verify_instance_text(1), encoding="utf-8")
    code, text = workloads.call_verify(str(path))
    assert code == 0
    assert len(calls) == 1 and "keep_states" not in calls[0]
    assert calls[0].get("observer") is None
    # the benchmark's own output check: a renamed or missing CHECK line
    # fails here, not only in a benchmark run
    op = workloads.Op("verify_suite")
    workloads.check_verify_output(code, text, op)
    assert op.ok, op.error


def test_wide_period_observer_reads_the_view(perfbench, example_circuit,
                                             monkeypatch):
    # workloads.check_wide_period's observer calls state.config_equal(start)
    # on the ChainState that run() hands it, built once per observed step
    # through chain_state(); a start whose configuration does not recur
    # after the predicted cycle must fail it
    import workloads
    from hqca import engine
    built = []
    orig = engine._Cursor.chain_state

    def counted(cur):
        built.append(cur)
        return orig(cur)

    monkeypatch.setattr(engine._Cursor, "chain_state", counted)
    op = workloads.Op("period")
    workloads.check_wide_period(build_initial(workloads.wide_spec(1)), op)
    assert op.ok, op.error
    # one per observed step, and the final state: run() builds no other
    assert len(built) == workloads.wide_period() + 1
    op = workloads.Op("period")
    workloads.check_wide_period(
        build_initial(BuildSpec(example_circuit, "II")), op)
    assert not op.ok
