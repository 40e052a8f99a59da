import os
import time

import pytest

from hqca import (REVERSE, StepBudget, active_sites, applicable,
                  build_initial, clock_value, parse_instance_text, rules, run)
from hqca.cli import main

TIER1 = """n=3
k=2
round 1: W S
round 2: S W
work=000
construction=I
"""

TIER2 = TIER1.replace("construction=I", "construction=II")

TIER3 = TIER1.replace("construction=I", "construction=III")

TIER4 = TIER1.replace("construction=I",
                      "construction=IV\ntarget=3\nbullet_offset=3")


def write(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_compile_prints_start_state(tmp_path, capsys):
    rc = main(["compile", write(tmp_path, TIER1)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "P: → S W I I W S I • • • • • •" in out
    assert "D: 1 0 0 0 1 ? ? ? 1 0 0 0 1 0" in out
    assert "total 20, quoted 20: MATCH" in out


def test_compile_tier3_audit_flags(tmp_path, capsys):
    rc = main(["compile", write(tmp_path,
                                TIER1.replace("construction=I",
                                              "construction=III"))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "C: • 0 1 1 1 1 1 1 1 1 1 1 1 1 1 1" in out
    assert "510" in out and "480" in out and "MISMATCH" in out


def test_compile_parse_error_exit_2(tmp_path, capsys):
    rc = main(["compile", write(tmp_path, "n=3\nk=1\nround 1: W\n")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "round 1" in err


def test_run_tier1_summary(tmp_path, capsys):
    rc = main(["run", write(tmp_path, TIER1), "--budget", "500"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "steps=93 status=dead_end" in out


def test_run_tier2_budget(tmp_path, capsys):
    rc = main(["run", write(tmp_path, TIER2), "--budget", "188"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "steps=188 status=step_limit" in out


def test_run_tier4_rx_marker(tmp_path, capsys):
    rc = main(["run", write(tmp_path, TIER4), "--budget", "8000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("marker Rx") == 1
    assert "clock=3" in out


def test_run_trace_deterministic(tmp_path, capsys):
    inst = write(tmp_path, TIER1)
    t1, t2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    main(["run", inst, "--budget", "200", "--trace", str(t1)])
    out1 = capsys.readouterr().out
    main(["run", inst, "--budget", "200", "--trace", str(t2)])
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert t1.read_bytes() == t2.read_bytes()


def test_run_ambiguous_exit_1_keeps_the_trace(tmp_path, capsys, monkeypatch):
    # a copy 2x of rule 2 makes step 1 ambiguous: the run exits 1 with one
    # error line, and the trace keeps the line of step 0 written before it
    r2 = rules.rule_set("I").by_label["2"]
    dup = rules.Rule("2x", "I", r2.lhs, r2.rhs, r2.gate)
    monkeypatch.setitem(rules._RULESET_CACHE, "I", rules.RuleSet(
        "I", rules.rule_set("I").rules + (dup,)))
    trace = tmp_path / "t.tsv"
    rc = main(["run", write(tmp_path, TIER1), "--trace", str(trace)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ambiguous transition: 2 forward matches:"
        " [('2', 2), ('2x', 2)]\n")
    (line,) = trace.read_text(encoding="utf-8").splitlines()
    assert line.split("\t")[:4] == ["0", "1", "1", "P:→S"]


@pytest.mark.parametrize("text,tier,label,site,suite", [
    pytest.param(TIER1, "I", "2", 2, "uog", id="uog"),
    pytest.param(TIER1, "I", "2", 2, "all", id="all"),
    pytest.param(TIER1, "I", "2", 2, "backends", id="backends"),
    pytest.param(TIER3, "III", "17", 4, "clock", id="clock"),
    pytest.param(TIER4, "IV", "27", 5, "comparator", id="comparator"),
    # the main run stops before rule 27 fires; the comparator sweep meets it
    pytest.param(TIER4 + "budget=100\n", "IV", "27", 5, "all",
                 id="all-comparator")])
def test_verify_ambiguous_exit_1(tmp_path, capsys, monkeypatch, text, tier,
                                 label, site, suite):
    # a copy of a rule the suite's runs fire, under a suite alone and under
    # all: one error line naming the ambiguity, exit 1, no traceback
    rule = rules.rule_set(tier).by_label[label]
    dup = rules.Rule(label + "x", tier, rule.lhs, rule.rhs, rule.gate)
    monkeypatch.setitem(rules._RULESET_CACHE, tier, rules.RuleSet(
        tier, rules.rule_set(tier).rules + (dup,)))
    assert main(["verify", write(tmp_path, text), "--suite", suite]) == 1
    assert capsys.readouterr() == ("", (
        "error: ambiguous transition: 2 forward matches:"
        f" [('{label}', {site}), ('{label}x', {site})]\n"))


def _gate_fault(monkeypatch):
    """From a cold tier-I block store, the run's first gate (record step
    9, a single step) raises NonClassicalGateError."""
    from hqca import engine
    monkeypatch.setitem(rules._RULESET_CACHE, "I", rules.RuleSet(
        "I", rules.rule_set("I").rules))
    effect, calls = engine._apply_gate_effect, []

    def first_raises(state, kind, i, adjoint):
        calls.append(i)
        if len(calls) == 1:
            raise rules.NonClassicalGateError(f"gate {kind} at {i} doctored")
        return effect(state, kind, i, adjoint)

    monkeypatch.setattr(engine, "_apply_gate_effect", first_raises)


@pytest.mark.parametrize("argv", [
    ["run"], ["walk", "--samples", "10"], ["verify", "--suite", "all"],
    ["verify", "--suite", "oracle"]], ids=["run", "walk", "verify", "oracle"])
def test_a_gate_off_the_basis_exits_1(tmp_path, capsys, monkeypatch, argv):
    # an engine fault other than an ambiguity, met in the command's run:
    # one error line, exit 1, no traceback
    _gate_fault(monkeypatch)
    assert main([argv[0], write(tmp_path, TIER1), *argv[1:]]) == 1
    assert capsys.readouterr() == ("", "error: gate I at 8 doctored\n")


def test_a_gate_off_the_basis_keeps_the_trace(tmp_path, capsys, monkeypatch):
    # the trace keeps the lines of steps 0-8, written before the fault
    _gate_fault(monkeypatch)
    trace = tmp_path / "t.tsv"
    rc = main(["run", write(tmp_path, TIER1), "--trace", str(trace)])
    assert rc == 1
    assert capsys.readouterr().err == "error: gate I at 8 doctored\n"
    steps = [ln.split("\t")[0]
             for ln in trace.read_text(encoding="utf-8").splitlines()]
    assert steps == [str(t) for t in range(9)]


def test_a_gate_off_the_basis_fails_the_backend_check(tmp_path, capsys,
                                                      monkeypatch):
    # the backend check compares the 9 steps before the fault and fails
    # with the error as its detail
    _gate_fault(monkeypatch)
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "backends"])
    assert rc == 1
    assert capsys.readouterr() == (
        "CHECK backend_equivalence FAIL steps=9 max|dv|=0.00e+00 <=1e-10\n"
        "  t=9: gate I at 8 doctored\n", "")


def test_walk_tier4_line_is_the_whole_path(tmp_path, capsys):
    # the built tier-IV start is an end of its path, so the walk line is
    # the path: the forward steps to the dead end plus 1
    text = TIER4 + "budget=8000\n"
    start = build_initial(parse_instance_text(text).spec)
    assert applicable(start, REVERSE, full_scan=True) == []
    traj = run(start, StepBudget(8000))
    assert traj.stop_reason == "dead_end" and traj.n_steps == 6738
    rc = main(["walk", write(tmp_path, text), "--samples", "10"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "line l=6739"


@pytest.mark.parametrize("text", [TIER3, TIER4], ids=["III", "IV"])
def test_trace_columns_read_each_state(tmp_path, capsys, text):
    inst = write(tmp_path, text)
    trace = tmp_path / "t.tsv"
    assert main(["run", inst, "--budget", "600", "--trace", str(trace)]) == 0
    traj = run(build_initial(parse_instance_text(text).spec),
               StepBudget(600, "dead_end"))
    lines = trace.read_text(encoding="utf-8").splitlines()
    states = traj.iter_states()
    next(states)  # each line describes the state after its step
    for line, st in zip(lines, states, strict=True):
        _, _, _, active, clock, digest = line.split("\t")
        (_, reg, sym), = active_sites(st)
        assert active == f"{reg}:{sym}" and clock == str(clock_value(st))
        assert digest == f"{st.digest():016x}"


def test_run_unwritable_trace_exit_2(tmp_path, capsys):
    trace = tmp_path / "missing" / "t.tsv"
    rc = main(["run", write(tmp_path, TIER1), "--trace", str(trace)])
    captured = capsys.readouterr()
    assert rc == 2
    # the run never started
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_walk_two_site(tmp_path, capsys):
    rc = main(["walk", write(tmp_path, TIER1), "--length", "2",
               "--tau", "1.5707963", "--samples", "100", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    # at tau = pi/2 all probability sits on position 1
    p1 = [l for l in out.splitlines() if l.startswith("1 ")][0]
    assert float(p1.split()[1]) > 1.0 - 1e-9


def test_walk_dump_lists_the_time_average(tmp_path, capsys):
    # --dump appends one `m p(m)` line per position of the time-averaged
    # distribution to the report; its distance from the limiting
    # distribution is the reported one
    argv = ["walk", write(tmp_path, TIER1), "--length", "4", "--samples",
            "10", "--seed", "1"]
    assert main(argv) == 0
    report = capsys.readouterr().out.splitlines()
    assert main(argv + ["--dump"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:len(report)] == report and len(out) == len(report) + 4
    rows = [line.split() for line in out[len(report):]]
    assert [m for m, _ in rows] == ["0", "1", "2", "3"]
    p = [float(v) for _, v in rows]
    limit = [3 / 10, 2 / 10, 2 / 10, 3 / 10]  # (2 + [end]) / (2 (l + 1))
    tv = 0.5 * sum(abs(a - b) for a, b in zip(p, limit))
    assert abs(sum(p) - 1) < 1e-9
    assert f"tv_to_limiting={tv:.6f}" in report


def test_walk_instance_tau(tmp_path, capsys):
    inst = write(tmp_path, TIER1 + "tau=3.0\n")
    rc = main(["walk", inst, "--length", "4", "--samples", "10"])
    out = capsys.readouterr().out
    assert rc == 0 and "p_tau tau=3.0" in out
    # the flag wins over the key
    rc = main(["walk", inst, "--length", "4", "--samples", "10",
               "--tau", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0 and "p_tau tau=1.0" in out and "tau=3.0" not in out


def test_walk_without_dead_end_exit_2(tmp_path, capsys):
    # tier II never dead-ends, so the budget, not the chain, ends the run
    rc = main(["walk", write(tmp_path, TIER2 + "budget=50\n"),
               "--samples", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "line l=" not in captured.out
    assert "50-step limit" in captured.err and "--length" in captured.err


def test_walk_zero_samples_rejected(tmp_path, capsys):
    rc = main(["walk", write(tmp_path, TIER1), "--length", "4",
               "--samples", "0"])
    assert rc == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that is always full")
def test_run_trace_write_failure_exit_2(tmp_path, capsys):
    # the trace buffer is flushed, and fails, only when the file closes
    rc = main(["run", write(tmp_path, TIER1), "--trace", "/dev/full"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_verify_suites(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "uog"])
    out = capsys.readouterr().out
    assert rc == 0 and "CHECK uog PASS" in out
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "clock",
               "--l-bits", "4"])
    out = capsys.readouterr().out
    assert rc == 0 and "CHECK clock_counter[4b] PASS" in out
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "nonsense"])
    assert rc == 2


def test_verify_uog_fails_without_a_reverse_rule(tmp_path, capsys,
                                                 monkeypatch):
    # negative control of the rerun's check: the cached tier-I rule set
    # loses rule 5a's reverse side, so the forward run is unchanged and
    # every state that 5a reaches has no reverse match
    from hqca.rules import _RULESET_CACHE, REVERSE, RuleSet, rule_set
    rs = RuleSet("I", rule_set("I").rules)
    rs._index[REVERSE] = {s: [(r, off) for r, off in cands if r.label != "5a"]
                          for s, cands in rs._index[REVERSE].items()}
    monkeypatch.setitem(_RULESET_CACHE, "I", rs)
    fired = run(build_initial(parse_instance_text(TIER1).spec),
                StepBudget(200)).marker_steps("5a")
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "all",
               "--l-bits", "3"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1 and fired
    assert out[0] == "CHECK uog FAIL states=94 clean"
    assert out[1].startswith("CHECK work_oracle PASS")
    # the report lists the first ten details
    assert out[5:] == [f"  ({t + 1}, '0 reverse matches')"
                       for t in fired][:10]


def test_verify_comparator_fails_without_rule_25(tmp_path, capsys,
                                                 monkeypatch):
    # a compare sweep with no verdict is a FAIL line with its pairs, not a
    # traceback
    from hqca.rules import _RULESET_CACHE, rule_set
    monkeypatch.setitem(_RULESET_CACHE, "IV", rule_set("IV").without("25"))
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "comparator",
               "--l-bits", "3"])
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert rc == 1 and captured.err == ""
    assert out[:2] == ["CHECK comparator[3b] FAIL pairs=64 exact",
                       "  k=0 x=1: no verdict, expected mismatch"]
    assert len(out) == 11


def test_verify_claim_b_fails_under_a_wrong_kernel(tmp_path, capsys,
                                                   monkeypatch):
    # negative control: the chain's gates run the transposed kernel (W is
    # not symmetric), the oracle's apply_round the right one
    from hqca import circuit, state
    path = write(tmp_path, TIER3.replace("work=000", "work=110")
                 + "budget=3000\n")
    assert main(["verify", path, "--suite", "oracle"]) == 0
    assert capsys.readouterr().out.startswith("CHECK claim_b PASS states=16")

    def transposed(amps, mat, q, n):
        return circuit._apply_two_qubit(amps, mat.T, q, n)

    monkeypatch.setattr(state, "_apply_two_qubit", transposed)
    assert main(["verify", path, "--suite", "oracle"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("CHECK claim_b FAIL states=16 k_max=15")
    assert out[1].startswith("  t=")


def test_run_snapshot_blocks(tmp_path, capsys):
    inst = write(tmp_path, TIER1)
    trace = tmp_path / "t.tsv"
    rc = main(["run", inst, "--snapshot-every", "10", "--trace", str(trace)])
    assert rc == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    # 93 steps: snapshots after steps 10, 20, ..., 90
    assert sum(ln.startswith("P: ") for ln in lines) == 9
    assert sum(ln.startswith("D: ") for ln in lines) == 9
    # the instance key does the same
    rc = main(["run", write(tmp_path, TIER1 + "snapshot_every=10\n", "b.txt"),
               "--trace", str(trace)])
    assert rc == 0
    assert trace.read_text(encoding="utf-8").splitlines() == lines


# `hqca verify --suite all --l-bits 3` stdout, byte for byte
VERIFY_ALL_TIER1 = """\
CHECK uog PASS states=94 clean
CHECK work_oracle PASS min_fidelity=1.000000000000 >=0.9999999999
CHECK clock_counter[3b] PASS increments=7+saturation exact
CHECK comparator[3b] PASS pairs=64 exact
CHECK backend_equivalence PASS steps=93 max|dv|=0.00e+00 <=1e-10
"""

# tier II's start closes a 188-step cycle of classical configurations
# (config_key leaves the work amplitudes out), so verify_uog reports every
# state after the first reset as a repeat
VERIFY_ALL_TIER2 = """\
CHECK uog FAIL states=401 clean
CHECK work_oracle PASS min_fidelity=1.000000000000 >=0.9999999999
CHECK clock_counter[3b] PASS increments=7+saturation exact
CHECK comparator[3b] PASS pairs=64 exact
CHECK backend_equivalence PASS steps=500 max|dv|=0.00e+00 <=1e-10
  (188, 'configuration equals state 0')
  (189, 'configuration equals state 1')
  (190, 'configuration equals state 2')
  (191, 'configuration equals state 3')
  (192, 'configuration equals state 4')
  (193, 'configuration equals state 5')
  (194, 'configuration equals state 6')
  (195, 'configuration equals state 7')
  (196, 'configuration equals state 8')
  (197, 'configuration equals state 9')
"""

VERIFY_ALL_TIER3 = """\
CHECK uog PASS states=3001 clean
CHECK claim_b PASS states=16 k_max=15 min_fidelity=1.000000000000 >=0.9999999999
CHECK clock_counter[3b] PASS increments=7+saturation exact
CHECK comparator[3b] PASS pairs=64 exact
CHECK backend_equivalence PASS steps=500 max|dv|=0.00e+00 <=1e-10
"""

VERIFY_ALL_TIER4 = """\
CHECK uog PASS states=6739 clean
CHECK claim_b PASS states=4 k_max=3 min_fidelity=1.000000000000 >=0.9999999999
CHECK clock_counter[3b] PASS increments=7+saturation exact
CHECK comparator[3b] PASS pairs=64 exact
CHECK backend_equivalence PASS steps=500 max|dv|=0.00e+00 <=1e-10
"""


def test_verify_all_tier1(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "all",
               "--l-bits", "3"])
    assert rc == 0
    assert capsys.readouterr() == (VERIFY_ALL_TIER1, "")


def test_verify_all_tier3(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, TIER3 + "budget=3000\n"), "--suite",
               "all", "--l-bits", "3"])
    assert rc == 0
    assert capsys.readouterr() == (VERIFY_ALL_TIER3, "")


def test_verify_all_tier2(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, TIER2 + "budget=400\n"), "--suite",
               "all", "--l-bits", "3"])
    assert rc == 1
    assert capsys.readouterr() == (VERIFY_ALL_TIER2, "")


def test_verify_all_tier4(tmp_path, capsys):
    # the run dead-ends at step 6738, inside the budget
    rc = main(["verify", write(tmp_path, TIER4 + "budget=8000\n"), "--suite",
               "all", "--l-bits", "3"])
    assert rc == 0
    assert capsys.readouterr() == (VERIFY_ALL_TIER4, "")


# the instances of the test_verify_all_* tests, with their budgets
VERIFY_INSTANCES = pytest.mark.parametrize("text", [
    TIER1, TIER2 + "budget=400\n", TIER3 + "budget=3000\n",
    TIER4 + "budget=8000\n"], ids=["I", "II", "III", "IV"])


@VERIFY_INSTANCES
def test_verify_uog_report_does_not_depend_on_the_suite(tmp_path, capsys,
                                                        text):
    # --suite uog checks the run alone, --suite all checks it and reads
    # claim B from its record.  Both print the same uog line and details
    # (tier II: FAIL with ten repeats), and no other suite here prints
    # details
    path = write(tmp_path, text)
    reports = []
    for suite in ("uog", "all"):
        main(["verify", path, "--suite", suite, "--l-bits", "3"])
        out = capsys.readouterr().out.splitlines()
        reports.append([ln for ln in out
                        if ln.startswith(("CHECK uog ", "  "))])
    assert reports[0] == reports[1]
    assert reports[0][0].startswith("CHECK uog ")


@VERIFY_INSTANCES
def test_verify_oracle_report_does_not_depend_on_the_suite(tmp_path, capsys,
                                                           text):
    # --suite oracle reads claim B from an unchecked run, --suite all from a
    # run under check_uog: both print the same claim_b or work_oracle line
    path = write(tmp_path, text)
    lines = []
    for suite in ("oracle", "all"):
        main(["verify", path, "--suite", suite, "--l-bits", "3"])
        lines.append([ln for ln in capsys.readouterr().out.splitlines()
                      if ln.startswith(("CHECK claim_b ",
                                        "CHECK work_oracle "))])
    assert len(lines[0]) == 1 and lines[0] == lines[1]


def _doctor_final(monkeypatch):
    """cli.run's record ends on a final state with one clock cell changed."""
    from hqca import cli

    def doctored(*args, **kwargs):
        traj = run(*args, **kwargs)
        row = list(traj.final.rows["C"])
        row[-1] = "10"[int(row[-1])]
        traj.final = traj.final.replace(rows={"C": tuple(row)})
        return traj

    monkeypatch.setattr(cli, "run", doctored)


def _doctor_block(monkeypatch):
    """From a cold block store, the first block the run replays writes one
    data cell wrong, a cell no later step reads."""
    from hqca import engine
    rs, orig, done = rules.rule_set("III"), engine._Cursor.replay, []
    monkeypatch.setattr(rs, "blocks", {})
    monkeypatch.setattr(rs, "stretches", set())

    def replay(cur, blocks, left, start):
        block = orig(cur, blocks, left, start)
        if block is not None and not done:
            done.append(block)
            cur.rows["D"][-1] = "10"[int(cur.rows["D"][-1])]
        return block

    monkeypatch.setattr(engine._Cursor, "replay", replay)


@pytest.mark.parametrize("doctor", [_doctor_final, _doctor_block],
                         ids=["final", "block"])
def test_claim_b_speaks_for_the_run(tmp_path, capsys, monkeypatch, doctor):
    # negative controls: the record's final state is not the state its
    # replay ends on.  Claim B fails with the replay's error, both from
    # check_claim_b and in hqca verify, with no traceback
    from hqca import cli
    from hqca.verify import check_claim_b
    text = TIER3 + "budget=3000\n"
    spec = parse_instance_text(text).spec
    doctor(monkeypatch)
    res = check_claim_b(cli.run(build_initial(spec), StepBudget(3000)),
                        spec.circuit)
    assert not res.passed
    assert res.details[-1] == "replay left the record at final state 3000"
    doctor(monkeypatch)  # a fresh doctor, for the run hqca verify makes
    assert main(["verify", write(tmp_path, text), "--suite", "oracle"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("CHECK claim_b FAIL ")
    assert out.splitlines()[1:] == [
        "  replay left the record at final state 3000"]


@pytest.mark.parametrize("suite", ["uog", "oracle", "all"])
def test_verify_runs_the_chain_once(tmp_path, capsys, monkeypatch, suite):
    # every run of the state cmd_verify builds, through cli.run or through
    # verify.run (verify_uog's rerun); the clock, comparator and backends
    # suites run chains they build themselves
    from hqca import cli, verify
    built, starts = [], []

    def counted(fn, calls):
        def call(first, *args, **kwargs):
            calls.append((first, kwargs))
            return fn(first, *args, **kwargs)
        return call

    def build(spec):
        built.append(build_initial(spec))
        return built[-1]

    monkeypatch.setattr(cli, "build_initial", build)
    monkeypatch.setattr(cli, "run", counted(cli.run, starts))
    monkeypatch.setattr(verify, "run", counted(verify.run, starts))
    assert main(["verify", write(tmp_path, TIER3 + "budget=3000\n"),
                 "--suite", suite, "--l-bits", "3"]) == 0
    capsys.readouterr()
    assert len(built) == 1
    # the one run passes no observer, so it replays blocks
    (kwargs,) = [kw for start, kw in starts if start is built[0]]
    assert kwargs.get("observer") is None


@pytest.mark.parametrize("text, line", [
    (TIER2, "CHECK work_oracle FAIL min_fidelity=1.000000000000"),
    (TIER3, "CHECK claim_b FAIL states=0 k_max=None"
            " min_fidelity=1.000000000000"),
    (TIER4, "CHECK claim_b FAIL states=0 k_max=None"
            " min_fidelity=1.000000000000"),
], ids=["II", "III", "IV"])
def test_verify_oracle_fails_without_a_checkpoint(tmp_path, capsys, text,
                                                  line):
    # 10 steps end before tier II's first reset (step 188) and before the
    # clearing prefix of tiers III/IV sets the clock: the oracle compares no
    # state
    rc = main(["verify", write(tmp_path, text + "budget=10\n"), "--suite",
               "oracle"])
    assert rc == 1
    assert capsys.readouterr() == (line + " >=0.9999999999\n", "")


def test_missing_file_exit_2(capsys):
    rc = main(["compile", "/nonexistent/instance.txt"])
    assert rc == 2


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setenv("HQCA_OUT", str(out))
    rc = main(["run", write(tmp_path, TIER1), "--budget", "20",
               "--trace", "t.tsv"])
    assert rc == 0
    assert (out / "t.tsv").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "{inst}", "--suite", "clock", "--l-bits", "2"],
    ["verify", "{inst}", "--suite", "comparator", "--l-bits", "0"],
    ["run", "{inst}", "--budget", "-3"],
    ["run", "{inst}", "--budget", "0"],
    ["run", "{inst}", "--snapshot-every", "0"],
    ["walk", "{inst}", "--length", "0"],
    ["walk", "{inst}", "--length", "4", "--samples", "-5"],
    ["walk", "{inst}", "--length", "4", "--seed", "-1"],
    ["walk", "{inst}", "--length", "4", "--tau-star", "-1"],
    ["walk", "{inst}", "--length", "4", "--tau-star", "nan"],
    ["walk", "{inst}", "--length", "4", "--tau-star", "inf"],
    ["walk", "{inst}", "--length", "4", "--fraction", "2"],
    ["walk", "{inst}", "--length", "4", "--fraction", "nan"],
    ["walk", "{inst}", "--length", "4", "--tau", "nan"],
    ["walk", "{inst}", "--length", "4", "--samples", "100000001"],
    ["walk", "{inst}", "--length", "10000001"],
    ["walk", "{inst}", "--length", "100000000000"],
    ["verify", "{inst}", "--suite", "clock", "--l-bits", "64"],
])
def test_bad_numbers_exit_2(tmp_path, capsys, argv):
    inst = write(tmp_path, TIER1)
    rc = main([a.format(inst=inst) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert "CHECK" not in captured.out and "Traceback" not in captured.err


def test_walk_cost_bound_exit_2(tmp_path, capsys):
    # 10^6 positions at the default 10^4 samples would sample for hours
    t0 = time.monotonic()
    rc = main(["walk", write(tmp_path, TIER1), "--length", "1000000"])
    err = capsys.readouterr().err
    assert rc == 2 and time.monotonic() - t0 < 1.0
    assert "10000 samples x line length 1000000" in err
    # without --length the bound applies once the run fixes l = 94
    rc = main(["walk", write(tmp_path, TIER1 + "samples=20000000\n")])
    captured = capsys.readouterr()
    assert rc == 2 and "line l=" not in captured.out
    assert "20000000 samples x line length 94" in captured.err


def test_verify_bad_instance_exit_2(tmp_path, capsys):
    # the backends suite alone used to reach the builder unguarded
    inst = write(tmp_path, TIER4.replace("target=3", "target=0"))
    rc = main(["verify", inst, "--suite", "backends"])
    assert rc == 2
    assert "line 7: target must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("text, line, message", [
    (TIER4.replace("target=3", "target=0"), 7, "target must be >= 1"),
    (TIER4.replace("bullet_offset=3", "bullet_offset=0"), 8,
     "bullet_offset must be >= 1"),
    (TIER4.replace("target=3", "target=999999"), 7,
     "target 999999 with bullet_offset 3 needs 23 sites, chain has 16"),
    (TIER4 + "budget=5\nbudget=7\n", 10, "budget given twice"),
    (TIER4.replace("=IV", "=III").replace("target=3", "target=-5"), 7,
     "target is a tier-IV key"),
    (TIER3 + "bullet_offset=0\n", 7, "bullet_offset is a tier-IV key"),
    (TIER1 + "bullet_offset=4\ntarget=2\n", 7,
     "bullet_offset is a tier-IV key"),
], ids=["target", "bullet_offset", "target_too_wide", "repeated_key",
        "target_off_tier_iv", "bullet_offset_off_tier_iv",
        "first_tier_iv_key_named"])
@pytest.mark.parametrize("argv", [["compile"], ["run"],
                                  ["walk", "--length", "4"], ["verify"]],
                         ids=lambda argv: argv[0])
def test_bad_instance_names_its_line(tmp_path, capsys, text, line, message,
                                     argv):
    inst = write(tmp_path, text)
    rc = main([argv[0], inst] + argv[1:])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    # one error line and no traceback
    assert captured.err.startswith(f"error: {inst}: line {line}: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text, line, message", [
    (TIER1.replace("round 2: S W", "round 2 S W"), 4,
     "round line needs a ':'"),
    (TIER1.replace("round 2:", "round two:"), 4,
     "bad round header 'round two'"),
    (TIER1 + "budget 5\n", 7, "cannot parse 'budget 5'"),
    (TIER1.replace("construction=I", "construction=V"), 6,
     "unknown construction 'V'"),
    (TIER1.replace("n=3\n", ""), 0, "missing n="),
    (TIER1.replace("round 2: S W\n", ""), 0, "missing round 2"),
    (TIER1 + "round 3: W W\n", 7, "round 3 out of range 1..2"),
    (TIER1.replace("work=000", "work=00"), 5,
     "work bitstring length 2 != n=3"),
    (TIER1.replace("construction=I", "construction=IV"), 6,
     "construction IV needs target=<int>"),
], ids=["round_colon", "round_header", "no_equals", "construction",
        "missing_n", "missing_round", "round_range", "work_length",
        "tier_iv_target"])
def test_parse_errors_name_their_line(tmp_path, capsys, text, line, message):
    inst = write(tmp_path, text)
    rc = main(["compile", inst])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {inst}: line {line}: {message}\n"


def test_non_utf8_instance_names_its_line(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    text = TIER1.replace("work=000", "work=0\xe900")  # é in latin-1
    inst.write_bytes(text.encode("latin-1"))
    rc = main(["run", str(inst)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {inst}: line 5: work must be a bitstring\n"


def test_verify_without_a_check_exit_2(tmp_path, capsys):
    # L = 24 is too long for the dense oracle, so the backends suite alone
    # runs no check
    text = TIER3.replace("k=2", "k=3").replace("round 2: S W",
                                               "round 2: S W\nround 3: W W")
    inst = write(tmp_path, text)
    skipped = "backends suite skipped: chain too long for the dense oracle\n"
    rc = main(["verify", inst, "--suite", "backends"])
    assert rc == 2 and capsys.readouterr() == ("", skipped)
    # --suite all still runs its other checks
    inst = write(tmp_path, text + "budget=600\n", "b.txt")
    rc = main(["verify", inst, "--suite", "all", "--l-bits", "3"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == skipped
    assert captured.out.count("CHECK") == 4 and "backend" not in captured.out


@pytest.mark.parametrize("key, value, message", [
    ("budget", "0", "below minimum 1"),
    ("samples", "0", "below minimum 1"),
    ("snapshot_every", "0", "below minimum 1"),
    ("samples", "100000001", "above maximum 100000000"),
], ids=["budget", "samples", "snapshot_every", "samples_above_maximum"])
def test_instance_non_positive_option_exit_2(tmp_path, capsys, key, value,
                                             message):
    inst = write(tmp_path, TIER1 + f"{key}={value}\n")
    rc = main(["run", inst])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 7" in err and message in err


@pytest.mark.parametrize("line", ["tau_star=-3", "tau_star=inf", "tau=nan"])
def test_instance_bad_float_exit_2(tmp_path, capsys, line):
    inst = write(tmp_path, TIER1 + line + "\n")
    rc = main(["walk", inst, "--length", "4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "line 7" in captured.err and "Traceback" not in captured.err
