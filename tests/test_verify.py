import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqca import (FORWARD, REVERSE, BuildSpec, StepBudget, applicable,
                  apply_circuit_power, build_initial, clock_value,
                  predicted_single_pass_steps, run, verify_uog)
from hqca import engine, rules
from hqca.builder import full_width_offset
from hqca.rules import _RULESET_CACHE, RuleSet, rule_set
from hqca.state import DenseData, WorkState
from hqca.symbols import BULLET
from hqca.verify import (build_clock_chain, build_comparator_chain,
                         check_claim_b, check_clock_counter, check_comparator,
                         check_phase_structure, check_posttarget_freeze,
                         clock_increment, comparator_verdict,
                         cross_check_backends)

from conftest import every_state, random_state, single_steps, small_circuit


def test_work_oracle_tier1(example_circuit, random_work):
    traj = run(build_initial(BuildSpec(example_circuit, "I", random_work)),
               StepBudget(200, "dead_end"))
    res = check_claim_b(traj, example_circuit)
    assert res.passed, res.details


def test_work_oracle_tier2(example_circuit, random_work):
    traj = run(build_initial(BuildSpec(example_circuit, "II", random_work)),
               StepBudget(4 * 188, "step_limit"))
    res = check_claim_b(traj, example_circuit)
    assert res.passed, res.details


def _scramble_work(traj, circuit, t):
    """check_claim_b over traj's states with state t given a work vector
    its checkpoint cannot predict."""
    def scramble(st):
        return st.replace(work=WorkState(st.work.support,
                                         np.roll(st.work.amps, 1)))

    with every_state(t, scramble):
        return check_claim_b(traj, circuit)


def _with_clock_bit(st, i, bit):
    """st with clock cell i set to bit."""
    row = list(st.rows["C"])
    row[i] = bit
    return st.replace(rows={"C": tuple(row)})


def test_work_oracle_tier1_negative_control(example_circuit, random_work):
    traj = run(build_initial(BuildSpec(example_circuit, "I", random_work)),
               StepBudget(200, "dead_end"))
    # oscillation ends at 16, 33, 50, 67, 84 and gate turns at 8, 76: the
    # state after the second end holds one round, and no later checkpoint
    # reads it
    assert sorted(traj.marker_steps("6a", "6b"))[1] == 33
    assert check_claim_b(traj, example_circuit).passed
    res = _scramble_work(traj, example_circuit, 34)
    assert not res.passed
    assert [d.split(":")[0] for d in res.details] == ["t=34 rounds=1"]


def test_work_oracle_tier2_negative_control(example_circuit, random_work):
    traj = run(build_initial(BuildSpec(example_circuit, "II", random_work)),
               StepBudget(4 * 188, "step_limit"))
    assert traj.markers["13b"] == [187, 375, 563, 751]
    # the second reset completion
    res = _scramble_work(traj, example_circuit, 376)
    assert not res.passed
    assert [d.split(":")[0] for d in res.details] == ["t=376 power=2"]


def test_claim_b_clean(example_circuit, random_work):
    traj = run(build_initial(BuildSpec(example_circuit, "III", random_work)),
               StepBudget(780, "step_limit"))  # clock first reads 4
    assert clock_value(traj.final) == 4
    res = check_claim_b(traj, example_circuit)
    assert res.passed and "k_max=4" in res.measured


def test_claim_b_k0_before_any_application(example_circuit, random_work):
    traj = run(build_initial(BuildSpec(example_circuit, "III", random_work)),
               StepBudget(16, "step_limit"))
    st = traj.state(14)  # clearing prefix completes the clock at 0 (C mode)
    assert "C" in st.rows["CP"] and clock_value(st) == 0
    assert np.max(np.abs(st.work.amps - random_work)) < 1e-12


def test_claim_b_negative_control(example_circuit, random_work):
    traj = run(build_initial(BuildSpec(example_circuit, "III", random_work)),
               StepBudget(587, "step_limit"))  # clock first reads 3
    assert clock_value(traj.final) == 3
    # corrupt one clock bit of one C-completion state
    t = next(t for t, st in enumerate(traj.iter_states())
             if "C" in st.rows["CP"] and clock_value(st) == 2)
    with every_state(t, lambda st: _with_clock_bit(st, -1, "1")):  # 2 -> 3
        res = check_claim_b(traj, example_circuit)
    assert not res.passed and res.details


def test_claim_b_fails_on_a_malformed_clock(example_circuit):
    traj = run(build_initial(BuildSpec(example_circuit, "III", "010")),
               StepBudget(780, "step_limit"))
    assert check_claim_b(traj, example_circuit).passed
    st = traj.state(396)  # the C-state at k = 2
    assert st.rows["CP"][-1] == "C" and clock_value(st) == 2
    # a bullet inside the clock's bits
    with every_state(396, lambda st: _with_clock_bit(st, 2, "•")):
        res = check_claim_b(traj, example_circuit)
    # the three other C-states still compare right
    assert not res.passed and res.measured.startswith("states=4 k_max=4")
    assert res.details == ["t=396: malformed clock"]


def test_claim_b_restarts_on_a_lower_clock(example_circuit, random_work):
    traj = run(build_initial(BuildSpec(example_circuit, "III", random_work)),
               StepBudget(780, "step_limit"))  # C-states at k = 0..4
    assert clock_value(traj.state(587)) == 3
    # 3 -> 1, below the k = 2 checkpoint before it
    with every_state(587, lambda st: _with_clock_bit(st, -2, "0")):
        res = check_claim_b(traj, example_circuit)
    # the reference restarts from the input for k = 1, so the k = 4
    # checkpoint after it still compares right
    assert not res.passed and "k_max=4" in res.measured
    assert [d.split(":")[0] for d in res.details] == ["t=587 k=1"]


@settings(max_examples=30, deadline=None)
@given(tier=st.sampled_from(("I", "II", "III", "IV")), n=st.integers(2, 3),
       k=st.integers(1, 2), seed=st.integers(0, 10 ** 6),
       target=st.integers(1, 3), steps=st.integers(200, 4000),
       checked=st.booleans())
def test_claim_b_from_blocks_equals_every_state(tier, n, k, seed, target,
                                                steps, checked):
    # check_claim_b replays the blocks the run replayed and stops only
    # after the labels it watches: it reports what it does on a replay that
    # yields every state, and on tiers III/IV those labels mark exactly the
    # states whose clock pointer shows C
    circuit = small_circuit(n, k, seed)
    extra = {"target_x": target, "bullet_offset": 2} if tier == "IV" else {}
    start = build_initial(BuildSpec(circuit, tier, random_state(n, seed),
                                    **extra))
    run(start, StepBudget(steps), check_uog=checked)  # warms the store
    traj = run(start, StepBudget(steps), check_uog=checked)
    with every_state() as asked:
        every = check_claim_b(traj, circuit)
    assert check_claim_b(traj, circuit) == every
    if tier in ("III", "IV"):
        states = traj.iter_states()
        assert [t for t, s in enumerate(states) if "C" in s.rows["CP"]] == [
            t + 1 for t in traj.marker_steps(*asked[0])]


def test_clock_increment_case_b():
    # 0110 -> 0111 in a single step
    new, labels, _ = clock_increment("0110")
    assert new == "0111" and labels == ["15"]


def test_clock_increment_case_c():
    new, labels, _ = clock_increment("0101")
    assert new == "0110" and labels == ["16"]


def test_clock_increment_carry_chain():
    new, labels, _ = clock_increment("0111")
    assert new == "1000"
    assert labels == ["17", "17", "18", "19", "20"]


def test_clock_saturation():
    new, labels, final = clock_increment("1111")
    assert new is None
    assert set(labels) == {"17"} and len(labels) == 3
    assert final.rows["CP"][1] == "L"
    assert run(final, StepBudget(1)).stop_reason == "dead_end"


def test_clock_counter_sweeps():
    for bits in (3, 4, 5):
        res = check_clock_counter(bits)
        assert res.passed, res.details


def test_clock_counter_negative_control(monkeypatch):
    # dropping the trailing-01 rule strands values ending in 01
    monkeypatch.setitem(rules._RULESET_CACHE, "III",
                        rule_set("III").without("16"))
    got, _, _ = clock_increment("0101")
    assert got is None


def test_comparator_verdicts():
    assert comparator_verdict("00101", "0101")[0] == "match"
    assert comparator_verdict("00101", "0011")[0] == "mismatch"
    # first differing digit stops the sweep
    _, labels = comparator_verdict("00101", "0011")
    assert labels[-1] == "26"
    # LSB mismatch is flagged immediately at the right end
    _, labels = comparator_verdict("00100", "0101")
    assert labels == ["25"]


def test_comparator_bullet_column_mismatch():
    # clock bit set over the target's bullet padding: every digit column
    # matches but the values differ
    verdict, labels = comparator_verdict("010000", "0000")
    assert verdict == "mismatch" and "26" in labels


def test_comparator_exhaustive_3bit():
    res = check_comparator(3)
    assert res.passed, res.details


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 255), x=st.integers(0, 255))
def test_comparator_wide_values(k, x):
    verdict, _ = comparator_verdict("0" + format(k, "08b"), format(x, "08b"))
    assert verdict == ("match" if k == x else "mismatch")


@settings(max_examples=40, deadline=None)
@given(v=st.integers(0, 2 ** 9 - 2), bits=st.integers(4, 9))
def test_clock_increment_random_values(v, bits):
    v %= 2 ** bits - 1  # keep below all-ones so a successor exists
    new, _, _ = clock_increment(format(v, f"0{bits}b"))
    assert new is not None and int(new, 2) == v + 1


def test_backends_match_small_runs(example_circuit, random_work):
    for tier, steps in (("I", 100), ("II", 380)):
        res = cross_check_backends(
            BuildSpec(example_circuit, tier, random_work), steps)
        assert res.passed, res.details
    res = cross_check_backends(
        BuildSpec(small_circuit(2, 2, seed=1), "I", "01"), 60)
    assert res.passed, res.details


@settings(max_examples=30, deadline=None)
@given(tier=st.sampled_from(("I", "II", "III", "IV")), n=st.integers(2, 3),
       k=st.integers(1, 2), seed=st.integers(0, 10 ** 6),
       target=st.integers(1, 3), steps=st.integers(1, 300))
def test_backends_match_random_circuits(tier, n, k, seed, target, steps):
    # the draws of test_run_matches_reference_step_path (L <= 16)
    extra = {"target_x": target, "bullet_offset": 2} if tier == "IV" else {}
    res = cross_check_backends(BuildSpec(small_circuit(n, k, seed), tier,
                                         random_state(n, seed), **extra),
                               steps)
    assert res.passed, res.details


def _uog_recount(traj):
    """verify_uog's details, recounted state by state on the recorded
    states through the public applicable(), which finds the active sites
    and the rule set itself."""
    found, keys = [], {}
    for t, st in enumerate(traj.iter_states()):
        key = st.config_key()
        if key in keys:
            found.append((t, f"configuration equals state {keys[key]}"))
        keys[key] = t
        fwd = len(applicable(st, FORWARD))
        if t < traj.n_steps and fwd != 1:
            found.append((t, f"{fwd} forward matches"))
        if t == traj.n_steps and traj.stop_reason == "dead_end" and fwd:
            found.append((t, "final state still has forward matches"))
        if t == 0:
            continue
        rev = applicable(st, REVERSE)
        label, site = traj.labels[t - 1], traj.sites[t - 1]
        if len(rev) != 1:
            found.append((t, f"{len(rev)} reverse matches"))
        elif (rev[0].label, rev[0].site) != (label, site):
            found.append((t, f"reverse match {rev[0].label} at"
                          f" {rev[0].site}, but {label} at {site} fired"))
    return found


@settings(max_examples=30, deadline=None)
@given(tier=st.sampled_from(("I", "II", "III", "IV")), n=st.integers(2, 3),
       k=st.integers(1, 2), seed=st.integers(0, 10 ** 6),
       target=st.integers(1, 3), steps=st.integers(1, 300))
def test_verify_uog_matches_applicable_recount(tier, n, k, seed, target,
                                               steps):
    # the draws of test_backends_match_random_circuits; tier II repeats
    # its configurations after one cycle, so long draws find violations
    extra = {"target_x": target, "bullet_offset": 2} if tier == "IV" else {}
    traj = run(build_initial(BuildSpec(small_circuit(n, k, seed), tier,
                                       random_state(n, seed), **extra)),
               StepBudget(steps, "dead_end"))
    report = verify_uog(traj)
    assert report.details == _uog_recount(traj)
    # claim B on a checked run of the same start, read through the blocks
    # that run replayed, reports what it does on the record; that run and a
    # second one, both checked, are their own reruns and report what the
    # record's rerun does
    circuit = small_circuit(n, k, seed)
    checked = run(traj.start, StepBudget(steps, "dead_end"), check_uog=True)
    assert check_claim_b(checked, circuit) == check_claim_b(traj, circuit)
    again = run(traj.start, StepBudget(steps, "dead_end"), check_uog=True)
    assert verify_uog(checked) == report == verify_uog(again)
    # a rule missing from the table: both read the swapped rule set, and
    # the rerun stops where the dropped rule first fired
    dropped = traj.labels[seed % traj.n_steps]
    saved = _RULESET_CACHE[tier]
    _RULESET_CACHE[tier] = saved.without(dropped)
    try:
        details = verify_uog(traj).details
        assert details[-1] == (traj.labels.index(dropped), "0 forward matches")
        assert details == _uog_recount(traj)[:len(details)]
    finally:
        _RULESET_CACHE[tier] = saved


def test_backends_count_steps_to_the_dead_end(example_circuit):
    # the tier-I chain dead-ends before the step budget: the report names
    # the steps actually compared, not one more
    res = cross_check_backends(BuildSpec(example_circuit, "I", "101"), 500)
    assert res.passed, res.details
    assert predicted_single_pass_steps(3, 2) == 93
    assert res.measured.startswith("steps=93 ")


def test_backends_catch_adjoint_work_gates(example_circuit, monkeypatch):
    from hqca.state import WorkState
    orig = WorkState.apply_gate

    def adjoint_gate(work, kind, site_i, site_j, adjoint=False):
        return orig(work, kind, site_i, site_j, not adjoint)

    monkeypatch.setattr(WorkState, "apply_gate", adjoint_gate)
    res = cross_check_backends(BuildSpec(example_circuit, "I", "101"), 100)
    assert not res.passed
    assert res.measured.startswith("steps=12 ")


def test_backends_catch_swapping_identity(example_circuit, monkeypatch):
    orig = rules.classical_gate_action

    def swapping_identity(kind, left_bit, right_bit):
        if kind == "I":
            return (right_bit, left_bit)
        return orig(kind, left_bit, right_bit)

    monkeypatch.setattr(rules, "classical_gate_action", swapping_identity)
    res = cross_check_backends(BuildSpec(example_circuit, "I", "101"), 100)
    assert not res.passed
    assert res.measured.startswith("steps=14 ")


def test_backends_catch_swapped_hybrid_gates(example_circuit, monkeypatch):
    # the hybrid fires S for W and W for S; the dense oracle reads each
    # gate's kind from the rule table, matched back at the recorded window,
    # so the two vectors part at the first gate the swap changes
    orig = engine._apply_gate_effect
    swap = {"W": "S", "S": "W"}

    def swapped(state, kind, i, adjoint):
        return orig(state, swap.get(kind, kind), i, adjoint)

    monkeypatch.setattr(engine, "_apply_gate_effect", swapped)
    res = cross_check_backends(BuildSpec(example_circuit, "I", "101"), 100)
    assert not res.passed
    assert res.measured.startswith("steps=11 ")


def test_backends_catch_mass_off_the_support(example_circuit, monkeypatch):
    # every dense gate also puts 1e-6 on a data bit the hybrid holds
    # classically, leaving the support's amplitudes as they were: only a
    # comparison that counts the mass off the support sees it
    spec = BuildSpec(example_circuit, "I", "101")
    start = build_initial(spec)
    off = next(s for s in range(1, start.L + 1)
               if s not in start.work.support)
    orig = DenseData.apply_gate

    def leaky_gate(dense, kind, site_i, site_j):
        amps = orig(dense, kind, site_i, site_j).amps.copy()
        amps[np.argmax(np.abs(amps)) ^ 1 << (dense.n_sites - off)] += 1e-6
        return DenseData(dense.n_sites, amps)

    monkeypatch.setattr(DenseData, "apply_gate", leaky_gate)
    res = cross_check_backends(spec, 100)
    assert not res.passed
    assert res.measured.startswith("steps=10 ")
    assert res.details == ["t=9: data vectors differ by 1.000e-06"]


def _firings(monkeypatch, change):
    """Patch _Cursor.fire through change(fire, cur, i, hit, k), where k
    counts the cursor's firings from 0: under single_steps every run and
    replay fires step k of the record as its k-th.  Returns the labels the
    latest cursor fired."""
    fired, init, fire = [], engine._Cursor.__init__, engine._Cursor.fire

    def counted_init(cur, *args):
        fired.clear()
        init(cur, *args)

    def counted_fire(cur, i, hit):
        fired.append(hit.rule.label)
        return change(fire, cur, i, hit, len(fired) - 1)

    monkeypatch.setattr(engine._Cursor, "__init__", counted_init)
    monkeypatch.setattr(engine._Cursor, "fire", counted_fire)
    return fired


def _backends_with_a_data_flip(example_circuit, monkeypatch, step):
    """cross_check_backends on a run, and a replay, whose record step
    step - 1, which fires no gate (the gates are steps 9-15), also flips
    the data bit at site 1."""
    def flip(fire, cur, i, hit, k):
        if k == step - 1:
            assert hit.gate is None and cur.rows["D"][0] == "1"
            hit = hit._replace(writes=hit.writes + (("D", 1 - i, "0"),))
        return fire(cur, i, hit)

    _firings(monkeypatch, flip)
    with single_steps("I"):
        return cross_check_backends(BuildSpec(example_circuit, "I", "101"),
                                    100)


def test_backends_fail_a_gate_rule_that_does_not_match_back(example_circuit,
                                                           monkeypatch):
    # record step 9 fires 5a, the first gate; a fault that also blanks the
    # gate cell 5a moves right leaves no 5a to match back at that window,
    # so the oracle has no gate kind: the check fails there with a detail
    # (a 10-step budget: the broken chain's next gate would raise in run)
    def blank(fire, cur, i, hit, k):
        if k == 9:
            assert hit.rule.label == "5a"
            hit = hit._replace(writes=hit.writes + (("P", 1, BULLET),))
        return fire(cur, i, hit)

    _firings(monkeypatch, blank)
    with single_steps("I"):
        res = cross_check_backends(BuildSpec(example_circuit, "I", "101"),
                                   10)
    assert not res.passed
    assert res.measured.startswith("steps=10 ")
    assert res.details == ["t=9: rule 5a does not match back at 8"]


def test_backends_fail_a_gate_that_leaves_the_basis(example_circuit,
                                                   monkeypatch):
    # the fault above, with a 100-step budget: the broken chain's later
    # S gate meets a blank data cell and raises in the check's own run.
    # The check compares the steps before it and fails with the error as
    # a detail, after the failed match-back
    def blank(fire, cur, i, hit, k):
        if k == 9:
            hit = hit._replace(writes=hit.writes + (("P", 1, BULLET),))
        return fire(cur, i, hit)

    _firings(monkeypatch, blank)
    with single_steps("I"):
        res = cross_check_backends(BuildSpec(example_circuit, "I", "101"),
                                   100)
    assert not res.passed
    assert res.measured.startswith("steps=10 ")
    assert res.details == [
        "t=9: rule 5a does not match back at 8",
        "t=25: gate S on data sites (8,9) = (?,1) leaves the computational"
        " basis; valid chains never do this"]


def test_backends_catch_data_write_without_gate(example_circuit, monkeypatch):
    # the data row changes at step 4, so the check must compare and fail
    # there, not at the next gate
    res = _backends_with_a_data_flip(example_circuit, monkeypatch, 4)
    assert not res.passed
    assert res.measured.startswith("steps=4 ")


def test_backends_catch_data_write_after_a_compare(example_circuit,
                                                   monkeypatch):
    # step 20 comes after the compared gate steps, so the check must keep a
    # copy of the data row it last compared, not the run's live list
    res = _backends_with_a_data_flip(example_circuit, monkeypatch, 20)
    assert not res.passed
    assert res.measured.startswith("steps=20 ")


def _freeze(start, max_steps):
    return check_posttarget_freeze(run(start, StepBudget(max_steps,
                                                         "step_limit")))


def _match_steps(start):
    """The compare-match steps (28 or 30) of the start's record."""
    return run(start, StepBudget(10 ** 5)).marker_steps("28", "30")


def test_posttarget_freeze(example_circuit):
    off = full_width_offset(16, 3)
    s = build_initial(BuildSpec(example_circuit, "IV", "000", target_x=3,
                                bullet_offset=off))
    res = _freeze(s, 3000)
    assert res.passed, res.details


def test_posttarget_freeze_fails_without_a_compare_match(example_circuit):
    # negative control: the rule-30 match comes at step 596, after the cap
    s = build_initial(BuildSpec(example_circuit, "IV", target_x=3,
                                bullet_offset=3))
    res = _freeze(s, 150)
    assert not res.passed
    assert res.details == ["0 compare-success markers, expected 1"]
    assert res.measured == "success_at=None tail=None stop=step_limit"
    res = _freeze(s, 716)
    assert res.passed
    assert res.measured == "success_at=597 tail=119 stop=step_limit"


def test_posttarget_freeze_catches_a_write_after_the_match(example_circuit,
                                                         monkeypatch):
    # negative control: the check compares the replay's live rows with
    # copies taken at the compare-match (read from the record), so a clock
    # cell written 10 steps later, which fires no watched rule, must fail it
    # at the next state it reads, the final one; a copy that aliased the
    # live list would not
    s = build_initial(BuildSpec(example_circuit, "IV", target_x=3,
                                bullet_offset=3))
    (match,) = _match_steps(s)

    def write_clock(fire, cur, i, hit, k):
        if k == match + 10:
            new = "1" if cur.rows["C"][i - 1] != "1" else "0"
            hit = hit._replace(writes=hit.writes + (("C", 0, new),))
        return fire(cur, i, hit)

    fired = _firings(monkeypatch, write_clock)
    with single_steps("IV"):
        res = _freeze(s, match + 120)
    assert fired[match] == "30" and len(fired) == match + 120
    assert not res.passed
    assert res.details == [f"t={match + 120}: clock register changed"]
    assert res.measured == f"success_at={match + 1} tail=119 stop=step_limit"


def test_posttarget_freeze_catches_a_work_change_after_the_match(
        example_circuit, monkeypatch):
    # negative control: a firing 10 steps after the compare-match (read
    # from the record) that also reverses the work amplitudes must fail the
    # check
    s = build_initial(BuildSpec(example_circuit, "IV", target_x=3,
                                bullet_offset=3))
    (match,) = _match_steps(s)

    def change_work(fire, cur, i, hit, k):
        fire(cur, i, hit)
        if k == match + 10:
            amps = cur.work.amps[::-1]
            assert not np.array_equal(amps, cur.work.amps)
            cur.work = WorkState(cur.work.support, amps)

    fired = _firings(monkeypatch, change_work)
    with single_steps("IV"):
        res = _freeze(s, match + 120)
    assert fired[match] == "30" and len(fired) == match + 120
    assert not res.passed
    assert res.details == [f"t={match + 120}: work state changed"]
    assert res.measured == f"success_at={match + 1} tail=119 stop=step_limit"


def test_posttarget_freeze_catches_a_block_that_writes_the_clock(
        example_circuit, monkeypatch):
    # negative control: blocks of the crossed return (rule 37) in the store
    # also write a clock cell.  A later run takes them after the
    # compare-match and keeps them, and so does the check's replay of its
    # record, so the clock read at the final state differs from the copy
    # taken at the match; a check that observed a run step by step would
    # never replay a block and could not fail here
    monkeypatch.setitem(_RULESET_CACHE, "IV",
                        RuleSet("IV", rule_set("IV").rules))
    s = build_initial(BuildSpec(example_circuit, "IV", target_x=3,
                                bullet_offset=3))
    for _ in range(2):
        traj = run(s, StepBudget(10 ** 5))
    assert check_posttarget_freeze(traj).passed
    doctored = 0
    for blocks in rule_set("IV").blocks[(s.L, False)].values():
        for j, block in enumerate(blocks):
            if "37" in block.labels:  # C's cell 1 at the block's base
                home = block.home
                blocks[j] = block._replace(writes=block.writes + (
                    ("C", ((1 - home, 2 - home, ("1",)),)),))
                doctored += 1
    assert doctored and s.rows["C"][1] == "0"
    again = run(s, StepBudget(10 ** 5))
    assert again.labels == traj.labels and again.final.rows["C"][1] == "1"
    res = check_posttarget_freeze(again)
    assert not res.passed
    assert res.details == [f"t={again.n_steps}: clock register changed"]
    # the first record, made before the blocks changed, replays the blocks
    # its run kept, which write no clock cell
    assert check_posttarget_freeze(traj).passed


@pytest.mark.parametrize("x, match_at", [(1, 221), (3, 607)])
def test_posttarget_freeze_to_the_dead_end_at_full_width(x, match_at):
    # the full-width L = 16 chains hold the freeze for the 6 291 453-step
    # tail, the tier-III count to its dead end: the run and the check take
    # 1.7-2.4 s together for each x (2-core x86_64 VM), against 27 s for a
    # check that observed every step
    start = build_initial(BuildSpec(small_circuit(3, 2, 1), "IV",
                                    target_x=x,
                                    bullet_offset=full_width_offset(16, x)))
    res = check_posttarget_freeze(run(start, StepBudget(10 ** 7)))
    assert res.passed, res.details
    assert res.measured == (f"success_at={match_at} tail={192 * 2 ** 15 - 3}"
                            " stop=dead_end")


def test_posttarget_freeze_runs_at_block_speed(example_circuit, monkeypatch):
    # on a warm store the run and the check's replay together take fewer
    # than 10 % of the x = 9 chain's 26 342 steps one at a time (about
    # 1500: the replay single-steps the gates before the match, which it
    # watches); a check that observed the run took every one
    s = build_initial(BuildSpec(example_circuit, "IV", target_x=9,
                                bullet_offset=3))
    run(s, StepBudget(10 ** 5))
    calls, step = [], engine._Cursor.step
    monkeypatch.setattr(engine._Cursor, "step",
                        lambda cur: calls.append(1) or step(cur))
    traj = run(s, StepBudget(10 ** 5))
    res = check_posttarget_freeze(traj)
    assert res.passed and traj.n_steps == 26342
    assert len(calls) < 0.1 * traj.n_steps


def test_phase_structure(example_circuit):
    traj = run(build_initial(BuildSpec(example_circuit, "III")),
               StepBudget(2000, "step_limit"))
    assert check_phase_structure(traj).passed
    # negative controls: each doctored label list fails with its message
    hand_offs, wakes = traj.markers["13a"], traj.markers["14"]
    assert len(hand_offs) == len(wakes) == 10 and wakes[1] == hand_offs[1] + 1

    def doctored(changes):
        labels = list(traj.labels)
        for t, label in changes.items():
            labels[t] = label
        res = check_phase_structure(engine.Trajectory(
            traj.start, traj.rules, labels, traj.sites))
        assert not res.passed
        return res.details

    assert doctored({13: "21"}) == [
        "prefix ['19', '19', '19', '19', '19', '19']... != 19^(L-3),20,21"]
    # the last two wakes turned into hand-offs: the pairs before still match
    assert doctored({wakes[-2]: "13a", wakes[-1]: "13a"}) == [
        "12 hand-offs vs 8 pointer wakes"]
    assert doctored({hand_offs[1]: "14", wakes[1]: "13a"}) == [
        f"wake at {hand_offs[1]} does not follow hand-off at {wakes[1]}"]


def test_harness_states_are_valid():
    from hqca.state import validate_config
    assert validate_config(build_clock_chain("0101")) == []
    assert validate_config(build_comparator_chain("00101", "0101")) == []


def test_full_clocked_run_to_saturation():
    # the smallest clocked chain (L=7) runs its entire life: clearing
    # prefix, 64 circuit applications counted in binary, and the all-ones
    # saturation where the pointer parks at the left edge
    from hqca import CircuitProgram
    circuit = CircuitProgram(2, (("W",),))
    w = random_state(2, 9)
    traj = run(build_initial(BuildSpec(circuit, "III", w)),
               StepBudget(10 ** 5, "dead_end"), check_uog=True)
    assert traj.stop_reason == "dead_end"
    assert not traj.uog_violations
    final = traj.final
    assert clock_value(final) == 63
    assert final.rows["CP"][1] == "L"
    assert set(final.rows["C"][1:]) == {"1"}
    expect = apply_circuit_power(w.copy(), circuit, 64)
    assert abs(np.vdot(expect, final.work.amps)) ** 2 >= 1.0 - 1e-10


def test_full_target_run_even_target():
    # even targets exercise the other reverse-tail branch and the same
    # freeze guarantee
    from hqca import CircuitProgram
    circuit = CircuitProgram(2, (("W",),))
    w = random_state(2, 10)
    traj = run(build_initial(BuildSpec(circuit, "IV", w, target_x=2,
                                       bullet_offset=2)),
               StepBudget(10 ** 5, "dead_end"), check_uog=True)
    assert traj.stop_reason == "dead_end" and not traj.uog_violations
    assert clock_value(traj.final) == 2
    expect = apply_circuit_power(w.copy(), circuit, 2)
    assert abs(np.vdot(expect, traj.final.work.amps)) ** 2 >= 1.0 - 1e-10


def test_tier4_full_run_uog(example_circuit, random_work):
    traj = run(build_initial(BuildSpec(example_circuit, "IV", random_work,
                                       target_x=3, bullet_offset=3)),
               StepBudget(10 ** 4, "dead_end"), check_uog=True)
    assert traj.stop_reason == "dead_end" and not traj.uog_violations
    assert len(traj.marker_steps("28", "30")) == 1


def test_tier4_walk_measurement_bound(example_circuit):
    # end-to-end: sample measurement times uniformly; the frequency of
    # finding the clock at the target must clear the far-fraction bound
    # measured on the trajectory itself
    s = build_initial(BuildSpec(example_circuit, "IV", "000", target_x=3,
                                bullet_offset=3))
    traj = run(s, StepBudget(10 ** 5, "dead_end"))
    assert traj.stop_reason == "dead_end"
    l = len(traj)
    hit = np.array([clock_value(st) == 3 for st in traj.iter_states()])
    frac = hit.mean()
    from hqca.walk import WalkLine, position_distributions
    rng = np.random.default_rng(77)
    tau_star = 50.0 * l
    taus = rng.uniform(0, tau_star, size=1000)
    probs = position_distributions(WalkLine(l), taus)
    freq = float(hit @ probs.sum(axis=1) / 1000.0)
    # generous envelope: l/tau_star decay plus finite-size and MC slack
    assert freq >= frac - 2.0 * l / tau_star - 2.0 / l - 0.05
    assert freq > 0.5  # with the short bullet the hit region dominates
