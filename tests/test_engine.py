import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqca import (FORWARD, REVERSE, Ambiguous, BuildSpec, CircuitProgram,
                  NonClassicalGateError, StepBudget, active_sites, applicable,
                  apply, apply_circuit_power, build_initial, clock_value,
                  fidelity, predicted_cycle_steps,
                  predicted_oscillation_steps, predicted_single_pass_steps,
                  restricted_hamiltonian, rule_set, run, verify_uog)
from hqca import engine
from hqca.builder import full_width_offset
from hqca.engine import BLOCK_CAP, Trajectory, _Cursor, write_trace
from hqca.rules import ANY, _RULESET_CACHE, Rule, RuleSet, gv, lit, mgv
from hqca.verify import FIDELITY_TOL, check_claim_b
from hqca.symbols import BULLET, C, D, P, QUANTUM, TURN

from conftest import random_state, small_circuit, stepped


def test_single_pass_step_count_small():
    # (N=2, K=1): the closed form gives 10; the engine must dead-end there
    assert predicted_single_pass_steps(2, 1) == 10
    traj = run(build_initial(BuildSpec(small_circuit(2, 1), "I")),
               StepBudget(100, "dead_end"))
    assert traj.n_steps == 10 and traj.stop_reason == "dead_end"


def test_dead_end_raises(example_circuit):
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    again = run(traj.final, StepBudget(1))
    assert again.n_steps == 0 and again.stop_reason == "dead_end"


def test_corrupted_state_reported(example_circuit):
    # a valid state has one active cell, its head: a start with a second
    # arrow in the bullet field, or with none, is refused before any step,
    # by a run and by a replay alike (stray starts of other tiers: STRAYS)
    for site, symbol, n in ((10, "→", 2), (1, BULLET, 0)):
        start = build_initial(BuildSpec(example_circuit, "I"))
        row = list(start.rows["P"])
        row[site - 1] = symbol
        bad = start.replace(rows={"P": tuple(row)})
        assert len(active_sites(bad)) == n
        with pytest.raises(ValueError, match=f"start has {n} active cells"):
            run(bad, StepBudget(1), check_uog=True)
        with pytest.raises(ValueError, match=f"start has {n} active cells"):
            Trajectory(bad, rule_set("I")).state(0)


def test_run_stop_reasons(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "II"))
    t1 = run(s, StepBudget(50, "step_limit"))
    assert t1.stop_reason == "step_limit" and t1.n_steps == 50
    s1 = build_initial(BuildSpec(example_circuit, "I"))
    t2 = run(s1, StepBudget(10 ** 5, "step_limit"))
    assert t2.stop_reason == "dead_end"
    assert t2.n_steps == predicted_single_pass_steps(3, 2)
    # stop_on only names the expected stop: the one hit first is reported
    t3 = run(s1, StepBudget(10, "dead_end"))
    assert t3.stop_reason == "step_limit" and t3.n_steps == 10


@pytest.mark.parametrize("stop_on",
                         ["dead-end", "steps", "", "clock_equals"])
def test_unknown_stop_on_rejected(stop_on):
    with pytest.raises(ValueError, match="stop_on"):
        StepBudget(10, stop_on)


def test_markers_from_labels(example_circuit):
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(100, "dead_end"))
    osc = predicted_oscillation_steps(3, 2)
    # oscillation boundaries: rules 6a/6b fire on the last step of each
    ends = traj.marker_steps("6a", "6b")
    assert ends == [osc * (i + 1) - 1 for i in range(5)]
    assert traj.markers["4a"] == [8, 76]  # exactly two gate rounds
    assert len(traj.markers["4b"]) == 3


def test_clock_value_readout(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "III"))
    row = tuple(["•"] + ["0"] * 12 + ["1", "1", "0"])
    assert clock_value(s.replace(rows={"C": row})) == 6
    assert clock_value(s.replace(rows={"C": tuple(["•"] + ["0"] * 15)})) == 0
    assert clock_value(s.replace(rows={"C": tuple(["•"] + ["1"] * 15)})) \
        == 2 ** 15 - 1
    malformed = tuple(["•", "1", "•"] + ["0"] * 13)
    assert clock_value(s.replace(rows={"C": malformed})) is None
    assert clock_value(build_initial(BuildSpec(example_circuit, "I"))) is None


def _with_rule_2x(monkeypatch, *dropped):
    """Cache tier I's rule set less the dropped rules, plus 2x, a copy of
    rule 2 that matches wherever rule 2 does."""
    r2 = rule_set("I").by_label["2"]
    dup = Rule("2x", "I", r2.lhs, r2.rhs, r2.gate)
    monkeypatch.setitem(_RULESET_CACHE, "I", RuleSet(
        "I", rule_set("I").without(*dropped).rules + (dup,)))


def test_verify_uog_clean_and_negative(example_circuit, monkeypatch):
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    rep = verify_uog(traj)
    assert rep.passed and rep.measured == "states=94"
    # negative control: with 2x the rerun meets two forward matches where
    # rule 2 first fired; the report names them and does not raise
    _with_rule_2x(monkeypatch)
    rep = verify_uog(traj)
    assert not rep.passed and rep.measured == "states=94"
    assert rep.details == [(traj.labels.index("2"), "2 forward matches")]


def test_verify_uog_alone_catches_missing_rule(example_circuit, monkeypatch):
    # a record made before rule 5a left the table: the rerun dead-ends
    # where 5a first fired, and that is the first detail
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    fired = traj.marker_steps("5a")
    assert fired and not traj.uog_violations
    monkeypatch.setitem(_RULESET_CACHE, "I", rule_set("I").without("5a"))
    rep = verify_uog(traj)
    assert not rep.passed
    assert rep.details == [(fired[0], "0 forward matches")]


def test_verify_uog_names_another_forward_rule(example_circuit, monkeypatch):
    # a record made before rule 2 was swapped for its copy 2x: the rerun
    # fires 2x where the record fired 2, and the report stops there
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    _with_rule_2x(monkeypatch, "2")
    t = traj.labels.index("2")
    rep = verify_uog(traj)
    assert rep.details == [(t, f"forward match 2x at {traj.sites[t]}, but 2"
                               f" at {traj.sites[t]} fired")]


def test_verify_uog_reruns_a_run_checked_on_another_table(example_circuit,
                                                          monkeypatch):
    # a run checked before rule 5a left the table is not that table's
    # check: the report comes from a rerun that dead-ends where 5a first
    # fired
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"), check_uog=True)
    fired = traj.marker_steps("5a")
    assert fired and traj.checked and not traj.uog_violations
    monkeypatch.setitem(_RULESET_CACHE, "I", rule_set("I").without("5a"))
    assert verify_uog(traj).details == [(fired[0], "0 forward matches")]


def test_verify_uog_reads_a_checked_run(example_circuit, monkeypatch):
    # a checked tier-II run past its 188-step period is its own rerun: the
    # report lists the run's repeats, and verify_uog runs no chain
    from hqca import verify
    traj = run(build_initial(BuildSpec(example_circuit, "II")),
               StepBudget(400, "step_limit"), check_uog=True)
    assert traj.uog_violations[0] == (188, "configuration equals state 0")

    def no_run(*args, **kwargs):
        raise AssertionError("verify_uog ran the chain")

    monkeypatch.setattr(verify, "run", no_run)
    rep = verify_uog(traj)
    assert not rep.passed and rep.measured == "states=401"
    assert rep.details == traj.uog_violations


def test_check_uog_flags_states_with_no_reverse_match(example_circuit,
                                                      monkeypatch):
    # negative control for the premise of the repeat check: a state that
    # no reverse rule reaches must be flagged, not only one that two reach
    start = build_initial(BuildSpec(example_circuit, "I"))
    fired = run(start, StepBudget(200, "dead_end")).marker_steps("5a")
    rs = RuleSet("I", rule_set("I").rules)
    rs._index[REVERSE] = {s: [(r, off) for r, off in cands if r.label != "5a"]
                          for s, cands in rs._index[REVERSE].items()}
    monkeypatch.setitem(_RULESET_CACHE, "I", rs)
    traj = run(start, StepBudget(200, "dead_end"), check_uog=True)
    assert fired and traj.marker_steps("5a") == fired
    assert traj.uog_violations == [(t + 1, "0 reverse matches")
                                   for t in fired]


def test_verify_uog_flags_a_cut_dead_end(example_circuit):
    # negative control: a dead-end run with its last step cut claims a dead
    # end at a state that still has its forward match
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    cut = Trajectory(traj.start, traj.rules, traj.labels[:-1],
                     traj.sites[:-1], stop_reason="dead_end")
    rep = verify_uog(cut)
    assert not rep.passed and rep.measured == "states=93"
    assert rep.details == [(92, "final state still has forward matches")]


@pytest.mark.parametrize("tier, expect", [("I", []), ("II", [("13b", 1)]),
                                          ("III", []), ("IV", [("21", 15)])])
def test_start_state_reverse_rules(example_circuit, tier, expect):
    # tier II's start closes a 188-step cycle, so 13b leads into it; tier
    # IV's start opens a short reverse tail
    extra = {"target_x": 3, "bullet_offset": 3} if tier == "IV" else {}
    start = build_initial(BuildSpec(example_circuit, tier, **extra))
    assert [(m.label, m.site) for m in applicable(start, REVERSE)] == expect
    if tier == "II":
        traj = run(start, StepBudget(predicted_cycle_steps(3, 2), "step_limit"))
        assert traj.final.config_equal(start) and traj.labels[-1] == "13b"


def _reference_walk(start, max_steps, check_uog=False):
    """run() rebuilt from applicable(full_scan=True) and the checked apply().

    The full scan tries every rule on every window with try_match and no
    memo, so the reference shares no compiled matcher with run().
    check_uog lists the same reverse matches and finds repeats in a dict
    of config_key()s, each naming the state's last earlier occurrence.
    """
    rs = rule_set(start.tier)
    ref = SimpleNamespace(labels=[], sites=[], digests=[start.digest()],
                          markers={}, violations=[], stop="step_limit",
                          ambiguous=None)
    keys = {start.config_key(): 0}
    state = start
    for t in range(max_steps):
        matches = applicable(state, FORWARD, rs, full_scan=True)
        if not matches:
            ref.stop = "dead_end"
            break
        if len(matches) > 1:
            ref.stop, ref.ambiguous = "ambiguous", matches
            break
        m = matches[0]
        state = apply(state, m)
        ref.labels.append(m.label)
        ref.sites.append(m.site)
        ref.digests.append(state.digest())
        ref.markers.setdefault(m.label, []).append(t)
        if check_uog:
            key = state.config_key()
            if key in keys:
                ref.violations.append(
                    (t + 1, f"configuration equals state {keys[key]}"))
            keys[key] = t + 1
            rev = applicable(state, REVERSE, rs, full_scan=True)
            if len(rev) != 1:
                ref.violations.append((t + 1, f"{len(rev)} reverse matches"))
            elif (rev[0].label, rev[0].site) != (m.label, m.site):
                ref.violations.append(
                    (t + 1, f"reverse match {rev[0].label} at {rev[0].site},"
                     f" but {m.label} at {m.site} fired"))
    ref.final = state
    return ref


def _assert_run_matches_reference(start, budget, check_uog=False,
                                  allow_ambiguous=False):
    """run(), one step at a time, takes the reference loop's path, checks
    and stop, and a replay of its record the reference's states.

    Only allow_ambiguous accepts a reference that ends in an ambiguity;
    run() must then raise Ambiguous at the same step.
    """
    ref = _reference_walk(start, budget.max_steps, check_uog)
    assert allow_ambiguous or ref.stop != "ambiguous"
    try:
        traj = stepped(start, budget, check_uog)
    except Ambiguous as err:
        assert ref.stop == "ambiguous"
        assert err.traj.labels == ref.labels and err.traj.sites == ref.sites
        assert [st.digest() for st in err.traj.iter_states()] == ref.digests
        assert [(m.label, m.site) for m in err.matches] == [
            (m.label, m.site) for m in ref.ambiguous]
        assert err.state.snapshot() == ref.final.snapshot()
        return None
    assert traj.stop_reason == ref.stop
    assert traj.labels == ref.labels and traj.sites == ref.sites
    assert [st.digest() for st in traj.iter_states()] == ref.digests
    assert traj.markers == ref.markers
    assert traj.uog_violations == ref.violations
    assert traj.final.snapshot() == ref.final.snapshot()
    assert traj.final.digest() == ref.final.digest()
    assert np.array_equal(traj.final.work.amps, ref.final.work.amps)
    _assert_bare_runs_match(start, budget, check_uog, traj)
    return traj


def _assert_bare_runs_match(start, budget, check_uog, traj):
    """Two runs, the second on the block store that the first warmed,
    end as traj, a run one step at a time, did."""
    for _ in range(2):
        bare = run(start, budget, check_uog=check_uog)
        assert bare.labels == traj.labels and bare.sites == traj.sites
        assert bare.stop_reason == traj.stop_reason
        assert bare.uog_violations == traj.uog_violations
        assert bare.final.snapshot() == traj.final.snapshot()
        assert np.array_equal(bare.final.work.amps, traj.final.work.amps)


@settings(max_examples=30, deadline=None)
@given(tier=st.sampled_from(("I", "II", "III", "IV")), n=st.integers(2, 3),
       k=st.integers(1, 2), seed=st.integers(0, 10 ** 6),
       target=st.integers(1, 3), steps=st.integers(1, 300),
       check_uog=st.booleans())
def test_run_matches_reference_step_path(tier, n, k, seed, target, steps,
                                         check_uog):
    # random circuits on every tier (L <= 16); tier II repeats its
    # configurations after one cycle, so check_uog draws find violations
    extra = {"target_x": target, "bullet_offset": 2} if tier == "IV" else {}
    start = build_initial(BuildSpec(small_circuit(n, k, seed), tier,
                                    random_state(n, seed), **extra))
    _assert_run_matches_reference(start, StepBudget(steps, "dead_end"),
                                  check_uog)


def test_check_uog_flags_tier2_repeats_from_the_period(example_circuit):
    # negative control: tier II returns to its start configuration after
    # one cycle, so the on-the-fly check must flag exactly the steps from
    # the period on
    period = predicted_cycle_steps(3, 2)
    start = build_initial(BuildSpec(example_circuit, "II",
                                    random_state(3, 4)))
    traj = run(start, StepBudget(period + 3, "step_limit"), check_uog=True)
    assert traj.uog_violations == [
        (t, f"configuration equals state {t - period}")
        for t in range(period, period + 4)]


def test_check_uog_repeat_of_a_later_state(example_circuit, monkeypatch):
    # negative control: an extra rule 13c leads into the state after step
    # 1, so the run returns there, not to its start.  The reference flags
    # the repeats from step 189; run flags the two reverse matches of that
    # state first, at step 1, as its docstring states
    extra = Rule("13c", "II", {P: (lit(TURN), lit("g"))},
                 {P: (lit(TURN), lit("→"))})
    monkeypatch.setitem(_RULESET_CACHE, "II",
                        RuleSet("II", rule_set("II").rules + (extra,)))
    start = build_initial(BuildSpec(example_circuit, "II"))
    row = list(start.rows[P])
    row[1] = "g"
    start = start.replace(rows={P: tuple(row)})
    ref = _reference_walk(start, 191, check_uog=True)
    traj = run(start, StepBudget(191, "step_limit"), check_uog=True)
    assert traj.labels == ref.labels and traj.labels[0] == "13c"
    assert ref.violations == [
        (1, "2 reverse matches"), (189, "configuration equals state 1"),
        (189, "2 reverse matches"), (190, "configuration equals state 2"),
        (191, "configuration equals state 3")]
    # equal through the first reverse-count violation, then a sub-list
    assert traj.uog_violations[:1] == ref.violations[:1]
    later = iter(ref.violations)
    assert all(v in later for v in traj.uog_violations)
    assert traj.uog_violations == [(1, "2 reverse matches"),
                                   (189, "2 reverse matches")]


# a second active symbol away from the head, and how the run went on when
# the cursor still stepped several heads; a one-head cursor refuses them
STRAYS = [
    ("I", "P", 14, "→", StepBudget(200, "dead_end")),  # dead end at 76
    ("III", "P", 1, "g", StepBudget(200, "dead_end")),  # dead end at 108
    # inert pointer: the stray C stayed put all run long
    ("III", "CP", 1, "C", StepBudget(3000, "step_limit")),
    # its S gate swapped two classical data bits, then two rules matched
    ("IV", "P", 14, "g", StepBudget(200, "dead_end")),
]
STRAY_IDS = ["tier1_dead_end", "tier3_dead_end", "tier3_inert_pointer",
             "tier4_ambiguous"]


def _stray_start(circuit, tier, reg, site, symbol):
    extra = {"target_x": 3, "bullet_offset": 3} if tier == "IV" else {}
    start = build_initial(BuildSpec(circuit, tier, **extra))
    row = list(start.rows[reg])
    row[site - 1] = symbol
    stray = start.replace(rows={reg: tuple(row)})
    assert len(active_sites(stray)) == 2
    return start, stray


@pytest.mark.parametrize("tier, reg, site, symbol, budget", STRAYS,
                         ids=STRAY_IDS)
def test_stray_active_symbol_run_matches_reference(example_circuit, tier, reg,
                                                   site, symbol, budget):
    # the full scan counts two active cells and still finds a forward step;
    # run and a replay name that count and refuse the start before any
    # step, where a run of the valid start matches the full scan
    start, stray = _stray_start(example_circuit, tier, reg, site, symbol)
    assert len(_reference_walk(stray, 1).labels) == 1
    with pytest.raises(ValueError, match="start has 2 active cells"):
        run(stray, budget, check_uog=True)
    with pytest.raises(ValueError, match="start has 2 active cells"):
        Trajectory(stray, rule_set(tier)).state(0)
    _assert_run_matches_reference(start, budget, check_uog=True)


def _assert_cursor_equals_recomputation(start, steps):
    # after every step the cursor's head is the one active cell recomputed
    # from its snapshot, and run's repeat test on the cursor agrees with a
    # comparison of the snapshot's rows, data bits flipped by gates too
    start_head = active_sites(start)[0]
    start_rows = {r: list(row) for r, row in start.rows.items()}
    cur = _Cursor(start, rule_set(start.tier))
    for _ in range(steps):
        if cur.step() is None:
            break
        snap = cur.chain_state()
        assert [cur.head] == active_sites(snap)
        assert (cur.head == start_head and cur.rows == start_rows) == (
            snap.rows == start.rows)


@pytest.mark.parametrize("tier, reg, site, symbol, budget", STRAYS,
                         ids=STRAY_IDS)
def test_cursor_equals_recomputation(example_circuit, tier, reg, site, symbol,
                                     budget):
    # the cursor refuses the stray start, and follows the valid start of
    # the same spec for the whole budget
    start, stray = _stray_start(example_circuit, tier, reg, site, symbol)
    with pytest.raises(ValueError, match="start has 2 active cells"):
        _Cursor(stray, rule_set(tier))
    _assert_cursor_equals_recomputation(start, budget.max_steps)


@settings(max_examples=20, deadline=None)
@given(tier=st.sampled_from(("I", "II", "III", "IV")), n=st.integers(2, 3),
       k=st.integers(1, 2), seed=st.integers(0, 10 ** 6),
       target=st.integers(1, 3), steps=st.integers(1, 300))
def test_cursor_equals_recomputation_on_random_chains(tier, n, k, seed,
                                                      target, steps):
    # tier II returns to its start each cycle, so the repeat test is met
    extra = {"target_x": target, "bullet_offset": 2} if tier == "IV" else {}
    start = build_initial(BuildSpec(small_circuit(n, k, seed), tier,
                                    random_state(n, seed), **extra))
    _assert_cursor_equals_recomputation(start, steps)


def test_a_rule_that_leaves_two_heads_is_named(example_circuit, monkeypatch):
    # negative control for fire's check: rule 98 keeps the arrow and marks
    # the gate after it, so its first firing leaves two active cells.  The
    # run names it at step 0; the full scan, which has no such check, steps
    # on and meets an ambiguity at state 2 that names no broken rule
    r98 = Rule("98", "I", {P: (lit("→"), gv("A"))},
               {P: (ANY, mgv("A", "→"))})
    rs = RuleSet("I", rule_set("I").without("1").rules + (r98,))
    monkeypatch.setitem(_RULESET_CACHE, "I", rs)
    start = build_initial(BuildSpec(example_circuit, "I"))
    with pytest.raises(ValueError, match="rule 98 left 2 active cells"):
        stepped(start, StepBudget(10))
    with pytest.raises(ValueError, match="rule 98 left 2 active cells"):
        run(start, StepBudget(10))
    ref = _reference_walk(start, 10)
    assert ref.labels == ["98", "2"] and ref.stop == "ambiguous"
    assert [(m.label, m.site) for m in ref.ambiguous] == [("98", 1), ("2", 3)]


def test_duplicated_rule_is_ambiguous(example_circuit, monkeypatch):
    # a copy 2x of rule 2 matches wherever rule 2 does: run raises
    # Ambiguous at step 1 with the full scan's (label, site) list
    _with_rule_2x(monkeypatch)
    start = build_initial(BuildSpec(example_circuit, "I"))
    assert _assert_run_matches_reference(
        start, StepBudget(50), check_uog=True, allow_ambiguous=True) is None
    with pytest.raises(Ambiguous, match=r"\[\('2', 2\), \('2x', 2\)\]"):
        run(start, StepBudget(50))


@pytest.mark.parametrize("tier", ["III", "IV"])
def test_check_uog_active_cells_back_at_the_start_are_no_repeat(
        example_circuit, tier):
    # the repeat check compares rows only where the active cells equal the
    # start's: after a clock increment they do (tier III from its first
    # state with the pointer C at the right end, tier IV from its built
    # start) while the clock row differs, and that is no repeat
    if tier == "III":
        start = run(build_initial(BuildSpec(example_circuit, "III")),
                    StepBudget(14, "step_limit")).final
        assert active_sites(start) == [(16, "CP", "C")]
    else:
        start = build_initial(BuildSpec(example_circuit, "IV", target_x=3,
                                        bullet_offset=3))
    traj = run(start, StepBudget(400, "step_limit"), check_uog=True)
    back = [t for t, cur in traj._replay(traj.n_steps)
            if t and [cur.head] == active_sites(start)]
    assert len(back) == 2 and traj.uog_violations == []
    assert all(traj.state(t).rows["C"] != start.rows["C"] for t in back)
    _assert_run_matches_reference(start, StepBudget(400, "step_limit"),
                                  check_uog=True)
    assert verify_uog(run(start, StepBudget(400, "step_limit"))).passed


def _x9_start(example_circuit):
    return build_initial(BuildSpec(example_circuit, "IV", target_x=9,
                                   bullet_offset=3))


def _fresh_rules(monkeypatch, tier):
    """Put a copy of the tier's rule set, with an empty block store, in
    the cache for this test, so that what it replays does not depend on the
    tests run before it."""
    rs = RuleSet(tier, rule_set(tier).rules)
    monkeypatch.setitem(_RULESET_CACHE, tier, rs)
    return rs


def _blocks(rs, *keys):
    """The blocks of a rule set's store, of the given (L, check_uog) keys
    or of all of them."""
    return [b for key, store in rs.blocks.items() if not keys or key in keys
            for blocks in store.values() for b in blocks]


def test_block_memo_x9_to_its_dead_end(example_circuit, monkeypatch):
    # 26 326 steps, most of them replayed from the store on the second run
    _fresh_rules(monkeypatch, "IV")
    start = _x9_start(example_circuit)
    traj = stepped(start, StepBudget(10 ** 5))
    assert traj.n_steps == 26326 and traj.stop_reason == "dead_end"
    _assert_bare_runs_match(start, StepBudget(10 ** 5), False, traj)


def test_block_memo_chunked_runs_equal_one_run(example_circuit, monkeypatch):
    # the benchmark's t4_freeze chain, run as calls of 4000 steps: a block
    # never overruns a call's budget, and the calls chain into one run
    _fresh_rules(monkeypatch, "IV")
    start = build_initial(BuildSpec(example_circuit, "IV", random_state(3, 1),
                                    target_x=5, bullet_offset=6))
    whole = stepped(start, StepBudget(10 ** 6))
    assert whole.n_steps == 99276
    for _ in range(2):
        labels, sites, state, stop = [], [], start, None
        while stop != "dead_end":
            part = run(state, StepBudget(4000))
            stop, state = part.stop_reason, part.final
            assert part.n_steps == 4000 or stop == "dead_end"
            labels += part.labels
            sites += part.sites
        assert labels == whole.labels and sites == whole.sites
        assert state.snapshot() == whole.final.snapshot()
        assert np.array_equal(state.work.amps, whole.final.work.amps)


def test_block_memo_tier2_repeats_over_three_periods(example_circuit,
                                                     monkeypatch):
    # runs from a state inside the cycle store blocks that pass the start's
    # configuration with no repeat to flag; run from the start, such a block
    # would pass its first return unflagged, so run single-steps it
    _fresh_rules(monkeypatch, "II")
    period = predicted_cycle_steps(3, 2)
    start = build_initial(BuildSpec(example_circuit, "II",
                                    random_state(3, 4)))
    budget = StepBudget(3 * period, "step_limit")
    for skip in (50, 120):
        inside = run(start, StepBudget(skip)).final
        for _ in range(2):
            run(inside, budget, check_uog=True)
    traj = stepped(start, budget, check_uog=True)
    assert traj.uog_violations == [
        (t, f"configuration equals state {t - period}")
        for t in range(period, 3 * period + 1)]
    _assert_bare_runs_match(start, budget, True, traj)


def test_block_memo_reads_the_reverse_probe_under_check_uog(
        example_circuit, monkeypatch):
    # negative control: rule 99's right side is rule 11's with a 1 clock
    # cell on the left, so a rule-11 firing over a set clock bit leaves two
    # reverse matches (its left side holds a tier-IV symbol and never
    # fires).  No forward probe of the reset sweep reads the clock: only
    # the reverse-probe cells in a block's footprint keep a sweep stored
    # over 0 bits from replaying over set ones
    extra = Rule("99", "III", {P: (lit("▷x"), gv("A")), C: (lit("1"), ANY)},
                 {P: (gv("A"), lit("▷")), C: (lit("1"), ANY)})
    monkeypatch.setitem(_RULESET_CACHE, "III",
                        RuleSet("III", rule_set("III").rules + (extra,)))
    start = build_initial(BuildSpec(example_circuit, "III"))
    budget = StepBudget(3000, "step_limit")
    traj = stepped(start, budget, check_uog=True)
    flagged = [t for t, _ in traj.uog_violations]
    assert len(flagged) == 8
    assert {traj.labels[t - 1] for t in flagged} == {"11"}
    _assert_bare_runs_match(start, budget, True, traj)


def test_check_uog_names_a_reverse_match_of_another_rule(example_circuit,
                                                        monkeypatch):
    # negative control for the reverse naming: rule 99 of the test above,
    # with rule 11 gone from the reverse index as 5a is in
    # test_check_uog_flags_states_with_no_reverse_match.  A rule-11 firing
    # over a set clock bit leaves one reverse match, 99's, and over a 0 bit
    # none; the forward path is unchanged
    extra = Rule("99", "III", {P: (lit("▷x"), gv("A")), C: (lit("1"), ANY)},
                 {P: (gv("A"), lit("▷")), C: (lit("1"), ANY)})
    rs = RuleSet("III", rule_set("III").rules + (extra,))
    rs._index[REVERSE] = {s: [(r, off) for r, off in cands if r.label != "11"]
                          for s, cands in rs._index[REVERSE].items()}
    monkeypatch.setitem(_RULESET_CACHE, "III", rs)
    start = build_initial(BuildSpec(example_circuit, "III"))
    budget = StepBudget(3000, "step_limit")
    traj = stepped(start, budget, check_uog=True)
    fired = [t + 1 for t in traj.marker_steps("11")]
    assert [t for t, _ in traj.uog_violations] == fired
    named = [(t, msg) for t, msg in traj.uog_violations
             if msg != "0 reverse matches"]
    assert len(named) == 8 and named == [
        (t, f"reverse match 99 at {traj.sites[t - 1]}, but 11 at"
            f" {traj.sites[t - 1]} fired") for t, _ in named]
    _assert_bare_runs_match(start, budget, True, traj)


def test_check_uog_names_a_reverse_match_at_another_window(example_circuit,
                                                          monkeypatch):
    # negative control for the window half of the naming: the cursor's
    # reverse lookup reports rule 5a's reverse match one window left of
    # where 5a fired, and every state 5a reaches is flagged
    reverse = _Cursor.reverse
    monkeypatch.setattr(_Cursor, "reverse", lambda cur: tuple(
        (off + (h.rule.label == "5a"), h) for off, h in reverse(cur)))
    _fresh_rules(monkeypatch, "I")
    start = build_initial(BuildSpec(example_circuit, "I"))
    budget = StepBudget(200, "dead_end")
    traj = stepped(start, budget, check_uog=True)
    fired = traj.marker_steps("5a")
    assert fired and traj.uog_violations == [
        (t + 1, f"reverse match 5a at {traj.sites[t] - 1}, but 5a at"
                f" {traj.sites[t]} fired") for t in fired]
    _assert_bare_runs_match(start, budget, True, traj)


def test_block_memo_replays_most_steps(example_circuit, monkeypatch):
    # on a warm store fewer than 10 % of the steps take _Cursor.step; one
    # step at a time every step does
    _fresh_rules(monkeypatch, "IV")
    start = _x9_start(example_circuit)
    run(start, StepBudget(10 ** 5))
    calls = []
    step = _Cursor.step
    monkeypatch.setattr(_Cursor, "step",
                        lambda cur: calls.append(1) or step(cur))
    traj = run(start, StepBudget(10 ** 5))
    assert traj.n_steps == 26326 and len(calls) < 0.1 * traj.n_steps
    calls.clear()
    assert stepped(start, StepBudget(10 ** 5)).labels == traj.labels
    assert len(calls) == 26327  # the last call finds the dead end


def test_block_memo_is_per_rule_set_and_chain_length(example_circuit,
                                                     monkeypatch):
    # a without() copy starts with an empty store and replays only its own
    # blocks; a chain of another length replays none stored for L = 16
    parent = _fresh_rules(monkeypatch, "IV")
    start = _x9_start(example_circuit)
    run(start, StepBudget(10 ** 5))
    theirs = {id(b) for b in _blocks(parent, (16, False))}
    assert theirs
    replayed = []
    replay = _Cursor.replay

    def spy(cur, blocks, left, first):
        block = replay(cur, blocks, left, first)
        if block is not None:
            replayed.append(id(block))
        return block

    monkeypatch.setattr(_Cursor, "replay", spy)
    copy = parent.without("29")
    assert copy.blocks == {} and copy.stretches == set()
    monkeypatch.setitem(_RULESET_CACHE, "IV", copy)
    for _ in range(2):
        assert run(start, StepBudget(10 ** 5)).n_steps == 26326
    assert replayed and not theirs & set(replayed)
    monkeypatch.setitem(_RULESET_CACHE, "IV", parent)
    replayed.clear()
    other = build_initial(BuildSpec(small_circuit(2, 1), "IV", target_x=3,
                                    bullet_offset=4))
    assert other.L != 16
    for _ in range(2):
        run(other, StepBudget(10 ** 5))
    assert replayed and not theirs & set(replayed)


def test_block_store_stays_under_its_cap(example_circuit, monkeypatch):
    # 10^5 tier-III steps stay under the cap; under a cap of 4 the run
    # empties the full store and goes on building and replaying blocks
    start = build_initial(BuildSpec(example_circuit, "III",
                                    random_state(3, 4)))
    built, replayed = [], []
    block, replay = engine._Block, _Cursor.replay
    monkeypatch.setattr(engine, "_Block",
                        lambda *a: built.append(1) or block(*a))

    def spy(cur, *args):
        found = replay(cur, *args)
        if found is not None:
            replayed.append(len(built))
        return found

    monkeypatch.setattr(_Cursor, "replay", spy)
    for cap in (BLOCK_CAP, 4):
        built.clear()
        replayed.clear()
        rs = _fresh_rules(monkeypatch, "III")
        monkeypatch.setattr(engine, "BLOCK_CAP", cap)
        traj = run(start, StepBudget(10 ** 5))
        assert traj.n_steps == 10 ** 5
        assert 0 < len(_blocks(rs)) <= cap
        assert len(rs.stretches) <= 8 * cap
    assert max(replayed) > 2 * 4  # a replay after the store was emptied twice
    assert traj.labels == stepped(start, StepBudget(10 ** 5)).labels


def _with_data(start, cells):
    """start with the data cells {site: symbol} replaced."""
    row = list(start.rows[D])
    for site, symbol in cells.items():
        row[site - 1] = symbol
    return start.replace(rows={**start.rows, D: tuple(row)})


def test_block_memo_replays_a_classical_gate_write(example_circuit,
                                                   monkeypatch):
    # No valid chain reaches a classical write: there a classical gate meets
    # 00 or 11 under S and a 0 control under W (below on the worked example;
    # random circuits of all four tiers agree), so the start is hand-built.
    # Its 1 at site 2 has an S gate swap a 10 pair; a block that holds that
    # step writes the swapped data cells as it replays
    effect, written = engine._apply_gate_effect, []

    def spy(state, kind, i, adjoint):
        cells, work = effect(state, kind, i, adjoint)
        written.append(cells is not None)
        return cells, work

    monkeypatch.setattr(engine, "_apply_gate_effect", spy)
    for tier, steps in (("I", 200), ("II", predicted_cycle_steps(3, 2)),
                        ("III", 5000)):
        stepped(build_initial(BuildSpec(example_circuit, tier,
                                        random_state(3, 1))),
                StepBudget(steps))
    assert len(written) > 100 and not any(written)
    _fresh_rules(monkeypatch, "I")
    start = _with_data(build_initial(BuildSpec(example_circuit, "I",
                                               random_state(3, 1))), {2: "1"})
    traj = stepped(start, StepBudget(200))
    assert traj.stop_reason == "dead_end" and any(written)
    replayed, replay = [], _Cursor.replay

    def spy_replay(cur, *args):
        block = replay(cur, *args)
        if block is not None:
            replayed.append(block)
        return block

    monkeypatch.setattr(_Cursor, "replay", spy_replay)
    for _ in range(2):  # a bare run notes its stretches, the next stores them
        _assert_bare_runs_match(start, StepBudget(200), False, traj)
    assert any(reg == D for block in replayed for reg, *_ in block.writes)


@pytest.mark.parametrize("gate, nth, site, symbol", [
    (8, 1, 8, "0"), (8, 1, 9, "0"), (11, 0, 11, "1"), (11, 0, 12, QUANTUM)])
def test_block_memo_raises_a_non_classical_gate_where_a_step_does(
        example_circuit, monkeypatch, gate, nth, site, symbol):
    # the data cells under a gate are in the footprint of a block that holds
    # it.  Two runs from the state before the nth gate at (gate, gate + 1)
    # (a quantum S at (8, 9), a classical W at (11, 12)) store a block that
    # starts with that gate step; its probes read the left cell (the gate
    # head's probe does) but never the right one.  From the same state with
    # the left or the right cell changed, the run raises
    # NonClassicalGateError in the state where single steps raise it
    rs = _fresh_rules(monkeypatch, "III")
    traj = stepped(build_initial(BuildSpec(example_circuit, "III",
                                           random_state(3, 1))),
                   StepBudget(500))
    t = [t for t, (label, i) in enumerate(zip(traj.labels, traj.sites))
         if label == "5a" and i == gate][nth]
    before, budget = traj.state(t), StepBudget(500)
    for _ in range(2):
        assert run(before, budget).n_steps == 500
    head = active_sites(before)[0]
    assert any(block.labels[0] == "5a"
               for block in rs.blocks[(before.L, False)][head])
    effect, raised = engine._apply_gate_effect, []

    def spy(cur, kind, i, adjoint):
        try:
            return effect(cur, kind, i, adjoint)
        except NonClassicalGateError:
            raised.append((cur.chain_state().snapshot(), cur.work.amps))
            raise

    monkeypatch.setattr(engine, "_apply_gate_effect", spy)
    bad = _with_data(before, {site: symbol})
    with pytest.raises(NonClassicalGateError) as single:
        stepped(bad, budget)
    with pytest.raises(NonClassicalGateError) as bare:
        run(bad, budget)
    assert str(bare.value) == str(single.value)
    (stepped_rows, stepped_work), (bare_rows, bare_work) = raised
    assert bare_rows == stepped_rows
    assert np.array_equal(bare_work, stepped_work)


def test_block_memo_replays_most_tier3_steps(example_circuit, monkeypatch):
    # blocks hold gate steps: on a warm store fewer than 1 % of the first
    # 2 * 10^4 steps of the tier-III worked example take _Cursor.step (76;
    # 1688 when each gate step went alone), though more than 1000 fire a gate
    _fresh_rules(monkeypatch, "III")
    start = build_initial(BuildSpec(example_circuit, "III"))
    budget = StepBudget(2 * 10 ** 4)
    run(start, budget)
    calls = []
    step = _Cursor.step
    monkeypatch.setattr(_Cursor, "step",
                        lambda cur: calls.append(1) or step(cur))
    traj = run(start, budget)
    assert traj.n_steps == 2 * 10 ** 4 and len(calls) < 0.01 * traj.n_steps
    assert len(traj.marker_steps("5a")) > 1000


def test_tier3_runs_to_its_dead_end(example_circuit):
    # the clock stops at 2^15 - 1 after 192 * 2^15 - 3 steps, with U^(2^15)
    # on the work register: one power more than the clock reads, in a state
    # whose clock pointer is off C, so that claim B compares no power there.
    # Claim B holds at every C-state on the way, k = 0 .. 2^15 - 1, read
    # from the run's blocks
    w = random_state(3, 5)
    traj = run(build_initial(BuildSpec(example_circuit, "III", w)),
               StepBudget(10 ** 7))
    assert traj.stop_reason == "dead_end"
    assert traj.n_steps == 192 * 2 ** 15 - 3
    assert clock_value(traj.final) == 2 ** 15 - 1
    expect = apply_circuit_power(w, example_circuit, 2 ** 15)
    assert fidelity(expect, traj.final.work.amps) >= 1 - FIDELITY_TOL
    res = check_claim_b(traj, example_circuit)
    assert res.line().startswith(
        "CHECK claim_b PASS states=32768 k_max=32767 ")


def _replayed_stretches(traj, watched):
    """The (first, last) steps of each stretch that a watched replay of
    traj takes from a block, in order."""
    stretches, k = [], [0]
    step, replay = _Cursor.step, _Cursor.replay

    def spy_step(cur):
        k[0] += 1
        return step(cur)

    def spy_replay(cur, *args):
        block = replay(cur, *args)
        if block is not None:
            stretches.append((k[0], k[0] + len(block.labels) - 1))
            k[0] += len(block.labels)
        return block

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Cursor, "step", spy_step)
        m.setattr(_Cursor, "replay", spy_replay)
        for _ in traj._replay(traj.n_steps, watched):
            pass
    return stretches


@pytest.mark.parametrize("field", ["labels", "sites"])
def test_watched_replay_holds_blocks_to_the_record(example_circuit,
                                                   monkeypatch, field):
    # a watched replay takes most steps from the run's blocks, yields only
    # after the watched labels and at the end, and stops in no block; so
    # does state(t), which watches nothing, and it stops at any t.  A
    # record changed inside a stretch that a block replays still leaves
    # either replay at the changed step: the block no longer matches it
    _fresh_rules(monkeypatch, "III")
    start = build_initial(BuildSpec(example_circuit, "III"))
    run(start, StepBudget(3000))
    traj = run(start, StepBudget(3000))
    watched = frozenset(Trajectory.EVENT_LABELS["clock_done"])
    ks = [k for k, _cur in traj._replay(traj.n_steps, watched)]
    assert ks == [t + 1 for t in traj.marker_steps(*watched)] + [3000]
    stretches = _replayed_stretches(traj, watched)
    assert sum(b - a + 1 for a, b in stretches) > 0.9 * traj.n_steps
    assert not any(a <= k - 1 < b for a, b in stretches for k in ks)
    a, b = stretches[len(stretches) // 2]
    j = (a + b) // 2
    unwatched = _replayed_stretches(traj, frozenset())
    assert sum(q - p + 1 for p, q in unwatched) > 0.9 * traj.n_steps
    assert any(p <= j <= q for p, q in unwatched)
    states = list(traj.iter_states())
    for t in range(a, b + 2):  # into and out of a block
        _assert_equal_states(traj.state(t), states[t])
    rec = getattr(traj, field)
    rec[j] = "99" if field == "labels" else rec[j] + 1
    with pytest.raises(ValueError, match=f"left the record at step {j}$"):
        for _ in traj._replay(traj.n_steps, watched):
            pass
    with pytest.raises(ValueError, match=f"left the record at step {j}$"):
        traj.state(traj.n_steps)
    res = check_claim_b(traj, example_circuit)
    assert res.details[-1] == f"replay left the record at step {j}"


def test_restricted_hamiltonian_is_path_adjacency():
    traj = run(build_initial(BuildSpec(small_circuit(2, 1), "I")),
               StepBudget(50, "dead_end"))
    h = restricted_hamiltonian(traj)
    n = 11
    assert h.shape == (n, n)
    want = np.zeros((n, n))
    for i in range(n - 1):
        want[i, i + 1] = want[i + 1, i] = 1.0
    assert np.max(np.abs(h - want)) < 1e-12


def test_restricted_hamiltonian_raises_on_off_path_image(monkeypatch):
    # negative control: an extra rule that moves the arrow right over a gate
    # without marking it maps the start state off the path
    traj = run(build_initial(BuildSpec(small_circuit(2, 1), "I")),
               StepBudget(50, "dead_end"))
    stray = Rule("99", "I", {P: (lit("→"), gv("A"))}, {P: (gv("A"), lit("→"))})
    monkeypatch.setitem(_RULESET_CACHE, "I",
                        RuleSet("I", rule_set("I").rules + (stray,)))
    with pytest.raises(ValueError, match="rule 99 maps state 0 to no trajectory"):
        restricted_hamiltonian(traj)


def _tier2_past_one_period(gate):
    """A tier-II all-`gate` run (n=2, work 01) for one period + 2 steps:
    states period and period + 1 repeat the configurations of 0 and 1."""
    start = build_initial(BuildSpec(CircuitProgram(2, ((gate,),)), "II",
                                    "01"))
    period = predicted_cycle_steps(2, 1)
    return run(start, StepBudget(period + 2, "step_limit")), period


def test_restricted_hamiltonian_raises_on_an_off_path_element():
    # negative control: with an all-I circuit the work returns with the
    # configuration, so rule 1 maps state 0 onto state period + 1 as well
    traj, period = _tier2_past_one_period("I")
    with pytest.raises(ValueError, match=f"rule 1 maps state 0 to state"
                       f" {period + 1}: off-path matrix element"):
        restricted_hamiltonian(traj)


def test_restricted_hamiltonian_skips_orthogonal_work():
    # with S the repeated configurations carry S|01> = |10>, orthogonal to
    # the work of states 0 and 1, so only the path's elements remain
    traj, period = _tier2_past_one_period("S")
    h = restricted_hamiltonian(traj)
    ones = np.ones(period + 2)
    assert h.shape == (period + 3, period + 3)
    assert np.array_equal(h, np.diag(ones, 1) + np.diag(ones, -1))


def test_restricted_hamiltonian_clocked_prefix(example_circuit):
    # also symmetric/tridiagonal/0-diagonal on a clocked-tier prefix
    traj = run(build_initial(BuildSpec(example_circuit, "III")),
               StepBudget(120, "step_limit"))
    h = restricted_hamiltonian(traj)
    assert np.array_equal(h, h.T)
    assert np.max(np.abs(np.diag(h))) == 0.0
    off = np.diag(h, 1)
    assert np.max(np.abs(off - 1.0)) < 1e-12
    assert np.max(np.abs(h - np.diag(off, 1) - np.diag(off, -1))) < 1e-12


def test_walk_factorization_matches_rule_hamiltonian():
    # the closed-form walk and the matrix exponential of the rule-generated
    # Hamiltonian drive identical amplitudes over the trajectory basis, with
    # each position carrying its own work state
    from scipy.linalg import expm
    from hqca import CircuitProgram, WalkLine, evolve
    traj = run(build_initial(BuildSpec(CircuitProgram(2, (("W",),)), "I", "10")),
               StepBudget(50, "dead_end"))
    h = restricted_hamiltonian(traj)
    line = WalkLine(len(traj))
    for tau in (0.7, 3.1, 12.0):
        closed = evolve(line, tau)
        dense = expm(1j * h * tau)[:, 0]  # walk Hamiltonian is -adjacency
        assert np.max(np.abs(closed - dense)) < 1e-9
    # position amplitudes plus per-position work states compose the full
    # state: norms add up over the factorized form
    probs = np.abs(evolve(line, 5.0)) ** 2
    assert abs(probs.sum() - 1.0) < 1e-10
    for t in (0, 3, 10):
        assert abs(traj.state(t).work.norm() - 1.0) < 1e-12


def test_clock_monotone_at_completions(example_circuit):
    traj = run(build_initial(BuildSpec(example_circuit, "III")),
               StepBudget(3000, "step_limit"))
    ks = [clock_value(st) for st in traj.iter_states()
          if "C" in st.rows["CP"]]
    assert ks == list(range(len(ks)))  # 0, 1, 2, ... exactly


def test_gate_rounds_every_n_plus_1_oscillations():
    for n, k in ((2, 2), (3, 2), (3, 3)):
        traj = run(build_initial(BuildSpec(small_circuit(n, k), "I")),
                   StepBudget(10 ** 4, "dead_end"))
        osc_len = predicted_oscillation_steps(n, k)
        gate_oscs = [t // osc_len + 1 for t in traj.markers["4a"]]
        assert gate_oscs == [1 + r * (n + 1) for r in range(k)]


def test_restricted_hamiltonian_length_one():
    s = build_initial(BuildSpec(small_circuit(2, 1), "I"))
    traj = run(s, StepBudget(5, "step_limit"))
    traj.labels = []
    traj.sites = []
    traj.final = s  # a record of no steps ends where it starts
    h = restricted_hamiltonian(traj)
    assert h.shape == (1, 1) and h[0, 0] == 0.0


def test_streaming_run_matches_full(example_circuit):
    full = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    lean = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"), check_uog=True)
    assert lean.labels == full.labels
    assert not lean.uog_violations
    # verify_uog reruns either record under check_uog
    assert verify_uog(lean) == verify_uog(full)
    assert verify_uog(lean).passed


def test_run_keeps_no_states(example_circuit):
    start = build_initial(BuildSpec(example_circuit, "I"))
    with pytest.raises(TypeError, match="Trajectory.state"):
        run(start, StepBudget(5), keep_states=True)
    # False, the value the benchmark harness passes, changes nothing
    traj = run(start, StepBudget(5), keep_states=False)
    assert traj.labels == run(start, StepBudget(5)).labels
    assert not hasattr(traj, "states")


def test_state_reads_keep_no_states(monkeypatch):
    # random state(t) reads on a 16-qubit work register (1 MiB of
    # amplitudes) keep nothing, and hold about two registers at a time
    _fresh_rules(monkeypatch, "II")
    start = build_initial(BuildSpec(small_circuit(16, 1, 3), "II",
                                    random_state(16, 3)))
    for _ in range(2):  # the second run replays blocks, as state(t) does
        traj = run(start, StepBudget(8 * 1024))
    ts = np.random.default_rng(0).integers(0, traj.n_steps, 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in (traj.n_steps, *ts):
            traj.state(t)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - before < 2 ** 20 and peak - before < 4 * 2 ** 20


def test_state_replays_the_full_width_run_at_block_speed(monkeypatch):
    # state(n_steps) on the full-width x = 1 tier-IV run at L = 16
    # (6 291 658 steps) takes fewer than 1 % of them one at a time (8454)
    # and lands on traj.final; the spy stops a step-by-step replay early
    _fresh_rules(monkeypatch, "IV")
    start = build_initial(BuildSpec(small_circuit(3, 2, 1), "IV",
                                    target_x=1,
                                    bullet_offset=full_width_offset(16, 1)))
    traj = run(start, StepBudget(10 ** 7))
    assert start.L == 16 and traj.n_steps == 192 * 2 ** 15 + 202
    calls, step = [], _Cursor.step

    def spy(cur):
        calls.append(1)
        assert len(calls) < 0.01 * traj.n_steps, "replay single-steps"
        return step(cur)

    monkeypatch.setattr(_Cursor, "step", spy)
    end = traj.state(traj.n_steps)
    assert end.rows == traj.final.rows
    assert np.array_equal(end.work.amps, traj.final.work.amps)


def _assert_equal_states(a, b):
    assert a.config_key() == b.config_key() and a.digest() == b.digest()
    assert a.work.support == b.work.support
    assert np.array_equal(a.work.amps, b.work.amps)


@settings(max_examples=30, deadline=None)
@given(tier=st.sampled_from(("I", "II", "III", "IV")), n=st.integers(2, 3),
       k=st.integers(1, 2), seed=st.integers(0, 10 ** 6),
       target=st.integers(1, 3), steps=st.integers(1, 300),
       long=st.booleans(), data=st.data())
def test_replay_equals_the_observed_states(tier, n, k, seed, target, steps,
                                           long, data):
    # state(t) and iter_states() replay exactly the states that a cursor
    # stepping from the start reaches, state(t) through the blocks that two
    # bare runs stored; a long draw runs past 2000 steps (tier III with
    # k = 2 outlives it)
    if long:
        steps, k = steps + 2048, 2 if tier == "III" else k
    extra = {"target_x": target, "bullet_offset": 2} if tier == "IV" else {}
    start = build_initial(BuildSpec(small_circuit(n, k, seed), tier,
                                    random_state(n, seed), **extra))
    for _ in range(2):
        traj = run(start, StepBudget(steps, "dead_end"))
    n_steps = traj.n_steps
    cur, seen = _Cursor(start, rule_set(tier)), [start]
    while len(seen) <= n_steps and cur.step():
        seen.append(cur.chain_state())
    assert len(seen) == n_steps + 1
    assert not (long and tier == "III") or n_steps > 2048
    ts = data.draw(st.permutations(
        [0, n_steps // 2, n_steps, data.draw(st.integers(0, n_steps))]))
    for t in ts:
        _assert_equal_states(traj.state(t), seen[t])
    _assert_equal_states(traj.state(np.int64(ts[0])), seen[ts[0]])
    replayed = list(traj.iter_states())
    assert len(replayed) == len(seen)
    for a, want in zip(replayed, seen):
        _assert_equal_states(a, want)
    for t in (-1, n_steps + 1):
        with pytest.raises(IndexError):
            traj.state(t)
    with pytest.raises(TypeError):  # an index: no replay lands on 1.5
        traj.state(1.5)
    if not n_steps:
        return
    # negative control: a record changed at step j replays up to state j,
    # and a replay past it raises
    j = data.draw(st.integers(0, n_steps - 1))
    doctored = Trajectory(start, traj.rules, list(traj.labels),
                          list(traj.sites))
    if data.draw(st.booleans()):
        doctored.labels[j] = "0"
    else:
        doctored.sites[j] += 1
    _assert_equal_states(doctored.state(j), seen[j])
    with pytest.raises(ValueError, match=f"left the record at step {j}"):
        doctored.state(n_steps)
    with pytest.raises(ValueError, match=f"left the record at step {j}"):
        list(doctored.iter_states())


def test_trace_format(tmp_path, example_circuit):
    path = tmp_path / "trace.tsv"
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(5, "step_limit"))
    with open(path, "w", encoding="utf-8") as fh:
        write_trace(fh, traj)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    first = lines[0].split("\t")
    assert first[0] == "0" and first[1] == "1" and first[2] == "1"
    assert first[3] == "P:→S" and len(first[5]) == 16
    # snapshot blocks interleave after the steps they follow
    with open(path, "w", encoding="utf-8") as fh:
        write_trace(fh, traj, 2)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [i for i, ln in enumerate(lines) if ln.startswith("P: ")] == [2, 6]
    assert lines[3] == traj.state(2).snapshot().splitlines()[1]


def test_predicted_cycle(example_circuit):
    assert predicted_cycle_steps(3, 2) == 2 * 93 + 2


def test_step_count_formula_consistency():
    # the closed form equals oscillation accounting:
    # (N(K-1)+K) full oscillations plus a K(N+1)-step half oscillation
    for n in range(2, 8):
        for k in range(1, 6):
            full = (n * (k - 1) + k) * predicted_oscillation_steps(n, k)
            assert predicted_single_pass_steps(n, k) == full + k * (n + 1)


def test_named_events(example_circuit):
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    ev = traj.events()
    assert ev["turn_gate"] == [8, 76]
    assert len(ev["oscillation_end"]) == 5
    assert "compare_fail" not in ev


@settings(max_examples=30, deadline=None)
@given(tier=st.sampled_from(("I", "II", "III", "IV")), n=st.integers(2, 3),
       k=st.integers(1, 2), seed=st.integers(0, 10 ** 6),
       target=st.integers(1, 3), steps=st.integers(1, 4000))
def test_events_equal_their_labels_markers(tier, n, k, seed, target, steps):
    # events() reads the labels in one pass; it equals the markers of each
    # event's labels, read one event at a time, with empty events left out
    extra = {"target_x": target, "bullet_offset": 2} if tier == "IV" else {}
    traj = run(build_initial(BuildSpec(small_circuit(n, k, seed), tier,
                                       random_state(n, seed), **extra)),
               StepBudget(steps))
    want = {name: steps for name, labels in Trajectory.EVENT_LABELS.items()
            if (steps := traj.marker_steps(*labels))}
    assert list(traj.events().items()) == list(want.items())  # in order
