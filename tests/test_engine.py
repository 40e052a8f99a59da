import contextlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqca import (FORWARD, REVERSE, Ambiguous, BuildSpec, StepBudget,
                  active_sites, applicable, apply, build_initial,
                  clock_value, predicted_cycle_steps,
                  predicted_oscillation_steps, predicted_single_pass_steps,
                  restricted_hamiltonian, rule_set, run, verify_uog)
from hqca.engine import _Cursor, trace_observer
from hqca.rules import _RULESET_CACHE, Rule, RuleSet, gv, lit
from hqca.state import WorkState
from hqca.symbols import P, TURN

from conftest import random_state, small_circuit


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
    s = build_initial(BuildSpec(example_circuit, "I"))
    row = list(s.rows["P"])
    row[9] = "→"  # second arrow in the bullet field
    bad = s.replace(rows={"P": tuple(row)})
    # never silently picks one: either several matches or none
    try:
        traj = run(bad, StepBudget(1))
    except Ambiguous:
        return
    assert traj.stop_reason == "dead_end", "corrupted state stepped silently"


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


def test_verify_uog_clean_and_negative(example_circuit):
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    assert traj.start.work.support == (6, 7, 8)  # the window it checks
    rep = verify_uog(traj)
    assert rep.passed and rep.measured == "states=94"
    # duplicated configuration must be flagged
    traj.states[40] = traj.states[12]
    rep2 = verify_uog(traj)
    assert not rep2.passed
    assert rep2.details == [(40, "configuration equals state 12")]
    # a third copy names the latest earlier one
    traj.states[60] = traj.states[12]
    assert verify_uog(traj).details == [(40, "configuration equals state 12"),
                                        (60, "configuration equals state 40")]


def test_verify_uog_alone_catches_missing_rule(example_circuit, monkeypatch):
    # hqca verify runs without check_uog, so verify_uog must on its own
    # report both the forward and the reverse count defects
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    fired = traj.marker_steps("5a")
    assert fired and not traj.uog_violations
    monkeypatch.setitem(_RULESET_CACHE, "I", rule_set("I").without("5a"))
    rep = verify_uog(traj)
    assert not rep.passed
    assert {(t, "0 forward matches") for t in fired} <= set(rep.details)
    assert {(t + 1, "0 reverse matches") for t in fired} <= set(rep.details)


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
    traj = run(start, StepBudget(200, "dead_end"), keep_states=False,
               check_uog=True)
    assert fired and traj.marker_steps("5a") == fired
    assert traj.uog_violations == [(t + 1, "0 reverse matches")
                                   for t in fired]


def test_verify_uog_catches_leaked_support(example_circuit):
    # a work register that spreads past the start state's window is a leak
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    st = traj.states[30]
    traj.states[30] = st.replace(work=WorkState((5, 6, 7), st.work.amps))
    rep = verify_uog(traj)
    assert rep.details == [(30, "quantum support leaked to [5]")]


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
    check_uog counts reverse matches the same way and finds repeats in a
    set of config_key()s.
    """
    rs = rule_set(start.tier)
    ref = SimpleNamespace(labels=[], sites=[], digests=[start.digest()],
                          markers={}, violations=[], stop="step_limit",
                          ambiguous=None)
    keys = {start.config_key()}
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
                ref.violations.append((t + 1, "configuration repeats"))
            keys.add(key)
            rev = applicable(state, REVERSE, rs, full_scan=True)
            if len(rev) != 1:
                ref.violations.append((t + 1, f"{len(rev)} reverse matches"))
    ref.final = state
    return ref


def _assert_run_matches_reference(start, budget, check_uog=False,
                                  allow_ambiguous=False):
    """run() takes the reference loop's path, checks and stop.

    Only allow_ambiguous accepts a reference that ends in an ambiguity;
    run() must then raise Ambiguous at the same step.
    """
    ref = _reference_walk(start, budget.max_steps, check_uog)
    assert allow_ambiguous or ref.stop != "ambiguous"
    steps, seen, labels, sites = [], [], [], []

    def observe(t, state, m):
        # once per step t >= 1, with the state reached and the fired match
        steps.append(t)
        seen.append(state.digest())
        labels.append(m.label)
        sites.append(m.site)

    try:
        traj = run(start, budget, keep_states=False, check_uog=check_uog,
                   observer=observe)
    except Ambiguous as err:
        assert ref.stop == "ambiguous"
        assert steps == list(range(1, len(ref.labels) + 1))
        assert labels == ref.labels and sites == ref.sites
        assert seen == ref.digests[1:]
        assert [(m.label, m.site) for m in err.matches] == [
            (m.label, m.site) for m in ref.ambiguous]
        assert err.state.snapshot() == ref.final.snapshot()
        return None
    assert traj.stop_reason == ref.stop
    assert traj.labels == ref.labels and traj.sites == ref.sites
    assert steps == list(range(1, traj.n_steps + 1))
    assert labels == traj.labels and sites == traj.sites
    assert seen == ref.digests[1:]
    assert traj.markers == ref.markers
    assert traj.uog_violations == ref.violations
    assert traj.final.snapshot() == ref.final.snapshot()
    assert traj.final.digest() == ref.final.digest()
    assert np.array_equal(traj.final.work.amps, ref.final.work.amps)
    # without an observer run builds no snapshot until the final state
    bare = run(start, budget, keep_states=False, check_uog=check_uog)
    assert bare.labels == traj.labels
    assert bare.uog_violations == traj.uog_violations
    assert bare.final.snapshot() == traj.final.snapshot()
    return traj


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
    traj = run(start, StepBudget(period + 3, "step_limit"),
               keep_states=False, check_uog=True)
    assert traj.uog_violations == [(t, "configuration repeats")
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
    traj = run(start, StepBudget(191, "step_limit"), keep_states=False,
               check_uog=True)
    assert traj.labels == ref.labels and traj.labels[0] == "13c"
    assert ref.violations == [
        (1, "2 reverse matches"), (189, "configuration repeats"),
        (189, "2 reverse matches"), (190, "configuration repeats"),
        (191, "configuration repeats")]
    # equal through the first reverse-count violation, then a sub-list
    assert traj.uog_violations[:1] == ref.violations[:1]
    later = iter(ref.violations)
    assert all(v in later for v in traj.uog_violations)
    assert traj.uog_violations == [(1, "2 reverse matches"),
                                   (189, "2 reverse matches")]


# a second active symbol away from the head, and how the run goes on
STRAYS = [
    ("I", "P", 14, "→", StepBudget(200, "dead_end")),  # dead end at 76
    ("III", "P", 1, "g", StepBudget(200, "dead_end")),  # dead end at 108
    # inert pointer: the stray C stays put all run long
    ("III", "CP", 1, "C", StepBudget(3000, "step_limit")),
    # its S gate swaps two classical data bits, then two rules match
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
    return stray


@pytest.mark.parametrize("tier, reg, site, symbol, budget", STRAYS,
                         ids=STRAY_IDS)
def test_stray_active_symbol_run_matches_reference(example_circuit, tier, reg,
                                                   site, symbol, budget):
    # run must track both active symbols, so its matches, reverse counts
    # and stop equal those of a full row scan
    start = _stray_start(example_circuit, tier, reg, site, symbol)
    _assert_run_matches_reference(start, budget, check_uog=True,
                                  allow_ambiguous=True)


@pytest.mark.parametrize("tier, reg, site, symbol, budget", STRAYS,
                         ids=STRAY_IDS)
def test_cursor_equals_recomputation(example_circuit, tier, reg, site, symbol,
                                     budget):
    # after every step the cursor's active list and its count of cells
    # that differ from the start equal those recomputed from its snapshot,
    # data bits flipped by gates too
    start = _stray_start(example_circuit, tier, reg, site, symbol)
    cur = _Cursor(start, rule_set(tier))
    with contextlib.suppress(Ambiguous):  # one stray start turns ambiguous
        for _ in range(budget.max_steps):
            if cur.step() is None:
                break
            snap = cur.snapshot()
            assert cur.active == active_sites(snap)
            assert cur.differs == sum(
                a != b for r, row in snap.rows.items()
                for a, b in zip(row, start.rows[r]))


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
    with pytest.raises(ValueError, match="rule 99 maps state 0 to no kept"):
        restricted_hamiltonian(traj)


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
    ks = [clock_value(st) for st in traj.states if "C" in st.rows["CP"]]
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
    traj.states = traj.states[:1]
    traj.labels = []
    traj.sites = []
    h = restricted_hamiltonian(traj)
    assert h.shape == (1, 1) and h[0, 0] == 0.0


def test_streaming_run_matches_full(example_circuit):
    full = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"))
    lean = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(200, "dead_end"), keep_states=False,
               check_uog=True)
    assert lean.states is None
    assert lean.labels == full.labels
    assert not lean.uog_violations
    # a streamed run was checked on the fly; there are no states to recheck
    with pytest.raises(ValueError, match="check_uog"):
        verify_uog(lean)


def test_trace_format(tmp_path, example_circuit):
    path = tmp_path / "trace.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        traj = run(build_initial(BuildSpec(example_circuit, "I")),
                   StepBudget(5, "step_limit"), observer=trace_observer(fh))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    first = lines[0].split("\t")
    assert first[0] == "0" and first[1] == "1" and first[2] == "1"
    assert first[3] == "P:→S" and len(first[5]) == 16
    # snapshot blocks interleave after the steps they follow
    with open(path, "w", encoding="utf-8") as fh:
        run(build_initial(BuildSpec(example_circuit, "I")),
            StepBudget(5, "step_limit"), observer=trace_observer(fh, 2))
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
