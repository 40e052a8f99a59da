from itertools import islice, pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqca import BuildSpec, StepBudget, build_initial, run
from hqca import symbols as sym
from hqca.rules import (_CROSSED_FROM, _RULESET_CACHE, FORWARD, REVERSE,
                        NonClassicalGateError, Rule, RuleError, _instantiate,
                        applicable, apply, as_match, classical_gate_action,
                        dump_rule_table, lit, rule_set, try_match)
from hqca.state import ChainState, WorkState, active_sites
from hqca.symbols import BULLET, D, GATES, QUANTUM, REGISTERS_BY_TIER
from hqca.verify import clock_increment

from conftest import random_state


def test_rule_labels_per_tier():
    assert rule_set("I").labels() == ("1", "2", "3", "4a", "4b", "5a", "5b",
                                      "6a", "6b")
    assert set(rule_set("II").labels()) == set(rule_set("I").labels()) | {
        "7", "8", "9", "10", "11", "12", "13a", "13b"}
    l3 = rule_set("III").labels()
    assert set(l3) >= {"14", "15", "16", "17", "18", "19", "20", "21"}
    l4 = rule_set("IV").labels()
    for lab in ("22", "23a", "23b", "23c", "24a", "24b", "24c", "25", "26",
                "27", "28", "29", "30", "31", "43a", "43b", "44", "50"):
        assert lab in l4


def test_redefinitions_take_effect():
    # the bounce rule rewrites to a left arrow at tier II but to the clock
    # hand-off symbol from tier III on
    assert rule_set("II").by_label["13a"].rhs["P"][0] == ("lit", "←")
    assert rule_set("III").by_label["13a"].rhs["P"][1] == ("lit", "⇓")
    # control returns off C at tier III but off CX at tier IV
    assert rule_set("III").by_label["21"].lhs["CP"][1] == ("lit", "C")
    assert rule_set("IV").by_label["21"].lhs["CP"][1] == ("lit", "CX")


def test_every_rule_side_has_one_active_anchor():
    for tier in ("I", "II", "III", "IV"):
        for rule in rule_set(tier).rules:
            for d in (FORWARD, REVERSE):
                rule.active_anchor(d)  # raises unless exactly one


def _named_symbols(cell):
    """The symbols a rule cell names: a gate variable stands for W, S and I,
    a marked one for its arrow, each gate and its cross."""
    if cell[0] in ("lit", "not"):
        return {cell[1]}
    if cell[0] == "gv":
        return set(GATES)
    if cell[0] == "mgv":
        return {cell[2] + g + cell[3] for g in GATES}
    return set()


@pytest.mark.parametrize("tier", sym.TIERS)
def test_spec_and_table_agree(tier):
    # the P and CP alphabets are exactly the symbols the tier's rules name,
    # and the active (non-static) symbols exactly the rules' anchors
    rs = rule_set(tier)
    for reg in (sym.P, sym.CP):
        if reg in REGISTERS_BY_TIER[tier]:
            named = {s for r in rs.rules for side in (r.lhs, r.rhs)
                     for cell in side.get(reg, ()) for s in _named_symbols(cell)}
            assert named == set(sym.alphabet(reg, tier)), reg
    anchors = {s for r in rs.rules for d in (FORWARD, REVERSE)
               for s in r.active_anchor(d)[0]}
    assert anchors == sym.ACTIVE_P_BY_TIER[tier] | sym.ACTIVE_CP_BY_TIER[tier]
    # the crossed rules anchor their own symbols, none of tier III's
    base = sym.ACTIVE_P_BY_TIER["III"] | sym.ACTIVE_CP_BY_TIER["III"]
    for label in (_CROSSED_FROM if tier == "IV" else ()):
        for d in (FORWARD, REVERSE):
            assert base.isdisjoint(rs.by_label[label].active_anchor(d)[0]), label


def test_indexed_scan_equals_full_scan(example_circuit):
    for tier in ("I", "II", "III", "IV"):
        kw = {"target_x": 3} if tier == "IV" else {}
        state = build_initial(BuildSpec(example_circuit, tier, **kw))
        for _ in range(40):
            for d in (FORWARD, REVERSE):
                fast = applicable(state, d)
                slow = applicable(state, d, full_scan=True)
                assert [(m.label, m.site) for m in fast] == \
                       [(m.label, m.site) for m in slow]
            fwd = applicable(state, FORWARD)
            if not fwd:
                break
            state = apply(state, fwd[0])


def test_unique_forward_start(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    ms = applicable(s, FORWARD)
    assert [(m.label, m.site) for m in ms] == [("1", 1)]
    assert applicable(s, REVERSE) == []


def _assert_same_state(a, b):
    # amplitudes compared entrywise: 1 - fidelity is quadratic in the
    # error, so a 1e-12 fidelity bound would let errors of 1e-6 through
    assert a.config_equal(b)
    assert np.max(np.abs(a.work.amps - b.work.amps)) <= 1e-12


def test_reversibility_along_trajectory(example_circuit):
    rng = np.random.default_rng(11)
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    w /= np.linalg.norm(w)
    traj = run(build_initial(BuildSpec(example_circuit, "I", w)),
               StepBudget(200, "dead_end"))
    for st in islice(traj.iter_states(), traj.n_steps):  # all but the last
        nxt = apply(st, applicable(st, FORWARD)[0])
        rev = applicable(nxt, REVERSE)
        assert len(rev) == 1
        _assert_same_state(apply(nxt, rev[0]), st)


def test_reversibility_through_comparator_and_crossed_mode(example_circuit):
    # same round trip over a segment that exercises the clock, the compare
    # sweep, the crossed conversion and the crossed oscillations
    traj = run(build_initial(BuildSpec(example_circuit, "IV", "000",
                                       target_x=3, bullet_offset=3)),
               StepBudget(900, "step_limit"))
    assert set(traj.labels) & {"23a", "26", "27", "30", "49", "22", "31"}
    for t, (st, nxt) in enumerate(pairwise(traj.iter_states())):
        rev = applicable(nxt, REVERSE)
        assert len(rev) == 1, (t, traj.labels[t])
        _assert_same_state(apply(nxt, rev[0]), st)


def test_translation_invariance():
    # the same window content matches at any absolute position
    rs = rule_set("I")
    rule1 = rs.by_label["1"]
    for pos in (1, 3, 6):
        p = [BULLET] * 9
        p[pos - 1] = "→"
        p[pos] = "W"
        state = ChainState("I", {"P": tuple(p), "D": tuple(["0"] * 9)},
                           WorkState((), np.ones(1, dtype=complex)))
        assert try_match(rule1, state, pos, FORWARD) is not None
        got = applicable(state, FORWARD)
        assert [(m.label, m.site) for m in got] == [("1", pos)]


def test_classical_gate_action():
    assert classical_gate_action("I", "1", "0") == ("1", "0")
    assert classical_gate_action("S", "1", "0") == ("0", "1")
    assert classical_gate_action("W", "0", "1") == ("0", "1")
    assert classical_gate_action("W", "1", "0") is None
    # confirmed by the matrix: the rotated target has two amplitudes
    from hqca.circuit import basis_state, gate_matrix
    out = gate_matrix("W") @ basis_state("10")
    assert np.sum(np.abs(out) > 1e-12) == 2


def _gate_violation_state():
    # g head about to apply W to classical (1, 0): never happens on valid
    # chains, so the engine must refuse
    rows = {"P": ("W", "g", BULLET, BULLET),
            "D": ("1", "0", "0", "0")}
    return ChainState("I", rows, WorkState((), np.ones(1, dtype=complex)))


def test_nonclassical_gate_aborts():
    s = _gate_violation_state()
    m = applicable(s, FORWARD)
    assert [x.label for x in m] == ["5a"]
    with pytest.raises(NonClassicalGateError):
        apply(s, m[0])


def test_swap_updates_classical_bits():
    rows = {"P": ("S", "g", BULLET, BULLET),
            "D": ("1", "0", "0", "0")}
    s = ChainState("I", rows, WorkState((), np.ones(1, dtype=complex)))
    out = apply(s, applicable(s, FORWARD)[0])
    assert out.rows["D"] == ("0", "1", "0", "0")


def test_stale_match_rejected(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    m = applicable(s, FORWARD)[0]
    s2 = apply(s, m)
    from hqca.rules import StaleMatchError
    with pytest.raises(StaleMatchError):
        apply(s2, m)


def test_rule_dump_lines():
    dump = dump_rule_table("IV")
    lines = dump.splitlines()
    assert len(lines) == len(rule_set("IV").rules)
    five_a = next(l for l in lines if l.startswith("5a "))
    assert "[gate:A]" in five_a
    assert "=>" in five_a
    thirty = next(l for l in lines if l.startswith("30 "))
    assert "C2:•/0" in thirty


def test_rule_tables_pinned():
    # every tier's dump byte for byte, the derived crossed rules included
    text = Path(__file__).with_name("rule_tables.txt").read_text(
        encoding="utf-8")
    assert [dump_rule_table(t) for t in sym.TIERS] == text[:-1].split("\n\n")


def test_gate_effects_confined_to_work_window(example_circuit):
    # on a valid run every gate lands on the work window or on classical
    # bits it keeps classical; anything else raises NonClassicalGateError
    traj = run(build_initial(BuildSpec(example_circuit, "II")),
               StepBudget(400, "step_limit"))
    assert traj.final.work.support == (7, 8, 9)


def test_rule_rewriting_data_rejected():
    # data cells are guards; only a gate may change the data register
    with pytest.raises(RuleError, match="rewrites data cells"):
        Rule("99", "I", {"P": (lit("→"), lit(BULLET)), "D": (lit("1"), lit("0"))},
             {"P": (lit("m"), lit(BULLET)), "D": (lit("0"), lit("0"))})
    Rule("99", "I", {"P": (lit("→"), lit(BULLET)), "D": (lit("1"), lit("0"))},
         {"P": (lit("m"), lit(BULLET)), "D": (lit("1"), lit("0"))})


def _alphabet(reg, tier):
    # the data row also holds the quantum-support marker
    return sym.alphabet(reg, tier) + ((QUANTUM,) if reg == D else ())


def _satisfying(draw, cell, bindings, alphabet):
    """A symbol the cell accepts under the bindings (any one for 'any')."""
    kind = cell[0]
    if kind == "lit":
        return cell[1]
    if kind in ("gv", "bit", "eq"):
        return bindings[cell[1]]
    if kind == "mgv":
        return cell[2] + bindings[cell[1]] + cell[3]
    if kind == "not":
        pool = [s for s in alphabet if s != cell[1]]
    elif kind == "mis":
        b = bindings[cell[1]]
        pool = ["0" if b == "1" else "1"] + ([BULLET] if b == "1" else [])
    elif kind == "ok":
        b = bindings[cell[1]]
        pool = [b] + ([BULLET] if b == "0" else [])
    else:
        pool = alphabet
    return draw(st.sampled_from(pool))


@st.composite
def _matched_window(draw):
    """(tier, direction, state, window site): a chain of length 2-5 with
    random symbols from each register's alphabet, whose window matches a
    random rule's side; anchors land on sites 1 and L too."""
    tier = draw(st.sampled_from(sym.TIERS))
    direction = draw(st.sampled_from((FORWARD, REVERSE)))
    rule = draw(st.sampled_from(rule_set(tier).rules))
    length = draw(st.integers(2, 5))
    i = draw(st.integers(1, length - 1))
    rows = {reg: [draw(st.sampled_from(_alphabet(reg, tier)))
                  for _ in range(length)] for reg in REGISTERS_BY_TIER[tier]}
    bindings = {"A": draw(st.sampled_from(GATES)),
                "B": draw(st.sampled_from(GATES)),
                "a": draw(st.sampled_from("01"))}
    for reg, cells in (rule.lhs if direction == FORWARD else rule.rhs).items():
        for off, cell in enumerate(cells):
            rows[reg][i - 1 + off] = _satisfying(draw, cell, bindings,
                                                 _alphabet(reg, tier))
    state = ChainState(tier, {r: tuple(v) for r, v in rows.items()},
                       WorkState((), np.ones(1, dtype=complex)))
    return tier, direction, state, i


def _one_cell_edits(state, i):
    """The state with each cell of sites i-1..i+2 set to each symbol of
    its register's alphabet in turn, one cell at a time."""
    for reg, row in state.rows.items():
        for site in range(max(1, i - 1), min(state.L, i + 2) + 1):
            for s in _alphabet(reg, state.tier):
                if s != row[site - 1]:
                    edited = row[:site - 1] + (s,) + row[site:]
                    yield state.replace(rows={reg: edited})


def _plain_matches(state, direction, rs):
    """Candidate-by-candidate try_match at every active site, with the
    cells each match would change, read straight off the rule table."""
    found = []
    for site, _reg, s in active_sites(state):
        for rule, offset in rs.candidates(direction, s):
            i = site - offset
            b = try_match(rule, state, i, direction)
            if b is None:
                continue
            writes = []
            for reg, cells in rule.out_side(direction).items():
                for off, cell in enumerate(cells):
                    old = state.rows[reg][i - 1 + off]
                    new = _instantiate(cell, b, old)
                    if new != old:
                        writes.append((reg, off, new))
            found.append((i, rule._sort_key, rule.label, tuple(sorted(b.items())),
                          tuple(sorted(writes)),
                          b[rule.gate] if rule.gate else None))
    return [f[:1] + f[2:] for f in sorted(found)]


def _window_active_after(state, j, hit, direction):
    """(offset, register, symbol) of the active cells in window (j, j+1)
    of apply()'s result.  A gate hit fires on an all-0 data row, as the
    random one may hold data a gate cannot act on; no gate rule reads the
    data row, and active cells lie in P and CP only."""
    if hit.gate is not None:
        state = state.replace(rows={D: ("0",) * state.L})
    after = apply(state, as_match(j, hit, direction))
    return [(site - j, reg, s) for site, reg, s in active_sites(after)
            if j <= site <= j + 1]


@settings(max_examples=150, deadline=None)
@given(_matched_window())
def test_compiled_lookup_equals_plain_try_match(case):
    # a fresh rule set per example: the matched state fills the memo
    # first, so an edit of a cell the probe left out would be answered by
    # the stale entry.  Each hit's active cells after firing must equal
    # those of the state apply() builds, restricted to the hit's window.
    tier, direction, start, i = case
    rs = rule_set(tier).without()
    for state in (start, *_one_cell_edits(start, i)):
        hits = sorted(((site - offset, h) for site, _reg, s in
                       active_sites(state) for offset, h in
                       rs.hits(direction, state, site, s)),
                      key=lambda f: (f[0], f[1].rule._sort_key))
        got = [(j, h.rule.label, h.bindings, tuple(sorted(h.writes)), h.gate)
               for j, h in hits]
        assert got == _plain_matches(state, direction, rs)
        for j, h in hits:
            assert list(h.active) == _window_active_after(state, j, h,
                                                          direction)
    assert [(m.label, m.site, m.bindings) for m in
            applicable(start, direction, rs)] == [
        (m.label, m.site, m.bindings) for m in
        applicable(start, direction, rs, full_scan=True)]


def test_without_copy_keeps_its_own_memo(monkeypatch):
    # the tier's shared rule set learns the trailing-01 carry first; a copy
    # without rule 16, put in its place, must still strand the same value
    got, labels, _ = clock_increment("0101")
    assert got == "0110" and "16" in labels
    monkeypatch.setitem(_RULESET_CACHE, "III", rule_set("III").without("16"))
    got, _, _ = clock_increment("0101")
    assert got is None
