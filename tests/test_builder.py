import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hqca import BuildSpec, build_initial, chain_length, work_window
from hqca.builder import (BuildError, full_width_offset, parse_instance_text,
                          target_row)
from hqca.rules import FORWARD, REVERSE, applicable, apply
from hqca.state import NORM_TOL, validate_config

from conftest import first_handback, random_state, small_circuit


def test_chain_length_values():
    assert chain_length("I", 3, 2) == 14
    assert chain_length("III", 3, 2) == 16
    assert chain_length("I", 2, 1) == 5
    assert chain_length("II", 3, 2) == 16
    assert chain_length("IV", 4, 3) == chain_length("III", 4, 3)


def test_work_window_values():
    assert list(work_window("I", 3, 2)) == [6, 7, 8]
    assert list(work_window("II", 3, 2)) == [7, 8, 9]
    assert list(work_window("I", 2, 1)) == [2, 3]
    assert list(work_window("IV", 3, 2)) == [7, 8, 9]


def test_tier1_start_matches_reference(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    assert s.rows["P"] == ("→", "S", "W", "I", "I", "W", "S", "I",
                           "•", "•", "•", "•", "•", "•")
    assert s.rows["D"] == ("1", "0", "0", "0", "1", "?", "?", "?",
                           "1", "0", "0", "0", "1", "0")


def test_tier3_start_matches_reference(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "III"))
    assert s.rows["P"] == ("t", "•", "•", "•", "•", "•", "•",
                           "S", "W", "I", "I", "W", "S", "I", "t", "t")
    assert s.rows["C"] == tuple(["•", "0"] + ["1"] * 14)
    assert s.rows["CP"] == tuple(["•", "R"] + ["•"] * 14)


def test_tier4_start_matches_reference(example_circuit):
    # tier III's start plus the target and second-clock rows
    s = build_initial(BuildSpec(example_circuit, "IV", target_x=3,
                                bullet_offset=3))
    t3 = build_initial(BuildSpec(example_circuit, "III"))
    assert {reg: s.rows[reg] for reg in t3.rows} == t3.rows
    # bullet 3 sites left of the most significant 1 of binary 3
    assert s.rows["T"] == tuple(["•"] * 12 + ["0", "0", "1", "1"])
    assert s.rows["C2"] == tuple(["•"] * 11 + ["0"] + ["1"] * 4)
    # the first hand-back, 16 steps on: the clock zeroed, the pointer
    # parked at the right end and the program's tail turned
    handed, tail = first_handback(s)
    assert tail == 16
    assert handed.rows["P"][-2:] == ("←", "t")
    assert handed.rows["C"] == tuple(["•"] + ["0"] * 15)
    assert handed.rows["CP"] == tuple(["•"] * 15 + ["X"])
    assert handed.rows["T"] == s.rows["T"]
    assert handed.rows["C2"] == s.rows["C2"]


def test_all_tiers_validate():
    for n, k in ((2, 1), (2, 2), (3, 2), (4, 2)):
        c = small_circuit(n, k)
        for tier in ("I", "II", "III", "IV"):
            kw = {"target_x": 2} if tier == "IV" else {}
            s = build_initial(BuildSpec(c, tier, **kw))
            assert validate_config(s) == [], (tier, n, k)
            assert s.L == chain_length(tier, n, k)


def test_tier1_start_has_one_forward_no_reverse(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    assert len(applicable(s, FORWARD)) == 1
    assert applicable(s, REVERSE) == []


def test_tier4_reverse_tail_bounded(example_circuit):
    # from the first hand-back every state has one reverse rule, back to
    # the built start, which has none: the prefix is a bounded tail
    for x, offset in ((3, 3), (2, 3), (5, 4)):
        s = build_initial(BuildSpec(example_circuit, "IV", target_x=x,
                                    bullet_offset=offset))
        assert len(applicable(s, FORWARD)) == 1
        state, tail = first_handback(s)
        steps = 0
        while True:
            rev = applicable(state, REVERSE)
            if not rev:
                break
            assert len(rev) == 1
            state = apply(state, rev[0])
            steps += 1
            assert steps <= 3 * s.L
        assert steps == tail >= 1
        assert state.rows == s.rows
        assert np.array_equal(state.work.amps, s.work.amps)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), k=st.integers(1, 3), seed=st.integers(0, 10 ** 6),
       x=st.integers(1, 9), offset=st.one_of(st.integers(1, 3), st.none()))
def test_built_starts_are_path_ends(n, k, seed, x, offset):
    # no rule leads into the built start of tiers I, III and IV, on a full
    # scan of every window; tier IV's is tier III's start plus its target
    # and second-clock rows
    circuit, work = small_circuit(n, k, seed), random_state(n, seed)
    length = chain_length("IV", n, k)
    offset = offset or full_width_offset(length, x)
    try:
        target_row(length, x, offset)
    except BuildError:
        assume(False)
    starts = {tier: build_initial(BuildSpec(circuit, tier, work))
              for tier in ("I", "III")}
    starts["IV"] = build_initial(BuildSpec(circuit, "IV", work, x, offset))
    for start in starts.values():
        assert applicable(start, REVERSE, full_scan=True) == []
    t3, t4 = starts["III"], starts["IV"]
    assert {reg: t4.rows[reg] for reg in t3.rows} == t3.rows
    assert t4.rows["T"] == target_row(length, x, offset)[0]
    assert np.array_equal(t4.work.amps, t3.work.amps)


def test_target_row_layout():
    row, bullet = target_row(16, 3, 3)
    assert row == tuple(["•"] * 12 + ["0", "0", "1", "1"])
    assert bullet == 12
    row, bullet = target_row(16, 3, full_width_offset(16, 3))
    assert bullet == 2
    assert row == tuple(["•", "•"] + list(format(3, "014b")))


def test_target_validation():
    with pytest.raises(BuildError):
        target_row(16, 0, 3)  # unreachable target
    with pytest.raises(BuildError):
        target_row(16, 1, 1)  # digit field too narrow
    with pytest.raises(BuildError):
        target_row(8, 200, 3)  # does not fit
    with pytest.raises(BuildError):
        build_initial(BuildSpec(small_circuit(3, 2), "IV", target_x=None))


def test_data_padding_drives_gate_rounds(example_circuit):
    # the 1-bits under the turning points sit exactly one per N+1
    # oscillations: oscillation o turns at site o + K(N+1) (tier I)
    s = build_initial(BuildSpec(example_circuit, "I"))
    n, k = 3, 2
    turn_bits = [s.rows["D"][o + k * (n + 1) - 1]
                 for o in range(1, n * (k - 1) + k + 1)]
    assert turn_bits == ["1", "0", "0", "0", "1"]


def test_instance_parsing_round_trip(tmp_path):
    text = """n=3
k=2
round 1: W S
round 2: S W
work=000
construction=IV
target=3
bullet_offset=3
budget=5000
seed=9
"""
    inst = parse_instance_text(text)
    assert inst.spec.tier == "IV"
    assert inst.spec.target_x == 3
    assert inst.options == {"budget": 5000, "seed": 9}
    s = build_initial(inst.spec)
    assert validate_config(s) == []


def test_instance_unknown_key():
    from hqca.builder import InstanceParseError
    with pytest.raises(InstanceParseError) as err:
        parse_instance_text("n=2\nk=1\nround 1: I\nbogus=1\n")
    assert "line 4" in str(err.value)


def test_work_norm_tolerance_matches_validate_config():
    # build_initial's output always passes validate_config, so the builder
    # accepts exactly the work norms that validate_config does
    circuit, v = small_circuit(3, 2), np.zeros(8, dtype=complex)
    v[2] = 1.0
    inside = build_initial(BuildSpec(circuit, "I", v * (1 + NORM_TOL / 2)))
    assert validate_config(inside) == []
    with pytest.raises(BuildError, match="normalized"):
        build_initial(BuildSpec(circuit, "I", v * (1 + 5e-10)))
