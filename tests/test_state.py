import numpy as np
import pytest

from hqca import BuildSpec, StepBudget, build_initial, run
from hqca.circuit import _apply_two_qubit, gate_matrix
from hqca.state import (ChainState, DenseData, StateError, WorkState,
                        active_sites, as_dense_vector, validate_config)
from hqca.symbols import (BULLET, alphabet, alphabet_dimension,
                          format_dimension_audit)

from conftest import small_circuit


def tier1_start():
    return build_initial(BuildSpec(small_circuit(3, 2), "I"))


def test_start_state_valid(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    assert validate_config(s) == []
    assert active_sites(s) == [(1, "P", "→")]


def test_two_arrows_flagged(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    row = list(s.rows["P"])
    row[10] = "→"
    bad = s.replace(rows={"P": tuple(row)})
    assert "active count 2" in validate_config(bad)
    assert [a[0] for a in active_sites(bad)] == [1, 11]


def test_tier_register_mismatch(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    bad = ChainState("I", dict(s.rows, C=tuple([BULLET] * s.L)), s.work)
    assert any("not allowed" in v for v in validate_config(bad))


def test_no_active_symbol_flagged(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    row = list(s.rows["P"])
    row[0] = BULLET
    bad = s.replace(rows={"P": tuple(row)})
    assert "active count 0" in validate_config(bad)
    assert active_sites(bad) == []


def test_tier3_active_site(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "III"))
    assert active_sites(s) == [(2, "CP", "R")]


def test_orthogonality_iff_config_differs(example_circuit):
    # all trajectory configs are pairwise distinct, hence orthogonal; the
    # dense embeddings must agree (data parts overlap only for equal bits)
    traj = run(build_initial(BuildSpec(small_circuit(2, 1), "I")),
               StepBudget(20, "dead_end"))
    states = list(traj.iter_states())
    keys = [s.config_key() for s in states]
    assert len(set(keys)) == len(keys)
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            assert not a.config_equal(b)


def test_snapshot_format(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    lines = s.snapshot().splitlines()
    assert lines[0] == "P: → S W I I W S I • • • • • •"
    assert lines[1] == "D: 1 0 0 0 1 ? ? ? 1 0 0 0 1 0"


def test_work_norm_validated(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    bad = s.replace(work=WorkState(s.work.support, s.work.amps * 2.0))
    assert any("norm" in v for v in validate_config(bad))


def test_support_marker_consistency(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    bad = s.replace(work=WorkState((2, 3, 4), s.work.amps))
    assert any("support" in v for v in validate_config(bad))


def test_work_amplitudes_are_read_only_and_unaliased(example_circuit):
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    w = WorkState((1, 2), v)
    v[3] = 1.0  # the caller's array stays its own
    assert np.array_equal(w.amps, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        w.amps[0] = 0
    s = build_initial(BuildSpec(example_circuit, "I"))
    assert not s.work.amps.flags.writeable
    assert not w.apply_gate("W", 1, 2).amps.flags.writeable


def test_dense_amplitudes_are_read_only_and_unaliased():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    d = DenseData(2, v)
    v[3] = 1.0  # the caller's array stays its own
    assert np.array_equal(d.amps, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        d.amps[0] = 0
    out = d.apply_gate("W", 1, 2).amps
    assert not out.flags.writeable
    assert DenseData(2, out).amps is out  # a read-only array is not copied
    with pytest.raises(StateError):
        DenseData(3, v)


def test_dense_vector_matches_loop_embedding(example_circuit):
    rng = np.random.default_rng(3)
    for tier in ("I", "II", "III"):
        w = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = build_initial(BuildSpec(example_circuit, tier, w / np.linalg.norm(w)))
        want = np.zeros(2 ** s.L, dtype=complex)
        base = sum(int(b) << (s.L - site)
                   for site, b in enumerate(s.rows["D"], start=1) if b != "?")
        for k, a in enumerate(s.work.amps):
            idx = base
            for pos, site in enumerate(s.work.support):
                idx |= ((k >> (len(s.work.support) - 1 - pos)) & 1) << (s.L - site)
            want[idx] = a
        assert np.array_equal(as_dense_vector(s), want)


def test_gates_need_adjacent_sites():
    e0 = np.eye(8)[0]
    with pytest.raises(StateError):
        WorkState((1, 2, 3), e0).apply_gate("W", 1, 3)
    with pytest.raises(StateError):
        DenseData(3, e0).apply_gate("W", 1, 3)
    with pytest.raises(StateError):
        DenseData(3, e0).apply_gate("I", 1, 3)


def test_dense_identity_gate_is_the_same_state(random_work):
    # the identity runs no kernel: the state itself comes back, whose
    # amplitudes the kernel would have given exactly
    d = DenseData(3, random_work)
    assert d.apply_gate("I", 2, 3) is d
    kernel = _apply_two_qubit(d.amps, gate_matrix("I"), 1, 3)
    assert np.array_equal(kernel, d.amps)


def test_dimension_audit_values():
    a1 = alphabet_dimension("I")
    assert a1["total"] == 20 and a1["match"] is True
    a3 = alphabet_dimension("III")
    assert a3["per_register"] == {"P": 17, "D": 2, "C": 3, "CP": 5}
    assert a3["total"] == 510 and a3["quoted"] == 480 and a3["match"] is False
    a4 = alphabet_dimension("IV")
    assert a4["per_register"] == {"P": 28, "D": 2, "C": 3, "CP": 10,
                                  "T": 3, "C2": 3}
    assert a4["total"] == 15120 and a4["quoted"] == 14580 and a4["match"] is False
    assert any("14580" in w or "15120" in w for w in a4["warnings"])
    assert "MISMATCH" in format_dimension_audit("IV")
    assert "MATCH" in format_dimension_audit("I")


@pytest.mark.parametrize("register, tier, message", [
    ("CP", "I", "tier I has no register 'CP'"),
    ("C", "I", "tier I has no register 'C'"),
    ("T", "III", "tier III has no register 'T'"),
    ("X", "IV", "tier IV has no register 'X'"),
    ("P", "V", "unknown tier 'V'"),
    ("D", None, "unknown tier None"),
])
def test_alphabet_rejects_registers_a_tier_lacks(register, tier, message):
    # no bare KeyError, and no clock alphabet for a tier without a clock
    with pytest.raises(ValueError, match=f"^{message}$"):
        alphabet(register, tier)


def test_active_symbol_partition():
    # static symbols never appear in the active sets
    from hqca.symbols import (ACTIVE_CP_ALL, ACTIVE_CP_BY_TIER, ACTIVE_P_ALL,
                              ACTIVE_P_BY_TIER, GATES, TURN, alphabet)
    for tier in ("I", "II", "III", "IV"):
        act = ACTIVE_P_BY_TIER[tier]
        assert act <= set(alphabet("P", tier))
        for s in GATES + (BULLET, TURN):
            assert s not in act
    right, left = {"→", "→W", "→S", "→I", "g", "m"}, {"←", "←W", "←S", "←I", "▷"}
    assert ACTIVE_P_BY_TIER["I"] == right
    assert ACTIVE_P_BY_TIER["II"] == right | left
    assert ACTIVE_P_BY_TIER["III"] == right | left | {"⇓"}
    assert ACTIVE_P_BY_TIER["IV"] == right | left | {"⇓"} | {
        "→x", "→Wx", "→Sx", "→Ix", "mx", "←x", "←Wx", "←Sx", "←Ix", "▷x", "⇓x"}
    assert ACTIVE_CP_BY_TIER["I"] == ACTIVE_CP_BY_TIER["II"] == set()
    assert ACTIVE_CP_BY_TIER["III"] == {"L", "R", "C"}
    assert ACTIVE_CP_BY_TIER["IV"] == {"L", "R", "C", "←C", "CX",
                                       "Lx", "Rx", "Cx"}
    # applicable's active-site index is keyed by symbol alone, so a symbol
    # must never be active in both registers
    assert ACTIVE_P_ALL.isdisjoint(ACTIVE_CP_ALL)
