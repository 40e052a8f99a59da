import numpy as np
import pytest

from hqca import BuildSpec, StepBudget, build_initial, run
from hqca.state import (ChainState, DenseData, StateError, WorkState,
                        active_site, as_dense_vector, validate_config)
from hqca.symbols import (BULLET, alphabet_dimension, format_dimension_audit)

from conftest import small_circuit


def tier1_start():
    return build_initial(BuildSpec(small_circuit(3, 2), "I"))


def test_start_state_valid(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    assert validate_config(s).ok
    assert active_site(s) == (1, "P", "→")


def test_two_arrows_flagged(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    row = list(s.rows["P"])
    row[10] = "→"
    bad = s.replace(rows={"P": tuple(row)})
    rep = validate_config(bad)
    assert not rep.ok
    assert any("active count 2" in v for v in rep.violations)
    with pytest.raises(ValueError):
        active_site(bad)


def test_tier_register_mismatch(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    bad = ChainState("I", dict(s.rows, C=tuple([BULLET] * s.L)), s.work)
    rep = validate_config(bad)
    assert any("not allowed" in v for v in rep.violations)


def test_no_active_symbol_flagged(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    row = list(s.rows["P"])
    row[0] = BULLET
    bad = s.replace(rows={"P": tuple(row)})
    assert any("active count 0" in v for v in validate_config(bad).violations)
    with pytest.raises(ValueError):
        active_site(bad)


def test_tier3_active_site(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "III"))
    assert active_site(s) == (2, "CP", "R")


def test_state_equality_is_equivalence(example_circuit):
    traj = run(build_initial(BuildSpec(example_circuit, "I")),
               StepBudget(30, "step_limit"))
    states = traj.states[:6]
    for a in states:
        assert a.state_equal(a)  # reflexive
    for a in states:
        for b in states:
            assert a.state_equal(b) == b.state_equal(a)  # symmetric
    # global phase does not break equality
    a = states[0]
    phased = a.replace(work=WorkState(a.work.support,
                                      a.work.amps * np.exp(1j * 0.7)))
    assert a.state_equal(phased)


def test_orthogonality_iff_config_differs(example_circuit):
    # all trajectory configs are pairwise distinct, hence orthogonal; the
    # dense embeddings must agree (data parts overlap only for equal bits)
    traj = run(build_initial(BuildSpec(small_circuit(2, 1), "I")),
               StepBudget(20, "dead_end"))
    keys = [s.config_key() for s in traj.states]
    assert len(set(keys)) == len(keys)
    for i, a in enumerate(traj.states):
        for b in traj.states[i + 1:]:
            assert not a.config_equal(b)


def test_snapshot_format(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    lines = s.snapshot().splitlines()
    assert lines[0] == "P: → S W I I W S I • • • • • •"
    assert lines[1] == "D: 1 0 0 0 1 ? ? ? 1 0 0 0 1 0"


def test_work_norm_validated(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    bad = s.replace(work=WorkState(s.work.support, s.work.amps * 2.0))
    assert any("norm" in v for v in validate_config(bad).violations)


def test_support_marker_consistency(example_circuit):
    s = build_initial(BuildSpec(example_circuit, "I"))
    bad = s.replace(work=WorkState((2, 3, 4), s.work.amps))
    assert any("support" in v for v in validate_config(bad).violations)


def test_dense_round_trip(example_circuit):
    rng = np.random.default_rng(2)
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    w /= np.linalg.norm(w)
    s = build_initial(BuildSpec(example_circuit, "I", w))
    dense = as_dense_vector(s)
    assert abs(np.linalg.norm(dense) - 1.0) < 1e-12
    d = DenseData(s.L, dense)
    # classical sites read back their bits exactly, and the random work
    # vector leaves every work site impure
    for site, b in enumerate(s.rows["D"], start=1):
        assert d.read_bit(site) == b
    # a work site in a basis state reads as that bit, the others stay '?'
    for bit, one in (("0", [1.0, 0.0]), ("1", [0.0, 1.0])):
        s2 = build_initial(BuildSpec(example_circuit, "I",
                                     np.kron(one, w[:4] / np.linalg.norm(w[:4]))))
        d2 = DenseData(s2.L, as_dense_vector(s2))
        first = s2.work.support[0]
        assert d2.read_bit(first) == bit
        assert [d2.read_bit(x) for x in s2.work.support[1:]] == ["?", "?"]


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


def test_active_symbol_partition():
    # static symbols never appear in the active sets
    from hqca.symbols import (ACTIVE_CP_ALL, ACTIVE_CP_BY_TIER, ACTIVE_P_ALL,
                              ACTIVE_P_BY_TIER, GATES, TURN, alphabet)
    for tier in ("I", "II", "III", "IV"):
        act = ACTIVE_P_BY_TIER[tier]
        assert act <= set(alphabet("P", tier))
        for s in GATES + (BULLET, TURN):
            assert s not in act
    assert ACTIVE_CP_BY_TIER["IV"] == {"L", "R", "C", "←C", "CX",
                                       "Lx", "Rx", "Cx"}
    # applicable's active-site index is keyed by symbol alone, so a symbol
    # must never be active in both registers
    assert ACTIVE_P_ALL.isdisjoint(ACTIVE_CP_ALL)
