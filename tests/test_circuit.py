import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqca.builder import InstanceParseError, parse_instance_text
from hqca.circuit import (CircuitProgram, apply_circuit_power, apply_round,
                          basis_state, circuit_unitary, gate_matrix)
from hqca.state import DenseData, WorkState
from hqca.symbols import GATES

from conftest import random_state, small_circuit


def test_gate_matrices_unitary():
    for g in ("W", "S", "I"):
        m = gate_matrix(g)
        assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-12


def test_gates_fix_00():
    e00 = basis_state("00")
    for g in ("W", "S", "I"):
        assert np.allclose(gate_matrix(g) @ e00, e00)


def test_identity_and_swap():
    assert np.array_equal(gate_matrix("I"), np.eye(4))
    assert np.allclose(gate_matrix("S") @ basis_state("01"), basis_state("10"))
    assert np.allclose(gate_matrix("S") @ basis_state("10"), basis_state("01"))


def test_w_on_10():
    # control set: the target rotates |0> -> (|0>+|1>)/sqrt(2)
    got = gate_matrix("W") @ basis_state("10")
    want = (basis_state("10") + basis_state("11")) / np.sqrt(2)
    assert np.max(np.abs(got - want)) < 1e-12


def test_w_adjoint_inverts():
    v = random_state(2, 5)
    w = gate_matrix("W") @ v
    assert np.max(np.abs(gate_matrix("W", adjoint=True) @ w - v)) < 1e-12


def test_gate_matrices_read_only_and_real():
    for g in GATES:
        for adjoint in (False, True):
            m = gate_matrix(g, adjoint)
            assert m.dtype == np.float64
            with pytest.raises(ValueError):
                m[2, 3] = 0
    assert gate_matrix("W")[2, 3] < 0


# the kernel's gemm branch needs 256 rows before the pair: n = 10 reaches it
# with two floats after the pair, n = 11 with four
@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2 ** 16),
       strided=st.booleans())
@example(n=10, seed=1, strided=False)
@example(n=11, seed=0, strided=True)
def test_kernel_matches_kron_oracle(n, seed, strided):
    rng = np.random.default_rng(seed)
    big = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
    v = big[::2] if strided else big[:2 ** n]
    assert v.flags.c_contiguous != strided
    keep = v.copy()
    sites = tuple(range(3, n + 3))

    def check(out, want):
        assert np.max(np.abs(out - want)) <= 1e-12
        assert not np.shares_memory(out, big)
        assert np.array_equal(v, keep)

    for g in GATES:
        for m in range(n - 1):
            rnd = ("I",) * m + (g,) + ("I",) * (n - m - 2)
            op = circuit_unitary(CircuitProgram(n, (rnd,)))
            work = WorkState(sites, v)
            check(work.apply_gate(g, sites[m], sites[m + 1]).amps, op @ keep)
            check(work.apply_gate(g, sites[m], sites[m + 1], adjoint=True).amps,
                  (keep.conj() @ op).conj())  # op^H keep, without copying op
            check(DenseData(n, v).apply_gate(g, m + 1, m + 2).amps, op @ keep)
    rnd = tuple(str(g) for g in rng.choice(GATES, size=n - 1))
    circuit = CircuitProgram(n, (rnd,))
    check(apply_round(v, circuit, 1), circuit_unitary(circuit) @ keep)


def test_program_string_worked_example():
    c = CircuitProgram(3, (("W", "S"), ("S", "W")))
    assert c.program_string() == ("S", "W", "I", "I", "W", "S", "I")
    assert len(c.program_string()) == 2 * 4 - 1


def test_program_string_single_round():
    c = CircuitProgram(2, (("I",),))
    assert c.program_string() == ("I", "I")


def test_program_string_two_rounds_n2():
    c = CircuitProgram(2, (("S",), ("S",)))
    assert c.program_string() == ("S", "I", "I", "S", "I")


def test_power_zero_is_identity():
    c = small_circuit(3, 2)
    v = random_state(3, 1)
    assert np.array_equal(apply_circuit_power(v.copy(), c, 0), v)


def test_power_matches_matrix_oracle():
    # independent oracle: explicit 8x8 unitary, squared
    c = CircuitProgram(3, (("W", "S"), ("S", "W")))
    u = circuit_unitary(c)
    v = basis_state("100")
    want = u @ (u @ v)
    got = apply_circuit_power(v.copy(), c, 2)
    assert np.max(np.abs(got - want)) < 1e-12


def test_assembled_unitary_is_unitary():
    for n, k in ((2, 1), (3, 2), (4, 2)):
        u = circuit_unitary(small_circuit(n, k))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 ** n))) < 1e-12


def test_circuit_fixes_all_zero():
    for n, k in ((2, 2), (3, 2), (4, 3)):
        c = small_circuit(n, k)
        z = basis_state("0" * n)
        assert np.max(np.abs(apply_circuit_power(z.copy(), c, 3) - z)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(a=st.integers(0, 4), b=st.integers(0, 4), seed=st.integers(0, 50))
def test_power_composition(a, b, seed):
    c = small_circuit(3, 2, seed=seed % 7)
    v = random_state(3, seed)
    lhs = apply_circuit_power(v.copy(), c, a + b)
    rhs = apply_circuit_power(apply_circuit_power(v.copy(), c, a), c, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_bad_circuits_rejected():
    with pytest.raises(ValueError):
        CircuitProgram(1, (tuple(),))
    with pytest.raises(ValueError):
        CircuitProgram(3, (("W",),))  # wrong round width
    with pytest.raises(ValueError):
        CircuitProgram(3, (("W", "Q"),))


def test_parse_circuit_text():
    text = """
# simple instance
n=3
k=2
round 1: W S
round 2: S W
work=010
"""
    inst = parse_instance_text(text)
    assert inst.spec.circuit.rounds == (("W", "S"), ("S", "W"))
    assert inst.spec.work == "010"
    assert inst.options == {}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InstanceParseError) as err:
        parse_instance_text("n=3\nk=1\nround 1: W\n")
    assert "round 1" in str(err.value)
    with pytest.raises(InstanceParseError) as err:
        parse_instance_text("n=3\nk=1\nround 1: W Q\n")
    assert "line 3" in str(err.value)
