"""Circuits over the two-qubit gate set {W, S, I} and the dense reference oracle.

W is a controlled y-rotation by pi/2 (left qubit controls the right one),
S is the two-qubit swap, I the two-qubit identity.  All three fix |00>,
which is what lets a chain automaton park inactive gate rounds over
|00>-padded data sites without disturbing them.

A circuit of depth K on N qubits is stored as K rounds of N-1 gates; gate
(k, m) acts on qubit pair (m, m+1), 1-based.  Its flattened program string
is

    (U_{K,1}..U_{K,N-1}) I I (U_{K-1,1}..U_{K-1,N-1}) I I ... I I (U_{1,1}..U_{1,N-1}) I

of length K(N+1)-1, read as an operator product: the rightmost factor acts
first, so round 1 is applied first and within a round the gate on the
highest qubit pair acts first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symbols import GATES

_C = 1.0 / np.sqrt(2.0)

# Basis order |left,right>: left qubit is the most significant bit.
_W = np.array([[1, 0, 0, 0],
               [0, 1, 0, 0],
               [0, 0, _C, -_C],
               [0, 0, _C, _C]], dtype=complex)
_S = np.array([[1, 0, 0, 0],
               [0, 0, 1, 0],
               [0, 1, 0, 0],
               [0, 0, 0, 1]], dtype=complex)
_I = np.eye(4, dtype=complex)

_GATE_MATRIX = {"W": _W, "S": _S, "I": _I}


def gate_matrix(kind: str, adjoint: bool = False) -> np.ndarray:
    """4x4 unitary of one gate; adjoint=True gives its inverse."""
    m = _GATE_MATRIX[kind]
    return m.conj().T if adjoint else m


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class CircuitProgram:
    """K rounds of N-1 two-site gates from {W, S, I}."""

    n_qubits: int
    rounds: tuple  # K tuples, each of N-1 gate names

    def __post_init__(self):
        if self.n_qubits < 2:
            raise CircuitError("need at least 2 qubits")
        if not self.rounds:
            raise CircuitError("need at least one round")
        for k, rnd in enumerate(self.rounds, start=1):
            if len(rnd) != self.n_qubits - 1:
                raise CircuitError(
                    f"round {k} has {len(rnd)} gates, expected {self.n_qubits - 1}")
            for g in rnd:
                if g not in GATES:
                    raise CircuitError(f"round {k}: unknown gate {g!r}")

    @property
    def depth(self) -> int:
        return len(self.rounds)

    def program_string(self) -> tuple:
        """Flattened gate-symbol sequence of length K(N+1)-1."""
        # rounds are emitted depth-first (K, K-1, ..., 1), each padded with
        # I I except the first-applied round, which gets a single I
        out = []
        for rnd in self.rounds[::-1]:
            out.extend(rnd)
            out.extend(("I", "I"))
        out = out[:-2]
        out.append("I")
        assert len(out) == self.depth * (self.n_qubits + 1) - 1
        return tuple(out)


def _apply_two_qubit(state: np.ndarray, mat: np.ndarray, q0: int, q1: int,
                     n: int) -> np.ndarray:
    """Apply a 4x4 matrix to qubits q0 < q1 of an n-qubit state vector.

    Qubit 0 is the most significant bit of the state index.
    """
    a = state.reshape([2] * n)
    a = np.moveaxis(a, (q0, q1), (0, 1))
    shape = a.shape
    a = mat @ a.reshape(4, -1)
    a = np.moveaxis(a.reshape(shape), (0, 1), (q0, q1))
    return np.ascontiguousarray(a).reshape(-1)


def apply_round(state: np.ndarray, circuit: CircuitProgram, k: int) -> np.ndarray:
    """Apply round k (1-based) to a dense N-qubit state."""
    n = circuit.n_qubits
    rnd = circuit.rounds[k - 1]
    for m in range(n - 2, -1, -1):
        state = _apply_two_qubit(state, gate_matrix(rnd[m]), m, m + 1, n)
    return state


def apply_circuit_power(state: np.ndarray, circuit: CircuitProgram,
                        x: int) -> np.ndarray:
    """Dense oracle for x sequential applications of the whole circuit."""
    if x < 0:
        raise CircuitError("power must be non-negative")
    n = circuit.n_qubits
    if state.shape != (2 ** n,):
        raise CircuitError(
            f"state dimension {state.shape} does not match {n} qubits")
    for _ in range(x):
        for k in range(1, circuit.depth + 1):
            state = apply_round(state, circuit, k)
    return state


def apply_rounds_prefix(state: np.ndarray, circuit: CircuitProgram,
                        upto_round: int) -> np.ndarray:
    """State after rounds 1..upto_round of a single circuit application."""
    for k in range(1, upto_round + 1):
        state = apply_round(state, circuit, k)
    return state


def circuit_unitary(circuit: CircuitProgram) -> np.ndarray:
    """Explicit 2^N x 2^N matrix of the circuit (independent check path)."""
    n = circuit.n_qubits
    dim = 2 ** n
    u = np.eye(dim, dtype=complex)
    for col in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[col] = 1.0
        u[:, col] = apply_circuit_power(e, circuit, 1)
    return u


def basis_state(bits: str) -> np.ndarray:
    """Computational basis vector |bits>, leftmost bit most significant."""
    n = len(bits)
    v = np.zeros(2 ** n, dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for unit vectors."""
    return float(abs(np.vdot(a, b)) ** 2)


# ---------------------------------------------------------------------------
# Circuit text format
#
#   n=<N>
#   k=<K>
#   round <i>: <g_1> <g_2> ...
#   work=<bitstring of length N>
#
# Lines starting with '#' and blank lines are ignored.  parse_circuit_text
# returns (CircuitProgram, work_bits_or_None, leftover key=value dict) so
# instance files can extend the grammar.


class InstanceParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_circuit_text(text: str):
    n = None
    k = None
    rounds = {}
    work = None
    extra = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("round"):
            head, _, body = line.partition(":")
            if not _:
                raise InstanceParseError(lineno, "round line needs a ':'")
            try:
                idx = int(head.split()[1])
            except (IndexError, ValueError):
                raise InstanceParseError(lineno, f"bad round header {head!r}")
            gates = tuple(body.split())
            for g in gates:
                if g not in GATES:
                    raise InstanceParseError(lineno, f"unknown gate {g!r}")
            if idx in rounds:
                raise InstanceParseError(lineno, f"round {idx} given twice")
            rounds[idx] = (gates, lineno)
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise InstanceParseError(lineno, f"cannot parse {line!r}")
        key = key.strip()
        value = value.strip()
        if key == "n":
            n = _parse_number(value, lineno, int, 2)
        elif key == "k":
            k = _parse_number(value, lineno, int, 1)
        elif key == "work":
            if set(value) - {"0", "1"}:
                raise InstanceParseError(lineno, "work must be a bitstring")
            work = value
        else:
            extra[key] = (value, lineno)
    if n is None:
        raise InstanceParseError(0, "missing n=")
    if k is None:
        raise InstanceParseError(0, "missing k=")
    round_list = []
    for idx in range(1, k + 1):
        if idx not in rounds:
            raise InstanceParseError(0, f"missing round {idx}")
        gates, lineno = rounds[idx]
        if len(gates) != n - 1:
            raise InstanceParseError(
                lineno, f"round {idx} has {len(gates)} gates, expected {n - 1}")
        round_list.append(gates)
    for idx in rounds:
        if idx < 1 or idx > k:
            raise InstanceParseError(rounds[idx][1], f"round {idx} out of range 1..{k}")
    if work is not None and len(work) != n:
        raise InstanceParseError(0, f"work bitstring length {len(work)} != n={n}")
    return CircuitProgram(n, tuple(round_list)), work, extra


def parse_number(text: str, kind=int, low=-math.inf, high=math.inf):
    """A finite int or float (kind) in [low, high]; ValueError otherwise."""
    try:
        v = kind(text)
    except ValueError:
        v = math.nan
    if not abs(v) < math.inf:
        raise ValueError(f"expected a finite {kind.__name__}, got {text!r}")
    if v < low:
        raise ValueError(f"value {v} below minimum {low}")
    if v > high:
        raise ValueError(f"value {v} above maximum {high}")
    return v


def _parse_number(text: str, lineno: int, *bounds):
    """parse_number on an instance-file value; errors carry the line."""
    try:
        return parse_number(text, *bounds)
    except ValueError as err:
        raise InstanceParseError(lineno, str(err)) from None
