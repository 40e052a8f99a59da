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

A state is a 2^n complex vector, qubit 0 the most significant index bit.
Gate matrices are real and read-only.  The one two-qubit kernel,
_apply_two_qubit, applies them to adjacent qubits on the float64 view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbols import GATES

_C = 1.0 / np.sqrt(2.0)

# Basis order |left,right>: left qubit is the most significant bit.
_W = np.array([[1, 0, 0, 0],
               [0, 1, 0, 0],
               [0, 0, _C, -_C],
               [0, 0, _C, _C]], dtype=np.float64)
_S = np.array([[1, 0, 0, 0],
               [0, 0, 1, 0],
               [0, 1, 0, 0],
               [0, 0, 0, 1]], dtype=np.float64)
_I = np.eye(4, dtype=np.float64)

_GATE_MATRIX = {"W": _W, "S": _S, "I": _I}
for _m in _GATE_MATRIX.values():
    _m.setflags(write=False)


def gate_matrix(kind: str, adjoint: bool = False) -> np.ndarray:
    """Read-only real 4x4 gate matrix; adjoint=True gives its transpose."""
    m = _GATE_MATRIX[kind]
    return m.T if adjoint else m


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


# Fewest rows 2**q at which one gemm against kron(mat.T, I_k) beats matmul's
# loop over (4, k) slices, for k <= 4 floats after the pair (1 BLAS thread,
# 2-core x86_64 VM, gemm/matmul at k=2: 2^8 rows 11.6/19.8 us, 2^14 195/749 us).
GEMM_MIN_ROWS = 256


def _apply_two_qubit(state: np.ndarray, mat: np.ndarray, q: int,
                     n: int) -> np.ndarray:
    """Apply a real 4x4 matrix to adjacent qubits (q, q+1) of an n-qubit state,
    qubit 0 most significant: it multiplies the pair axis of the float64 view
    (real and imaginary parts alike) reshaped to (2**q, 4, k), k = 2**(n-q-1).
    The result is a fresh vector; the input is neither written nor aliased."""
    rows, k = 2 ** q, 2 ** (n - q - 1)
    a = np.ascontiguousarray(state, dtype=complex).view(np.float64)
    if k <= 4 and rows >= GEMM_MIN_ROWS:
        kron = (mat.T[:, None, :, None] * np.eye(k)[:, None]).reshape(4 * k, -1)
        return (a.reshape(rows, -1) @ kron).view(complex).reshape(-1)
    return np.matmul(mat, a.reshape(rows, 4, k)).view(complex).reshape(-1)


def apply_round(state: np.ndarray, circuit: CircuitProgram, k: int) -> np.ndarray:
    """Apply round k (1-based) to a dense N-qubit state."""
    n = circuit.n_qubits
    rnd = circuit.rounds[k - 1]
    for m in range(n - 2, -1, -1):
        state = _apply_two_qubit(state, gate_matrix(rnd[m]), m, n)
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


def circuit_unitary(circuit: CircuitProgram) -> np.ndarray:
    """Explicit 2^N x 2^N matrix of the circuit, sharing no code with the
    kernel: the product of I_(2^m) (x) G (x) I_(2^(N-m-2)) in apply_round's order."""
    n = circuit.n_qubits
    u = None  # the identity, until the first factor that is not
    for rnd in circuit.rounds:
        for m in range(n - 2, -1, -1):
            if rnd[m] != "I":  # an I factor is the identity
                f = np.kron(np.kron(np.eye(2 ** m), gate_matrix(rnd[m])),
                            np.eye(2 ** (n - m - 2)))
                # + 0.0 turns kron's -0.0 entries to 0.0, as f @ I would
                u = f + 0.0 if u is None else f @ u
    return (np.eye(2 ** n) if u is None else u).astype(complex)


def basis_state(bits: str) -> np.ndarray:
    """Computational basis vector |bits>, leftmost bit most significant."""
    n = len(bits)
    v = np.zeros(2 ** n, dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for unit vectors."""
    return float(abs(np.vdot(a, b)) ** 2)

