"""Chain states: classical register rows plus a hybrid data register.

A ChainState is immutable; every transition produces a new state.  The data
register is special: most of its sites provably stay in computational basis
states, so a state keeps one classical bit per data site and a small
amplitude vector over a quantum-support set, normally the N work qubits.
DenseData, the whole data register as one 2^L amplitude vector (site 1 most
significant), is the oracle that verify.cross_check_backends checks this
claim against at small L.  Both apply gates to adjacent sites through
circuit's kernel, which never aliases the old state's amplitudes, and
both keep their amplitudes read-only, so no state changes under a caller.
dense_indices places a hybrid state's work amplitudes in the 2^L vector:
as_dense_vector uses it only to build the oracle's start, and the check
compares at those indices on one reused copy of the dense vector.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import symbols as sym
from .circuit import _apply_two_qubit, gate_matrix
from .symbols import CP, D, P, QUANTUM, REGISTERS_BY_TIER

NORM_TOL = 1e-12


class StateError(ValueError):
    pass


def _amplitudes(amps, n_sites: int) -> np.ndarray:
    """amps as a read-only complex 2^n_sites vector, copied if writable."""
    amps = np.asarray(amps, dtype=complex)
    if amps.shape != (2 ** n_sites,):
        raise StateError(f"amplitude dimension {amps.shape} does not match"
                         f" {n_sites} sites")
    if amps.flags.writeable:
        amps = amps.copy()
        amps.setflags(write=False)
    return amps


class WorkState:
    """Amplitudes over the quantum-support sites of the data register;
    read-only, copied first when the input array is writable."""

    __slots__ = ("support", "amps")

    def __init__(self, support, amps):
        self.support = tuple(support)
        self.amps = _amplitudes(amps, len(self.support))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def apply_gate(self, kind: str, site_i: int, site_j: int,
                   adjoint: bool = False) -> "WorkState":
        p0 = self.support.index(site_i)
        if self.support.index(site_j) != p0 + 1:
            raise StateError("gate window must cover adjacent support slots")
        out = _apply_two_qubit(self.amps, gate_matrix(kind, adjoint), p0,
                               len(self.support))
        out.setflags(write=False)  # the kernel's fresh vector: no copy
        return WorkState(self.support, out)

    def overlap(self, other: "WorkState") -> complex:
        if self.support != other.support:
            return 0.0
        return complex(np.vdot(self.amps, other.amps))


class DenseData:
    """Full data register as one read-only 2^L amplitude vector: the
    oracle of verify.cross_check_backends."""

    __slots__ = ("n_sites", "amps")

    def __init__(self, n_sites: int, amps):
        self.n_sites = n_sites
        self.amps = _amplitudes(amps, n_sites)

    def apply_gate(self, kind: str, site_i: int, site_j: int) -> "DenseData":
        """The gate on sites (site_i, site_j); the identity returns self."""
        if site_j != site_i + 1:
            raise StateError("gate window must cover adjacent sites")
        if kind == "I":
            return self
        out = _apply_two_qubit(self.amps, gate_matrix(kind), site_i - 1,
                               self.n_sites)
        out.setflags(write=False)  # the kernel's fresh vector: no copy
        return DenseData(self.n_sites, out)


class ChainState:
    """One basis-layer configuration of the chain plus its data amplitudes.

    Immutable and safe to share between threads; all update paths construct
    new states.  Register rows are tuples of symbol tokens, 1-indexed sites
    stored at row[site-1].  The data row holds '?' at quantum-support sites.
    """

    __slots__ = ("tier", "L", "rows", "work", "_digest")

    def __init__(self, tier, rows, work):
        self.tier = tier
        self.rows = dict(rows)
        self.L = len(self.rows[P])
        self.work = work
        self._digest = None
        for reg in REGISTERS_BY_TIER[tier]:
            if reg not in self.rows:
                raise StateError(f"tier {tier} state is missing register {reg}")

    def replace(self, rows=None, work=None) -> "ChainState":
        new_rows = dict(self.rows)
        if rows:
            new_rows.update(rows)
        return ChainState(self.tier, new_rows, work if work is not None else self.work)

    # -- configuration identity -------------------------------------------

    def config_key(self) -> tuple:
        """Hashable classical content; distinct keys mean orthogonal states."""
        regs = tuple(self.rows[r] for r in REGISTERS_BY_TIER[self.tier] if r != D)
        return (self.tier, self.rows[D]) + regs

    def digest(self) -> int:
        """64-bit digest of config_key, cached per state."""
        if self._digest is None:
            h = hashlib.blake2b(repr(self.config_key()).encode(), digest_size=8)
            self._digest = int.from_bytes(h.digest(), "big")
        return self._digest

    def config_equal(self, other: "ChainState") -> bool:
        return self.config_key() == other.config_key()

    # -- snapshot text format ----------------------------------------------

    def snapshot(self) -> str:
        """One line per register, sites separated by single spaces."""
        return "\n".join(
            f"{reg}: " + " ".join(self.rows[reg])
            for reg in REGISTERS_BY_TIER[self.tier])

    def __repr__(self):
        return f"<ChainState tier {self.tier} L={self.L} digest={self.digest():016x}>"


def dense_indices(state) -> np.ndarray:
    """Index of each work amplitude in the 2^L data vector, site 1 most
    significant: the data row's bits with the support's bits of k."""
    L, k = state.L, np.arange(len(state.work.amps))
    idx = np.full_like(k, int("".join(state.rows[D]).replace(QUANTUM, "0"), 2))
    for pos, site in enumerate(reversed(state.work.support)):
        idx |= ((k >> pos) & 1) << (L - site)
    return idx


def as_dense_vector(state: ChainState) -> np.ndarray:
    """Data register as one read-only 2^L vector, site 1 most significant:
    the dense oracle's start."""
    out = np.zeros(2 ** state.L, dtype=complex)
    out[dense_indices(state)] = state.work.amps
    out.setflags(write=False)  # DenseData keeps it without a copy
    return out


# -- active-site bookkeeping -------------------------------------------------


def active_sites(state: ChainState):
    """All (site, register, symbol) with an active symbol, in site order."""
    out = []
    active_p = sym.ACTIVE_P_BY_TIER[state.tier]
    for i, s in enumerate(state.rows[P], start=1):
        if s in active_p:
            out.append((i, P, s))
    if CP in state.rows:
        active_cp = sym.ACTIVE_CP_BY_TIER[state.tier]
        for i, s in enumerate(state.rows[CP], start=1):
            if s in active_cp:
                out.append((i, CP, s))
    return out


def validate_config(state: ChainState) -> list:
    """Structural checks: registers per tier, one active symbol, sane data.
    Returns the violations found, one message each; empty when valid."""
    v = []
    expected = set(REGISTERS_BY_TIER[state.tier])
    present = set(state.rows)
    for reg in sorted(present - expected):
        v.append(f"register {reg} not allowed at tier {state.tier}")
    for reg in sorted(expected - present):
        v.append(f"register {reg} missing at tier {state.tier}")
    for reg in sorted(expected & present):
        if len(state.rows[reg]) != state.L:
            v.append(f"register {reg} has length {len(state.rows[reg])} != {state.L}")
            continue
        if reg == D:
            bad = [s for s in state.rows[D] if s not in ("0", "1", QUANTUM)]
            if bad:
                v.append(f"data row holds non-bit symbols {sorted(set(bad))}")
        else:
            alphabet = set(sym.alphabet(reg, state.tier))
            bad = sorted({s for s in state.rows[reg] if s not in alphabet})
            if bad:
                v.append(f"register {reg} holds out-of-alphabet symbols {bad}")
    n_active = len(active_sites(state))
    if n_active != 1:
        v.append(f"active count {n_active}")
    support = state.work.support
    marked = tuple(i for i, s in enumerate(state.rows[D], start=1) if s == QUANTUM)
    if support != marked:
        v.append(f"quantum support {support} != data-row markers {marked}")
    if any(not 1 <= s <= state.L for s in support):
        v.append("quantum support outside the chain")
    if abs(state.work.norm() - 1.0) > NORM_TOL:
        v.append(f"work norm {state.work.norm()!r} != 1")
    return v
