"""Trajectory engine: unique-forward stepping, markers and trace output.

A valid chain state has exactly one applicable forward rule (or none, at a
dead end) and exactly one reverse rule, the start state aside.  On the
worked example the start states of tiers I and III have no reverse rule;
tier II's has one (13b at site 1): its configurations recur with period
predicted_cycle_steps (188 there), and 13b, the rule that closes each
cycle, leads into the start as well; tier IV's has one (21), the first
step of a short reverse tail of at most 3L steps before a dead end.

run() walks the unique forward path to a dead end or its step cap,
recording the fired rule label and window site of every step.  Long runs
can drop full states and keep only those records; anything else a caller
wants per step (a trace file, a replay on another backend) comes from an
observer, called after each step with the new state and the fired Match.

run() is the package's one stepping loop: the harnesses and checks in
verify drive the chain through it and read their answers from the
trajectory.  It takes every forward step through the private
_Cursor.step, on a per-run cursor rather than a ChainState per step:
mutable register rows rewritten in the two window cells, the active sites
kept up to date from the window alone, and a count of the cells that differ
from the start rows, updated from the changed cells, for the repeat check.
So the cost of a step does not grow with the chain length L, with or
without check_uog.  Each step, and each reverse count under check_uog,
is one lookup in the rule set's compiled matcher, keyed by the few cells
around the active site; try_match runs only when the memo meets a window
content for the first time.  ChainState snapshots are built only for kept
states, observers, Ambiguous and the final state, and Match objects only
for observers and Ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rules import (FORWARD, REVERSE, RuleSet, _window_writes,
                    anchored_matches, applicable, apply, as_match, rule_set)
from .state import ChainState, active_sites
from .symbols import ACTIVE_CP_BY_TIER, ACTIVE_P_BY_TIER, BULLET, C, CP, P


class Ambiguous(Exception):
    """More than one rule applies where the construction promises one."""

    def __init__(self, state, matches, direction):
        labels = [(m.label, m.site) for m in matches]
        super().__init__(f"{len(matches)} {direction} matches: {labels}")
        self.state = state
        self.matches = matches


@dataclass
class StepBudget:
    """run() stops at a dead end or after max_steps, whichever comes first.
    stop_on, "dead_end" or "step_limit", only names the stop the caller
    expects; Trajectory.stop_reason names the stop that was hit.  A run to
    a given clock value is a run of the step count at which it first reads
    that value."""

    max_steps: int
    stop_on: str = "dead_end"

    def __post_init__(self):
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.stop_on not in ("dead_end", "step_limit"):
            raise ValueError(f"unknown stop_on {self.stop_on!r}")


@dataclass
class Trajectory:
    """Forward path from a start state, with step metadata.

    states is populated only when keep_states was set.  labels[t] and
    sites[t] name the rule and window of step t, the transition from state
    t to state t+1; markers is derived from them.
    """

    start: ChainState
    states: list = None
    labels: list = field(default_factory=list)
    sites: list = field(default_factory=list)
    final: ChainState = None
    stop_reason: str = None
    uog_violations: list = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return len(self.labels)

    def __len__(self):
        return self.n_steps + 1

    def state(self, t: int) -> ChainState:
        if self.states is None:
            raise ValueError("states were not kept for this run")
        return self.states[t]

    @property
    def markers(self) -> dict:
        """Rule label -> step indices at which it fired, in step order."""
        out = {}
        for t, lab in enumerate(self.labels):
            out.setdefault(lab, []).append(t)
        return out

    def marker_steps(self, *labels) -> list:
        wanted = set(labels)
        return [t for t, lab in enumerate(self.labels) if lab in wanted]

    # rule labels behind the named events of a run
    EVENT_LABELS = {
        "turn_gate": ("4a",),
        "turn_move": ("4b",),
        "oscillation_end": ("6a", "6b"),
        "bounce": ("13a", "13b"),
        "clock_wake": ("14",),
        "clock_done": ("15", "16", "20"),
        "clock_handback": ("21",),
        "compare_fail": ("25", "26"),
        "compare_match": ("28", "30"),
        "crossed_mode": ("22",),
    }

    def events(self) -> dict:
        """Named-event view of the markers (event -> sorted step indices)."""
        return {name: steps for name, labels in self.EVENT_LABELS.items()
                if (steps := self.marker_steps(*labels))}


class _Cursor:
    """Mutable per-run view of a chain state; step() is the one forward step.

    rows maps each register to a list that a step rewrites in its two
    window cells only: step() looks the window up in the rule set's
    compiled matcher, which reads a cursor like a ChainState, and writes
    the Hit's cells through rules._window_writes (apply()'s rewrite too).
    active equals active_sites() of the current state at all times: a step
    can change active cells only inside its window, so it drops the window's
    entries and rescans those two sites.  differs counts the cells in which
    rows differ from the start's, kept from the cells each step changes.
    snapshot() builds a ChainState that reuses the row tuples of registers
    no step touched since the last one.
    """

    __slots__ = ("tier", "L", "rows", "work", "active", "differs", "_pools",
                 "_start", "_frozen", "_stale")

    def __init__(self, state: ChainState):
        self.tier, self.L, self.work = state.tier, state.L, state.work
        self.rows = {reg: list(row) for reg, row in state.rows.items()}
        self._start = state.rows
        self._frozen = dict(state.rows)
        self._stale = set()
        self.active = active_sites(state)
        self._pools = [(P, ACTIVE_P_BY_TIER[state.tier])]
        if CP in self.rows:
            self._pools.append((CP, ACTIVE_CP_BY_TIER[state.tier]))
        self.differs = 0

    def step(self, rs: RuleSet):
        """Fire the unique forward hit in place: (site, Hit), or None at a
        dead end.  Several hits raise Ambiguous before any cell changes."""
        hits = anchored_matches(self, FORWARD, rs, self.active)
        if not hits:
            return None
        if len(hits) > 1:
            matches = [as_match(i, hit, FORWARD) for i, hit in hits]
            raise Ambiguous(self.snapshot(), matches, FORWARD)
        i, hit = fired = hits[0]
        writes, self.work = _window_writes(self, i, hit, FORWARD)
        rows, start, differs = self.rows, self._start, self.differs
        for reg, site, s in writes:
            row = rows[reg]
            old = row[site - 1]
            if s != old:
                row[site - 1] = s
                self._stale.add(reg)
                orig = start[reg][site - 1]
                differs += (old == orig) - (s == orig)
        self.differs = differs
        active = [a for a in self.active if not i <= a[0] <= i + 1]
        for reg, pool in self._pools:
            row = rows[reg]
            if row[i - 1] in pool:
                active.append((i, reg, row[i - 1]))
            if row[i] in pool:
                active.append((i + 1, reg, row[i]))
        if len(active) > 1:
            active.sort(key=lambda a: (a[1] != P, a[0]))
        self.active = active
        return fired

    def snapshot(self) -> ChainState:
        for reg in self._stale:
            self._frozen[reg] = tuple(self.rows[reg])
        self._stale.clear()
        return ChainState(self.tier, self._frozen, self.work)


def run(start: ChainState, budget: StepBudget, keep_states: bool = True,
        check_uog: bool = False, observer=None) -> Trajectory:
    """Drive the unique forward path to a dead end or budget.max_steps.

    A state with several forward matches raises Ambiguous.  check_uog
    verifies, on the fly, that every non-initial state has exactly one
    reverse match and that no configuration repeats; violations are
    recorded, not raised.  observer(t, state, match) is called once after
    each step t >= 1 with the state reached and the Match that fired; the
    start state is traj.start.

    The repeat check keeps no set of configurations: it flags every step
    from the first return to the start configuration, after which the
    path repeats itself.  Against a loop that keeps every configuration
    in a set, uog_violations is equal through the first reverse-count
    violation, and every later "configuration repeats" entry is also in
    that loop's list.  So the two lists are empty together and agree in
    their first entry.
    """
    rs = rule_set(start.tier)
    traj = Trajectory(start, states=[start] if keep_states else None)
    cur = _Cursor(start)
    repeats = False
    for t in range(budget.max_steps):
        fired = cur.step(rs)
        if fired is None:
            traj.stop_reason = "dead_end"
            break
        i, hit = fired
        traj.labels.append(hit.rule.label)
        traj.sites.append(i)
        if check_uog:
            # A step map with one reverse match per state is injective, so
            # (Bennett 1973) the first repeat can only be of the start: if
            # the first repeat is s_j = s_i with 0 < i < j, then s_(i-1) !=
            # s_(j-1) and s_i has two reverse matches, flagged at step i.
            repeats = repeats or cur.differs == 0
            if repeats:
                traj.uog_violations.append((t + 1, "configuration repeats"))
            rev = anchored_matches(cur, REVERSE, rs, cur.active)
            if len(rev) != 1:
                traj.uog_violations.append(
                    (t + 1, f"{len(rev)} reverse matches"))
        if keep_states or observer is not None:
            state = cur.snapshot()
            if keep_states:
                traj.states.append(state)
            if observer is not None:
                observer(t + 1, state, as_match(i, hit, FORWARD))
    else:
        traj.stop_reason = "step_limit"
    traj.final = cur.snapshot()
    return traj


# -- step-count closed forms ----------------------------------------------------


def predicted_single_pass_steps(n_qubits: int, depth: int) -> int:
    """Forward transitions from the tier-I start state to its dead end."""
    n, k = n_qubits, depth
    return (2 * n * n * k * k - 2 * n * n * k + 4 * n * k * k - n
            + 2 * k * k + 2 * k)


def predicted_oscillation_steps(n_qubits: int, depth: int) -> int:
    """Length of one full right-moving oscillation of the active symbol."""
    return 2 * depth * (n_qubits + 1) + 1


def predicted_cycle_steps(n_qubits: int, depth: int) -> int:
    """Tier-II configuration period: one reset-and-reapply cycle."""
    return 2 * predicted_single_pass_steps(n_qubits, depth) + 2


# -- clock readout ---------------------------------------------------------------


def clock_value(state: ChainState):
    """Integer stored in the clock register, or None if malformed.

    The register must be bullets followed by bits; significance increases
    right to left.  Returns None for tiers without the register.
    """
    row = state.rows.get(C)
    if row is None:
        return None
    bits = []
    seen_bit = False
    for s in row:
        if s == BULLET:
            if seen_bit:
                return None
            continue
        if s not in ("0", "1"):
            return None
        seen_bit = True
        bits.append(s)
    if not bits:
        return None
    return int("".join(bits), 2)


# -- trajectory Hamiltonian ------------------------------------------------------


def restricted_hamiltonian(traj: Trajectory):
    """Matrix of the rule terms (plus adjoints) on the trajectory basis.

    Entry (s, t) collects `<state_s | term | state_t>` over every rule term
    applied at every window of state t, in both directions.  On a clean
    trajectory this is exactly the path-graph adjacency matrix.  A nonzero
    entry with |s - t| != 1 means a rule leaks off the path and is raised.
    """
    if traj.states is None:
        raise ValueError("restricted_hamiltonian needs kept states")
    rs = rule_set(traj.start.tier)
    states = traj.states
    index = {}
    for t, st in enumerate(states):
        index.setdefault(st.config_key(), []).append(t)
    n = len(states)
    h = np.zeros((n, n))
    for t, st in enumerate(states):
        for direction in (FORWARD, REVERSE):
            for m in applicable(st, direction, rs):
                img = apply(st, m)
                for s in index.get(img.config_key(), ()):
                    amp = states[s].work.overlap(img.work)
                    if abs(amp) < 1e-12:
                        continue
                    if abs(s - t) != 1:
                        raise ValueError(
                            f"rule {m.label} maps state {t} to state {s}:"
                            " off-path matrix element")
                    h[s, t] += amp.real
    return h


# -- trace output -------------------------------------------------------------


def trace_observer(fh, snapshot_every: int = None):
    """run() observer writing a tab-separated trace to fh as the run goes.

    One line per step: step, rule, site, active symbol after the step,
    clock, digest.  After every step divisible by snapshot_every the
    state's snapshot block follows its line.
    """
    def observe(t, state, m):
        act = active_sites(state)
        active = f"{act[0][1]}:{act[0][2]}" if len(act) == 1 else "?"
        ck = clock_value(state)
        fh.write(f"{t - 1}\t{m.label}\t{m.site}\t{active}\t"
                 f"{ck if ck is not None else '-'}\t{state.digest():016x}\n")
        if snapshot_every and t % snapshot_every == 0:
            fh.write(state.snapshot() + "\n")
    return observe
