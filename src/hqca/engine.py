"""Trajectory engine: unique-forward stepping, markers and trace output.

A valid chain state has exactly one applicable forward rule (or none, at a
dead end) and exactly one reverse rule, the start state aside.  On the
worked example the start states of tiers I and III have no reverse rule;
tier II's has one (13b at site 1): its configurations recur with period
predicted_cycle_steps (188 there), and 13b, the rule that closes each
cycle, leads into the start as well; tier IV's has one (21), the first
step of a short reverse tail of at most 3L steps before a dead end.

run(), the package's one stepping loop, walks the unique forward path to
a dead end or its step cap, recording the fired rule label and window site
of every step and no state.  Whatever a caller reads of the states (a past
state, a trace file, the checks in verify) comes from a replay of that
record (Trajectory._replay), through the run's own blocks where they match
it, which keeps nothing.  run() steps a per-run cursor (_Cursor),
not a ChainState per step: mutable rows and the head, the one active cell
of a valid state, rewritten in the window cells after one lookup in the
rule set's compiled matcher, so a single step's cost does not grow with
the chain length L.  check_uog's repeat check compares the head with the
start's, and the rows only where those agree.  run() builds ChainStates
only for Ambiguous and the final state.

run() replays recurring stretches of up to BLOCK_STEPS steps from a store
on the rule set, keyed by (L, check_uog, head).  A stretch ends where its
window reaches an end of the chain, where the head is back at its first
head, or after BLOCK_STEPS steps.  A stretch seen twice is stored with its
footprint, the cells its probes (reverse ones too under check_uog) and its
gates read before it wrote them, and with its gates on the work vector,
which a replay applies in order: the kernel calls of its single steps.
The store is emptied at BLOCK_CAP blocks.  Steps no block fits and those
after a flagged repeat go one by one.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from itertools import dropwhile, islice
from operator import index, itemgetter

import numpy as np

from .rules import (FORWARD, REVERSE, Hit, RuleSet, _apply_gate_effect,
                    applicable, apply, as_match, rule_set)
from .state import ChainState, active_sites
from .symbols import BULLET, C, D


class Ambiguous(Exception):
    """More than one rule applies where the construction promises one.
    Raised by run(), it carries traj: the steps up to the state it names."""

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
    """Forward path from a start state: labels[t] and sites[t] name the rule
    and window of step t, the transition from state t to state t+1, and
    markers is derived from them.  Every state read replays them from the
    start on the run's rules, keeping none (_replay).  checked: run() made
    it under check_uog."""

    start: ChainState
    rules: RuleSet
    labels: list = field(default_factory=list)
    sites: list = field(default_factory=list)
    final: ChainState = None
    stop_reason: str = None
    uog_violations: list = field(default_factory=list)
    checked: bool = field(default=False, init=False)

    @property
    def n_steps(self) -> int:
        return len(self.labels)

    def __len__(self):
        return self.n_steps + 1

    def state(self, t: int) -> ChainState:
        """State t, replayed from the start at block speed: a watched replay
        that watches nothing.  t must be an integer (operator.index)."""
        t = index(t)
        if not 0 <= t <= self.n_steps:
            raise IndexError(f"state {t} outside 0..{self.n_steps}")
        for _k, cur in self._replay(t, frozenset()):
            pass
        return cur.chain_state()

    def iter_states(self):
        """States 0..n_steps in order, from one replay that keeps none."""
        return (cur.chain_state() for _k, cur in self._replay(self.n_steps))

    def _replay(self, t: int, watched=None):
        """Step a cursor from the start to state t, yielding (k, cursor) at
        each state k; given watched, a set of rule labels, only at the
        states after a step that fires one and at t.  Then a stretch may
        replay from the run's block store, with nothing learnt, where a
        block fits the rows and ends at or before t, its labels and sites
        are the record's there, and it fires no watched label before its
        last step.  A step off the record raises ValueError, and so does a
        replay to the end that stops away from final."""
        cur = _Cursor(self.start, self.rules)
        labels, sites, k = self.labels, self.sites, 0
        store = {} if watched is None else self.rules.blocks.get(
            (cur.L, self.checked), {})
        if watched is None or t == 0:
            yield k, cur
        while k < t:
            fits = [b for b in store.get(cur.head, ())
                    if (n := len(b.labels)) <= t - k
                    and b.labels == tuple(labels[k:k + n])
                    and b.sites == tuple(sites[k:k + n])
                    and watched.isdisjoint(b.labels[:-1])]
            if fits and (block := cur.replay(fits, t - k, None)):
                k += len(block.labels)
            else:
                fired = cur.step()
                if (fired is None or fired[0] != sites[k]
                        or fired[1].rule.label != labels[k]):
                    raise ValueError(f"replay left the record at step {k}")
                cur.site, cur.label, cur.gate = sites[k], labels[k], \
                    fired[1].gate
                k += 1
            if watched is None or k == t or labels[k - 1] in watched:
                yield k, cur
        end = self.final
        if t == self.n_steps and end and not (
                {reg: tuple(row) for reg, row in cur.rows.items()} == end.rows
                and np.array_equal(cur.work.amps, end.work.amps)):
            raise ValueError(f"replay left the record at final state {t}")

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
        """Named-event view of the markers (event -> sorted step indices),
        from one pass over the labels."""
        hits = self.marker_steps(*sum(self.EVENT_LABELS.values(), ()))
        return {name: steps for name, labels in self.EVENT_LABELS.items()
                if (steps := [t for t in hits if self.labels[t] in labels])}


class _Cursor:
    """Mutable per-run view of a chain state; step() is the one forward step.

    head is the (site, register, symbol) of the one active cell, and
    __init__ raises ValueError for a start with another count.  rows maps
    each register to a list that a step rewrites in its window cells only.
    step() and reverse() look the head's window up in the rule set's compiled
    matcher through the symbol's probe in _fwd or _rev, bound to these
    lists once per run, and append the key to rec while it is a list.  A
    memo Hit is ready to fire: its key fixes the window's P and CP cells, so
    it carries the window's active cells after the firing.  fire() writes
    the Hit's cells in place, runs its gate through rules._apply_gate_effect
    (apply()'s rewrite too), appending to rec what the gate read and did,
    and takes the new head from it, with no rescan, or raises ValueError
    naming a rule that left other than one active cell; replay() writes a
    block and applies its gates.

    Trajectory._replay yields the cursor as the view of each state it
    reaches: tier, L, rows (live lists, read-only, valid until the next
    step), work, head, chain_state() and config_equal(), and after a single
    step the fired rule's site, label and gate kind (None without one).
    """

    __slots__ = ("tier", "L", "rows", "work", "head", "site", "label",
                 "gate", "rec", "_rs", "_fwd", "_rev")

    def __init__(self, state: ChainState, rs: RuleSet):
        active = active_sites(state)
        if len(active) != 1:
            raise ValueError(f"start has {len(active)} active cells, not 1")
        self.head = active[0]
        self.tier, self.L, self.work = state.tier, state.L, state.work
        self.rows = {reg: list(row) for reg, row in state.rows.items()}
        self.rec, self._rs = None, rs
        self._fwd, self._rev = {}, {}  # symbol -> ([(row, shift)...], memo)

    def _bind(self, bound, direction, symbol):
        """The symbol's probe, bound to this cursor's rows, and its memo."""
        probe, memo = self._rs.compiled(direction, symbol)
        bound[symbol] = ([(self.rows[reg], k) for reg, k in probe], memo)
        return bound[symbol]

    def reverse(self):
        """((offset, Hit), ...): the reverse matches anchored at the head."""
        site, _reg, s = self.head
        cells, memo = self._rev.get(s) or self._bind(self._rev, REVERSE, s)
        key = (tuple([row[site + k] for row, k in cells])
               if 1 < site < self.L else None)
        found = memo.get(key)
        if found is None:  # an end of the chain, or a window not yet seen
            key, found = self._rs.hits(REVERSE, self, site, s)
        if self.rec is not None:
            self.rec.append(key)
        return found

    def step(self):
        """Fire the unique forward hit in place: (site, Hit), or None at a
        dead end.  Several hits raise Ambiguous before any cell changes."""
        site, _reg, s = self.head
        cells, memo = self._fwd.get(s) or self._bind(self._fwd, FORWARD, s)
        key = (tuple([row[site + k] for row, k in cells])
               if 1 < site < self.L else None)
        found = memo.get(key)
        if found is None:  # an end of the chain, or a window not yet seen
            key, found = self._rs.hits(FORWARD, self, site, s)
        if self.rec is not None:
            self.rec.append(key)
        if len(found) != 1:
            if not found:
                return None
            matches = [as_match(site - o, h, FORWARD) for o, h in found]
            raise Ambiguous(self.chain_state(), matches, FORWARD)
        offset, hit = found[0]
        self.fire(site - offset, hit)
        return site - offset, hit

    def fire(self, i: int, hit: Hit):
        """Rewrite window (i, i+1) in place by a forward hit."""
        if len(hit.active) != 1:  # the head is the window's one active cell
            raise ValueError(f"rule {hit.rule.label} left {len(hit.active)}"
                             " active cells")
        writes = hit.writes
        if hit.gate is not None:
            work, data = self.work, self.rows[D]
            cells, self.work = _apply_gate_effect(self, hit.gate, i, False)
            if self.rec is not None:  # what _learn needs of the gate
                self.rec.append(((data[i - 1], data[i]), cells,
                                 self.work is not work))
            if cells is not None:
                writes += ((D, 0, cells[0]), (D, 1, cells[1]))
        rows = self.rows
        for reg, off, s in writes:
            rows[reg][i - 1 + off] = s
        off, reg, s = hit.active[0]
        self.head = (i + off, reg, s)

    def replay(self, blocks, left: int, start):
        """Write, and apply the gates of, the first block that fits in left
        steps and whose footprint the rows hold, and return it, or None.  If
        it passes the head of start, (head, rows), it must leave alone a cell
        that differs from start's."""
        rows = self.rows
        for k, block in enumerate(blocks):
            reads, writes, gates, head, labels, _sites, heads = block
            if len(labels) > left:
                continue
            for reg, get, want in reads:
                if get(rows[reg]) != want:
                    break
            else:
                if start and start[0] in heads:
                    kept = {reg: row[:] for reg, row in rows.items()}
                    for reg, idx, _cells in writes:
                        for i in idx:
                            kept[reg][i] = start[1][reg][i]
                    if kept == start[1]:
                        continue
                for reg, idx, cells in writes:
                    row = rows[reg]
                    for i, c in zip(idx, cells):
                        row[i] = c
                for kind, i in gates:  # fire()'s kernel calls, in order
                    self.work = self.work.apply_gate(kind, i, i + 1)
                self.head = head
                blocks.insert(0, blocks.pop(k))  # the last replayed first
                return block
        return None

    def chain_state(self) -> ChainState:
        return ChainState(self.tier, {reg: tuple(row)
                                      for reg, row in self.rows.items()},
                          self.work)

    def config_equal(self, other: ChainState) -> bool:
        return self.chain_state().config_equal(other)


# Steps as run() replays them.  Per register, reads holds an itemgetter of
# the cells their probes and gates read before writing them and the values it
# must return, writes the final cells; gates, the (kind, site) of each gate on
# the work vector, in order; heads, the heads under check_uog.
_Block = namedtuple("_Block", "reads writes gates head labels sites heads")

# BLOCK_STEPS, measured on the stream chains, the full-width x = 1 run and
# the tier-III run to its dead end (2-core VM, in process, cold stores): as
# stretches end at the chain's ends, 96 and 128 store the same blocks but for
# one stretch of over 96 steps, and ran alike (t4_freeze 25 and 31 ms, t3_L16
# 17 and 15 ms, full width 0.67 and 0.64 s, tier III 1.35 and 1.36 s); 64
# halves the blocks and ran 1.0-1.6x slower than 96.  BLOCK_CAP: a chain keeps
# up to 28 blocks (the stream job, 111 kB; a 10^5-step tier-III run 11, the
# full-width run 17).
BLOCK_STEPS = 96
BLOCK_CAP = 256


def _learn(store: dict, cur: _Cursor, head, labels, check_uog: bool):
    """Build the block of a stretch from head that came up before, from the
    probe keys in cur.rec (the reverse ones too under check_uog) and, after
    the key of a gate step, fire()'s record of the gate: its two data cells,
    the cells a classical gate wrote (or None) and whether it ran the kernel;
    otherwise note that it came up.  Empties cur.rec."""
    keys, cur.rec = iter(cur.rec), []
    if head is None or len(labels) < 2:  # one step is no shortcut
        return
    rs, L, labels = cur._rs, cur.L, tuple(labels)
    if len(rs.stretches) >= 8 * BLOCK_CAP:
        rs.stretches.clear()
    sig = hash((L, check_uog, head, labels))  # the sites follow from these
    rs.stretches ^= {sig}  # in on its first sight, out again on the next
    if sig in rs.stretches:
        return
    stores = rs.blocks.values()
    if BLOCK_CAP <= sum(len(v) for d in stores for v in d.values()):
        for d in stores:  # full: refill it with what recurs next
            d.clear()
    start, reads, final, heads, sites, gates = head, {}, {}, set(), [], []
    for direction, key in zip((FORWARD, REVERSE)[:1 + check_uog] * len(labels),
                              keys):
        site, _reg, s = head
        cells, memo = rs.compiled(direction, s)
        for (reg, shift), v in zip(cells, key):
            if 0 <= site + shift < L and site + shift not in final.get(reg, ()):
                reads.setdefault(reg, {}).setdefault(site + shift, v)
        if direction == FORWARD:
            ((offset, hit),) = memo[key]
            i = site - offset
            sites.append(i)
            writes = hit.writes
            if hit.gate is not None:  # the record fire() appended
                data, new, quantum = next(keys)
                for k, v in zip((i - 1, i), data):
                    if k not in final.get(D, ()):
                        reads.setdefault(D, {}).setdefault(k, v)
                if new is not None:
                    writes += ((D, 0, new[0]), (D, 1, new[1]))
                if quantum:
                    gates.append((hit.gate, i))
            for reg, off, s in writes:
                final.setdefault(reg, {})[i - 1 + off] = s
            off, reg, s = hit.active[0]
            head = (i + off, reg, s)
        else:
            heads.add(head)
    block = _Block(tuple((reg, itemgetter(*c), itemgetter(*c)(c))
                         for reg, c in reads.items()),
                   tuple((reg, tuple(c), tuple(c.values()))
                         for reg, c in final.items()),
                   tuple(gates), head, labels, tuple(sites), frozenset(heads))
    store[start] = [block, *store.get(start, ())]


def run(start: ChainState, budget: StepBudget, keep_states: bool = False,
        check_uog: bool = False, observer=None) -> Trajectory:
    """Drive the unique forward path to a dead end or budget.max_steps.

    start must have one active cell, else ValueError (see _Cursor); a
    state with several forward matches raises Ambiguous, whose traj holds
    the steps before it.  check_uog verifies, on the fly, that every
    non-initial state has exactly one reverse match, the rule just fired
    at its window, and that no configuration repeats; violations are
    recorded as (step, message), not raised.  The repeat check keeps no
    configurations: from the first return to the start, at step p, it
    flags every state t as equal to state t - p.  Stretches replay from the
    rule set's block store (see above), which serves one run at a time: it
    is not thread-safe.  observer(t, view, view), kept for the benchmark
    harness, is called after the run from a replay of the record (see
    _Cursor), for each t >= 1.
    """
    if keep_states:  # accepted as False only: past states are replayed
        raise TypeError("run keeps no states: use Trajectory.state(t)")
    traj = Trajectory(start, rule_set(start.tier))
    traj.checked = check_uog
    labels, sites, rs = traj.labels, traj.sites, traj.rules
    cur = _Cursor(start, rs)
    start_head = cur.head
    start_rows = {reg: list(row) for reg, row in start.rows.items()}
    store = rs.blocks.setdefault((cur.L, check_uog), {})
    cur.rec = []
    uog_start = (start_head, start_rows) if check_uog else None
    seg, seg_head = 0, start_head  # the stretch cur.rec holds the keys of
    t, max_steps, period = 0, budget.max_steps, None
    ends = (1, cur.L - 1)  # the windows at the chain's ends
    while t < max_steps:
        if (store and (blocks := store.get(cur.head))
                and (block := cur.replay(blocks, max_steps - t, uog_start))):
            _learn(store, cur, seg_head, labels[seg:], check_uog)
            labels += block.labels
            sites += block.sites
            t += len(block.labels)
            seg, seg_head = t, cur.head
            continue
        try:
            fired = cur.step()
        except Ambiguous as err:
            err.traj = traj  # the steps before the state that raised it
            raise
        if fired is None:
            traj.stop_reason = "dead_end"
            break
        i, hit = fired
        labels.append(hit.rule.label)
        sites.append(i)
        t += 1
        if check_uog:
            # A step map with one reverse match per state is injective, so
            # (Bennett 1973) the first repeat can only be of the start, at
            # step p, and then state t equals state t - p: if the first
            # repeat is s_j = s_i with 0 < i < j, then s_(i-1) != s_(j-1) and
            # s_i has two reverse matches, flagged at step i; a loop keeping
            # every state agrees up to that flag, then lists more.  Equal
            # rows give equal heads: those are compared first.
            if (period is None and cur.head == start_head
                    and cur.rows == start_rows):
                period, store, cur.rec = t, None, None
            if period is not None:
                traj.uog_violations.append(
                    (t, f"configuration equals state {t - period}"))
            rev = cur.reverse()
            if len(rev) != 1:
                traj.uog_violations.append((t, f"{len(rev)} reverse matches"))
                seg_head = None  # no block holds this step
            elif (rev[0][1].rule is not hit.rule
                  or rev[0][0] != hit.active[0][0]):  # not the step back
                traj.uog_violations.append(
                    (t, f"reverse match {rev[0][1].rule.label} at"
                     f" {cur.head[0] - rev[0][0]}, but {hit.rule.label} at"
                     f" {i} fired"))
                seg_head = None
        if store is not None and (
                i in ends and sites[-2:-1] != [i]  # reaches an end
                or t >= seg + BLOCK_STEPS or cur.head == seg_head):
            _learn(store, cur, seg_head, labels[seg:], check_uog)
            seg, seg_head = t, cur.head
    else:
        traj.stop_reason = "step_limit"
    traj.final = cur.chain_state()
    if observer is not None:
        for t, view in islice(traj._replay(traj.n_steps), 1, None):
            observer(t, view, view)
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
    """Integer stored in the clock register: bullets, then bits with the
    most significant first.  None if malformed or the tier has no clock."""
    bits = list(dropwhile(BULLET.__eq__, state.rows.get(C, ())))
    if bits and set(bits) <= {"0", "1"}:
        return int("".join(bits), 2)
    return None


# -- trajectory Hamiltonian ------------------------------------------------------


def restricted_hamiltonian(traj: Trajectory):
    """Matrix of the rule terms (plus adjoints) on the trajectory basis.

    Entry (s, t) collects `<state_s | term | state_t>` over every rule term
    applied at every window of state t, in both directions.  On a clean
    trajectory this is exactly the path-graph adjacency matrix.  A nonzero
    entry with |s - t| != 1 means a rule leaks off the path and is raised,
    and so is a rule image that is no trajectory state.  Two images may lie
    past the trajectory: the final state's forward image, and the start's
    reverse image (tier II's 13b, tier IV's 21).
    """
    rs = rule_set(traj.start.tier)
    states = list(traj.iter_states())
    index = {}
    for t, st in enumerate(states):
        index.setdefault(st.config_key(), []).append(t)
    n = len(states)
    h = np.zeros((n, n))
    for t, st in enumerate(states):
        for direction in (FORWARD, REVERSE):
            for m in applicable(st, direction, rs):
                img = apply(st, m)
                kept = index.get(img.config_key())
                if kept is None:
                    if (t, direction) in ((n - 1, FORWARD), (0, REVERSE)):
                        continue
                    raise ValueError(f"rule {m.label} maps state {t} to no"
                                     " trajectory state: off-path image")
                for s in kept:
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


def write_trace(fh, traj: Trajectory, snapshot_every: int = None):
    """Write traj's tab-separated trace to fh from one replay of its record.

    One line per step: step, rule, site, the head's register:symbol after
    the step (off the cursor, no row scan), clock, digest.  After every
    step divisible by snapshot_every the state's snapshot block follows.
    """
    for t, cur in islice(traj._replay(traj.n_steps), 1, None):
        head, state = cur.head, cur.chain_state()
        ck = clock_value(state)
        fh.write(f"{t - 1}\t{cur.label}\t{cur.site}\t{head[1]}:{head[2]}\t"
                 f"{ck if ck is not None else '-'}\t{state.digest():016x}\n")
        if snapshot_every and t % snapshot_every == 0:
            fh.write(state.snapshot() + "\n")
