"""Trajectory engine: unique-forward stepping, markers and trace output.

A valid chain state has exactly one applicable forward rule (or none, at a
dead end) and exactly one reverse rule, the start state aside.  The built
starts of tiers I, III and IV have no reverse rule: each is an end of its
path.  Tier II's has one (13b at site 1): its configurations recur with
period predicted_cycle_steps (188 on the worked example), and 13b, the
rule that closes each cycle, leads into the start as well.

run(), the package's one stepping loop, walks the unique forward path to
a dead end or its step cap, recording the fired rule label and window site
of every step and no state.  Whatever a caller reads of a run (a past
state, an observer's states, a trace file, the checks in verify) comes from
that record: its labels and sites, and a replay of them (Trajectory._replay)
through the blocks the run replayed, where they match it.  run() steps a
per-run cursor (_Cursor), not a ChainState per step: mutable rows and the
head, the one active cell of a valid state, rewritten in the window cells
after one lookup in the rule set's compiled matcher, so a single step's
cost does not grow with the chain length L.  check_uog's repeat check
compares the head with the start's, and the rows only where those agree.

run() replays blocks of up to BLOCK_STEPS steps from a store on the rule
set, one per (L, check_uog).  The rules are translation invariant, so a
block is kept relative to its base, the site of its first head: its
footprint (the cells its probes, reverse ones too under check_uog, and its
gates read before it wrote them), its writes, its gates on the work vector
(which a replay applies in order: the kernel calls of its single steps) and
its heads are offsets from the base, its sites those at the base it was
learnt at, and it replays at any base of its range, where every probe stays
inside the chain and every cell on it; a block with a probe at an end
replays only at its own base.  The store is indexed by the head's register,
symbol and forward probe key (_Cursor.index_key), which the step that
follows a miss reuses, and holds the blocks of an index longest first.
Blocks come two ways.  A stretch of single steps, which ends where its
window reaches an end of the chain, where the head is back at its first
head, or after STRETCH_STEPS steps, is learnt once it has come up twice, at
any base.  And a replay, the single steps after it and the replay after
those compose into one block once the three come up twice, as do single
steps and the replay after them, or a replay and single steps up to an end
of the chain (blocks of blocks, as in Hashlife's memo, Gosper 1984); no
block runs past a step that reaches an end.  The store is emptied at
BLOCK_CAP blocks; the trajectory keeps each block its run replayed, so
emptying the store takes none from its replays.  Steps no block fits and
those after a flagged repeat go one by one.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from itertools import dropwhile, islice
from operator import index, itemgetter

import numpy as np

from .rules import (FORWARD, REVERSE, Hit, NonClassicalGateError, RuleSet,
                    _apply_gate_effect, applicable, apply, as_match, rule_set)
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
    it under check_uog.  blocks: {id: block} of the blocks run() replayed,
    which emptying the rule set's store keeps."""

    start: ChainState
    rules: RuleSet
    labels: list = field(default_factory=list)
    sites: list = field(default_factory=list)
    final: ChainState = None
    stop_reason: str = None
    uog_violations: list = field(default_factory=list)
    checked: bool = field(default=False, init=False)
    blocks: dict = field(default_factory=dict, init=False, compare=False)

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
        replay one of the blocks the run replayed, at the cursor's head,
        where the block fits the rows there and ends at or before t, its
        labels and its sites at that base are the record's, and it fires no
        watched label before its last step.  A step off the record raises
        ValueError, and so does a replay to the end that stops away from
        final."""
        cur = _Cursor(self.start, self.rules)
        labels, sites, k = self.labels, self.sites, 0
        # (register, symbol, first label) -> [(block, labels, sites at home
        # as lists)], longest first: the record names a block's first label
        blocks = {}
        for b in (() if watched is None else self.blocks.values()):
            if watched.isdisjoint(b.labels[:-1]):
                blocks.setdefault((*b.key[:2], b.labels[0]), []).append(
                    (b, list(b.labels), list(b.sites)))
        for kept in blocks.values():
            kept.sort(key=lambda bl: -len(bl[1]))
        if watched is None or t == 0:
            yield k, cur
        while k < t:
            block = None
            if blocks:  # the longest that holds to the record and fits
                base, reg, s = cur.head
                for b, bl, bs in blocks.get((reg, s, labels[k]), ()):
                    d = base - b.home
                    if ((e := k + len(bl)) <= t and bl[-1] == labels[e - 1]
                            and bs[-1] + d == sites[e - 1]
                            and bl == labels[k:e]
                            and (bs == sites[k:e] if not d else
                                 [i + d for i in bs] == sites[k:e])
                            and (block := cur.replay([b], t - k, None))):
                        break
            if block:
                k += len(block.labels)
            else:
                fired = cur.step()
                if (fired is None or fired[0] != sites[k]
                        or fired[1].rule.label != labels[k]):
                    raise ValueError(f"replay left the record at step {k}")
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
    lookup(direction) looks the head's window up in the rule set's compiled
    matcher through the symbol's probe in _probes[direction], bound to these
    lists once per run, and appends the key to rec while it is a list.  A
    memo Hit is ready to fire: its key fixes the window's P and CP cells, so
    it carries the window's active cells after the firing.  fire() writes
    the Hit's cells in place, runs its gate through rules._apply_gate_effect
    (apply()'s rewrite too), appending to rec what the gate read and did,
    and takes the new head from it, with no rescan, or raises ValueError
    naming a rule that left other than one active cell; replay() writes a
    block at the head's site and applies its gates.  index_key() reads the
    block store's index at the head; the forward key it reads, or the one
    a block replayed at its home names (its next), waits in _fkey for
    lookup(FORWARD), and no other change of state leaves it set.

    Trajectory._replay yields the cursor as the view of each state it
    reaches: tier, L, rows (live lists, read-only, valid until the next
    step), work, head and chain_state(); what a step fired is the record's.
    """

    __slots__ = ("tier", "L", "rows", "work", "head", "rec", "_rs",
                 "_probes", "_fkey")

    def __init__(self, state: ChainState, rs: RuleSet):
        active = active_sites(state)
        if len(active) != 1:
            raise ValueError(f"start has {len(active)} active cells, not 1")
        self.head = active[0]
        self.tier, self.L, self.work = state.tier, state.L, state.work
        self.rows = {reg: list(row) for reg, row in state.rows.items()}
        self.rec, self._rs, self._fkey = None, rs, None
        # direction -> symbol -> ([(row, shift)...], memo)
        self._probes = {FORWARD: {}, REVERSE: {}}

    def _bind(self, bound, direction, symbol):
        """The symbol's probe, bound to this cursor's rows, and its memo."""
        probe, memo = self._rs.compiled(direction, symbol)
        bound[symbol] = ([(self.rows[reg], k) for reg, k in probe], memo)
        return bound[symbol]

    def index_key(self):
        """(register, symbol, forward probe key) of the head, the block
        store's index; the key, as lookup(FORWARD) reads it (None off the
        chain), is kept for that lookup, or taken from the replay that led
        here."""
        site, reg, s = self.head
        if self._fkey is not None:
            return reg, s, self._fkey
        bound, L = self._probes[FORWARD], self.L
        cells, _memo = bound.get(s) or self._bind(bound, FORWARD, s)
        if 1 < site < L:
            key = tuple([row[site + k] for row, k in cells])
        else:
            key = tuple([row[site + k] if 0 <= site + k < L else None
                         for row, k in cells])
        self._fkey = key
        return reg, s, key

    def lookup(self, direction):
        """((offset, Hit), ...): the matches in direction anchored at the
        head."""
        site, _reg, s = self.head
        bound = self._probes[direction]
        cells, memo = bound.get(s) or self._bind(bound, direction, s)
        if direction == FORWARD and self._fkey is not None:
            key, self._fkey = self._fkey, None
        else:
            key = (tuple([row[site + k] for row, k in cells])
                   if 1 < site < self.L else None)
        found = memo.get(key)
        if found is None:  # an end of the chain, or a window not yet seen
            key, found = self._rs.hits(direction, self, site, s)
        if self.rec is not None:
            self.rec.append(key)
        return found

    def step(self):
        """Fire the unique forward hit in place: (site, Hit), or None at a
        dead end.  Several hits raise Ambiguous before any cell changes."""
        found = self.lookup(FORWARD)
        site = self.head[0]
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
        steps at the head's site, its base: the base is in the block's
        range and the rows hold its footprint there.  Return it, or None.
        If it passes the head of start, (head, rows), it must leave alone a
        cell that differs from start's."""
        rows, base = self.rows, self.head[0]
        for block in blocks:
            if not block.lo <= base <= block.hi or len(block.labels) > left:
                continue
            d = base - block.lo  # the getters read the rows from cell d on
            for reg, get, want in block.reads:
                if get(rows[reg][d:] if d else rows[reg]) != want:
                    break
            else:
                if not (start and self._passes(block, base, start)):
                    break
        else:
            return None
        for reg, runs in block.writes:
            row = rows[reg]
            for a, b, cells in runs:
                row[base + a:base + b] = cells
        for kind, i in block.gates:  # fire()'s kernel calls, in order
            i += base
            self.work = self.work.apply_gate(kind, i, i + 1)
        off, reg, s = block.head
        self.head = (base + off, reg, s)
        self._fkey = block.next if base == block.home else None
        return block

    def _passes(self, block, base, start) -> bool:
        """Whether block, at base, might pass the configuration start."""
        if start[0][0] - base not in block.heads.get(start[0][1:], ()):
            return False
        kept = {reg: row[:] for reg, row in self.rows.items()}
        for reg, runs in block.writes:
            for a, b, _cells in runs:
                a, b = base + a, base + b
                kept[reg][a:b] = start[1][reg][a:b]
        return kept == start[1]

    def chain_state(self) -> ChainState:
        return ChainState(self.tier, {reg: tuple(row)
                                      for reg, row in self.rows.items()},
                          self.work)


class _Block(namedtuple("_Block", "reads writes gates head labels sites heads"
                        " lo hi home key next")):
    """Steps as run() replays them, relative to their first head site, the
    base: cell offset o is row[base + o], site offset i is site base + i.
    Its sites, though, are those of its steps at home, the base it was
    learnt at, as run() records them there; elsewhere each moves by base -
    home.  Per register, reads holds (get, want): get, an itemgetter on
    row[base - lo:] at lo plus the offsets of the cells the probes and
    gates read before the steps wrote them, returns want, their values;
    writes holds runs (a, b, cells) of the final cells at offsets a..b-1.
    gates, the (kind, site offset) of each gate on the work vector, in
    order; head, the head after the steps (site as an offset); heads, the
    site offsets of the heads under check_uog by register and symbol.  The
    block replays at the bases lo..hi, where every probe stays inside the
    chain (1 < site < L); one with a probe at an end has lo = hi = home.
    key is the index key of its first state (_Cursor.index_key); next, the
    forward probe key after it at home, where its writes and footprint hold
    that key's cells, else None."""

    __slots__ = ()

    def footprint(self):
        """(register, offsets, values) of the cells the block reads before
        it writes them, per register."""
        for reg, get, want in self.reads:
            at = get.__reduce__()[1]  # the getter's indices: lo + offsets
            yield (reg, [k - self.lo for k in at],
                   want if len(at) > 1 else (want,))


# BLOCK_STEPS caps the length of a composed block and STRETCH_STEPS that of
# a stretch learnt from single steps.  Each sweep of the benchmark's t3_L169
# chain shifts a site, so no long stretch of it recurs at its site, but most
# of its steps recur, translated, in stretches of up to 8 or 16 steps, which
# compose up to the cap.  Measured in process against the block memo keyed
# by head (alternating runs, cold stores, 2-core VM): STRETCH_STEPS 16
# learns about half the blocks of 8 (28 against 49 on the verify_suite run)
# and ran that run 1.14 against 1.28 times as long as the head-keyed memo,
# t4_freeze 0.96 against 1.01 times; a cap of 128 rather than 96 let a
# 16-step block join an 81-step one on t4_freeze (0.90 against 1.03 times),
# and 192 ran like 128.  BLOCK_CAP: the store is emptied at that many
# blocks.
BLOCK_STEPS = 128
STRETCH_STEPS = 16
BLOCK_CAP = 256


class _Build:
    """A block under construction at base: its footprint and final cells by
    register and offset, its gates and heads as offsets, its labels and
    sites, and the range of bases it replays at."""

    __slots__ = ("rs", "base", "L", "reads", "final", "gates", "heads",
                 "labels", "sites", "head", "lo", "hi")

    def __init__(self, rs, base, L):
        self.rs, self.base, self.L = rs, base, L
        self.lo, self.hi = -L, 2 * L  # any base
        self.reads, self.final = defaultdict(dict), defaultdict(dict)
        self.heads, self.gates, self.labels, self.sites = {}, [], [], []

    def steps(self, keys, head, labels, check_uog):
        """Add the single steps from head whose probe keys (the reverse ones
        too under check_uog) and gate records fire() left in keys."""
        base, L, reads, final = self.base, self.L, self.reads, self.final
        sites, gates, heads, compiled = (self.sites, self.gates, self.heads,
                                         self.rs.compiled)
        low = high = head[0]  # the probes' sites
        for direction in (FORWARD, REVERSE)[:1 + check_uog] * len(labels):
            key = next(keys)
            site, _reg, s = head
            if site < low:
                low = site
            elif site > high:
                high = site
            cells, memo = compiled(direction, s)
            for (reg, shift), v in zip(cells, key):
                k = site + shift
                if 0 <= k < L and (k := k - base) not in final[reg]:
                    reads[reg].setdefault(k, v)
            if direction == FORWARD:
                ((offset, hit),) = memo[key]
                i = site - offset
                sites.append(i)
                writes = hit.writes
                if hit.gate is not None:  # the record fire() appended
                    data, new, quantum = next(keys)
                    for k, v in zip((i - 1 - base, i - base), data):
                        if k not in final[D]:
                            reads[D].setdefault(k, v)
                    if new is not None:
                        writes += ((D, 0, new[0]), (D, 1, new[1]))
                    if quantum:
                        gates.append((hit.gate, i - base))
                for reg, off, s in writes:
                    final[reg][i - 1 + off - base] = s
                off, reg, s = hit.active[0]
                head = (i + off, reg, s)
            else:
                heads.setdefault(head[1:], set()).add(head[0] - base)
        if 1 < low and high < L:  # every probe lies on the chain
            self.lo = max(self.lo, 2 + base - low)
            self.hi = min(self.hi, L - 1 + base - high)
        else:
            self.lo = self.hi = base
        self.labels += labels
        self.head = (head[0] - base, head[1], head[2])

    def block(self, block, shift):
        """Add a block that replays at base + shift after what is here: its
        reads of cells not written here join the footprint."""
        reads, final = self.reads, self.final
        for reg, offs, values in block.footprint():
            done, read = final[reg], reads[reg]
            for k, v in zip(offs, values):
                if (k := k + shift) not in done:
                    read.setdefault(k, v)
        for reg, runs in block.writes:
            done = final[reg]
            for a, b, cells in runs:
                done.update(zip(range(a + shift, b + shift), cells))
        self.gates += [(kind, i + shift) for kind, i in block.gates]
        for symbol, offs in block.heads.items():
            self.heads.setdefault(symbol, set()).update(h + shift
                                                        for h in offs)
        self.labels += block.labels
        moved = self.base + shift - block.home  # its sites here
        self.sites += [i + moved for i in block.sites]
        self.lo = max(self.lo, block.lo - shift)
        self.hi = min(self.hi, block.hi - shift)
        off, reg, s = block.head
        self.head = (off + shift, reg, s)

    def freeze(self, key):
        """The block, stored under the index key of its first state."""
        reads, writes, lo, (off, _reg, head_s) = [], [], self.lo, self.head
        after, home = [], self.base  # the probe key after it, at home
        for reg, shift in self.rs.compiled(FORWARD, head_s)[0]:
            k = off + shift
            if not 0 <= home + k < self.L:  # off the chain
                after.append(None)
            elif (v := self.final[reg].get(k, self.reads[reg].get(k))) \
                    is not None:
                after.append(v)
            else:  # a cell the block neither read nor wrote
                after = None
                break
        for reg, cells in self.reads.items():
            if not cells:
                continue
            offs = sorted(cells)
            want = tuple(map(cells.__getitem__, offs))
            reads.append((reg, itemgetter(*[lo + k for k in offs]),
                          want if len(want) > 1 else want[0]))
        for reg, cells in self.final.items():
            if not cells:
                continue
            offs = sorted(cells)
            cut = [j for j in range(1, len(offs))
                   if offs[j] != offs[j - 1] + 1]
            runs = []  # contiguous runs, one slice write each
            for j, e in zip([0, *cut], [*cut, len(offs)]):
                runs.append((offs[j], offs[e - 1] + 1,
                             tuple(map(cells.__getitem__, offs[j:e]))))
            writes.append((reg, tuple(runs)))
        return _Block(tuple(reads), tuple(writes), tuple(self.gates),
                      self.head, tuple(self.labels), tuple(self.sites),
                      {symbol: tuple(offs) for symbol, offs
                       in self.heads.items()}, lo, self.hi, home, key,
                      after and tuple(after))


def _keep(store: dict, rs: RuleSet, block):
    """Store block under its index key, longest first; a full store is
    emptied first, to refill with what recurs next."""
    stores = rs.blocks.values()
    if BLOCK_CAP <= sum(sum(map(len, d.values())) for d in stores):
        for d in stores:
            d.clear()
    blocks = store.setdefault(block.key, [])
    n = len(block.labels)
    blocks.insert(next((j for j, b in enumerate(blocks)
                        if len(b.labels) <= n), len(blocks)), block)


def _seen(rs: RuleSet, sig) -> bool:
    """Whether sig came up before: in rs.stretches on its first sight, out
    again on the next."""
    if len(rs.stretches) >= 8 * BLOCK_CAP:
        rs.stretches.clear()
    rs.stretches ^= {sig}
    return sig not in rs.stretches


def _learn(store: dict, cur: _Cursor, first, head, labels, second,
           check_uog: bool):
    """Build the block of a replay, first = (block, base) or None, the
    single steps after it, from head, and the replay after them, second =
    (block, base) or None, once these come up a second time, else note
    that they came up.  Single steps alone are a stretch, learnt at any
    base: the sites follow from the head and labels.  Their keys are the
    probe keys in cur.rec (the reverse ones too under check_uog) and,
    after the key of a gate step, fire()'s record of the gate: its two data
    cells, the cells a classical gate wrote (or None) and whether it ran
    the kernel.  The caller sees that the parts hold two steps or more and
    fit in BLOCK_STEPS."""
    rs, labels = cur._rs, tuple(labels)
    if not _seen(rs, hash((cur.L, check_uog, head[1:], first and id(first[0]),
                           labels, second and id(second[0])))):
        return
    base = first[1] if first else head[0]
    build = _Build(rs, base, cur.L)
    if first:
        build.block(first[0], 0)
    if labels:
        build.steps(iter(cur.rec), head, labels, check_uog)
    if second:
        build.block(second[0], second[1] - base)
    _keep(store, rs, build.freeze(first[0].key if first
                                  else (*head[1:], cur.rec[0])))


def run(start: ChainState, budget: StepBudget, keep_states: bool = False,
        check_uog: bool = False, observer=None) -> Trajectory:
    """Drive the unique forward path to a dead end or budget.max_steps.

    start must have one active cell, else ValueError (see _Cursor); a
    state with several forward matches raises Ambiguous, and a gate that
    leaves the computational basis NonClassicalGateError: the error's traj
    holds the steps before that state.  check_uog verifies, on the fly,
    that every non-initial state has exactly one reverse match, the rule
    just fired at its window, and that no configuration repeats;
    violations are recorded as (step, message), not raised.  The repeat
    check keeps no configurations: from the first return to the start, at
    step p, it flags every state t as equal to state t - p.  Stretches
    replay from the rule set's block store (see above), which serves one
    run at a time: it is not thread-safe; traj.blocks keeps each block
    replayed.
    observer(t, state, state), kept for the benchmark harness, is called
    after the run for each t >= 1 with the ChainState of state t, built
    from a replay of the record.
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
    last = None  # (block, base) of a replay that ended at step t
    t, max_steps, period = 0, budget.max_steps, None
    ends = (1, cur.L - 1)  # the windows at the chain's ends
    while t < max_steps:
        if store:
            base = cur.head[0]
            if ((blocks := store.get(cur.index_key()))
                    and (block := cur.replay(blocks, max_steps - t,
                                             uog_start))):
                traj.blocks[id(block)] = block
                n = len(block.labels)
                if seg_head and (seg < t or last):  # what came before it
                    if n + t - seg + (len(last[0].labels) if last
                                      else 0) <= BLOCK_STEPS:
                        _learn(store, cur, last, seg_head, labels[seg:],
                               (block, base), check_uog)
                    if t - seg > 1:
                        _learn(store, cur, None, seg_head, labels[seg:], None,
                               check_uog)
                if seg < t:
                    cur.rec = []
                labels += block.labels
                sites += (block.sites if base == block.home else
                          [i + base - block.home for i in block.sites])
                t += n
                # a block that reaches an end of the chain ends a stretch
                last = None if sites[-1] in ends and sites[-2] != sites[-1] \
                    else (block, base)
                seg, seg_head = t, cur.head
                continue
        try:
            fired = cur.step()
        except (Ambiguous, NonClassicalGateError) as err:
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
            rev = cur.lookup(REVERSE)
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
        if store is None:
            continue
        if i in ends and sites[-2:-1] != [i]:  # reaches an end
            if last and seg_head and (
                    len(last[0].labels) + t - seg <= BLOCK_STEPS):
                _learn(store, cur, last, seg_head, labels[seg:], None,
                       check_uog)
        elif t < seg + STRETCH_STEPS and cur.head != seg_head:
            continue
        if seg_head and t - seg > 1:  # one step is no shortcut
            _learn(store, cur, None, seg_head, labels[seg:], None, check_uog)
        seg, seg_head, last, cur.rec = t, cur.head, None, []
    else:
        traj.stop_reason = "step_limit"
    traj.final = cur.chain_state()
    if observer is not None:
        for t, cur in islice(traj._replay(traj.n_steps), 1, None):
            state = cur.chain_state()
            observer(t, state, state)
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
    reverse image, which only tier II's start has (13b).
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

    One line per step: step, the record's rule and site, the head's
    register:symbol after it (off the cursor, no row scan), clock, digest.
    After every step divisible by snapshot_every its snapshot block follows.
    """
    for t, cur in islice(traj._replay(traj.n_steps), 1, None):
        head, state = cur.head, cur.chain_state()
        ck = clock_value(state)
        fh.write(f"{t - 1}\t{traj.labels[t - 1]}\t{traj.sites[t - 1]}\t"
                 f"{head[1]}:{head[2]}\t{ck if ck is not None else '-'}\t"
                 f"{state.digest():016x}\n")
        if snapshot_every and t % snapshot_every == 0:
            fh.write(state.snapshot() + "\n")
