"""Two-site transition rules: declarative table, matcher, and rewriter.

Every rule is a record with a left-hand and right-hand side, each giving a
cell per register per window site.  Forward application matches the LHS and
writes the RHS; reverse application is generated mechanically by matching
the RHS and writing the LHS (with the gate side-effect replaced by its
adjoint).  Rules constrain only the registers they mention; everything else
is untouched.

Cell kinds
----------
  any          no constraint, value kept
  lit(s)       exact symbol
  not_(s)      any symbol except s (guard, value kept)
  gv(n)        unmarked gate variable: matches W/S/I, binds n
  mgv(n,ar,x)  marked gate variable: matches ar+G+x (e.g. '→W', '←Sx')
  bit(n)       matches '0'/'1' and binds n
  eq(n)        must equal the bound bit
  mis(n)       bit-compare failure cell: the negation of the bound bit, or
               '•' when the bound bit is 1 (a set clock bit above the
               target's padding is a genuine mismatch; '•' over a 0 bit is
               the padding-continues case and is not a mismatch)
  ok(n)        bit-compare success cell: the bound bit itself, or '•' when
               the bound bit is 0

Guard cells appear identically on both sides.  A window is the site pair
(i, i+1), 1-indexed.

rule_set derives two families: tier IV's crossed rules 22 and 31-50 from
the gate-free tier I-III rules they copy (_crossed), so none reads or
changes the data, and the sweep hops 24a-c and 26 from 23a-c and 25 (_hop).

try_match is the one hand-written matcher.  A RuleSet compiles it lazily
into a memo keyed by the cells around an active site (RuleSet.hits), which
applicable() and the engine's cursor look windows up in.  Each memo Hit is
ready to fire: it carries the cells the firing writes and the active
symbols its window holds afterwards.  A Hit's writes plus
_apply_gate_effect are the one rewrite: apply() builds a new state from
them, and the cursor writes them in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import symbols as sym
from .state import ChainState, active_sites
from .symbols import BULLET, C, C2, CP, D, GATES, P, QUANTUM, T, TURN

FORWARD = "forward"
REVERSE = "reverse"

_FLIP = {"0": "1", "1": "0"}

# Register order inside a compiled check list; C must precede T so that bit
# variables bind on the clock before target cells test them.
_CHECK_ORDER = (P, CP, C, T, C2, D)


class RuleError(ValueError):
    pass


class NonClassicalGateError(RuleError):
    """A gate tried to push a classical data site off the basis states."""


class StaleMatchError(RuleError):
    """A Match no longer applies to the state it is being applied to."""


# -- cell constructors --------------------------------------------------------

ANY = ("any",)


def lit(s):
    return ("lit", s)


def not_(s):
    return ("not", s)


def gv(name):
    return ("gv", name)


def mgv(name, arrow, cross=""):
    return ("mgv", name, arrow, cross)


def bit(name):
    return ("bit", name)


def eq(name):
    return ("eq", name)


def mis(name):
    return ("mis", name)


def ok(name):
    return ("ok", name)


def _compile_checks(side):
    out = []
    for reg in _CHECK_ORDER:
        if reg in side:
            cl, cr = side[reg]
            if cl != ANY:
                out.append((reg, 0, cl))
            if cr != ANY:
                out.append((reg, 1, cr))
    return tuple(out)


class Rule:
    """One two-site rewrite rule; matching data is precompiled at build time."""

    __slots__ = ("label", "tier", "lhs", "rhs", "gate", "note", "_checks",
                 "_sort_key")

    def __init__(self, label, tier, lhs, rhs, gate=None, note=""):
        self.label = label
        self.tier = tier
        self.lhs = lhs
        self.rhs = rhs
        self.gate = gate
        self.note = note
        if lhs.get(D) != rhs.get(D):
            # gates are the one channel that rewrites data
            raise RuleError(f"rule {label} rewrites data cells directly")
        self._checks = {FORWARD: _compile_checks(lhs),
                        REVERSE: _compile_checks(rhs)}
        num = "".join(ch for ch in label if ch.isdigit())
        self._sort_key = (int(num), label[len(num):])  # "4a" -> (4, "a")

    def __repr__(self):
        return f"<Rule {self.label} ({self.tier})>"

    def out_side(self, direction):
        return self.rhs if direction == FORWARD else self.lhs

    def checks(self, direction):
        return self._checks[direction]

    def active_anchor(self, direction):
        """(symbols, offset) of the single active cell on the matched side."""
        pools = {P: sym.ACTIVE_P_ALL, CP: sym.ACTIVE_CP_ALL}
        anchors = []
        for reg, offset, cell in self.checks(direction):
            pool = pools.get(reg, ())
            if cell[0] == "lit" and cell[1] in pool:
                anchors.append(((cell[1],), offset))
            elif cell[0] == "mgv":
                _, _, arrow, cross = cell
                marked = tuple(arrow + g + cross for g in GATES)
                if all(m in pool for m in marked):
                    anchors.append((marked, offset))
        if len(anchors) != 1:
            raise RuleError(
                f"rule {self.label} {direction} side has {len(anchors)} active"
                " cells; need exactly 1")
        return anchors[0]


@dataclass(frozen=True)
class Match:
    rule: Rule
    site: int  # left site of the window
    direction: str
    bindings: tuple  # sorted (name, value) pairs

    @property
    def label(self):
        return self.rule.label


class Hit(NamedTuple):
    """A rule firing on one window, as the matcher compiled it.

    bindings are sorted (name, value) pairs; writes lists (register,
    window offset 0 or 1, symbol) for each non-data cell the rule changes;
    gate is the bound gate kind, None for a rule without a gate; active
    lists (window offset, register, symbol) for each active cell of the
    window after the firing, P before CP, in site order.
    """

    rule: Rule
    bindings: tuple
    writes: tuple
    gate: str | None
    active: tuple


def _build_rules_tier_I():
    A, B = gv("A"), gv("B")
    rA, rB = mgv("A", "→"), mgv("B", "→")
    return [
        Rule("1", "I", {P: (lit("→"), A)}, {P: (lit(BULLET), rA)},
             note="mark the leading gate and enter the program"),
        Rule("2", "I", {P: (rA, B)}, {P: (A, rB)},
             note="carry the mark one gate to the right"),
        Rule("3", "I", {P: (rA, lit(BULLET))}, {P: (A, lit("→"))},
             note="mark exits the program on the right"),
        Rule("4a", "I", {P: (lit("→"), lit(BULLET)), D: (lit("1"), ANY)},
             {P: (lit(sym.GATE_APPLY), lit(BULLET)), D: (lit("1"), ANY)},
             note="turning point over a 1 bit: apply gates on the way back"),
        Rule("4b", "I", {P: (lit("→"), lit(BULLET)), D: (lit("0"), ANY)},
             {P: (lit(sym.MOVE), lit(BULLET)), D: (lit("0"), ANY)},
             note="turning point over a 0 bit: just shift the program"),
        Rule("5a", "I", {P: (A, lit(sym.GATE_APPLY))},
             {P: (lit(sym.GATE_APPLY), A)}, gate="A",
             note="gate head moves left, applying each gate to its data window"),
        Rule("5b", "I", {P: (A, lit(sym.MOVE))}, {P: (lit(sym.MOVE), A)},
             note="move head passes left without touching data"),
        Rule("6a", "I", {P: (lit(BULLET), lit(sym.GATE_APPLY)), D: (lit("1"), ANY)},
             {P: (lit(BULLET), lit("→")), D: (lit("1"), ANY)},
             note="gate head reaches the left edge, rearm the arrow"),
        Rule("6b", "I", {P: (lit(BULLET), lit(sym.MOVE)), D: (lit("0"), ANY)},
             {P: (lit(BULLET), lit("→")), D: (lit("0"), ANY)},
             note="move head reaches the left edge, rearm the arrow"),
    ]


def _build_rules_tier_II():
    A, B = gv("A"), gv("B")
    lA, lB = mgv("A", "←"), mgv("B", "←")
    return [
        Rule("7", "II", {P: (A, lit("←"))}, {P: (lA, lit(BULLET))},
             note="leftward mark enters the program from the right"),
        Rule("8", "II", {P: (B, lA)}, {P: (lB, A)},
             note="carry the leftward mark one gate to the left"),
        Rule("9", "II", {P: (lit(BULLET), lA)}, {P: (lit("←"), A)},
             note="leftward mark exits the program on the left"),
        Rule("10", "II", {P: (lit(BULLET), lit("←"))},
             {P: (lit(BULLET), lit("▷"))},
             note="left edge reached: start the rightward shuttle"),
        Rule("11", "II", {P: (lit("▷"), A)}, {P: (A, lit("▷"))},
             note="shuttle drags the program one site to the left, no gates"),
        Rule("12", "II", {P: (lit("▷"), lit(BULLET))}, {P: (lit("←"), lit(BULLET))},
             note="shuttle exits on the right and rearms the left arrow"),
        Rule("13a", "II", {P: (lit("→"), lit(TURN))}, {P: (lit("←"), lit(TURN))},
             note="right arrow bounces off the right sentinel"),
        Rule("13b", "II", {P: (lit(TURN), lit("←"))}, {P: (lit(TURN), lit("→"))},
             note="left arrow bounces off the left sentinel"),
    ]


def _build_rules_tier_III():
    return [
        # 13a is redefined: the bounce now hands control to the clock.
        Rule("13a", "III", {P: (lit("→"), lit(TURN))}, {P: (lit(TURN), lit("⇓"))},
             note="right arrow converts to the clock hand-off symbol"),
        Rule("14", "III", {P: (lit(TURN), lit("⇓")), CP: (lit(BULLET), lit("X"))},
             {P: (lit(TURN), lit(TURN)), CP: (lit(BULLET), lit("L"))},
             note="wake the clock pointer under the right sentinels"),
        Rule("15", "III", {P: (lit(TURN), lit(TURN)), C: (ANY, lit("0")),
                           CP: (lit(BULLET), lit("L"))},
             {P: (lit(TURN), lit(TURN)), C: (ANY, lit("1")),
              CP: (lit(BULLET), lit("C"))},
             note="increment case: least significant bit 0 -> 1"),
        Rule("16", "III", {P: (lit(TURN), lit(TURN)), C: (lit("0"), lit("1")),
                           CP: (lit(BULLET), lit("L"))},
             {P: (lit(TURN), lit(TURN)), C: (lit("1"), lit("0")),
              CP: (lit(BULLET), lit("C"))},
             note="increment case: trailing 01 -> 10 at the right edge"),
        Rule("17", "III", {C: (lit("1"), lit("1")), CP: (lit(BULLET), lit("L"))},
             {C: (lit("1"), lit("1")), CP: (lit("L"), lit(BULLET))},
             note="carry scan hops left over a 1-run"),
        Rule("18", "III", {P: (not_(TURN), ANY), C: (lit("0"), lit("1")),
                           CP: (lit(BULLET), lit("L"))},
             {P: (not_(TURN), ANY), C: (lit("1"), lit("0")),
              CP: (lit(BULLET), lit("R"))},
             note="carry lands: flip 01 -> 10 and turn around"),
        Rule("19", "III", {P: (not_(TURN), ANY), C: (lit("0"), lit("1")),
                           CP: (lit("R"), lit(BULLET))},
             {P: (not_(TURN), ANY), C: (lit("0"), lit("0")),
              CP: (lit(BULLET), lit("R"))},
             note="return sweep clears the 1-run bit by bit"),
        Rule("20", "III", {P: (lit(TURN), lit(TURN)), C: (lit("0"), lit("1")),
                           CP: (lit("R"), lit(BULLET))},
             {P: (lit(TURN), lit(TURN)), C: (lit("0"), lit("0")),
              CP: (lit(BULLET), lit("C"))},
             note="return sweep clears the last bit and completes"),
        Rule("21", "III", {P: (lit(TURN), lit(TURN)), CP: (lit(BULLET), lit("C"))},
             {P: (lit("←"), lit(TURN)), CP: (lit(BULLET), lit("X"))},
             note="clock done: hand the active symbol back to the program"),
    ]


def _build_rules_tier_IV():
    a = "a"
    tt = (lit(TURN), lit(TURN))
    return [
        # 21 is redefined: control returns to the program off a failed
        # comparison (CX), never directly off C, which now starts the sweep.
        Rule("21", "IV", {P: tt, CP: (lit(BULLET), lit("CX"))},
             {P: (lit("←"), lit(TURN)), CP: (lit(BULLET), lit("X"))},
             note="comparison failed: run the next application"),
        Rule("23a", "IV", {P: tt, C: (not_(BULLET), bit(a)),
                           CP: (lit(BULLET), lit("C")), T: (not_(BULLET), eq(a))},
             {P: tt, C: (not_(BULLET), bit(a)),
              CP: (lit("←C"), lit(BULLET)), T: (not_(BULLET), eq(a))},
             note="start compare sweep: LSB matches, more digits to the left"),
        Rule("23b", "IV", {P: tt, C: (not_(BULLET), bit(a)),
                           CP: (lit(BULLET), lit("C")), T: (lit(BULLET), eq(a))},
             {P: tt, C: (not_(BULLET), bit(a)),
              CP: (lit("←C"), lit(BULLET)), T: (lit(BULLET), eq(a))},
             note="start compare sweep: LSB matches a one-digit target;"
                  " unreachable on built chains (target_row rejects a one-site"
                  " digit field)"),
        Rule("23c", "IV", {P: tt, C: (lit(BULLET), bit(a)),
                           CP: (lit(BULLET), lit("C")), T: (not_(BULLET), eq(a))},
             {P: tt, C: (lit(BULLET), bit(a)),
              CP: (lit("←C"), lit(BULLET)), T: (not_(BULLET), eq(a))},
             note="start-sweep variant over the clock edge; unreachable on"
                  " built chains (clock bits never abut the sweep start)"),
        Rule("25", "IV", {P: tt, C: (ANY, bit(a)),
                          CP: (lit(BULLET), lit("C")), T: (ANY, mis(a))},
             {P: tt, C: (ANY, bit(a)),
              CP: (lit(BULLET), lit("CX")), T: (ANY, mis(a))},
             note="LSB differs from the target: flag the failure"),
        Rule("27", "IV", {C: (ANY, bit(a)), CP: (lit("CX"), lit(BULLET)),
                          T: (ANY, ok(a))},
             {C: (ANY, bit(a)), CP: (lit(BULLET), lit("CX")), T: (ANY, ok(a))},
             note="failure flag returns right over already-matched digits"),
        Rule("28", "IV", {C: (lit(BULLET), bit(a)),
                          CP: (lit(BULLET), lit("←C")), T: (lit(BULLET), eq(a))},
             {C: (lit(BULLET), bit(a)),
              CP: (lit(BULLET), lit("Rx")), T: (lit(BULLET), eq(a))},
             note="full-width match completes against the chain edge;"
                  " unreachable on built chains (padding keeps a bullet column"
                  " left of the digits)"),
        Rule("29", "IV", {P: (not_(TURN), ANY), C: (ANY, lit("0")),
                          CP: (lit(BULLET), lit("←C")),
                          T: (lit(BULLET), lit(BULLET)), C2: (ANY, lit("1"))},
             {P: (not_(TURN), ANY), C: (ANY, lit("0")),
              CP: (lit("←C"), lit(BULLET)),
              T: (lit(BULLET), lit(BULLET)), C2: (ANY, lit("1"))},
             note="sweep crosses naturally-padded target cells over clock 0s;"
                  " unreachable on built chains (digits are zero-padded to the"
                  " bullet column)"),
        Rule("30", "IV", {C: (ANY, lit("0")), CP: (lit(BULLET), lit("←C")),
                          T: (ANY, lit(BULLET)), C2: (lit(BULLET), lit("0"))},
             {C: (ANY, lit("0")), CP: (lit(BULLET), lit("Rx")),
              T: (ANY, lit(BULLET)), C2: (lit(BULLET), lit("0"))},
             note="every digit matched: the sweep stands on the bullet column"
                  " and converts to the crossed return mode"),
    ]


# Tier IV's crossed family: once the target is matched, the chain reruns the
# program oscillation and the clock on C2, never reading the data or
# applying a gate.  Each crossed rule is a tier I-III rule under
# _crossed(): crossed label <- base label.
_CROSSED_FROM = {"22": "21", "43a": "13a", "43b": "13b",
                 **{str(n + 30): str(n) + ("b" if 4 <= n <= 6 else "")
                    for n in range(1, 21) if n != 13}}


def _crossed_cell(cell):
    if cell[0] == "mgv":
        return mgv(cell[1], cell[2], "x")
    if cell[0] == "lit" and cell[1] in sym.CROSSED:
        return lit(cell[1] + "x")
    return cell  # bullets, t, X, bits, gate variables and guards


def _crossed(rule: Rule, label: str) -> Rule:
    """The crossed copy of a tier I-III rule: "x" on its program symbols,
    marked gates and pointer letters, the clock register C read as C2,
    data guards dropped and no gate."""
    def side(cells):
        return {C2 if reg == C else reg: tuple(map(_crossed_cell, pair))
                for reg, pair in cells.items() if reg != D}
    return Rule(label, "IV", side(rule.lhs), side(rule.rhs),
                note=f"crossed {rule.label}: {rule.note}")


# The compare sweep's hops: each is a sweep-start rule (23a-c, 25) under
# _hop(): hop label <- start label.  24c is unreachable on built chains:
# the left sentinel sits over the clock edge.
_HOP_FROM = {"24a": "23a", "24b": "23b", "24c": "23c", "26": "25"}


def _hop(rule: Rule, label: str) -> Rule:
    """The hop copy of a sweep-start rule: program guard (!t, any) for
    (t, t) on both sides, and pointer (•, ←C) for (•, C) on the left."""
    guard = (not_(TURN), ANY)
    return Rule(label, "IV",
                {**rule.lhs, P: guard, CP: (lit(BULLET), lit("←C"))},
                {**rule.rhs, P: guard},
                note=f"sweep hop of {rule.label}: ←C moves one digit left")


class RuleSet:
    """Effective rule list for one tier, with a lazily compiled matcher.

    The rules and their active-symbol index never change once built; the
    matcher's memo fills as windows come up.  For each (direction, active
    symbol) a probe lists the (register, offset -1/0/+1) cells around the
    active site that any candidate rule reads or keeps, and the P and CP
    cells of each candidate's window.  The memo maps the probe's values
    (None off the chain or for a missing register), with the flags
    site == 1 and site == L, to the Hits that try_match finds there, so
    the table stays the only hand-written matcher.  Because the probe
    reads the window's P and CP cells, the key fixes the window's active
    cells after a firing too, and each Hit carries them; so a rule set
    serves states of its own tier, whose registers its probes read.  Each
    instance owns its memo and engine.run's block store: a copy from
    without() drops rules, so it sees neither of its parent's.  Two threads
    filling one memo entry store equal values; the block store serves one
    run at a time.  Matches come in deterministic (site, label) order.
    """

    def __init__(self, tier: str, rules):
        self.tier = tier
        self.rules = tuple(rules)
        self.by_label = {r.label: r for r in self.rules}
        self._index = {FORWARD: {}, REVERSE: {}}
        for rule in self.rules:
            for direction in (FORWARD, REVERSE):
                symbols, offset = rule.active_anchor(direction)
                for s in symbols:
                    self._index[direction].setdefault(s, []).append((rule, offset))
        self._compiled = {FORWARD: {}, REVERSE: {}}
        self.blocks, self.stretches = {}, set()  # engine.run's block store

    def labels(self):
        return tuple(r.label for r in self.rules)

    def candidates(self, direction, active_symbol):
        return self._index[direction].get(active_symbol, ())

    def without(self, *labels) -> "RuleSet":
        """Copy with some rules removed (for negative-control experiments)."""
        drop = set(labels)
        return RuleSet(self.tier, [r for r in self.rules if r.label not in drop])

    def compiled(self, direction, symbol):
        """(probe, memo) of one active symbol, built on first use."""
        compiled = self._compiled[direction].get(symbol)
        if compiled is None:
            compiled = self._compiled[direction][symbol] = (
                self._probe(direction, symbol), {})
        return compiled

    def hits(self, direction, state, site, symbol):
        """(key, ((offset, Hit), ...)): the memo key of the active site and
        the candidates anchored there whose window (site - offset, site -
        offset + 1) matches, in (window site, label) order.

        state is read through its tier, L and rows mapping only.
        """
        probe, memo = self.compiled(direction, symbol)
        rows, last = state.rows, state.L
        # off the chain, or in a register the state lacks, a cell reads
        # None: the probe holds every candidate's window P cells, so a key
        # with no None has every candidate's window on the chain
        key = tuple([row[site + shift] if (row := rows.get(reg)) is not None
                     and 0 <= site + shift < last else None
                     for reg, shift in probe])
        found = memo.get(key)
        if found is None:
            found = memo[key] = self._fill(direction, symbol, state, site)
        return key, found

    def _probe(self, direction, symbol):
        """((register, shift), ...) of every cell a candidate reads, of
        every non-data output cell it may keep and of the P and CP cells
        of its window; the cell at site + offset is row[site + shift] with
        shift = offset - 1."""
        cells = set()
        window = [reg for reg in (P, CP)
                  if reg in sym.REGISTERS_BY_TIER[self.tier]]
        for rule, offset in self.candidates(direction, symbol):
            for reg, off, _cell in rule.checks(direction):
                cells.add((reg, off - offset))
            for reg in (*rule.out_side(direction), *window):
                if reg != D:
                    cells.update(((reg, -offset), (reg, 1 - offset)))
        return tuple(sorted((reg, rel - 1) for reg, rel in cells))

    def _fill(self, direction, symbol, state, site):
        found = []
        for rule, offset in self.candidates(direction, symbol):
            hit = _hit(rule, direction, state, site - offset)
            if hit is not None:
                found.append((offset, hit))
        found.sort(key=lambda f: (-f[0], f[1].rule._sort_key))
        return tuple(found)


_RULESET_CACHE = {}


def rule_set(tier: str) -> RuleSet:
    """The effective rules of a tier, with later tiers' redefinitions applied."""
    if tier in _RULESET_CACHE:
        return _RULESET_CACHE[tier]
    rules = {r.label: r for r in _build_rules_tier_I()}
    if tier in ("II", "III", "IV"):
        for r in _build_rules_tier_II():
            rules[r.label] = r
    if tier in ("III", "IV"):
        for r in _build_rules_tier_III():
            rules[r.label] = r  # replaces the tier-II 13a
    if tier == "IV":
        # derived before tier IV's 21 replaces the tier-III 21 it copies
        for label, base in _CROSSED_FROM.items():
            rules[label] = _crossed(rules[base], label)
        for r in _build_rules_tier_IV():
            rules[r.label] = r  # replaces the tier-III 21
        for label, base in _HOP_FROM.items():
            rules[label] = _hop(rules[base], label)
    ordered = sorted(rules.values(), key=lambda r: r._sort_key)
    rs = RuleSet(tier, ordered)
    _RULESET_CACHE[tier] = rs
    return rs


# -- matching -----------------------------------------------------------------


def _read_cell(state: ChainState, reg: str, site: int) -> str:
    row = state.rows.get(reg)
    return row[site - 1] if row is not None else None


def try_match(rule: Rule, state: ChainState, i: int, direction: str):
    """Bindings dict if the rule matches window (i, i+1), else None."""
    if not 1 <= i <= state.L - 1:
        return None
    bindings = {}
    for reg, offset, cell in rule.checks(direction):
        v = _read_cell(state, reg, i + offset)
        if v is None:
            return None
        kind = cell[0]
        if kind == "lit":
            if v != cell[1]:
                return None
        elif kind == "not":
            if v == cell[1]:
                return None
        elif kind == "gv":
            if v not in GATES:
                return None
            name = cell[1]
            if bindings.setdefault(name, v) != v:
                return None
        elif kind == "mgv":
            _, name, arrow, cross = cell
            g = v[len(arrow):len(arrow) + 1]
            if g not in GATES or v != arrow + g + cross:
                return None
            if bindings.setdefault(name, g) != g:
                return None
        elif kind == "bit":
            if v not in ("0", "1"):
                return None
            name = cell[1]
            if bindings.setdefault(name, v) != v:
                return None
        elif kind == "eq":
            if v != bindings.get(cell[1]):
                return None
        elif kind == "mis":
            b = bindings.get(cell[1])
            if not (v == _FLIP.get(b) or (b == "1" and v == BULLET)):
                return None
        elif kind == "ok":
            b = bindings.get(cell[1])
            if not (v == b or (b == "0" and v == BULLET)):
                return None
    return bindings


def applicable(state: ChainState, direction: str, rules: RuleSet | None = None,
               full_scan: bool = False):
    """All matches of the tier's rules on the state, ordered by (site, label).

    The default path looks up the windows touching an active symbol in the
    rule set's compiled matcher, which is equivalent to the full scan
    because every rule side anchors exactly one active symbol;
    full_scan=True forces the literal window-by-window try_match scan,
    without the memo (the test suite's oracle for the compiled path).
    """
    rs = rules if rules is not None else rule_set(state.tier)
    if full_scan:
        found = [(i, hit) for rule in rs.rules for i in range(1, state.L)
                 if (hit := _hit(rule, direction, state, i)) is not None]
    else:
        # a rule anchors one active cell and the P and CP active pools are
        # disjoint, so no (rule, window) pair comes up twice
        found = [(site - offset, hit) for site, _reg, s in active_sites(state)
                 for offset, hit in rs.hits(direction, state, site, s)[1]]
    found.sort(key=lambda f: (f[0], f[1].rule._sort_key))
    return [as_match(i, hit, direction) for i, hit in found]


def as_match(i, hit: Hit, direction: str) -> Match:
    """The Match of a hit on window (i, i+1)."""
    return Match(hit.rule, i, direction, hit.bindings)


def _hit(rule: Rule, direction: str, state, i: int):
    """The rule's Hit on window (i, i+1) by try_match, or None: the one
    place a match turns into writes and active cells, for the memo, the
    full scan and apply().  state is read through its tier and rows."""
    b = try_match(rule, state, i, direction)
    if b is None:
        return None
    out = rule.out_side(direction)  # its data cells are guards, kept
    after = {(reg, off): _instantiate(out.get(reg, (ANY, ANY))[off], b,
                                      row[i - 1 + off])
             for reg, row in state.rows.items() if reg != D for off in (0, 1)}
    writes = tuple((reg, off, s) for (reg, off), s in after.items()
                   if s != state.rows[reg][i - 1 + off])
    pools = {P: sym.ACTIVE_P_BY_TIER[state.tier],
             CP: sym.ACTIVE_CP_BY_TIER[state.tier]}
    active = tuple((off, reg, s) for reg in (P, CP) for off in (0, 1)
                   if (s := after.get((reg, off))) in pools[reg])
    return Hit(rule, tuple(sorted(b.items())), writes,
               b[rule.gate] if rule.gate is not None else None, active)


# -- rewriting ----------------------------------------------------------------


def classical_gate_action(kind: str, left_bit: str, right_bit: str):
    """Effect of one gate on two classical bits, or None when it would
    create superposition (W with a set control)."""
    if kind == "I":
        return (left_bit, right_bit)
    if kind == "S":
        return (right_bit, left_bit)
    if kind == "W":
        if left_bit == "0":
            return (left_bit, right_bit)
        return None
    raise RuleError(f"unknown gate {kind!r}")


def _instantiate(cell, bindings, current):
    kind = cell[0]
    if kind == "lit":
        return cell[1]
    if kind == "gv":
        return bindings[cell[1]]
    if kind == "mgv":
        _, name, arrow, cross = cell
        return arrow + bindings[name] + cross
    return current  # any / guards keep the current symbol


def _apply_gate_effect(state: ChainState, kind: str, i: int, adjoint: bool):
    """Apply a bound gate to data sites (i, i+1).

    Returns (cells, work): cells is the new (D_i, D_i+1) pair when a
    classical gate changes the data bits, else None.
    """
    d = state.rows[D]
    lb, rb = d[i - 1], d[i]
    if lb != QUANTUM and rb != QUANTUM:
        res = classical_gate_action(kind, lb, rb)
        if res is not None:
            return (res if res != (lb, rb) else None), state.work
    elif kind == "I":
        return None, state.work
    elif lb == QUANTUM and rb == QUANTUM:
        return None, state.work.apply_gate(kind, i, i + 1, adjoint)
    raise NonClassicalGateError(
        f"gate {kind} on data sites ({i},{i + 1}) = ({lb},{rb}) leaves the"
        " computational basis; valid chains never do this")


def apply(state: ChainState, match: Match) -> ChainState:
    """Rewrite the state at the matched window; gates run on the data qubits.

    Raises StaleMatchError when the match no longer fits the state and
    NonClassicalGateError when a gate would break the classical data
    invariant.
    """
    i = match.site
    hit = _hit(match.rule, match.direction, state, i)
    if hit is None or hit.bindings != match.bindings:
        raise StaleMatchError(f"rule {match.label} no longer matches at {i}")
    writes, work = hit.writes, state.work
    if hit.gate is not None:
        cells, work = _apply_gate_effect(state, hit.gate, i,
                                         match.direction == REVERSE)
        if cells is not None:
            writes += ((D, 0, cells[0]), (D, 1, cells[1]))
    rows = {reg: list(state.rows[reg]) for reg, _off, _s in writes}
    for reg, off, s in writes:
        rows[reg][i - 1 + off] = s
    return state.replace(rows={reg: tuple(row) for reg, row in rows.items()},
                         work=work)


# -- audit dump ----------------------------------------------------------------


def _cell_text(cell):
    kind = cell[0]
    if kind == "any":
        return "-"
    if kind == "lit":
        return cell[1]
    if kind == "not":
        return "!" + cell[1]
    if kind == "gv":
        return cell[1]
    if kind == "mgv":
        return cell[2] + cell[1] + cell[3]
    if kind == "bit":
        return cell[1]
    if kind == "eq":
        return "=" + cell[1]
    if kind == "mis":
        return "~" + cell[1]
    if kind == "ok":
        return "ok(" + cell[1] + ")"
    raise RuleError(kind)


def _side_text(side):
    parts = []
    for reg in sym.REGISTER_ORDER:
        if reg in side:
            cl, cr = side[reg]
            parts.append(f"{reg}:{_cell_text(cl)}/{_cell_text(cr)}")
    return " ".join(parts)


def dump_rule_table(tier: str) -> str:
    """One line per rule: `<id> <tier> | <lhs> => <rhs> [gate:A]`."""
    lines = []
    for rule in rule_set(tier).rules:
        line = (f"{rule.label} {rule.tier} | {_side_text(rule.lhs)}"
                f" => {_side_text(rule.rhs)}")
        if rule.gate:
            line += f" [gate:{rule.gate}]"
        lines.append(line)
    return "\n".join(lines)
