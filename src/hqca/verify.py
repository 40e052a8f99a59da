"""Independent oracles and end-to-end checks for the chain constructions.

Each check compares engine behaviour against a second computational path
that shares no code with the rule engine: dense circuit algebra for the
work qubits, plain integer arithmetic for the clock, exhaustive sweeps for
the comparator, and, as the oracle for the hybrid data register, a full
2^L statevector that replays every gate the chain fires.  The checks read
a trajectory through one replay of its record (Trajectory._replay), held
to the record at every step and to traj.final; check_claim_b and
check_posttarget_freeze stop only after the labels they watch and take the
stretches between from the run's blocks.  On tier IV, claim B at k = x and
the freeze give that the frozen work register is U^x psi.  verify_uog is
no second path: it reads run(check_uog=True), from the run that made the
trajectory or from a rerun; the tests hold that check to a full scan of
every rule on every window.  Each check takes the tier, work window and
input work vector from traj.start, and reports one CheckResult.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .builder import BuildSpec, build_initial
from .circuit import CircuitProgram, apply_round, fidelity
from .engine import Ambiguous, StepBudget, Trajectory, clock_value, run
from .rules import REVERSE, rule_set
from .state import ChainState, DenseData, WorkState, as_dense_vector
from .symbols import BULLET, C, C2, CP, D, P, T, TURN

FIDELITY_TOL = 1e-10
MAX_DENSE_SITES = 16  # the dense oracle holds 2^L amplitudes, 1 MiB at 16


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: object
    tolerance: object
    details: list = field(default_factory=list)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {verdict} {self.measured} {self.tolerance}"


def format_report(results) -> str:
    """One CHECK line per result, then the first ten details of each
    failed check."""
    lines = [r.line() for r in results]
    for r in results:
        if not r.passed:
            lines.extend(f"  {d}" for d in r.details[:10])
    return "\n".join(lines)


# -- walk-line structure and work-qubit oracle -----------------------------------


def verify_uog(traj: Trajectory) -> CheckResult:
    """Walk-line structure, checked by run(check_uog=True): a record that
    run checked on the current rule table is its own rerun, and any other
    has traj.start rerun on that table, one step past a dead end, to retrace
    it.  details list, as (step, message), the rerun's violations up to the
    first step where it leaves the record, then that step: a dead end or an
    ambiguity before the record's end, a match other than the fired one, or
    forward matches on a dead-end final state."""
    n, dead = traj.n_steps, traj.stop_reason == "dead_end"
    rerun, matches = traj, 0  # matches: 0 at a dead end, else the ambiguity's
    try:
        if not (traj.checked and traj.rules is rule_set(traj.start.tier)):
            rerun = run(traj.start, StepBudget(n + dead or 1), check_uog=True)
    except Ambiguous as err:
        rerun, matches = err.traj, len(err.matches)
    pairs = () if rerun is traj else zip(rerun.labels, rerun.sites,
                                         traj.labels, traj.sites)
    t = next((t for t, (a, s, b, r) in enumerate(pairs) if a != b or s != r),
             min(rerun.n_steps, n))
    v = [x for x in rerun.uog_violations if x[0] <= t]
    if t < min(rerun.n_steps, n):
        v.append((t, f"forward match {rerun.labels[t]} at {rerun.sites[t]},"
                  f" but {traj.labels[t]} at {traj.sites[t]} fired"))
    elif t < n:
        v.append((t, f"{matches} forward matches"))
    elif dead and (rerun.n_steps > n or matches):
        v.append((n, "final state still has forward matches"))
    return CheckResult("uog", not v, f"states={n + 1}", "clean", v)


# tier -> (label counted, labels of a checkpoint, kind of the count); tiers
# III/IV compare after the rules whose forward side leaves C on the clock
# pointer, read from the rule table
_COUNTED = {"I": ("4a", frozenset(("6a", "6b")), "rounds"),
            "II": ("13b", frozenset(("13b",)), "power")}


class ClaimBCheck:
    """check_claim_b's check: one reference vector advances round by round,
    restarting from the input when a checkpoint asks for fewer rounds.  It
    keeps no states: step(t, state, label) reads state t, reached by rule
    label (a checkpoint by its label alone), from any view with rows and
    work; result(traj) reports."""

    def __init__(self, start: ChainState, circuit: CircuitProgram):
        self.start, self.circuit = start, circuit
        self.details, self.k_max = [], None
        self.compared = self.count = 0  # count: 4a (tier I) or 13b (II)
        self.worst, self.expect, self.done = 1.0, start.work.amps, 0
        self.last = start.work
        leave_c = rule_set(start.tier).candidates(REVERSE, "C")
        self._counted, self._watched, self._kind = _COUNTED.get(
            start.tier, (None, frozenset(r.label for r, _ in leave_c), "k"))
        if "C" in start.rows.get(CP, ()):  # a start no rule has led to
            self._checkpoint(0, start)

    def step(self, t: int, state, label: str):
        self.last = state.work
        self.count += label == self._counted
        if label in self._watched:
            self._checkpoint(t, state)

    def _checkpoint(self, t, state):
        if self._kind != "k":
            self._compare(t, self._kind, self.count, state.work)
        elif (k := clock_value(state)) is None:
            self.details.append(f"t={t}: malformed clock")
        else:
            self.k_max = max(k, self.k_max or 0)
            self._compare(t, "k", k, state.work)

    def _compare(self, t, kind, count, work):
        if work.support != self.start.work.support:
            raise ValueError(f"work support {work.support} is not the"
                             f" start's window {self.start.work.support}")
        rounds = count if kind == "rounds" else count * self.circuit.depth
        if rounds < self.done:
            self.expect, self.done = self.start.work.amps, 0
        for j in range(self.done, rounds):
            self.expect = apply_round(self.expect, self.circuit,
                                      j % self.circuit.depth + 1)
        self.done, self.compared = rounds, self.compared + 1
        f = fidelity(self.expect, work.amps)
        self.worst = min(self.worst, f)
        if f < 1.0 - FIDELITY_TOL:
            self.details.append(f"t={t} {kind}={count}: fidelity {f:.3e}")

    def result(self, traj: Trajectory) -> CheckResult:
        if self.start.tier == "I":  # the final state holds every gate turn
            self._compare(traj.n_steps, "rounds", self.count, self.last)
        return self._report()

    def _report(self) -> CheckResult:
        name, measured = "work_oracle", f"min_fidelity={self.worst:.12f}"
        if self.start.tier in ("III", "IV"):
            name = "claim_b"
            measured = f"states={self.compared} k_max={self.k_max} {measured}"
        return CheckResult(name, self.compared > 0 and not self.details,
                           measured, f">={1 - FIDELITY_TOL}", self.details)


def check_claim_b(traj: Trajectory, circuit: CircuitProgram) -> CheckResult:
    """Claim B on every tier: wherever the tier predicts the work register,
    it must equal the start state's after that many circuit rounds.  The
    checkpoints are, for tier I, the state after each oscillation end
    (6a/6b) with the gate turns (4a) before it, and the final state with all
    of them; for tier II, the state after the x-th reset completion (13b)
    with x circuit powers; for tiers III/IV, every state whose clock pointer
    shows C, with the clock reading k as its power: the states after the
    rules whose forward side leaves C on the clock pointer (15, 16 and 20),
    read from the rule table.  A check that compares no state fails, and so
    does one that meets a malformed clock.  It reads one replay of the
    record that stops only at the checkpoints and at the end, and counts
    tier I's gate turns from the labels; the replay's error, off the record
    or away from traj.final, fails the check as a detail."""
    check = ClaimBCheck(traj.start, circuit)
    labels, fed = traj.labels, 0
    try:
        for t, view in traj._replay(traj.n_steps, check._watched):
            if t:  # the counted labels of the steps not fed, then step t
                check.count += labels[fed:t - 1].count(check._counted)
                check.step(t, view, labels[t - 1])
                fed = t
        return check.result(traj)
    except ValueError as err:  # off the record, or off the work window
        check.details.append(str(err))
        return check._report()


# -- standalone clock harness ----------------------------------------------------


def build_clock_chain(bits: str) -> ChainState:
    """Clock and pointer registers alone, under turn sentinels, with the
    pointer in L mode at the right end, ready to start an increment.

    bits is the stored value, most significant first, one chain site per
    bit; the chain gets one extra bullet site on the left.
    """
    l = len(bits) + 1
    if l < 4:
        raise ValueError("need at least 3 clock bits")
    rows = {
        P: tuple([TURN] + [BULLET] * (l - 3) + [TURN, TURN]),
        D: tuple(["0"] * l),
        C: tuple([BULLET] + list(bits)),
        CP: tuple([BULLET] * (l - 1) + ["L"]),
    }
    return ChainState("III", rows, WorkState((), np.ones(1, dtype=complex)))


def clock_increment(bits: str):
    """One full clock transition: (bits', labels, final state).

    labels end at the transition's first clock-done label (15, 16 or 20).
    The run goes on through a 21 -> 10 -> dead-end tail that leaves the
    clock row unchanged, so bits' is read from the final state.  bits' is
    None when the chain dead-ends before a clock-done label (the all-ones
    value has no successor and the pointer parks at the left edge).
    """
    traj = run(build_clock_chain(bits),
               StepBudget(8 * len(bits) + 8, "step_limit"))
    done = Trajectory.EVENT_LABELS["clock_done"]
    for t, label in enumerate(traj.labels):
        if label in done:
            return ("".join(traj.final.rows[C][1:]), traj.labels[:t + 1],
                    traj.final)
    if traj.stop_reason == "dead_end":
        return None, traj.labels, traj.final
    raise RuntimeError("clock transition did not terminate")


def check_clock_counter(l_bits: int) -> CheckResult:
    """Drive the standalone clock through every increment and compare with
    plain integer arithmetic; verify the all-ones saturation behaviour."""
    top = 2 ** l_bits - 1
    details = []
    for v in range(top):
        got, _labels, _ = clock_increment(format(v, f"0{l_bits}b"))
        if got is None or int(got, 2) != v + 1:
            details.append(f"{v} -> {got!r}, expected {v + 1}")
    got, labels, final = clock_increment("1" * l_bits)
    if got is not None:
        details.append(f"all-ones incremented to {got!r}, expected saturation")
    else:
        if final.rows[CP][1] != "L":
            details.append("saturated pointer did not park at the left edge")
        if set(labels) != {"17"}:
            details.append(f"saturation used rules {sorted(set(labels))}")
    return CheckResult(f"clock_counter[{l_bits}b]", not details,
                       f"increments={top}+saturation", "exact", details)


# -- standalone comparator harness -------------------------------------------------


def build_comparator_chain(clock_bits: str, target_digits: str) -> ChainState:
    """Clock, pointer, target and second clock under turn sentinels, with
    the pointer in C mode at the right end, ready to start a compare sweep.

    clock_bits spans every site but the first; target_digits is the
    zero-padded digit field, right-aligned, with bullets above it.
    """
    l = len(clock_bits) + 1
    s_b = l - len(target_digits)
    if s_b < 2:
        raise ValueError("target digits must leave a bullet column at site 2")
    rows = {
        P: tuple([TURN] + [BULLET] * (l - 3) + [TURN, TURN]),
        D: tuple(["0"] * l),
        C: tuple([BULLET] + list(clock_bits)),
        CP: tuple([BULLET] * (l - 1) + ["C"]),
        T: tuple([BULLET] * s_b + list(target_digits)),
        C2: tuple([BULLET] * (s_b - 1) + ["0"] + ["1"] * (l - s_b)),
    }
    return ChainState("IV", rows, WorkState((), np.ones(1, dtype=complex)))


# the compare sweep's verdict, by the label that ends it
_VERDICTS = {
    **dict.fromkeys(Trajectory.EVENT_LABELS["compare_match"], "match"),
    **dict.fromkeys(Trajectory.EVENT_LABELS["compare_fail"], "mismatch")}


def comparator_verdict(clock_bits: str, target_digits: str):
    """Run the compare sweep to its verdict: 'match' (crossed return mode)
    or 'mismatch' (failure flag raised), with the labels up to the
    verdict's."""
    traj = run(build_comparator_chain(clock_bits, target_digits),
               StepBudget(4 * len(clock_bits) + 8, "step_limit"))
    for t, label in enumerate(traj.labels):
        if label in _VERDICTS:
            return _VERDICTS[label], traj.labels[:t + 1]
    raise RuntimeError("comparator sweep did not reach a verdict")


def check_comparator(l_bits: int) -> CheckResult:
    """Exhaustive (clock, target) sweep at l_bits digits: the verdict must
    be 'match' exactly on equality."""
    details = []
    for k in range(2 ** l_bits):
        for x in range(2 ** l_bits):
            clock = "0" + format(k, f"0{l_bits}b")
            target = format(x, f"0{l_bits}b")
            verdict, _ = comparator_verdict(clock, target)
            expect = "match" if k == x else "mismatch"
            if verdict != expect:
                details.append(f"k={k} x={x}: {verdict}, expected {expect}")
    # a set clock bit over the target's bullet padding is a mismatch even
    # though every digit column agrees
    verdict, _ = comparator_verdict("01" + "0" * l_bits,
                                    "0" * (l_bits - 1) + "0")
    if verdict != "mismatch":
        details.append("set bit above the bullet column was not flagged")
    return CheckResult(f"comparator[{l_bits}b]", not details,
                       f"pairs={4 ** l_bits}", "exact", details)


# -- backend cross-check -------------------------------------------------------------


def cross_check_backends(spec: BuildSpec, steps: int) -> CheckResult:
    """Run the hybrid chain, then step a replay of its record, replay each
    gate it fires on the full 2^L data-register vector, and compare the two
    vectors after each step that fired a gate or changed the data row or
    WorkState, up to the first difference: any other step would repeat the
    last compared difference, so only those build the 2^L embedding.

    Equal vectors also mean equal classical data readouts, so the oracle
    would fire the same rules as the hybrid run.
    """
    hybrid = build_initial(spec)
    if hybrid.L > MAX_DENSE_SITES:
        raise ValueError(f"dense oracle needs L <= {MAX_DENSE_SITES}")
    dense = DenseData(hybrid.L, as_dense_vector(hybrid))
    details, worst = [], 0.0
    last = (list(hybrid.rows[D]), hybrid.work)  # the dense start's
    traj = run(hybrid, StepBudget(steps, "step_limit"))
    compared = traj.n_steps
    for t, view in traj._replay(traj.n_steps):
        if t and view.gate is not None:
            dense = dense.apply_gate(view.gate, view.site, view.site + 1)
        elif view.rows[D] == last[0] and view.work is last[1]:
            continue
        last = (list(view.rows[D]), view.work)  # a copy of the live row
        diff = float(np.linalg.norm(as_dense_vector(view) - dense.amps))
        worst = max(worst, diff)
        if diff > 1e-10:
            details.append(f"t={t - 1}: data vectors differ by {diff:.3e}")
            compared = t
            break
    return CheckResult("backend_equivalence", not details,
                       f"steps={compared} max|dv|={worst:.2e}",
                       "<=1e-10", details)


# -- tier-IV freeze ---------------------------------------------------------------


def check_posttarget_freeze(traj: Trajectory) -> CheckResult:
    """After the record's one compare-match (28 or 30), the data, clock and
    target registers and the work amplitudes never change again.  Only a
    rule with a gate (Rule.__init__ lets no other write D or the work) or
    with a C or T pattern that differs between its sides can change them,
    so one replay of the record compares them with copies taken at the
    match after each such rule, read from the table, and at the end.  The
    replay's error, off the record or away from traj.final, is a detail."""
    match = Trajectory.EVENT_LABELS["compare_match"]
    watched = frozenset(match).union(
        r.label for r in traj.rules.rules if r.gate is not None
        or any(r.lhs.get(reg) != r.rhs.get(reg) for reg in (C, T)))
    hits = traj.marker_steps(*match)
    at = hits[0] + 1 if hits else None  # the state after the first match
    frozen, details = None, []
    try:
        for t, view in traj._replay(traj.n_steps, watched):
            if t == at:
                frozen = view.chain_state()  # rows copied, work kept
            elif frozen is not None:
                for reg, name in ((D, "data"), (C, "clock"), (T, "target")):
                    if tuple(view.rows[reg]) != frozen.rows[reg]:
                        details.append(f"t={t}: {name} register changed")
                work, then = view.work, frozen.work
                if work.support != then.support or not np.array_equal(
                        work.amps, then.amps):
                    details.append(f"t={t}: work state changed")
    except ValueError as err:
        details.append(str(err))
    if len(hits) != 1:
        details.append(f"{len(hits)} compare-success markers, expected 1")
    tail = traj.n_steps - at if hits else None
    return CheckResult(
        "posttarget_freeze", not details,
        f"success_at={at} tail={tail} stop={traj.stop_reason}",
        "frozen", details[:10])


# -- tier-III phase structure -----------------------------------------------------


def check_phase_structure(traj: Trajectory) -> CheckResult:
    """Label-sequence shape of a clocked run: a clearing prefix (19.. 20 21),
    then repeating application / hand-off / clock-update blocks."""
    labels = traj.labels
    l = traj.start.L
    details = []
    prefix = labels[:l - 1]
    expect = ["19"] * (l - 3) + ["20", "21"]
    if prefix != expect:
        details.append(f"prefix {prefix[:6]}... != 19^(L-3),20,21")
    markers = traj.markers
    handoffs, wakes = markers.get("13a", []), markers.get("14", [])
    if len(wakes) > len(handoffs) or len(handoffs) - len(wakes) > 1:
        details.append(f"{len(handoffs)} hand-offs vs {len(wakes)} pointer wakes")
    for a, b in zip(handoffs, wakes):
        if b != a + 1:
            details.append(f"wake at {b} does not follow hand-off at {a}")
            break
    return CheckResult("phase_structure", not details,
                       f"blocks={len(wakes)}", "exact", details)
