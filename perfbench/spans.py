"""Per-layer tracing from outside the simulator.

StepTracer rebuilds engine.run's stepping loop from the public layer calls
(rules.applicable, rules.apply, ChainState.digest) and puts a span around
each.  Two calls made inside those layers are wrapped for the duration of a
traced loop: rules.active_sites (a child span of rules.applicable, so
applicable spans are reported as self time) and WorkState.apply_gate (a
counter that tells gate applies from pure rewrites).  Candidate counts come
from wrapping the rule set's candidate index.  Spans are accumulated in
memory and read out once the loop ends.
"""

from __future__ import annotations

import time

from hqca import rules
from hqca.engine import Ambiguous
from hqca.rules import FORWARD, REVERSE, applicable, apply
from hqca.state import WorkState

_now = time.perf_counter_ns

SPAN_NAMES = ("state.active_sites", "rules.applicable.fwd",
              "rules.applicable.rev", "rules.apply.rewrite",
              "rules.apply.gate", "state.digest")


class StepTracer:
    """Traced stand-in for engine.run with keep_states=False and no stop
    condition other than the step limit or a dead end."""

    def __init__(self, rule_set):
        self.rs = rule_set
        self.ns = dict.fromkeys(SPAN_NAMES, 0)
        self.step_ns = 0
        self.steps = 0
        self.candidates_fwd = 0
        self.gate_calls = 0
        self.labels = []
        self.sites = []
        self.uog_violations = []

    def run(self, start, max_steps, check_uog=False):
        """Step from start; returns (final state, stop reason)."""
        orig_active, orig_gate = rules.active_sites, WorkState.apply_gate
        orig_candidates = self.rs.candidates
        ns = self.ns

        def active_sites(state):
            t0 = _now()
            out = orig_active(state)
            ns["state.active_sites"] += _now() - t0
            return out

        def apply_gate(work, *args, **kwargs):
            self.gate_calls += 1
            return orig_gate(work, *args, **kwargs)

        def candidates(direction, symbol):
            out = orig_candidates(direction, symbol)
            if direction == FORWARD:
                self.candidates_fwd += len(out)
            return out

        rules.active_sites = active_sites
        WorkState.apply_gate = apply_gate
        self.rs.candidates = candidates
        try:
            return self._loop(start, max_steps, check_uog)
        finally:
            rules.active_sites = orig_active
            WorkState.apply_gate = orig_gate
            del self.rs.candidates

    def _loop(self, state, max_steps, check_uog):
        ns, rs = self.ns, self.rs
        # seen, digests and markers repeat the bookkeeping engine.run does
        # on every step, so that engine.self measures the same work
        seen = {state.digest()}
        digests = [state.digest()]
        markers = {}
        stop = "step_limit"
        for t in range(max_steps):
            t0 = _now()
            a0 = ns["state.active_sites"]
            matches = applicable(state, FORWARD, rs)
            t1 = _now()
            ns["rules.applicable.fwd"] += (t1 - t0) - (
                ns["state.active_sites"] - a0)
            if not matches:
                self.step_ns += t1 - t0
                stop = "dead_end"
                break
            if len(matches) > 1:
                raise Ambiguous(state, matches, FORWARD)
            m = matches[0]
            g0 = self.gate_calls
            state = apply(state, m)
            t2 = _now()
            ns["rules.apply.gate" if self.gate_calls != g0
               else "rules.apply.rewrite"] += t2 - t1
            self.labels.append(m.label)
            self.sites.append(m.site)
            markers.setdefault(m.label, []).append(t)
            t3 = _now()
            dg = state.digest()
            t4 = _now()
            ns["state.digest"] += t4 - t3
            if check_uog:
                if dg in seen:
                    self.uog_violations.append((t + 1, "configuration repeats"))
                a0 = ns["state.active_sites"]
                rev = applicable(state, REVERSE, rs)
                t5 = _now()
                ns["rules.applicable.rev"] += (t5 - t4) - (
                    ns["state.active_sites"] - a0)
                if len(rev) != 1:
                    self.uog_violations.append(
                        (t + 1, f"{len(rev)} reverse matches"))
            seen.add(dg)
            digests.append(dg)
            self.step_ns += _now() - t0
            self.steps += 1
        return state, stop

    def metrics(self, chain: str, untraced_step_s: float) -> dict:
        """Per-step span means (us), coverage, overhead and counts."""
        steps = max(self.steps, 1)
        out = {f"{name}.us.{chain}": ns / steps / 1e3
               for name, ns in self.ns.items()}
        covered = sum(self.ns.values())
        out[f"engine.self.us.{chain}"] = (self.step_ns - covered) / steps / 1e3
        out[f"trace.coverage.{chain}"] = covered / self.step_ns
        out[f"trace.overhead.{chain}"] = (
            self.step_ns / steps / 1e9) / untraced_step_s
        out[f"engine.steps.{chain}"] = self.steps
        out[f"rules.candidates_per_step.{chain}"] = self.candidates_fwd / steps
        out[f"rules.match_yield.{chain}"] = self.steps / max(
            self.candidates_fwd, 1)
        out[f"state.gate_calls.{chain}"] = self.gate_calls
        return out
