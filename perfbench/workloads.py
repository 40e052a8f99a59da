"""Inputs, oracles and fingerprint text of the four benchmark workloads.

Every input is generated from the run seed; the simulator only ever sees
the generated circuits, work vectors and instance text.  Each timed call
into hqca is one operation (Op) with the verdict of its oracle attached.
An operation fails when it raises or when its oracle rejects the result.

Oracles are computed outside the simulator's rule engine: dense circuit
algebra for work registers, the closed-form cycle length for tier II, the
CHECK lines of `hqca verify`, and a stderr-derived tolerance between the
Monte-Carlo and exact walk averages.
"""

from __future__ import annotations

import contextlib
import io
import time
import traceback

import numpy as np

from hqca import cli
from hqca.builder import BuildSpec, worked_example_circuit
from hqca.circuit import CircuitProgram, apply_circuit_power, fidelity
from hqca.engine import (StepBudget, clock_value, predicted_cycle_steps,
                         run)
from hqca.rules import rule_set
from hqca.walk import (WalkLine, exact_time_averaged_distribution,
                       fit_success_envelope, fit_tv_envelope,
                       limiting_distribution, time_averaged_distribution)

FIDELITY_TOL = 1e-10

# stream: steps per capped chain; t4_freeze always runs to its dead end.
# Chunks are the steps per timed engine.run call, about 0.1 s each.
T3_L16_STEPS, T3_L16_CHUNK = 20_000, 2_000
T3_L169_STEPS, T3_L169_CHUNK = 6_000, 500
T4_CHUNK = 4_000
T4_TARGET = 5
T4_BULLET_OFFSET = 6
T4_MAX_STEPS = 10 ** 6

# wide_register: a tier-II chain with a 2^16-amplitude work register
WIDE_QUBITS = 16
WIDE_CYCLES = 100

# verify_suite: tier-III instance run by `hqca verify --suite all`
VERIFY_QUBITS, VERIFY_DEPTH, VERIFY_BUDGET = 3, 2, 20_000

# walk_envelope: the criterion-10 sweep plus exact quadrature up to l=512.
# The traced run adds one quadrature at l=1024 (about 5 s, two thirds of a
# job) outside the timed job: with it a run holds too few jobs for a
# steady median.
WALK_FIT_LENGTHS = (16, 64, 256)
WALK_EXACT_LENGTHS = (16, 64, 256, 512)
WALK_TRACE_ONLY_LENGTH = 1024
WALK_TAU_FACTOR = 100.0
WALK_SAMPLES = 10 ** 4
WALK_FAR_FRACTION = 0.5
# Monte-Carlo draws used to estimate the per-position stderr for the oracle
WALK_STDERR_SAMPLES = 1_000
WALK_STDERR_Z = 6.0

_RX_LABELS = ("28", "30")


def now():
    return time.perf_counter()


def rng_for(seed: int, part: int) -> np.random.Generator:
    return np.random.default_rng([seed, part])


def random_circuit(rng, n: int, k: int) -> CircuitProgram:
    """Every third gate is I, the others W or S at random.

    W and S cost the same two-qubit kernel call and I none, so every seed
    asks for the same kernel work on the same qubit pairs.
    """
    return CircuitProgram(n, tuple(
        tuple("I" if j % 3 == 2 else str(rng.choice(("W", "S")))
              for j in range(n - 1))
        for _ in range(k)))


def random_vector(rng, n: int) -> np.ndarray:
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


class Op:
    """One timed call into hqca and its oracle verdict."""

    def __init__(self, name):
        self.name = name
        self.wall_s = None
        self.error = None

    def fail(self, message):
        if self.error is None:
            self.error = message

    @property
    def ok(self):
        return self.error is None

    def as_dict(self):
        return {"op": self.name, "ok": self.ok, "error": self.error}


@contextlib.contextmanager
def guarded(op: Op):
    """Record an exception raised by the call or its oracle as a failure."""
    try:
        yield op
    except Exception:  # noqa: BLE001 - any raise is a failed operation
        op.fail(traceback.format_exc(limit=3).strip().splitlines()[-1])


def histogram(traj) -> dict:
    return {label: len(steps) for label, steps in traj.markers.items()}


def chain_stats(name, n_steps, stop_reason, hist, final) -> str:
    """Implementation-independent text describing one simulated chain."""
    rules = " ".join(f"{k}:{hist[k]}" for k in sorted(hist))
    return (f"chain {name}\nsteps {n_steps}\nstop {stop_reason}\n"
            f"rules {rules}\nfinal\n{final.snapshot()}\n")


def never_fired(tier, hist) -> list:
    return [lab for lab in rule_set(tier).labels() if not hist.get(lab)]


def merge_hist(total, hist):
    for k, v in hist.items():
        total[k] = total.get(k, 0) + v


# -- stream ---------------------------------------------------------------------


class StreamChain:
    """A chain of the stream workload, timed in calls of `chunk` steps."""

    def __init__(self, name, spec, max_steps, chunk, check_uog):
        self.name = name
        self.spec = spec
        self.max_steps = max_steps
        self.chunk = chunk
        self.check_uog = check_uog

    @property
    def tier(self):
        return self.spec.tier


def stream_chains(seed: int) -> list:
    """t4_freeze first: its RSS growth is read from a fresh process."""
    example = worked_example_circuit()
    rng4, rng16, rng169 = rng_for(seed, 1), rng_for(seed, 2), rng_for(seed, 3)
    t4 = BuildSpec(example, "IV", random_vector(rng4, 3), target_x=T4_TARGET,
                   bullet_offset=T4_BULLET_OFFSET)
    t16 = BuildSpec(example, "III", random_vector(rng16, 3))
    c169 = random_circuit(rng169, 4, 17)
    t169 = BuildSpec(c169, "III", random_vector(rng169, 4))
    return [
        StreamChain("t4_freeze", t4, T4_MAX_STEPS, T4_CHUNK, False),
        StreamChain("t3_L16", t16, T3_L16_STEPS, T3_L16_CHUNK, True),
        StreamChain("t3_L169", t169, T3_L169_STEPS, T3_L169_CHUNK, True),
    ]


def check_stream(chain: StreamChain, run, op: Op):
    """Whole-chain oracle; run has n_steps, stop_reason, hist and final."""
    if chain.spec.tier == "III":
        if run.n_steps != chain.max_steps or run.stop_reason != "step_limit":
            op.fail(f"stopped at {run.n_steps} ({run.stop_reason})")
        return
    rx = sum(run.hist.get(label, 0) for label in _RX_LABELS)
    if run.stop_reason != "dead_end":
        op.fail(f"stop reason {run.stop_reason}, expected dead_end")
    if rx != 1:
        op.fail(f"{rx} Rx markers, expected 1")
    ck = clock_value(run.final)
    if ck != chain.spec.target_x:
        op.fail(f"final clock {ck}, expected {chain.spec.target_x}")
    expect = apply_circuit_power(np.array(chain.spec.work, dtype=complex),
                                 chain.spec.circuit, chain.spec.target_x)
    f = fidelity(expect, run.final.work.amps)
    if f < 1.0 - FIDELITY_TOL:
        op.fail(f"frozen work fidelity {f:.3e}")


# -- wide_register ------------------------------------------------------------------


def wide_spec(seed: int) -> BuildSpec:
    rng = rng_for(seed, 4)
    return BuildSpec(random_circuit(rng, WIDE_QUBITS, 1), "II",
                     random_vector(rng, WIDE_QUBITS))


def wide_period() -> int:
    return predicted_cycle_steps(WIDE_QUBITS, 1)


def check_wide_period(start, op: Op):
    """The start configuration recurs first after exactly one predicted cycle."""
    period = wide_period()
    returns = []

    def observer(t, state, _match):
        if t and state.config_equal(start):
            returns.append(t)

    run(start, StepBudget(period, "step_limit"), keep_states=False,
        observer=observer)
    if returns != [period]:
        op.fail(f"start configuration recurs at {returns[:4]},"
                f" expected only at {period}")


def check_wide_cycle(start, final, expect, op: Op):
    if not final.config_equal(start):
        op.fail("configuration differs from the start at a cycle boundary")
    f = fidelity(expect, final.work.amps)
    if f < 1.0 - FIDELITY_TOL:
        op.fail(f"work fidelity {f:.3e} at a cycle boundary")


# -- verify_suite ------------------------------------------------------------------


def verify_instance_text(seed: int) -> str:
    rng = rng_for(seed, 5)
    circuit = random_circuit(rng, VERIFY_QUBITS, VERIFY_DEPTH)
    work = "".join(str(b) for b in rng.integers(0, 2, size=VERIFY_QUBITS))
    rounds = "\n".join(f"round {k}: {' '.join(r)}"
                       for k, r in enumerate(circuit.rounds, start=1))
    return (f"n={VERIFY_QUBITS}\nk={VERIFY_DEPTH}\n{rounds}\nwork={work}\n"
            f"construction=III\nbudget={VERIFY_BUDGET}\n")


VERIFY_SUITES = ("uog", "claim_b", "clock_counter", "comparator",
                 "backend_equivalence")


def check_verify_output(code, text, op: Op):
    if code != 0:
        op.fail(f"hqca verify exited {code}")
    checks = [ln.split() for ln in text.splitlines() if ln.startswith("CHECK ")]
    names = tuple(c[1].split("[")[0] for c in checks)
    if names != VERIFY_SUITES:
        op.fail(f"CHECK lines {names}, expected {VERIFY_SUITES}")
    bad = [c[1] for c in checks if c[2] != "PASS"]
    if bad:
        op.fail(f"failed checks {bad}")


def call_verify(path: str):
    """`hqca verify <path> --suite all` in-process: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", path, "--suite", "all"])
    return code, buf.getvalue()


# -- walk_envelope -------------------------------------------------------------------


def walk_tv_tolerance(line, tau_star, rng) -> float:
    """Bound on |TV(MC) - TV(exact)| for a WALK_SAMPLES-sample average.

    |TV(p_hat, pi) - TV(p, pi)| <= sum|p_hat - p| / 2.  With independent
    per-position errors of stderr s_m that sum has mean sqrt(2/pi) sum s_m
    and variance (1 - 2/pi) sum s_m^2; the tolerance adds WALK_STDERR_Z
    standard deviations.  s_m is estimated from WALK_STDERR_SAMPLES draws.
    """
    est = time_averaged_distribution(line, tau_star, WALK_STDERR_SAMPLES, rng)
    s = est.stderr * np.sqrt(WALK_STDERR_SAMPLES / WALK_SAMPLES)
    spread = np.sqrt(2.0 / np.pi) * s.sum() + WALK_STDERR_Z * np.sqrt(
        (1.0 - 2.0 / np.pi) * (s ** 2).sum())
    return 0.5 * float(spread)


def walk_lines(lengths):
    return [WalkLine(l) for l in lengths]


def check_walk(result, tolerances, op: Op):
    """MC TVs agree with exact quadrature; exact and fitted envelopes hold."""
    c, tvs, _ = result["tv_fit"]
    exact = result["exact_tv"]
    for l, tv, tol in zip(WALK_FIT_LENGTHS, tvs, tolerances):
        if abs(tv - exact[l]) > tol:
            op.fail(f"l={l}: MC TV {tv:.3e} vs exact {exact[l]:.3e},"
                    f" tolerance {tol:.3e}")
    for l, tv in exact.items():
        if tv > c / WALK_TAU_FACTOR:
            op.fail(f"l={l}: exact TV {tv:.3e} above the fitted envelope"
                    f" {c / WALK_TAU_FACTOR:.3e}")
    fit = result["success_fit"]
    for d, b in zip(fit["deficits"], fit["bound"]):
        if d > 1.2 * b + 1e-3:
            op.fail(f"success deficit {d:.3e} above bound {b:.3e}")


def walk_stats(result) -> str:
    c, tvs, _ = result["tv_fit"]
    fit = result["success_fit"]
    exact = result["exact_tv"]
    return (f"walk tv_fit c={c:.6g} tvs={[f'{t:.6g}' for t in tvs]}\n"
            f"walk success c1={fit['c1']:.6g} c2={fit['c2']:.6g}"
            f" deficits={[f'{d:.6g}' for d in fit['deficits']]}\n"
            + "".join(f"walk exact l={l} tv={exact[l]:.6g}\n"
                      for l in WALK_EXACT_LENGTHS))


def walk_exact_tv(l: int) -> float:
    line = WalkLine(l)
    dist = exact_time_averaged_distribution(line, WALK_TAU_FACTOR * l)
    return dist.total_variation(limiting_distribution(line))


def walk_fits(seed: int, timer):
    """The criterion-10 sweep plus quadrature; timer(name, fn) makes each
    call."""
    lines = walk_lines(WALK_FIT_LENGTHS)
    rng_tv, rng_success = rng_for(seed, 6), rng_for(seed, 7)
    tv_fit = timer("walk.fit_tv_envelope.s", lambda: fit_tv_envelope(
        lines, WALK_TAU_FACTOR, WALK_SAMPLES, rng_tv))
    success_fit = timer("walk.fit_success_envelope.s",
                        lambda: fit_success_envelope(
                            lines, WALK_FAR_FRACTION, WALK_TAU_FACTOR,
                            WALK_SAMPLES, rng_success))
    exact = {}
    for l in WALK_EXACT_LENGTHS:
        exact[l] = timer(f"walk.exact_quadrature.s.l{l}",
                         lambda l=l: walk_exact_tv(l))
    return {"tv_fit": tv_fit, "success_fit": success_fit, "exact_tv": exact}
