import contextlib

import numpy as np
import pytest

from hqca import BuildSpec, CircuitProgram, build_initial, worked_example_circuit
from hqca import engine
from hqca.rules import rule_set


@pytest.fixture(scope="session")
def example_circuit():
    return worked_example_circuit()


@pytest.fixture(scope="session")
def random_work():
    """A fixed random 3-qubit work vector shared across tests."""
    rng = np.random.default_rng(20240811)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    return v / np.linalg.norm(v)


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return v / np.linalg.norm(v)


def small_circuit(n, k, seed=0):
    """Arbitrary (but deterministic) circuit of the requested shape."""
    rng = np.random.default_rng(seed + 97 * n + k)
    gates = ("W", "S", "I")
    rounds = tuple(tuple(str(rng.choice(gates)) for _ in range(n - 1))
                   for _ in range(k))
    return CircuitProgram(n, rounds)


def build(tier, circuit, **kw):
    return build_initial(BuildSpec(circuit, tier, **kw))


def first_handback(start):
    """(state, step): the state after a clocked run's first clock hand-back
    (rule 21), which ends the clearing prefix, and the steps to it.  On
    tier IV that prefix is L or L + 2 steps."""
    traj = engine.run(start, engine.StepBudget(3 * start.L, "step_limit"))
    tail = traj.marker_steps("21")[0] + 1
    return traj.state(tail), tail


@contextlib.contextmanager
def every_state(t=None, doctor=None):
    """Inside it, Trajectory._replay yields every state, whatever labels
    its caller watches, and at step t the ChainState doctor(state t): the
    negative controls hand the checks doctored states this way.  Yields
    the list of the watched sets the replays were asked for."""
    replay, asked = engine.Trajectory._replay, []

    def every(traj, n, watched=None):
        asked.append(watched)
        for k, cur in replay(traj, n):
            yield k, doctor(cur.chain_state()) if k == t else cur

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine.Trajectory, "_replay", every)
        yield asked


def _learn_nothing(*_args):
    """What engine._learn does inside single_steps."""


@contextlib.contextmanager
def single_steps(tier):
    """Inside it, run() on the tier's rule set takes one step at a time:
    the rule set's block store is empty and engine._learn learns no
    stretch and composes no replays, so a record made there keeps no
    blocks and its replays take one step at a time too, inside or out.
    The single-step reference for the block memo; the store comes back on
    exit."""
    rs = rule_set(tier)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rs, "blocks", {})
        m.setattr(rs, "stretches", set())
        m.setattr(engine, "_learn", _learn_nothing)
        yield rs


def stepped(start, budget, check_uog=False):
    """run() one step at a time (see single_steps)."""
    with single_steps(start.tier):
        return engine.run(start, budget, check_uog=check_uog)
