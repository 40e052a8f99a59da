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


def feed_states(check, traj, states):
    """check, fed states[1:] with traj's labels as verify feeds a replay
    of traj: the negative controls pass it doctored states."""
    for t in range(1, len(states)):
        check.step(t, states[t], traj.labels[t - 1])
    return check


def _learn_nothing(_store, cur, *_args):
    cur.rec = []  # what engine._learn empties, with no block built


@contextlib.contextmanager
def single_steps(tier):
    """Inside it, run() and every replay on the tier's rule set take one
    step at a time: the rule set's block store is empty and engine._learn
    learns nothing.  The single-step reference for the block memo; the
    store comes back on exit."""
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
