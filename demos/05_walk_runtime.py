"""Run-time analysis: the trajectory is a quantum walk on a line.

Because every state has exactly one forward and one reverse transition,
the chain dynamics restricted to the reachable states is the walk on a
path graph.  Evolution is exact (eigenbasis / fast sine transform); the
time-averaged position distribution converges to the limiting one at rate
l/tau*, and measuring at a uniformly random time lands in the far fraction
F of the line with probability at least F minus fitted l/tau* and 1/l
corrections.
"""

import numpy as np

from hqca import (BuildSpec, StepBudget, WalkLine, build_initial, clock_value,
                  evolve, fit_success_envelope, fit_tv_envelope,
                  limiting_distribution, run, simulate_measurement,
                  time_averaged_distribution, worked_example_circuit)
from hqca.walk import exact_time_averaged_distribution

rng = np.random.default_rng(0)

line = WalkLine(64)
print("norm after a long evolution:",
      np.linalg.norm(evolve(line, 1e6)))

pi = limiting_distribution(line)
for tau_star in (100.0, 1000.0, 10000.0):
    avg = time_averaged_distribution(line, tau_star, 4000, rng)
    exact = exact_time_averaged_distribution(line, tau_star)
    print(f"tau*={tau_star:>7}: TV(mc)={avg.total_variation(pi):.5f}"
          f"  TV(quadrature)={exact.total_variation(pi):.6f}")

lines = [WalkLine(l) for l in (16, 64, 256)]
c, tvs, _ = fit_tv_envelope(lines, 100.0, 10 ** 4, rng)
print(f"\nfitted TV envelope constant c = {c:.3f} (TV <= c*l/tau*)")
fit = fit_success_envelope(lines, 0.5, 100.0, 10 ** 4, rng)
print(f"success envelope: F - p* <= {fit['c1']:.3g}*l/tau* + {fit['c2']:.3g}/l")

# measurement protocol on a real trajectory: uniform time, then read the
# clock; with the target matched the far region all reads the target value
circuit = worked_example_circuit()
spec = BuildSpec(circuit, "IV", "000", target_x=3, bullet_offset=3)
traj = run(build_initial(spec), StepBudget(10 ** 5, "dead_end"))
l = len(traj)
# one replay reads every state; each measurement's state(t) replays the
# run's blocks from the start, and no read keeps a state
frozen = sum(clock_value(s) == 3 for s in traj.iter_states()) / l
hits = 0
trials = 300
for seed in range(trials):
    tau = np.random.default_rng(seed).uniform(0, 30.0 * l)
    m, state, k = simulate_measurement(traj, tau, np.random.default_rng(seed))
    hits += (k == 3)
print(f"\ntrajectory length {l}; frozen fraction {frozen:.3f}")
print(f"measured clock == target in {hits}/{trials} uniform-time trials")
