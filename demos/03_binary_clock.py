"""The binary clock: counting applications to orthogonalize the history.

Two extra registers hold a binary counter and a pointer that increments it
after every circuit application.  The pointer walks left over carry runs,
flips the landing pair, and sweeps back clearing the carried 1s; all of it
in the same two-site rewrite discipline, so the whole run stays a single
unique forward path.

Whenever the pointer completes in C mode and the clock reads k, the work
register is guaranteed to hold exactly k circuit applications.
"""

import numpy as np

from hqca import (BuildSpec, StepBudget, build_initial, clock_value, run,
                  worked_example_circuit)
from hqca.verify import check_claim_b, clock_increment

print("standalone increments (pointer path shown as rule labels):")
for bits in ("0110", "0101", "0111", "1111"):
    new, labels, _ = clock_increment(bits)
    print(f"  {bits} -> {new or 'saturated'}  via {labels}")

circuit = worked_example_circuit()
rng = np.random.default_rng(2)
w = rng.normal(size=8) + 1j * rng.normal(size=8)
w /= np.linalg.norm(w)

state = build_initial(BuildSpec(circuit, "III", w))
print("\nclocked start state (program parked right, clock pre-loaded):")
print(state.snapshot())

# the clock first reads 9, with the pointer in C mode, after 1739 steps
traj = run(state, StepBudget(1739, "step_limit"))
print(f"\n{traj.n_steps} steps to reach clock 9;"
      f" final clock: {clock_value(traj.final)}")
res = check_claim_b(traj, circuit)
print(res.line())
