"""Selecting the application count: comparator and the crossed mode.

A target register stores the wanted count in binary.  After every clock
increment the pointer sweeps left comparing clock digits to target digits:
any difference flags CX and computation continues; a full match converts
to the crossed return mode.  From then on every active symbol carries the
cross, the mirrored rules drive the walk forward without ever touching the
data register, and a second clock absorbs the remaining walk length.

The bullet column of the target register bounds that remaining length:
pushing it left (full_width_offset) makes the frozen tail exponentially
long, keeping it near the digits makes the run end quickly.
"""

from hqca import BuildSpec, StepBudget, build_initial, clock_value, run, \
    worked_example_circuit
from hqca.builder import full_width_offset
from hqca.verify import check_posttarget_freeze, comparator_verdict

print("comparator verdicts on a standalone chain (clock vs target):")
for k, x in ((5, 5), (5, 3), (3, 5), (0, 0)):
    verdict, labels = comparator_verdict("0" + format(k, "04b"),
                                         format(x, "04b"))
    print(f"  clock {k} vs target {x}: {verdict}  ({'-'.join(labels)})")

circuit = worked_example_circuit()
spec = BuildSpec(circuit, "IV", "000", target_x=3, bullet_offset=3)
state = build_initial(spec)
print("\ntarget start state (x=3, bullet 3 left of its top 1):")
print(state.snapshot())

traj = run(state, StepBudget(10 ** 5, "dead_end"))
ev = traj.events()
print(f"\nsteps to dead end: {traj.n_steps}")
print(f"failed comparisons at {ev['compare_fail']};"
      f" match at {ev['compare_match']}")
print(f"final clock: {clock_value(traj.final)} (frozen at the target)")

print("\nwith the bullet pushed to full width the frozen tail dominates:")
off = full_width_offset(state.L, 3)
long_spec = BuildSpec(circuit, "IV", "000", target_x=3, bullet_offset=off)
res = check_posttarget_freeze(build_initial(long_spec), 20000)
print(res.line())
