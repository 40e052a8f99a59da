"""Command-line front end: compile, run, walk and verify over instance files.

Exit codes: 0 success, 1 verification failure, 2 input error.  Output is
deterministic for a fixed instance file and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .builder import (NUMBER_KEYS, InstanceParseError, build_initial,
                      parse_instance_file, parse_number)
from .engine import (Ambiguous, StepBudget, Trajectory, clock_value, run,
                     write_trace)
from .rules import NonClassicalGateError
from .state import validate_config
from .symbols import format_dimension_audit
from .verify import (MAX_DENSE_SITES, check_claim_b, check_clock_counter,
                     check_comparator, cross_check_backends, format_report,
                     verify_uog)
from .walk import (WalkDistribution, WalkLine, distribution_dump,
                   limiting_distribution, position_distribution,
                   time_averaged_distribution)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2

# cap on samples x line length for `hqca walk`.  A sample costs
# O(l log l), so the cap sets no time: one sample took 0.46-0.64 s at
# l = 10^6 (2-core x86_64 VM, one BLAS thread), and the longest accepted
# walks sample for about ten minutes
MAX_POSITION_SAMPLES = 10 ** 9

# cap on --l-bits.  The clock suite walks all 2^l_bits - 1 increments, and
# every 2 more bits cost about 4x: 16 bits took 2.3 s (2-core x86_64 VM)
MAX_CLOCK_BITS = 16

SUITES = ("uog", "oracle", "clock", "comparator", "backends")


def _number(*bounds):
    """argparse type: builder.parse_number(text, kind, low, high)."""
    def parse(text: str):
        try:
            return parse_number(text, *bounds)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return parse


def _out_path(path: str) -> str:
    """Relative output files land in $HQCA_OUT when it is set."""
    base = os.environ.get("HQCA_OUT")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load(path):
    try:
        return parse_instance_file(path)
    except InstanceParseError as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def cmd_compile(args) -> int:
    instance = _load(args.instance)
    state = build_initial(instance.spec)
    print(state.snapshot())
    print(format_dimension_audit(instance.spec.tier))
    violations = validate_config(state)
    if violations:
        print("invalid configuration:", "; ".join(violations), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("configuration valid")
    return EXIT_OK


def cmd_run(args) -> int:
    instance = _load(args.instance)
    state = build_initial(instance.spec)
    budget = StepBudget(args.budget or instance.options.get("budget", 10 ** 6),
                        "dead_end")
    every = args.snapshot_every or instance.options.get("snapshot_every")
    try:  # a trace that cannot be opened, written or closed is an input error
        with (open(_out_path(args.trace), "w", encoding="utf-8")
              if args.trace else contextlib.nullcontext()) as fh:
            try:
                traj, err = run(state, budget), None
            except (Ambiguous, NonClassicalGateError) as fault:
                traj, err = fault.traj, fault  # traced up to its state
            if fh:
                write_trace(fh, traj, every)
    except OSError as oserr:
        print(f"error: {oserr}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if err is not None:
        raise err  # reported by main, after the trace is written
    ck = clock_value(traj.final)
    print(f"steps={traj.n_steps} status={traj.stop_reason}"
          f" clock={ck if ck is not None else '-'}")
    match = Trajectory.EVENT_LABELS["compare_match"]
    for t in sorted(traj.marker_steps(*match),  # one pass, label by label
                    key=lambda t: match.index(traj.labels[t])):
        print(f"marker Rx rule {traj.labels[t]} at step {t}")
    return EXIT_OK


def cmd_walk(args) -> int:
    instance = _load(args.instance)
    opts = instance.options
    samples = args.samples or opts.get("samples", 10 ** 4)
    if args.length:
        l = args.length
    else:
        state = build_initial(instance.spec)
        budget = StepBudget(opts.get("budget", 10 ** 6), "dead_end")
        traj = run(state, budget)
        if traj.stop_reason != "dead_end":
            print(f"error: the run reached its {budget.max_steps}-step limit"
                  " before a dead end; give --length", file=sys.stderr)
            return EXIT_INPUT_ERROR
        l = traj.n_steps + 1
    if samples * l > MAX_POSITION_SAMPLES:
        print(f"error: {samples} samples x line length {l} exceeds"
              f" {MAX_POSITION_SAMPLES} position-samples", file=sys.stderr)
        return EXIT_INPUT_ERROR
    line = WalkLine(l)
    rng = np.random.default_rng(args.seed if args.seed is not None
                                else opts.get("seed", 0))
    print(f"line l={l}")
    tau = args.tau if args.tau is not None else opts.get("tau")
    if tau is not None:
        p_tau = WalkDistribution(position_distribution(line, tau))
        print(f"p_tau tau={tau}\n{distribution_dump(p_tau)}")
    tau_star = args.tau_star if args.tau_star is not None else \
        opts.get("tau_star", 100.0 * l)
    avg = time_averaged_distribution(line, tau_star, samples, rng)
    pi = limiting_distribution(line)
    tv = avg.total_variation(pi)
    far = avg.far_mass(args.fraction)
    print(f"tau_star={tau_star} samples={samples}")
    print(f"tv_to_limiting={tv:.6f}")
    print(f"p_star(F={args.fraction})={far:.6f} deficit={args.fraction - far:.6f}")
    if args.dump:
        print(distribution_dump(avg))
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = _load(args.instance)
    spec = instance.spec
    wanted = SUITES if args.suite == "all" else (args.suite,)
    results = []
    state = build_initial(spec)
    budget = StepBudget(instance.options.get("budget", 200_000), "dead_end")
    if {"uog", "oracle"} & set(wanted):
        traj = run(state, budget, check_uog="uog" in wanted)
        if "uog" in wanted:
            results.append(verify_uog(traj))
        if "oracle" in wanted:
            results.append(check_claim_b(traj, spec.circuit))
    if "clock" in wanted:
        results.append(check_clock_counter(args.l_bits))
    if "comparator" in wanted:
        results.append(check_comparator(min(args.l_bits, 4)))
    if "backends" in wanted:
        if state.L <= MAX_DENSE_SITES:
            results.append(cross_check_backends(spec, steps=500))
        else:
            print("backends suite skipped: chain too long for the dense"
                  " oracle", file=sys.stderr)
    if not results:  # the backends suite alone, on a long chain
        return EXIT_INPUT_ERROR
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hqca",
        description="layered qudit-chain automaton simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="build and print the initial state")
    p.add_argument("instance")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="drive the unique forward trajectory")
    p.add_argument("instance")
    for key in ("budget", "snapshot_every"):  # flags of the run options
        p.add_argument("--" + key.replace("_", "-"),
                       type=_number(*NUMBER_KEYS[key]))
    p.add_argument("--trace", help="write a trace file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("walk", help="quantum-walk distributions and bounds")
    p.add_argument("instance")
    for key in ("tau", "tau_star", "samples", "seed"):
        p.add_argument("--" + key.replace("_", "-"),
                       type=_number(*NUMBER_KEYS[key]))
    p.add_argument("--fraction", type=_number(float, 0, 1), default=0.5)
    # a line of 10^7 positions already takes 80 MB per dense vector
    p.add_argument("--length", type=_number(int, 1, 10 ** 7), default=None,
                   help="line length (skip the trajectory run)")
    p.add_argument("--dump", action="store_true")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("instance")
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--l-bits", type=_number(int, 3, MAX_CLOCK_BITS), default=4)
    p.set_defaults(func=cmd_verify)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as err:  # argparse and the input helpers bail out
        return err.code if isinstance(err.code, int) else EXIT_INPUT_ERROR
    except BrokenPipeError:
        return EXIT_OK
    except (Ambiguous, NonClassicalGateError) as err:  # from any command's run
        what = "ambiguous transition: " if isinstance(err, Ambiguous) else ""
        print(f"error: {what}{err}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
