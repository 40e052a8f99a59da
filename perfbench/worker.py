"""One fresh-interpreter repetition of a benchmark workload.

    python3 perfbench/worker.py <workload> --seed N --mode setup|rep|trace
        --workdir DIR

run.py starts this with PYTHONPATH pointing at the checkout's src/ and
BLAS threads pinned to 1.  It prints one JSON object as its last line:

  setup        cold `import hqca` (with hqca.cli), first rule_set(tier)
               and build_initial of the workload's first chain, in seconds,
               and the reference-loop time measured right after them
  maxrss_mb    this process's peak resident set size
  ops          one record per timed call into hqca and its verdict
  parts        the parts of the workload's job, {name: {size, raw, scaled}}:
               raw holds the measured time of one unit (a chain step, or a
               whole call) per timed call, scaled the same times at the
               reference speed; the job takes `size` units of each part
  stats        implementation-independent text the fingerprint hashes
  never_fired  rule labels of each chain's tier that no step used
  per_layer    trace mode only
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def first_spec(workload, seed, workdir):
    """(tier, BuildSpec) of the chain the workload builds first."""
    import workloads as w
    if workload == "stream":
        chain = w.stream_chains(seed)[0]
        return chain.tier, chain.spec
    if workload == "wide_register":
        spec = w.wide_spec(seed)
        return spec.tier, spec
    if workload == "verify_suite":
        spec = verify_instance(seed, workdir)[1]
        return spec.tier, spec
    from hqca import BuildSpec, worked_example_circuit
    return "III", BuildSpec(worked_example_circuit(), "III")


def cold_setup(workload, seed, workdir, mode):
    """Time the cold import, the first rule_set and the first build_initial.

    The inputs are generated after the import, outside the timed region,
    since that is the benchmark's work.  Returns (start state, setup record,
    Timer).  Only repetitions run the reference loop: traced runs and
    set-up samples report measured times, and the loop's arrays would
    otherwise skew the traced run's RSS growth.
    """
    t0 = time.perf_counter()
    import hqca  # the package under test, imported for the first time here
    import hqca.cli  # noqa: F401  (imported for its import cost)
    import_s = time.perf_counter() - t0
    tier, spec = first_spec(workload, seed, workdir)
    t1 = time.perf_counter()
    hqca.rule_set(tier)
    t2 = time.perf_counter()
    start = hqca.build_initial(spec)
    t3 = time.perf_counter()
    from reference import Timer
    timer = Timer(loops=mode == "rep")
    return start, {"rules.rule_set.s": t2 - t1,
                   "builder.build_initial.s": t3 - t2,
                   "setup_s": import_s + (t3 - t1),
                   "ref_s": timer.last if timer.loops else None}, timer


class Result:
    def __init__(self, setup):
        self.setup = setup
        self.ops = []
        self.parts = {}
        self.stats = []
        self.never_fired = {}
        self.per_layer = {}

    def add_sample(self, part, size, raw, ref):
        from reference import REF_S
        entry = self.parts.setdefault(part, {"size": size, "raw": [],
                                             "scaled": []})
        entry["raw"].append(raw)
        entry["scaled"].append(raw * REF_S / ref)

    def as_dict(self):
        import numpy
        import scipy
        return {"setup": self.setup, "maxrss_mb": maxrss_mb(),
                "ops": [op.as_dict() for op in self.ops],
                "parts": self.parts,
                "stats": "".join(self.stats),
                "never_fired": self.never_fired,
                "per_layer": self.per_layer,
                "versions": {"python": sys.version.split()[0],
                             "numpy": numpy.__version__,
                             "scipy": scipy.__version__}}


# -- chains: stream and wide_register ----------------------------------------


class ChainRun:
    """A chain streamed as consecutive engine.run calls of `chunk` steps.

    Each call is one operation and one timing sample (time per step).  The
    firing histogram, step count, stop reason and final state are those of
    a single run over the whole chain.
    """

    def __init__(self, name):
        self.name = name
        self.n_steps = 0
        self.stop_reason = None
        self.final = None
        self.hist = {}
        self.samples = []  # (raw seconds per step, reference seconds)
        self.wall_s = 0.0  # measured seconds of all calls
        self.labels, self.sites = [], []

    def stream(self, res, timer, start, max_steps, chunk, check_uog=False,
               keep_path=False, check_chunk=None):
        """False when a call raised or an oracle rejected it."""
        import workloads as w
        from hqca import StepBudget, run
        state = start
        while self.n_steps < max_steps:
            op = w.Op(self.name)
            res.ops.append(op)
            with w.guarded(op):
                budget = StepBudget(min(chunk, max_steps - self.n_steps),
                                    "step_limit")
                traj, op.wall_s, ref = timer.time(lambda: run(
                    state, budget, keep_states=False, check_uog=check_uog))
                if traj.uog_violations:
                    op.fail(f"uog violations {traj.uog_violations[:2]}")
                if check_chunk is not None:
                    check_chunk(traj, op)
            if not op.ok:
                return False
            self.wall_s += op.wall_s
            if traj.n_steps:
                self.samples.append((op.wall_s / traj.n_steps, ref))
            self.n_steps += traj.n_steps
            self.stop_reason = traj.stop_reason
            w.merge_hist(self.hist, w.histogram(traj))
            if keep_path:
                self.labels.extend(traj.labels)
                self.sites.extend(traj.sites)
            state = traj.final
            if traj.stop_reason == "dead_end":
                break
        self.final = state
        return True

    def report(self, res, tier):
        import workloads as w
        for raw, ref in self.samples:
            res.add_sample(self.name, self.n_steps, raw, ref)
        res.stats.append(w.chain_stats(self.name, self.n_steps,
                                       self.stop_reason, self.hist,
                                       self.final))
        res.never_fired[self.name] = [tier] + w.never_fired(tier, self.hist)


def stream(seed, mode, workdir):
    start0, setup, timer = cold_setup("stream", seed, workdir, mode)
    import workloads as w
    from hqca import build_initial, rule_set
    res = Result(setup)
    rates = {}
    for i, chain in enumerate(w.stream_chains(seed)):
        start = start0 if i == 0 else build_initial(chain.spec)
        cr = ChainRun(chain.name)
        rss0 = maxrss_mb()
        # the traced run compares against one untraced call over the chain
        chunk = chain.max_steps if mode == "trace" else chain.chunk
        if not cr.stream(res, timer, start, chain.max_steps, chunk,
                         chain.check_uog, keep_path=mode == "trace"):
            continue
        with w.guarded(res.ops[-1]):
            w.check_stream(chain, cr, res.ops[-1])
        cr.report(res, chain.tier)
        if mode == "trace":
            rates[chain.name] = cr.n_steps / cr.wall_s
            if i == 0:
                res.per_layer[f"engine.rss_b_per_step.{chain.name}"] = (
                    (maxrss_mb() - rss0) * 2 ** 20 / max(cr.n_steps, 1))
            trace_chain(res, cr, rule_set(chain.tier), start,
                        chain.max_steps, chain.check_uog)
    for name, rate in rates.items():
        res.per_layer[f"engine.steps_per_s.{name}"] = rate
    if "t3_L16" in rates and "t3_L169" in rates:
        res.per_layer["engine.L_scaling"] = rates["t3_L16"] / rates["t3_L169"]
    return res


def trace_chain(res, cr, rs, start, max_steps, check_uog):
    """Traced rerun of a chain; it must retrace the untraced labels and sites."""
    import workloads as w
    from spans import StepTracer
    op = w.Op(f"trace.{cr.name}")
    res.ops.append(op)
    with w.guarded(op):
        tracer = StepTracer(rs)
        t0 = w.now()
        final, stop = tracer.run(start, max_steps, check_uog)
        op.wall_s = w.now() - t0
        if tracer.labels != cr.labels or tracer.sites != cr.sites:
            op.fail("traced loop diverged from engine.run's labels and sites")
        if stop != cr.stop_reason:
            op.fail(f"traced loop stopped by {stop}, engine.run by"
                    f" {cr.stop_reason}")
        if final.snapshot() != cr.final.snapshot():
            op.fail("traced loop ended in another state than engine.run")
        if tracer.uog_violations:
            op.fail(f"traced uog violations {tracer.uog_violations[:2]}")
        res.per_layer.update(tracer.metrics(cr.name, cr.wall_s / cr.n_steps))
        res.per_layer[f"state.work_amps.{cr.name}"] = len(start.work.amps)


def wide_register(seed, mode, workdir):
    start, setup, timer = cold_setup("wide_register", seed, workdir, mode)
    import numpy as np
    import workloads as w
    from hqca import apply_circuit_power, rule_set
    spec = w.wide_spec(seed)
    res = Result(setup)
    op = w.Op("period")
    res.ops.append(op)
    with w.guarded(op):
        w.check_wide_period(start, op)
    period = w.wide_period()
    expect = np.array(spec.work, dtype=complex)

    def check_cycle(traj, op):
        nonlocal expect
        expect = apply_circuit_power(expect, spec.circuit, 1)
        w.check_wide_cycle(start, traj.final, expect, op)

    cr = ChainRun("wide_N16")
    if cr.stream(res, timer, start, period * w.WIDE_CYCLES, period,
                 keep_path=mode == "trace", check_chunk=check_cycle):
        cr.report(res, "II")
        if mode == "trace":
            res.per_layer["engine.steps_per_s.wide_N16"] = (
                cr.n_steps / cr.wall_s)
            trace_chain(res, cr, rule_set("II"), start, cr.n_steps, False)
    return res


# -- verify_suite ------------------------------------------------------------------------


def verify_instance(seed, workdir):
    """Write the seeded instance file; every worker writes the same text."""
    from hqca.builder import parse_instance_file
    from workloads import verify_instance_text
    path = os.path.join(workdir, VERIFY_INSTANCE)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(verify_instance_text(seed))
    return path, parse_instance_file(path).spec


VERIFY_INSTANCE = "instance.txt"
# the calls cmd_verify makes, by their name in hqca.cli, and their spans
VERIFY_CALLS = {"run": "verify.run_keep_states.s",
                "verify_uog": "engine.verify_uog.s",
                "check_claim_b": "verify.check_claim_b.s",
                "check_clock_counter": "verify.check_clock_counter.s",
                "check_comparator": "verify.check_comparator.s",
                "cross_check_backends": "verify.cross_check_backends.s"}


def verify_suite(seed, mode, workdir):
    """One `hqca verify --suite all`; each call cmd_verify makes is timed
    on its own, with the reference loop after it."""
    _start, setup, timer = cold_setup("verify_suite", seed, workdir, mode)
    import workloads as w
    from hqca import cli
    instance = os.path.join(workdir, VERIFY_INSTANCE)
    res = Result(setup)
    samples, runs = [], []
    orig = {name: getattr(cli, name) for name in VERIFY_CALLS}

    def timed(name, fn):
        def call(*args, **kwargs):
            out, raw, ref = timer.time(lambda: fn(*args, **kwargs))
            samples.append((VERIFY_CALLS[name], raw, ref))
            if name == "run":  # for the fingerprint and rule coverage
                runs.append(out)
            return out
        return call

    for name, fn in orig.items():
        setattr(cli, name, timed(name, fn))
    op = w.Op("verify")
    res.ops.append(op)
    try:
        with w.guarded(op):
            def whole():
                loops0 = timer.loop_s
                out = w.call_verify(instance)
                return out, timer.loop_s - loops0

            ((code, text), inner_loops), op.wall_s, ref = timer.time(whole)
            # argument parsing, instance loading and report printing
            samples.append(("verify.rest.s", op.wall_s - inner_loops
                            - sum(raw for _, raw, _ in samples), ref))
            w.check_verify_output(code, text, op)
            if len(runs) != 1:
                op.fail(f"{len(runs)} engine runs, expected 1")
    finally:
        for name, fn in orig.items():
            setattr(cli, name, fn)
    if op.ok:
        for name, raw, ref in samples:
            res.add_sample(name, 1, raw, ref)
        traj = runs[0]
        hist = w.histogram(traj)
        checks = "".join(ln + "\n" for ln in text.splitlines()
                         if ln.startswith("CHECK "))
        res.stats.append(w.chain_stats("verify_run", traj.n_steps,
                                       traj.stop_reason, hist, traj.final)
                         + checks)
        res.never_fired["verify_run"] = [traj.start.tier] + w.never_fired(
            traj.start.tier, hist)
    if mode == "trace":
        res.per_layer.update({name: raw for name, raw, _ in samples
                              if name != "verify.rest.s"})
    return res


# -- walk_envelope ------------------------------------------------------------------------


def walk_envelope(seed, mode, workdir):
    _start, setup, timer = cold_setup("walk_envelope", seed, workdir, mode)
    import workloads as w
    res = Result(setup)
    samples = []

    def timed(name, fn):
        out, raw, ref = timer.time(fn)
        samples.append((name, raw, ref))
        return out

    op = w.Op("walk")
    res.ops.append(op)
    with w.guarded(op):
        result = w.walk_fits(seed, timed)
        op.wall_s = sum(raw for _, raw, _ in samples)
        rng = w.rng_for(seed, 8)
        tolerances = [w.walk_tv_tolerance(line, w.WALK_TAU_FACTOR * line.l,
                                          rng)
                      for line in w.walk_lines(w.WALK_FIT_LENGTHS)]
        w.check_walk(result, tolerances, op)
        res.stats.append(w.walk_stats(result))
    if op.ok:
        for name, raw, ref in samples:
            res.add_sample(name, 1, raw, ref)
    if mode == "trace":
        res.per_layer.update({name: raw for name, raw, _ in samples})
        lmax = w.WALK_TRACE_ONLY_LENGTH
        t0 = w.now()
        w.walk_exact_tv(lmax)
        res.per_layer[f"walk.exact_quadrature.s.l{lmax}"] = w.now() - t0
        res.per_layer["walk.samples"] = (2 * len(w.WALK_FIT_LENGTHS)
                                         * w.WALK_SAMPLES)
        res.per_layer["walk.exact_quadrature.kernel_bytes"] = 16 * lmax * lmax
    return res


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("stream", "wide_register",
                                             "verify_suite", "walk_envelope"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "rep", "trace"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":  # a fresh interpreter for one more set-up time
        res = Result(cold_setup(args.workload, args.seed, args.workdir,
                                args.mode)[1])
    else:
        job = {"stream": stream, "wide_register": wide_register,
               "verify_suite": verify_suite, "walk_envelope": walk_envelope}
        res = job[args.workload](args.seed, args.mode, args.workdir)
    print(json.dumps(res.as_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
