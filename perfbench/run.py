"""hqca benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see BENCHMARK.json):

  stream         engine.run(keep_states=False) on three chains: tier III
                 worked example (L=16) and a random N=4, K=17 circuit
                 (L=169), both with check_uog, and the tier-IV freeze run
                 to its dead end
  wide_register  tier II with 16 work qubits, whole reset cycles
  verify_suite   `hqca verify <instance> --suite all` through cli.main
  walk_envelope  the criterion-10 envelope fits plus exact quadrature

Each repetition runs in a fresh interpreter (perfbench/worker.py) with BLAS
threads pinned to 1; repetitions run one at a time while another one
still fits in S seconds, and extra set-up-only interpreters are started
until there are SETUP_SAMPLES set-up times.  With --trace 0 the last line
carries the end-to-end metrics (medians over repetitions); with --trace 1
one traced repetition gives the per-layer split.  Preceding lines report the sample
counts and quartiles, the simulation fingerprint, rule coverage,
ops_failed_frac and the machine.

The last line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("stream", "wide_register", "verify_suite", "walk_envelope")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run, workers included, ends within this
CHAINS = ("t3_L16", "t3_L169", "t4_freeze", "wide_N16")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict:
    units = {"rules.rule_set.s": "s", "builder.build_initial.s": "s"}
    for c in CHAINS:
        units[f"engine.steps_per_s.{c}"] = "1/s"
        for span in ("state.active_sites", "rules.applicable.fwd",
                     "rules.applicable.rev", "rules.apply.rewrite",
                     "rules.apply.gate", "state.digest", "engine.self"):
            units[f"{span}.us.{c}"] = "us"
        units[f"trace.coverage.{c}"] = "ratio"
        units[f"trace.overhead.{c}"] = "ratio"
        units[f"engine.steps.{c}"] = "count"
        units[f"rules.candidates_per_step.{c}"] = "count/step"
        units[f"rules.match_yield.{c}"] = "ratio"
        units[f"state.gate_calls.{c}"] = "count"
        units[f"state.work_amps.{c}"] = "count"
    units["engine.L_scaling"] = "ratio"
    units["engine.rss_b_per_step.t4_freeze"] = "B/step"
    for name in ("verify.run_keep_states.s", "engine.verify_uog.s",
                 "verify.check_claim_b.s", "verify.check_clock_counter.s",
                 "verify.check_comparator.s",
                 "verify.cross_check_backends.s",
                 "walk.fit_tv_envelope.s", "walk.fit_success_envelope.s"):
        units[name] = "s"
    for l in (16, 64, 256, 512, 1024):
        units[f"walk.exact_quadrature.s.l{l}"] = "s"
    units["walk.samples"] = "count"
    units["walk.exact_quadrature.kernel_bytes"] = "B"
    return units


PER_LAYER = _per_layer_units()


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, mode, workdir, deadline) -> dict:
    """Run one worker to completion and return its JSON record."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload,
           "--seed", str(seed), "--mode", mode, "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} {mode} worker still running after"
                         f" {RUN_LIMIT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload} {mode} worker exited {proc.returncode}:"
                         f" {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name, unit, values):
    q1, q2, q3 = quartiles(values)
    return (f"{name}: median {q2:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g},"
            f" n={len(values)})")


def collect(workload, seed, seconds, trace, workdir):
    """Repetitions while another one fits in the time, then set-up-only
    padding.  At least one repetition runs."""
    records = []
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    if trace:
        records.append(spawn(workload, seed, "trace", workdir, deadline))
    else:
        last = 0.0
        while not records or time.monotonic() - t0 + last <= seconds:
            t1 = time.monotonic()
            records.append(spawn(workload, seed, "rep", workdir, deadline))
            last = time.monotonic() - t1
    setups = [r["setup"] for r in records]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", workdir,
                            deadline)["setup"])
    return records, setups


def job_parts(records):
    """({part: {size, raw, scaled}} pooled over repetitions, whether every
    repetition agreed on the sizes).

    A repetition reports no part whose calls failed.
    """
    parts, agreed = {}, True
    for r in records:
        for name, part in r["parts"].items():
            pooled = parts.setdefault(name, {"size": part["size"], "raw": [],
                                             "scaled": []})
            agreed = agreed and pooled["size"] == part["size"]
            pooled["raw"].extend(part["raw"])
            pooled["scaled"].extend(part["scaled"])
    return parts, agreed


def job_seconds(parts, times) -> float:
    """Sum over the job's parts of size x median unit time."""
    return sum(p["size"] * statistics.median(p[times])
               for p in parts.values())


def fingerprint(records):
    """sha256 of the simulation statistics; None when repetitions disagree."""
    texts = {r["stats"] for r in records}
    if len(texts) != 1:
        return None
    return hashlib.sha256(texts.pop().encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hqca" / "__init__.py").is_file():
        print(f"error: no hqca sources under {ROOT / 'src'}; run from a"
              " source checkout", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".tmp-") as tmp:
        try:
            records, setups = collect(args.workload, args.seed, args.seconds,
                                      bool(args.trace), tmp)
        except ChildError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    load_end = os.getloadavg()

    ops = [op for r in records for op in r["ops"]]
    failed = [op for op in ops if not op["ok"]]
    digest = fingerprint(records)
    correct = not failed and digest is not None
    versions = records[0]["versions"]
    print(f"env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))}"
          f" python={versions['python']} numpy={versions['numpy']}"
          f" scipy={versions['scipy']} machine={platform.machine()}"
          f" loadavg_start={'/'.join(f'{x:.2f}' for x in load_start)}"
          f" loadavg_end={'/'.join(f'{x:.2f}' for x in load_end)}")
    print(f"workload {args.workload} seed={args.seed} trace={args.trace}"
          f" repetitions={len(records)} setup_samples={len(setups)}")
    for op in failed[:10]:
        print(f"FAILED {op['op']}: {op['error']}")
    print(f"ops_failed_frac={len(failed) / len(ops):.6g}"
          f" ({len(failed)}/{len(ops)})")
    if digest is None:
        print("fingerprint MISMATCH: repetitions simulated differently")
    else:
        print(f"fingerprint sha256={digest}")
    coverage = {}
    for r in records:
        coverage.update(r["never_fired"])
    for chain, (tier, *labels) in sorted(coverage.items()):
        print(f"coverage {chain} tier {tier}: {len(labels)} rules never"
              f" fired: {' '.join(labels) or '-'}")

    if args.trace:
        layer = dict.fromkeys(PER_LAYER, 0)
        layer.update(records[0]["per_layer"])
        for key in ("rules.rule_set.s", "builder.build_initial.s"):
            layer[key] = statistics.median(s[key] for s in setups)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    else:
        parts, agreed = job_parts(records)
        if not agreed:
            print("part sizes differ between repetitions")
            correct = False
        for name, p in parts.items():
            for times in ("raw", "scaled"):
                print(describe(f"part {name} x{p['size']} {times}", "s",
                               p[times]))
        print(describe("reference loop", "s", [r["setup"]["ref_s"]
                                               for r in records]))
        raw_s = job_seconds(parts, "raw")
        job_s = job_seconds(parts, "scaled")
        if not job_s:
            correct = False
        print(f"wall_s measured {raw_s:.6g} s, at reference speed"
              f" {job_s:.6g} s")
        samples = {
            "setup_s": [s["setup_s"] for s in setups],
            "peak_rss_mb": [r["maxrss_mb"] for r in records],
        }
        metrics = {"wall_s": {"value": job_s, "unit": "s"}}
        for name, values in samples.items():
            print(describe(name, END_TO_END[name], values))
            metrics[name] = {"value": statistics.median(values),
                             "unit": END_TO_END[name]}
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
