import os
import time

import pytest

from hqca import (StepBudget, active_sites, build_initial, clock_value,
                  parse_instance_text, run)
from hqca.cli import main

TIER1 = """n=3
k=2
round 1: W S
round 2: S W
work=000
construction=I
"""

TIER2 = TIER1.replace("construction=I", "construction=II")

TIER3 = TIER1.replace("construction=I", "construction=III")

TIER4 = TIER1.replace("construction=I",
                      "construction=IV\ntarget=3\nbullet_offset=3")


def write(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_compile_prints_start_state(tmp_path, capsys):
    rc = main(["compile", write(tmp_path, TIER1)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "P: → S W I I W S I • • • • • •" in out
    assert "D: 1 0 0 0 1 ? ? ? 1 0 0 0 1 0" in out
    assert "total 20, quoted 20: MATCH" in out


def test_compile_tier3_audit_flags(tmp_path, capsys):
    rc = main(["compile", write(tmp_path,
                                TIER1.replace("construction=I",
                                              "construction=III"))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "C: • 0 1 1 1 1 1 1 1 1 1 1 1 1 1 1" in out
    assert "510" in out and "480" in out and "MISMATCH" in out


def test_compile_parse_error_exit_2(tmp_path, capsys):
    rc = main(["compile", write(tmp_path, "n=3\nk=1\nround 1: W\n")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "round 1" in err


def test_run_tier1_summary(tmp_path, capsys):
    rc = main(["run", write(tmp_path, TIER1), "--budget", "500"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "steps=93 status=dead_end" in out


def test_run_tier2_budget(tmp_path, capsys):
    rc = main(["run", write(tmp_path, TIER2), "--budget", "188"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "steps=188 status=step_limit" in out


def test_run_tier4_rx_marker(tmp_path, capsys):
    rc = main(["run", write(tmp_path, TIER4), "--budget", "8000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("marker Rx") == 1
    assert "clock=3" in out


def test_run_trace_deterministic(tmp_path, capsys):
    inst = write(tmp_path, TIER1)
    t1, t2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    main(["run", inst, "--budget", "200", "--trace", str(t1)])
    out1 = capsys.readouterr().out
    main(["run", inst, "--budget", "200", "--trace", str(t2)])
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert t1.read_bytes() == t2.read_bytes()


@pytest.mark.parametrize("text", [TIER3, TIER4], ids=["III", "IV"])
def test_trace_columns_read_each_state(tmp_path, capsys, text):
    inst = write(tmp_path, text)
    trace = tmp_path / "t.tsv"
    assert main(["run", inst, "--budget", "600", "--trace", str(trace)]) == 0
    states = run(build_initial(parse_instance_text(text).spec),
                 StepBudget(600, "dead_end"), keep_states=True).states
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(states) - 1
    for t, line in enumerate(lines):
        _, _, _, active, clock, digest = line.split("\t")
        (_, reg, sym), = active_sites(states[t + 1])
        ck = clock_value(states[t + 1])
        assert active == f"{reg}:{sym}" and clock == str(ck)
        assert digest == f"{states[t + 1].digest():016x}"


def test_run_unwritable_trace_exit_2(tmp_path, capsys):
    trace = tmp_path / "missing" / "t.tsv"
    rc = main(["run", write(tmp_path, TIER1), "--trace", str(trace)])
    captured = capsys.readouterr()
    assert rc == 2
    # the run never started
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_walk_two_site(tmp_path, capsys):
    rc = main(["walk", write(tmp_path, TIER1), "--length", "2",
               "--tau", "1.5707963", "--samples", "100", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    # at tau = pi/2 all probability sits on position 1
    p1 = [l for l in out.splitlines() if l.startswith("1 ")][0]
    assert float(p1.split()[1]) > 1.0 - 1e-9


def test_walk_instance_tau(tmp_path, capsys):
    inst = write(tmp_path, TIER1 + "tau=3.0\n")
    rc = main(["walk", inst, "--length", "4", "--samples", "10"])
    out = capsys.readouterr().out
    assert rc == 0 and "p_tau tau=3.0" in out
    # the flag wins over the key
    rc = main(["walk", inst, "--length", "4", "--samples", "10",
               "--tau", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0 and "p_tau tau=1.0" in out and "tau=3.0" not in out


def test_walk_without_dead_end_exit_2(tmp_path, capsys):
    # tier II never dead-ends, so the budget, not the chain, ends the run
    rc = main(["walk", write(tmp_path, TIER2 + "budget=50\n"),
               "--samples", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "line l=" not in captured.out
    assert "50-step limit" in captured.err and "--length" in captured.err


def test_walk_zero_samples_rejected(tmp_path, capsys):
    rc = main(["walk", write(tmp_path, TIER1), "--length", "4",
               "--samples", "0"])
    assert rc == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that is always full")
def test_run_trace_write_failure_exit_2(tmp_path, capsys):
    # the trace buffer is flushed, and fails, only when the file closes
    rc = main(["run", write(tmp_path, TIER1), "--trace", "/dev/full"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_verify_suites(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "uog"])
    out = capsys.readouterr().out
    assert rc == 0 and "CHECK uog PASS" in out
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "clock",
               "--l-bits", "4"])
    out = capsys.readouterr().out
    assert rc == 0 and "CHECK clock_counter[4b] PASS" in out
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "nonsense"])
    assert rc == 2


def test_run_snapshot_blocks(tmp_path, capsys):
    inst = write(tmp_path, TIER1)
    trace = tmp_path / "t.tsv"
    rc = main(["run", inst, "--snapshot-every", "10", "--trace", str(trace)])
    assert rc == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    # 93 steps: snapshots after steps 10, 20, ..., 90
    assert sum(ln.startswith("P: ") for ln in lines) == 9
    assert sum(ln.startswith("D: ") for ln in lines) == 9
    # the instance key does the same
    rc = main(["run", write(tmp_path, TIER1 + "snapshot_every=10\n", "b.txt"),
               "--trace", str(trace)])
    assert rc == 0
    assert trace.read_text(encoding="utf-8").splitlines() == lines


# `hqca verify --suite all --l-bits 3` stdout, byte for byte
VERIFY_ALL_TIER1 = """\
CHECK uog PASS states=94 clean
CHECK work_oracle PASS min_fidelity=1.000000000000 >=0.9999999999
CHECK clock_counter[3b] PASS increments=7+saturation exact
CHECK comparator[3b] PASS pairs=64 exact
CHECK backend_equivalence PASS steps=93 max|dv|=0.00e+00 <=1e-10
"""

# tier II's start closes a 188-step cycle of classical configurations
# (config_key leaves the work amplitudes out), so verify_uog reports every
# state after the first reset as a repeat
VERIFY_ALL_TIER2 = """\
CHECK uog FAIL states=401 clean
CHECK work_oracle PASS min_fidelity=1.000000000000 >=0.9999999999
CHECK clock_counter[3b] PASS increments=7+saturation exact
CHECK comparator[3b] PASS pairs=64 exact
CHECK backend_equivalence PASS steps=500 max|dv|=0.00e+00 <=1e-10
  (188, 'configuration equals state 0')
  (189, 'configuration equals state 1')
  (190, 'configuration equals state 2')
  (191, 'configuration equals state 3')
  (192, 'configuration equals state 4')
  (193, 'configuration equals state 5')
  (194, 'configuration equals state 6')
  (195, 'configuration equals state 7')
  (196, 'configuration equals state 8')
  (197, 'configuration equals state 9')
"""

VERIFY_ALL_TIER3 = """\
CHECK uog PASS states=3001 clean
CHECK claim_b PASS states=16 k_max=15 min_fidelity=1.000000000000 >=0.9999999999
CHECK clock_counter[3b] PASS increments=7+saturation exact
CHECK comparator[3b] PASS pairs=64 exact
CHECK backend_equivalence PASS steps=500 max|dv|=0.00e+00 <=1e-10
"""

VERIFY_ALL_TIER4 = """\
CHECK uog PASS states=6723 clean
CHECK claim_b PASS states=3 k_max=3 min_fidelity=1.000000000000 >=0.9999999999
CHECK clock_counter[3b] PASS increments=7+saturation exact
CHECK comparator[3b] PASS pairs=64 exact
CHECK backend_equivalence PASS steps=500 max|dv|=0.00e+00 <=1e-10
"""


def test_verify_all_tier1(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, TIER1), "--suite", "all",
               "--l-bits", "3"])
    assert rc == 0
    assert capsys.readouterr() == (VERIFY_ALL_TIER1, "")


def test_verify_all_tier3(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, TIER3 + "budget=3000\n"), "--suite",
               "all", "--l-bits", "3"])
    assert rc == 0
    assert capsys.readouterr() == (VERIFY_ALL_TIER3, "")


def test_verify_all_tier2(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, TIER2 + "budget=400\n"), "--suite",
               "all", "--l-bits", "3"])
    assert rc == 1
    assert capsys.readouterr() == (VERIFY_ALL_TIER2, "")


def test_verify_all_tier4(tmp_path, capsys):
    # the run dead-ends at step 6722, inside the budget
    rc = main(["verify", write(tmp_path, TIER4 + "budget=8000\n"), "--suite",
               "all", "--l-bits", "3"])
    assert rc == 0
    assert capsys.readouterr() == (VERIFY_ALL_TIER4, "")


@pytest.mark.parametrize("text, line", [
    (TIER2, "CHECK work_oracle FAIL min_fidelity=1.000000000000"),
    (TIER3, "CHECK claim_b FAIL states=0 k_max=None"
            " min_fidelity=1.000000000000"),
    (TIER4, "CHECK claim_b FAIL states=0 k_max=None"
            " min_fidelity=1.000000000000"),
], ids=["II", "III", "IV"])
def test_verify_oracle_fails_without_a_checkpoint(tmp_path, capsys, text,
                                                  line):
    # 10 steps end before tier II's first reset (step 188) and before the
    # clearing prefix of tiers III/IV sets the clock: the oracle compares no
    # state
    rc = main(["verify", write(tmp_path, text + "budget=10\n"), "--suite",
               "oracle"])
    assert rc == 1
    assert capsys.readouterr() == (line + " >=0.9999999999\n", "")


def test_missing_file_exit_2(capsys):
    rc = main(["compile", "/nonexistent/instance.txt"])
    assert rc == 2


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setenv("HQCA_OUT", str(out))
    rc = main(["run", write(tmp_path, TIER1), "--budget", "20",
               "--trace", "t.tsv"])
    assert rc == 0
    assert (out / "t.tsv").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "{inst}", "--suite", "clock", "--l-bits", "2"],
    ["verify", "{inst}", "--suite", "comparator", "--l-bits", "0"],
    ["run", "{inst}", "--budget", "-3"],
    ["run", "{inst}", "--budget", "0"],
    ["run", "{inst}", "--snapshot-every", "0"],
    ["walk", "{inst}", "--length", "0"],
    ["walk", "{inst}", "--length", "4", "--samples", "-5"],
    ["walk", "{inst}", "--length", "4", "--seed", "-1"],
    ["walk", "{inst}", "--length", "4", "--tau-star", "-1"],
    ["walk", "{inst}", "--length", "4", "--tau-star", "nan"],
    ["walk", "{inst}", "--length", "4", "--tau-star", "inf"],
    ["walk", "{inst}", "--length", "4", "--fraction", "2"],
    ["walk", "{inst}", "--length", "4", "--fraction", "nan"],
    ["walk", "{inst}", "--length", "4", "--tau", "nan"],
    ["walk", "{inst}", "--length", "4", "--samples", "100000001"],
    ["walk", "{inst}", "--length", "10000001"],
    ["walk", "{inst}", "--length", "100000000000"],
    ["verify", "{inst}", "--suite", "clock", "--l-bits", "64"],
])
def test_bad_numbers_exit_2(tmp_path, capsys, argv):
    inst = write(tmp_path, TIER1)
    rc = main([a.format(inst=inst) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert "CHECK" not in captured.out and "Traceback" not in captured.err


def test_walk_cost_bound_exit_2(tmp_path, capsys):
    # 10^6 positions at the default 10^4 samples would sample for hours
    t0 = time.monotonic()
    rc = main(["walk", write(tmp_path, TIER1), "--length", "1000000"])
    err = capsys.readouterr().err
    assert rc == 2 and time.monotonic() - t0 < 1.0
    assert "10000 samples x line length 1000000" in err
    # without --length the bound applies once the run fixes l = 94
    rc = main(["walk", write(tmp_path, TIER1 + "samples=20000000\n")])
    captured = capsys.readouterr()
    assert rc == 2 and "line l=" not in captured.out
    assert "20000000 samples x line length 94" in captured.err


def test_verify_bad_instance_exit_2(tmp_path, capsys):
    # the backends suite alone used to reach the builder unguarded
    inst = write(tmp_path, TIER4.replace("target=3", "target=0"))
    rc = main(["verify", inst, "--suite", "backends"])
    assert rc == 2
    assert "line 7: target must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("text, line, message", [
    (TIER4.replace("target=3", "target=0"), 7, "target must be >= 1"),
    (TIER4.replace("bullet_offset=3", "bullet_offset=0"), 8,
     "bullet_offset must be >= 1"),
    (TIER4.replace("target=3", "target=999999"), 7,
     "target 999999 with bullet_offset 3 needs 23 sites, chain has 16"),
    (TIER4 + "budget=5\nbudget=7\n", 10, "budget given twice"),
    (TIER4.replace("=IV", "=III").replace("target=3", "target=-5"), 7,
     "target is a tier-IV key"),
    (TIER3 + "bullet_offset=0\n", 7, "bullet_offset is a tier-IV key"),
    (TIER1 + "bullet_offset=4\ntarget=2\n", 7,
     "bullet_offset is a tier-IV key"),
], ids=["target", "bullet_offset", "target_too_wide", "repeated_key",
        "target_off_tier_iv", "bullet_offset_off_tier_iv",
        "first_tier_iv_key_named"])
@pytest.mark.parametrize("argv", [["compile"], ["run"],
                                  ["walk", "--length", "4"], ["verify"]],
                         ids=lambda argv: argv[0])
def test_bad_instance_names_its_line(tmp_path, capsys, text, line, message,
                                     argv):
    inst = write(tmp_path, text)
    rc = main([argv[0], inst] + argv[1:])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    # one error line and no traceback
    assert captured.err.startswith(f"error: {inst}: line {line}: {message}")
    assert captured.err.count("\n") == 1


def test_non_utf8_instance_names_its_line(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    text = TIER1.replace("work=000", "work=0\xe900")  # é in latin-1
    inst.write_bytes(text.encode("latin-1"))
    rc = main(["run", str(inst)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {inst}: line 5: work must be a bitstring\n"


def test_verify_without_a_check_exit_2(tmp_path, capsys):
    # L = 24 is too long for the dense oracle, so the backends suite alone
    # runs no check
    text = TIER3.replace("k=2", "k=3").replace("round 2: S W",
                                               "round 2: S W\nround 3: W W")
    inst = write(tmp_path, text)
    skipped = "backends suite skipped: chain too long for the dense oracle\n"
    rc = main(["verify", inst, "--suite", "backends"])
    assert rc == 2 and capsys.readouterr() == ("", skipped)
    # --suite all still runs its other checks
    inst = write(tmp_path, text + "budget=600\n", "b.txt")
    rc = main(["verify", inst, "--suite", "all", "--l-bits", "3"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == skipped
    assert captured.out.count("CHECK") == 4 and "backend" not in captured.out


@pytest.mark.parametrize("key, value, message", [
    ("budget", "0", "below minimum 1"),
    ("samples", "0", "below minimum 1"),
    ("snapshot_every", "0", "below minimum 1"),
    ("samples", "100000001", "above maximum 100000000"),
], ids=["budget", "samples", "snapshot_every", "samples_above_maximum"])
def test_instance_non_positive_option_exit_2(tmp_path, capsys, key, value,
                                             message):
    inst = write(tmp_path, TIER1 + f"{key}={value}\n")
    rc = main(["run", inst])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 7" in err and message in err


@pytest.mark.parametrize("line", ["tau_star=-3", "tau_star=inf", "tau=nan"])
def test_instance_bad_float_exit_2(tmp_path, capsys, line):
    inst = write(tmp_path, TIER1 + line + "\n")
    rc = main(["walk", inst, "--length", "4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "line 7" in captured.err and "Traceback" not in captured.err
