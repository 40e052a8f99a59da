"""Initial chain states for the four construction tiers.

Tier I lays the program behind a right arrow and pads the data register so
that turning points see a 1 exactly when a gate round is aligned with the
work qubits.  Tier II wraps the chain in turn sentinels so the program can
reset without undoing gates.  Tier III parks the program at the right end
and adds the clock and clock-pointer registers, pre-loaded so that the only
forward path first zeroes the clock.  Tier IV adds the target register
(binary target count, bullet-padded) and the second clock whose bullet
boundary is tied to the target's, which is what bounds the post-target walk
length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitProgram, basis_state
from .state import NORM_TOL, ChainState, WorkState
from .symbols import (BULLET, C, C2, CP, D, GATES, P, QUANTUM, T, TIERS,
                      TURN)


class BuildError(ValueError):
    pass


def chain_length(tier: str, n_qubits: int, depth: int) -> int:
    """Number of chain sites for a depth-K circuit on N qubits."""
    if n_qubits < 2 or depth < 1:
        raise BuildError("need N >= 2 and K >= 1")
    base = (2 * depth - 1) * (n_qubits + 1) + 2
    return base if tier == "I" else base + 2


def work_window(tier: str, n_qubits: int, depth: int) -> range:
    """1-indexed site range of the N work qubits in the data register."""
    start = (depth - 1) * (n_qubits + 1) + 2
    if tier != "I":
        start += 1  # one sentinel site added on the left
    return range(start, start + n_qubits)


@dataclass(frozen=True)
class BuildSpec:
    circuit: CircuitProgram
    tier: str
    work: str | np.ndarray = None  # bitstring or dense 2^N vector; default 0^N
    target_x: int = None           # tier IV only
    bullet_offset: int = 3         # sites between target bullet and its MSB

    def work_state(self, support) -> WorkState:
        n = self.circuit.n_qubits
        if self.work is None:
            return WorkState(support, basis_state("0" * n))
        if isinstance(self.work, str):
            if len(self.work) != n or set(self.work) - {"0", "1"}:
                raise BuildError(f"work bits must be {n} bits")
            return WorkState(support, basis_state(self.work))
        amps = np.asarray(self.work, dtype=complex)
        if amps.shape != (2 ** n,):
            raise BuildError("work vector dimension mismatch")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise BuildError("work vector must be normalized")
        return WorkState(support, amps)


def _data_row_tier_I(n: int, k: int) -> list:
    # (1 0^N)^(K-1) 1 | work | 1 (0^N 1)^(K-1) 0
    row = list(("1" + "0" * n) * (k - 1)) + ["1"]
    row += [QUANTUM] * n
    row += ["1"] + list(("0" * n + "1") * (k - 1)) + ["0"]
    return row


def build_initial(spec: BuildSpec) -> ChainState:
    """The start state of the requested tier; always passes validate_config."""
    n, k = spec.circuit.n_qubits, spec.circuit.depth
    tier = spec.tier
    length = chain_length(tier, n, k)
    program = list(spec.circuit.program_string())
    window = work_window(tier, n, k)
    support = tuple(window)

    if tier == "I":
        p_row = ["→"] + program
        p_row += [BULLET] * (length - len(p_row))
        d_row = _data_row_tier_I(n, k)
        rows = {P: tuple(p_row), D: tuple(d_row)}
    elif tier in ("II", "III", "IV"):
        d_row = ["0"] + _data_row_tier_I(n, k) + ["0"]
        if tier == "II":
            p_row = [TURN, "→"] + program
            p_row += [BULLET] * (length - 1 - len(p_row)) + [TURN]
        else:
            # park the program against the right sentinels
            start = length - k * (n + 1)
            tail = [TURN, TURN] if tier == "III" else ["←", TURN]
            p_row = ([TURN] + [BULLET] * (start - 2) + program + tail)
        rows = {P: tuple(p_row), D: tuple(d_row)}
    else:
        raise BuildError(f"unknown tier {tier!r}")

    if tier == "III":
        rows[C] = tuple([BULLET, "0"] + ["1"] * (length - 2))
        rows[CP] = tuple([BULLET, "R"] + [BULLET] * (length - 2))
    elif tier == "IV":
        rows[C] = tuple([BULLET] + ["0"] * (length - 1))
        rows[CP] = tuple([BULLET] * (length - 1) + ["X"])
        t_row, bullet_site = target_row(length, spec.target_x, spec.bullet_offset)
        rows[T] = t_row
        rows[C2] = tuple([BULLET] * (bullet_site - 1) + ["0"]
                         + ["1"] * (length - bullet_site))

    assert len(rows[P]) == length
    return ChainState(tier, rows, spec.work_state(support))


def target_row(length: int, x: int, bullet_offset: int):
    """Target register row: bullet padding, zero padding, then binary x.

    The rightmost bullet sits bullet_offset sites left of x's most
    significant 1 (so bullet_offset - 1 zero digits separate them), and the
    digits run down to the last site with significance increasing right to
    left.  Returns (row tuple, bullet site index).
    """
    if x is None:
        raise BuildError("tier IV needs a target count")
    if x < 1:
        raise BuildError(
            "target must be >= 1: the machine applies the circuit once"
            " before its first comparison, so a 0 target can never match")
    if bullet_offset < 1:
        raise BuildError("bullet_offset must be >= 1")
    bits = format(x, "b")
    digit_width = len(bits) + bullet_offset - 1
    bullet_site = length - digit_width
    if digit_width < 2:
        raise BuildError("target digit field must span at least 2 sites;"
                         " increase bullet_offset")
    if bullet_site < 1:
        raise BuildError(
            f"target {x} with bullet_offset {bullet_offset} needs"
            f" {digit_width + 1} sites, chain has {length}")
    digits = bits.rjust(digit_width, "0")
    return tuple([BULLET] * bullet_site + list(digits)), bullet_site


def full_width_offset(length: int, x: int) -> int:
    """Bullet offset that pushes the target's bullet to site 2, giving the
    post-target phase its maximal (exponential-in-L) walk length."""
    return length - 1 - len(format(x, "b"))


# -- instance files -----------------------------------------------------------
#
# One key per line; blank lines and lines starting with '#' are ignored:
#   n=<N>, k=<K>, round <i>: <g_1> .. <g_{N-1}>, work=<N bits>,
#   construction=<I|II|III|IV>, target=<int> and bullet_offset=<int> (tier IV),
# plus run options that the CLI reads, each overridden by its flag:
#   budget, snapshot_every (run; budget also walk and verify),
#   seed, tau, tau_star, samples (walk).

# `hqca walk` draws every sample before it prints, so the count is capped
MAX_SAMPLES = 10 ** 8

# type and range of each numeric key; the CLI flags of the run options take
# the same entries.  target_row ranges target and bullet_offset, as they
# must fit the chain
NUMBER_KEYS = {"n": (int, 2), "k": (int, 1), "target": (int,),
               "bullet_offset": (int,), "budget": (int, 1), "seed": (int, 0),
               "samples": (int, 1, MAX_SAMPLES), "snapshot_every": (int, 1),
               "tau": (float,), "tau_star": (float, 0.0)}
_RUN_KEYS = ("budget", "seed", "samples", "snapshot_every", "tau",
             "tau_star")


class InstanceParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")


def parse_number(text: str, kind=int, low=-math.inf, high=math.inf):
    """A finite int or float (kind) in [low, high]; ValueError otherwise."""
    try:
        v = kind(text)
    except ValueError:
        v = math.nan
    if not abs(v) < math.inf:
        raise ValueError(f"expected a finite {kind.__name__}, got {text!r}")
    if v < low:
        raise ValueError(f"value {v} below minimum {low}")
    if v > high:
        raise ValueError(f"value {v} above maximum {high}")
    return v


@dataclass
class Instance:
    spec: BuildSpec
    options: dict


def parse_instance_text(text: str) -> Instance:
    """The one parser of the instance format.  It checks every value,
    including the tier-IV target layout, so a parsed instance always
    builds; each error names its line (line 0 for a missing key)."""
    values, lines = {}, {}  # key -> parsed value, key -> line number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("round"):
            head, colon, body = line.partition(":")
            if not colon:
                raise InstanceParseError(lineno, "round line needs a ':'")
            try:
                key = f"round {int(head.split()[1])}"
            except (IndexError, ValueError):
                raise InstanceParseError(lineno, f"bad round header {head!r}")
            value = tuple(body.split())
            for g in value:
                if g not in GATES:
                    raise InstanceParseError(lineno, f"unknown gate {g!r}")
        else:
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise InstanceParseError(lineno, f"cannot parse {line!r}")
            if key in NUMBER_KEYS:
                try:
                    value = parse_number(value, *NUMBER_KEYS[key])
                except ValueError as err:
                    raise InstanceParseError(lineno, str(err)) from None
            elif key not in ("work", "construction"):
                raise InstanceParseError(lineno, f"unknown key {key!r}")
            elif key == "work" and set(value) - {"0", "1"}:
                raise InstanceParseError(lineno, "work must be a bitstring")
            elif key == "construction" and value not in TIERS:
                raise InstanceParseError(lineno,
                                         f"unknown construction {value!r}")
        if key in lines:
            raise InstanceParseError(lineno, f"{key} given twice")
        values[key], lines[key] = value, lineno

    for key in ("n", "k"):
        if key not in values:
            raise InstanceParseError(0, f"missing {key}=")
    n, k = values["n"], values["k"]
    rounds = []
    for idx in range(1, k + 1):  # stops at the first missing round
        gates = values.get(f"round {idx}")
        if gates is None:
            raise InstanceParseError(0, f"missing round {idx}")
        if len(gates) != n - 1:
            raise InstanceParseError(lines[f"round {idx}"], f"round {idx} has"
                                     f" {len(gates)} gates, expected {n - 1}")
        rounds.append(gates)
    for key, lineno in lines.items():
        if key.startswith("round ") and not 1 <= int(key[6:]) <= k:
            raise InstanceParseError(lineno, f"{key} out of range 1..{k}")
    work = values.get("work")
    if work is not None and len(work) != n:
        raise InstanceParseError(
            lines["work"], f"work bitstring length {len(work)} != n={n}")
    tier = values.get("construction", "I")
    target = values.get("target")
    bullet_offset = values.get("bullet_offset", 3)
    if tier != "IV":
        for key, lineno in lines.items():  # in file order
            if key in ("target", "bullet_offset"):
                raise InstanceParseError(lineno, f"{key} is a tier-IV key")
    else:
        if target is None:
            raise InstanceParseError(lines["construction"],
                                     "construction IV needs target=<int>")
        try:
            target_row(chain_length(tier, n, k), target, bullet_offset)
        except BuildError as err:  # the message names the key at fault first
            msg = str(err)
            key = "bullet_offset" if msg.startswith("bullet") else "target"
            raise InstanceParseError(lines[key], msg) from None
    circuit = CircuitProgram(n, tuple(rounds))
    options = {key: v for key, v in values.items() if key in _RUN_KEYS}
    return Instance(BuildSpec(circuit, tier, work, target, bullet_offset),
                    options)


def parse_instance_file(path) -> Instance:
    # bytes that are not UTF-8 reach the parser as lone surrogates, which no
    # key, value or gate matches, so their error names their line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_instance_text(fh.read())


def worked_example_circuit() -> CircuitProgram:
    """The recurring 2-round, 3-qubit illustration: (S W) then (W S)."""
    return CircuitProgram(3, (("W", "S"), ("S", "W")))
