"""Register alphabets, construction tiers, and active-symbol sets.

The chain is a stack of registers over L sites.  Which registers exist
depends on the construction tier:

    I, II : program (P), data (D)
    III   : P, D, clock (C), clock pointer (CP)
    IV    : P, D, C, CP, target (T), second clock (C2)

Every symbol is a short string token.  Marked program symbols compose a
direction prefix, a gate letter and an optional "x" suffix ("→W", "←Sx"),
where the "x" family is the post-target mode that never touches the data
register again; tier IV derives it from CROSSED.  A register's active set
is its alphabet minus its static symbols (W S I • t on P, • X on CP).
"""

from __future__ import annotations

TIERS = ("I", "II", "III", "IV")

# Register identifiers, in fixed row order used everywhere (snapshots,
# rule windows, config digests).
P, D, C, CP, T, C2 = "P", "D", "C", "CP", "T", "C2"
REGISTER_ORDER = (P, D, C, CP, T, C2)

REGISTERS_BY_TIER = {
    "I": (P, D),
    "II": (P, D),
    "III": (P, D, C, CP),
    "IV": (P, D, C, CP, T, C2),
}

GATES = ("W", "S", "I")

BULLET = "•"
TURN = "t"
GATE_APPLY = "g"
MOVE = "m"
QUANTUM = "?"  # data-row marker: amplitude lives in the work state, not a symbol


# symbols that take the "x" suffix in tier IV; so do the marked gates of → and ←
CROSSED = frozenset(("→", "←", MOVE, "▷", "⇓", "L", "R", "C"))


def _crossed_copies(symbols):
    """The "x" copies of the crossed symbols and marked gates among symbols."""
    return tuple(s + "x" for s in symbols
                 if s in CROSSED or s[:1] in CROSSED and s[1:] in GATES)


_P_TIER_I = ("W", "S", "I", "→W", "→S", "→I", GATE_APPLY, MOVE, BULLET, "→")
_P_TIER_II = _P_TIER_I + (TURN, "←W", "←S", "←I", "▷", "←")
_P_TIER_III = _P_TIER_II + ("⇓",)

PROGRAM_ALPHABET = {
    "I": _P_TIER_I,
    "II": _P_TIER_II,
    "III": _P_TIER_III,
    "IV": _P_TIER_III + _crossed_copies(_P_TIER_III),
}

DATA_ALPHABET = ("0", "1")
CLOCK_ALPHABET = (BULLET, "0", "1")

_CP_TIER_III = (BULLET, "X", "L", "R", "C")
CLOCK_POINTER_ALPHABET = {
    "III": _CP_TIER_III,
    "IV": _CP_TIER_III + ("←C", "CX") + _crossed_copies(_CP_TIER_III),
}

TARGET_ALPHABET = (BULLET, "0", "1")
CLOCK2_ALPHABET = (BULLET, "0", "1")

# Exactly one active symbol exists in every valid state, across the P and
# CP rows combined; its site is the active site.
_STATIC_P = frozenset(GATES + (BULLET, TURN))
_STATIC_CP = frozenset((BULLET, "X"))
ACTIVE_P_BY_TIER = {t: frozenset(PROGRAM_ALPHABET[t]) - _STATIC_P
                    for t in TIERS}
ACTIVE_CP_BY_TIER = {t: frozenset(CLOCK_POINTER_ALPHABET.get(t, ()))
                     - _STATIC_CP for t in TIERS}

# The union of all active symbols ever, used by the rule engine to locate
# candidate windows quickly.
ACTIVE_P_ALL = ACTIVE_P_BY_TIER["IV"]
ACTIVE_CP_ALL = ACTIVE_CP_BY_TIER["IV"]


def alphabet(register: str, tier: str):
    """Alphabet tuple of one register at the given tier."""
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}")
    if register not in REGISTERS_BY_TIER[tier]:
        raise ValueError(f"tier {tier} has no register {register!r}")
    return {P: PROGRAM_ALPHABET[tier], D: DATA_ALPHABET, C: CLOCK_ALPHABET,
            CP: CLOCK_POINTER_ALPHABET.get(tier), T: TARGET_ALPHABET,
            C2: CLOCK2_ALPHABET}[register]


# Local site dimensions quoted alongside the enumerated ones in the audit.
# The tier-III and tier-IV quoted totals use a program alphabet one symbol
# smaller than the enumerated symbol lists; the audit reports both values
# and flags the difference instead of silently picking one.
QUOTED_SITE_DIMENSION = {"I": 20, "III": 480, "IV": 14580}


def alphabet_dimension(tier: str) -> dict:
    """Per-register and total site dimension for a tier, with audit flags.

    Returns a dict with:
      per_register : {register: enumerated alphabet size}
      total        : product of the enumerated sizes
      quoted       : externally quoted total for this tier (None if none)
      match        : total == quoted (None if no quoted value)
      warnings     : list of audit notes for any discrepancy
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}")
    per = {reg: len(alphabet(reg, tier)) for reg in REGISTERS_BY_TIER[tier]}
    total = 1
    for n in per.values():
        total *= n
    quoted = QUOTED_SITE_DIMENSION.get(tier)
    warnings = []
    if quoted is not None and total != quoted:
        warnings.append(
            f"tier {tier}: enumerated site dimension {total} != quoted {quoted}"
            " (program alphabet count differs by one symbol)")
    if tier in ("III", "IV"):
        warnings.append(
            "clock register taken as 3-dimensional {•,0,1}; the 4-dimensional"
            " variant with X is never used by any clock rule")
    return {
        "per_register": per,
        "total": total,
        "quoted": quoted,
        "match": None if quoted is None else total == quoted,
        "warnings": warnings,
    }


def format_dimension_audit(tier: str) -> str:
    """One-paragraph text form of alphabet_dimension, for CLI output."""
    audit = alphabet_dimension(tier)
    parts = [f"{reg}={n}" for reg, n in audit["per_register"].items()]
    line = f"tier {tier}: " + " x ".join(parts) + f" -> total {audit['total']}"
    if audit["quoted"] is not None:
        verdict = "MATCH" if audit["match"] else "MISMATCH (flagged)"
        line += f", quoted {audit['quoted']}: {verdict}"
    for w in audit["warnings"]:
        line += f"\n  warning: {w}"
    return line
