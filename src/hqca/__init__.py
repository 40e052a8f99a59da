"""Layered qudit-chain cellular automaton simulator.

Builds the initial states of four increasingly capable chain constructions
(single pass, repetition, binary clock, target comparator), executes their
two-site transition rules with exact work-qubit tracking, verifies the
unique-forward/unique-reverse walk-line structure, and reproduces the
continuous-time quantum-walk run-time analysis on the resulting line.
"""

from .builder import (BuildSpec, build_initial, chain_length,
                      full_width_offset, parse_instance_text,
                      target_row, work_window, worked_example_circuit)
from .circuit import (CircuitProgram, apply_circuit_power, basis_state,
                      circuit_unitary, fidelity, gate_matrix)
from .engine import (Ambiguous, StepBudget, Trajectory, clock_value,
                     predicted_cycle_steps, predicted_oscillation_steps,
                     predicted_single_pass_steps, restricted_hamiltonian,
                     run)
from .rules import (FORWARD, REVERSE, Match, NonClassicalGateError, Rule,
                    RuleSet, applicable, apply, classical_gate_action,
                    dump_rule_table, rule_set)
from .state import (ChainState, DenseData, WorkState, active_sites,
                    as_dense_vector, validate_config)
from .symbols import alphabet, alphabet_dimension, format_dimension_audit
from .verify import verify_uog
from .walk import (WalkDistribution, WalkLine, evolve, fit_success_envelope,
                   fit_tv_envelope, limiting_distribution,
                   position_distribution, position_distributions,
                   simulate_measurement, success_probability,
                   time_averaged_distribution)

__version__ = "0.1.0"
