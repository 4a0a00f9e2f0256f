"""The N = M+1 family of GHZ contradictions for multiport experiments.

Each scenario pits two local settings against each other: a graded setting
psi = (0, delta, 2*delta, ..., (N-2)*delta) with delta = 2*pi/(N-1)^2, and an
all-zero reference setting psi'. In each of N "swap" experiments exactly one
station uses the reference setting; quantum mechanics predicts the perfect
correlation class N-2 (i.e. E = gamma_{N-1}^(N-2)) for every one of them, and
class 0 (E = 1) when **all** stations use the reference setting. Multiplying
the N swap constraints forces any deterministic local model to class N-2 on
the all-reference pattern as well, which is the contradiction.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .angles import PhaseAngle, Residue, _check_int, _Record
from .errors import ComputationIntegrityError, ResourceLimitError
from .lhv import (
    Constraint,
    DeterministicModel,
    ForcedValue,
    SettingsCatalog,
    count_satisfying,
    ghz_forced_value,
)
from .closed import ExperimentConfig, correlation_closed

#: Setting indices inside a paradox catalog.
GRADED, REFERENCE = 0, 1

#: Cap on the particle count; keeps the rational denominators (N-1)^2 tiny.
MAX_PARTICLES = 64


class ParadoxExperiment(_Record):
    """One run of the gedankenexperiment: a setting pattern and the exact
    correlation class quantum mechanics predicts for it."""

    _fields = ("pattern", "expected", "label")

    def __init__(self, pattern: Tuple[int, ...], expected: Residue, label: str):
        self.__dict__.update(pattern=pattern, expected=expected, label=label)


class ParadoxScenario(_Record):
    """The full N = M+1 construction.

    ``experiments[:-1]`` are the constraint experiments multiplied together
    (the N swaps); ``experiments[-1]`` is the comparison target (all stations
    at the reference setting).
    """

    _fields = ("particles", "ports", "delta", "graded", "reference", "catalog", "experiments")

    def __init__(self, particles: int, ports: int, delta: PhaseAngle,
                 graded: Tuple[PhaseAngle, ...], reference: Tuple[PhaseAngle, ...],
                 catalog: SettingsCatalog, experiments: Tuple[ParadoxExperiment, ...]):
        self.__dict__.update(particles=particles, ports=ports, delta=delta, graded=graded,
                             reference=reference, catalog=catalog, experiments=experiments)

    @property
    def config(self) -> ExperimentConfig:
        return ExperimentConfig(self.particles, self.ports)

    @property
    def target(self) -> ParadoxExperiment:
        return self.experiments[-1]


def build_scenario(particles: int) -> ParadoxScenario:
    """Construct the paradox scenario for N particles (M = N-1 ports)."""
    _check_int(particles, "the paradox family starts at N = M+1 = 4 particles", 4)
    if particles > MAX_PARTICLES:
        raise ValueError(f"particles capped at {MAX_PARTICLES}, got {particles}")
    ports = particles - 1
    denominator = (particles - 1) ** 2
    delta = PhaseAngle.from_ratio(1, denominator)
    graded = tuple(PhaseAngle.from_ratio(j, denominator) for j in range(ports))
    reference = (PhaseAngle.from_ratio(0, 1),) * ports
    catalog = SettingsCatalog(
        ports, tuple((graded, reference) for _ in range(particles))
    )
    swap_class = Residue(particles - 2, ports)
    experiments = [
        ParadoxExperiment(
            tuple(REFERENCE if l == k else GRADED for l in range(particles)),
            swap_class,
            f"swap station {k + 1}",
        )
        for k in range(particles)
    ]
    experiments.append(
        ParadoxExperiment((REFERENCE,) * particles, Residue(0, ports), "all reference")
    )
    return ParadoxScenario(
        particles, ports, delta, graded, reference, catalog, tuple(experiments)
    )


def verify_quantum(scenario: ParadoxScenario) -> Tuple[Residue, ...]:
    """Evaluate every experiment on the exact closed-form path and check that
    each correlation class matches the scenario's prediction."""
    cfg = scenario.config
    classes = []
    for experiment in scenario.experiments:
        settings = scenario.catalog.phase_settings(experiment.pattern)
        correlation = correlation_closed(cfg, settings)
        if correlation.exact_class is None:
            raise ComputationIntegrityError(
                f"experiment '{experiment.label}': correlation is not a Bell "
                f"number on the exact path (value {correlation.value})"
            )
        if correlation.exact_class != experiment.expected:
            raise ComputationIntegrityError(
                f"experiment '{experiment.label}': exact class "
                f"{correlation.exact_class.symbol()} does not match the "
                f"predicted {experiment.expected.symbol()}"
            )
        classes.append(correlation.exact_class)
    return tuple(classes)


class ContradictionReport(_Record):
    """Everything the contradiction rests on, with its evidence labeled.

    The algebraic stage (forced value) always runs; the exhaustive stage is
    skipped, with ``enumeration_note`` saying why, when the model count
    exceeds the guard or enumeration was declined. The report holds results
    only, no timings, so two runs of one scenario compare equal.
    """

    _fields = ("scenario", "quantum_classes", "forced", "swap_model_count",
               "full_model_count", "witness", "enumeration_note", "contradiction")

    def __init__(self, scenario: ParadoxScenario, quantum_classes: Tuple[Residue, ...],
                 forced: Optional[ForcedValue], swap_model_count: Optional[int],
                 full_model_count: Optional[int], witness: Optional[DeterministicModel],
                 enumeration_note: Optional[str], contradiction: bool):
        self.__dict__.update(
            scenario=scenario, quantum_classes=quantum_classes, forced=forced,
            swap_model_count=swap_model_count, full_model_count=full_model_count,
            witness=witness, enumeration_note=enumeration_note, contradiction=contradiction)

    @property
    def target_class(self) -> Residue:
        return self.quantum_classes[-1]

    @property
    def verified(self) -> bool:
        """``contradiction`` (set by ``run_scenario`` from the forced value), not
        undone by the exhaustive stage: if it ran, no model met every constraint."""
        return self.contradiction and self.full_model_count in (None, 0)


def run_scenario(
    scenario: ParadoxScenario, enumerate_models: bool = True
) -> ContradictionReport:
    """Verify the quantum classes, derive the LHV-forced value, and (within
    the guard) count the surviving deterministic models: an exact count over
    every model, by elimination of the constraints over Z_M.

    ``enumerate_models``: True runs the exhaustive stage, or skips it with
    ``count_satisfying``'s guard message as the notice; False skips it.
    """
    classes = verify_quantum(scenario)
    constraints = [
        Constraint(e.pattern, e.expected) for e in scenario.experiments[:-1]
    ]
    target = scenario.target
    forced = ghz_forced_value(constraints, scenario.catalog)
    contradiction = (
        forced is not None
        and forced.pattern == target.pattern
        and forced.residue != classes[-1]
    )

    swap_count = full_count = None
    witness = None
    note = None
    if not enumerate_models:
        note = "exhaustive stage skipped on request; verdict rests on the algebraic stage"
    else:
        try:
            swap_result = count_satisfying(scenario.catalog, constraints)
        except ResourceLimitError as exc:
            note = f"exhaustive stage skipped: {exc}; verdict rests on the algebraic stage"
        else:
            full_result = count_satisfying(
                scenario.catalog,
                constraints + [Constraint(target.pattern, target.expected)],
            )
            swap_count, witness = swap_result.count, swap_result.witness
            full_count = full_result.count
    return ContradictionReport(
        scenario=scenario,
        quantum_classes=classes,
        forced=forced,
        swap_model_count=swap_count,
        full_model_count=full_count,
        witness=witness,
        enumeration_note=note,
        contradiction=contradiction,
    )


def run_paradox(particles: int, enumerate_models: bool = True) -> ContradictionReport:
    """Build and run the standard N = M+1 scenario."""
    return run_scenario(build_scenario(particles), enumerate_models=enumerate_models)
