"""Quantum predictions and local-hidden-variable falsification for N-particle
GHZ experiments on symmetric 2M-port (Bell) beam splitters.

The package namespace is lazy (PEP 562): ``import ghzport`` imports no
submodule and not numpy. Each public name is imported from its module on
first access and then kept as a package attribute.
"""

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in (
    ("angles", "PhaseAngle Residue root_of_unity"),
    ("closed", "CorrelationValue ExperimentConfig PhaseSettings correlation_closed "
               "perfect_correlation_class predict_last"),
    ("errors", "ComputationIntegrityError GhzportError RationalOverflowError "
               "ResourceLimitError ScenarioError"),
    ("lhv", "Constraint CountResult DeterministicModel ForcedValue SettingsCatalog "
            "count_satisfying ghz_forced_value"),
    ("multiport", "MultiportMatrix bell_multiport transmit verify_unitarity"),
    ("paradox", "ContradictionReport ParadoxExperiment ParadoxScenario build_scenario "
                "run_paradox run_scenario verify_quantum"),
    ("quantum", "OutcomeDistribution SampleResult correlation_brute full_distribution "
                "sample_outcomes"),
    ("scenario", "SamplingSpec Scenario parse_scenario parse_scenario_data"),
) for name in names.split()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    # Only names in the table: anything else, submodule names included, raises
    # AttributeError, so that ``from ghzport import quantum`` imports the module.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
