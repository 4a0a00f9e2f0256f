"""The record classes' contract: constructor signatures, repr, equality,
hashing, immutability and copying, each as the frozen dataclasses that the
classes replaced had it (the expected values were captured from them)."""

import copy
import inspect
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ghzport.angles import TAU, PhaseAngle, Residue
from ghzport.lhv import (
    Constraint,
    CountResult,
    DeterministicModel,
    ForcedValue,
    SettingsCatalog,
)
from ghzport.multiport import MultiportMatrix
from ghzport.paradox import ContradictionReport, ParadoxExperiment, ParadoxScenario
from ghzport.quantum import CorrelationValue, ExperimentConfig, PhaseSettings, SampleResult
from ghzport.scenario import SamplingSpec, Scenario

EMPTY = inspect.Parameter.empty

NINTH = "PhaseAngle(radians=0.6981317007977318, numerator=1, denominator=9)"
HALF = "PhaseAngle(radians=0.5, numerator=None, denominator=None)"
ZERO = "PhaseAngle(radians=0.0, numerator=0, denominator=1)"
ROWS = f"(({NINTH}, {HALF}), ({HALF}, {NINTH}))"
CATALOG = f"SettingsCatalog(ports=2, station_settings=((({ZERO}, {NINTH}),),))"
MODEL = "DeterministicModel(ports=2, assignments=((1,), (0, 1)))"
CONFIG = "ExperimentConfig(particles=2, ports=2)"
EXPERIMENT = ("ParadoxExperiment(pattern=(0, 1), expected=Residue(value=1, modulus=2), "
              "label='swap station 1')")
FORCED = "ForcedValue(pattern=(0, 0), residue=Residue(value=0, modulus=2))"
PARADOX = (f"ParadoxScenario(particles=4, ports=3, delta={NINTH}, graded=({ZERO}, {NINTH}), "
           f"reference=({ZERO},), catalog={CATALOG}, experiments=({EXPERIMENT},))")


def ninth():
    return PhaseAngle.from_turns(Fraction(1, 9))


def catalog():
    return SettingsCatalog(2, (((PhaseAngle.from_turns(0), ninth()),),))


def model():
    return DeterministicModel(2, ((1,), (0, 1)))


def phases():
    return PhaseSettings(((ninth(), PhaseAngle(0.5)), (PhaseAngle(0.5), ninth())))


def experiment():
    return ParadoxExperiment((0, 1), Residue(1, 2), "swap station 1")


def paradox():
    return ParadoxScenario(4, 3, ninth(), (PhaseAngle.from_turns(0), ninth()),
                           (PhaseAngle.from_turns(0),), catalog(), (experiment(),))


#: class -> (build an instance, its repr, a field and a value that change it).
#: Each build returns a fresh, equal object.
EXAMPLES = {
    Residue: (lambda: Residue(4, 3), "Residue(value=1, modulus=3)", ("value", 2)),
    # the exact pair cannot change alone, so the radians move within 1e-12 of it
    PhaseAngle: (ninth, NINTH, ("radians", math.nextafter(TAU / 9, 1.0))),
    SettingsCatalog: (catalog, CATALOG, ("station_settings", (((ninth(), ninth()),),))),
    DeterministicModel: (model, MODEL, ("assignments", ((0,), (0, 1)))),
    Constraint: (lambda: Constraint((0, 1), Residue(1, 2)),
                 "Constraint(pattern=(0, 1), required=Residue(value=1, modulus=2))",
                 ("pattern", (1, 1))),
    ForcedValue: (lambda: ForcedValue((0, 0), Residue(0, 2)), FORCED,
                  ("residue", Residue(1, 2))),
    CountResult: (lambda: CountResult(3, model()), f"CountResult(count=3, witness={MODEL})",
                  ("witness", None)),
    # one port, so that comparing the entries gives a single truth value
    MultiportMatrix: (lambda: MultiportMatrix(1, np.ones((1, 1))),
                      "MultiportMatrix(ports=1, entries=array([[1.]]))",
                      ("entries", np.zeros((1, 1)))),
    ExperimentConfig: (lambda: ExperimentConfig(2, 2), CONFIG, ("particles", 3)),
    PhaseSettings: (phases, f"PhaseSettings(rows={ROWS})",
                    ("rows", ((ninth(), ninth()),))),
    CorrelationValue: (lambda: CorrelationValue(0.5 + 0.25j, Residue(1, 2)),
                       "CorrelationValue(value=(0.5+0.25j), "
                       "exact_class=Residue(value=1, modulus=2))",
                       ("exact_class", None)),
    SampleResult: (lambda: SampleResult(ExperimentConfig(2, 2), 10, 7, {(0, 1): 10},
                                        CorrelationValue(-1 + 0j)),
                   f"SampleResult(config={CONFIG}, shots=10, seed=7, counts={{(0, 1): 10}}, "
                   "correlation=CorrelationValue(value=(-1+0j), exact_class=None), "
                   "generator='pcg64/class-first')",
                   ("seed", 8)),
    ParadoxExperiment: (experiment, EXPERIMENT, ("label", "all reference")),
    ParadoxScenario: (paradox, PARADOX, ("particles", 5)),
    ContradictionReport: (
        lambda: ContradictionReport(paradox(), (Residue(2, 3),),
                                    ForcedValue((0, 0), Residue(0, 2)), 81, 0, model(), None,
                                    True),
        f"ContradictionReport(scenario={PARADOX}, quantum_classes=(Residue(value=2, "
        f"modulus=3),), forced={FORCED}, swap_model_count=81, full_model_count=0, "
        f"witness={MODEL}, enumeration_note=None, contradiction=True)",
        ("full_model_count", 1)),
    SamplingSpec: (lambda: SamplingSpec(100, 7), "SamplingSpec(shots=100, seed=7)",
                   ("seed", 0)),
    Scenario: (lambda: Scenario(ExperimentConfig(2, 2), phases(), catalog(),
                                (Constraint((0,), Residue(1, 2)),), SamplingSpec(100),
                                ("a note",)),
               f"Scenario(config={CONFIG}, phases=PhaseSettings(rows={ROWS}), "
               f"catalog={CATALOG}, constraints=(Constraint(pattern=(0,), "
               "required=Residue(value=1, modulus=2)),), "
               "sampling=SamplingSpec(shots=100, seed=0), notes=('a note',))",
               ("sampling", None)),
}

SIGNATURES = {
    Residue: [("value", EMPTY), ("modulus", EMPTY)],
    PhaseAngle: [("radians", EMPTY), ("numerator", None), ("denominator", None)],
    SettingsCatalog: [("ports", EMPTY), ("station_settings", EMPTY)],
    DeterministicModel: [("ports", EMPTY), ("assignments", EMPTY)],
    Constraint: [("pattern", EMPTY), ("required", EMPTY)],
    ForcedValue: [("pattern", EMPTY), ("residue", EMPTY)],
    CountResult: [("count", EMPTY), ("witness", EMPTY)],
    MultiportMatrix: [("ports", EMPTY), ("entries", EMPTY)],
    ExperimentConfig: [("particles", EMPTY), ("ports", EMPTY)],
    PhaseSettings: [("rows", EMPTY)],
    CorrelationValue: [("value", EMPTY), ("exact_class", None)],
    SampleResult: [("config", EMPTY), ("shots", EMPTY), ("seed", EMPTY), ("counts", EMPTY),
                   ("correlation", EMPTY), ("generator", "pcg64/class-first")],
    ParadoxExperiment: [("pattern", EMPTY), ("expected", EMPTY), ("label", EMPTY)],
    ParadoxScenario: [("particles", EMPTY), ("ports", EMPTY), ("delta", EMPTY),
                      ("graded", EMPTY), ("reference", EMPTY), ("catalog", EMPTY),
                      ("experiments", EMPTY)],
    ContradictionReport: [("scenario", EMPTY), ("quantum_classes", EMPTY), ("forced", EMPTY),
                          ("swap_model_count", EMPTY), ("full_model_count", EMPTY),
                          ("witness", EMPTY), ("enumeration_note", EMPTY),
                          ("contradiction", EMPTY)],
    SamplingSpec: [("shots", EMPTY), ("seed", 0)],
    Scenario: [("config", EMPTY), ("phases", EMPTY), ("catalog", None), ("constraints", None),
               ("sampling", None), ("notes", ())],
}

#: Their fields hold an array or a dict, so hashing raises as it did before.
UNHASHABLE = {MultiportMatrix, SampleResult}

CLASSES = sorted(EXAMPLES, key=lambda cls: cls.__name__)


def field_values(obj, compared_only=False):
    names = [name for name, _ in SIGNATURES[type(obj)]]
    if compared_only and type(obj) is Scenario:
        names.remove("notes")
    return tuple(getattr(obj, name) for name in names)


def test_every_record_class_is_covered():
    assert set(EXAMPLES) == set(SIGNATURES)
    assert len(EXAMPLES) == 17


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_signature(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in parameters] == SIGNATURES[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr(cls):
    build, text, _ = EXAMPLES[cls]
    assert repr(build()) == text


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hash(cls):
    build, _, (name, value) = EXAMPLES[cls]
    first, second = build(), build()
    assert first == second and not first != second
    assert first.__eq__(field_values(first)) is NotImplemented
    changed = cls(**{**vars(first), name: value})
    assert first != changed
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == hash(field_values(first, compared_only=True))


def test_scenario_notes_take_no_part_in_equality_or_hash():
    config = ExperimentConfig(2, 2)
    plain, noted = Scenario(config, phases()), Scenario(config, phases(), notes=("a",))
    assert plain == noted and hash(plain) == hash(noted)
    assert repr(plain) != repr(noted)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    build, text, (name, value) = EXAMPLES[cls]
    obj = build()
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(obj, name, value)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        obj.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(obj, name)
    assert repr(obj) == text


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls):
    build, text, _ = EXAMPLES[cls]
    obj = build()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj and repr(twin) == text


def test_multiport_entries_are_read_only():
    entries = np.ones((1, 1))
    MultiportMatrix(1, entries)
    with pytest.raises(ValueError):
        entries[0, 0] = 2.0


def test_importing_the_cli_loads_no_dataclasses():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ghzport.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"
