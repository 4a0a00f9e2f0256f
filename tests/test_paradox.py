from fractions import Fraction

import pytest

from ghzport.angles import PhaseAngle, Residue
from ghzport.errors import ComputationIntegrityError
from ghzport.lhv import SettingsCatalog
from ghzport.paradox import (
    GRADED,
    REFERENCE,
    ParadoxExperiment,
    ParadoxScenario,
    build_scenario,
    run_paradox,
    run_scenario,
    verify_quantum,
)
from ghzport.quantum import correlation_brute, correlation_closed


class TestBuildScenario:
    def test_four_particle_construction(self):
        scenario = build_scenario(4)
        assert scenario.ports == 3
        assert scenario.delta.turns == Fraction(1, 9)
        assert [a.turns for a in scenario.graded] == [
            Fraction(0), Fraction(1, 9), Fraction(2, 9)]
        assert all(a.turns == 0 for a in scenario.reference)
        assert len(scenario.experiments) == 5
        swaps = scenario.experiments[:-1]
        assert len({e.pattern for e in swaps}) == 4
        assert all(e.expected == Residue(2, 3) for e in swaps)
        assert scenario.target.pattern == (REFERENCE,) * 4
        assert scenario.target.expected == Residue(0, 3)

    def test_five_particle_classes(self):
        scenario = build_scenario(5)
        assert scenario.ports == 4
        assert scenario.delta.turns == Fraction(1, 16)
        assert all(e.expected == Residue(3, 4) for e in scenario.experiments[:-1])

    @pytest.mark.parametrize("particles", [0, 1, 2, 3, 65])
    def test_range_guard(self, particles):
        with pytest.raises(ValueError):
            build_scenario(particles)


class TestVerifyQuantum:
    def test_four_particle_classes(self):
        classes = verify_quantum(build_scenario(4))
        assert [c.value for c in classes] == [2, 2, 2, 2, 0]

    def test_six_particle_classes(self):
        classes = verify_quantum(build_scenario(6))
        assert [c.value for c in classes] == [4, 4, 4, 4, 4, 4, 0]

    def test_perturbed_experiment_reported(self):
        scenario = build_scenario(4)
        bump = PhaseAngle.from_turns(Fraction(1, 7))
        graded = tuple(
            a + bump if m == 1 else a for m, a in enumerate(scenario.graded)
        )
        broken_catalog = SettingsCatalog(**{
            **vars(scenario.catalog),
            "station_settings": (
                ((graded, scenario.reference),)
                + scenario.catalog.station_settings[1:]
            ),
        })
        broken = ParadoxScenario(**{**vars(scenario), "catalog": broken_catalog})
        with pytest.raises(ComputationIntegrityError):
            verify_quantum(broken)


class TestRunParadox:
    def test_four_particles(self):
        report = run_paradox(4)
        assert [c.value for c in report.quantum_classes] == [2, 2, 2, 2, 0]
        assert report.forced.pattern == report.scenario.target.pattern
        assert report.forced.residue == Residue(2, 3)
        assert report.swap_model_count == 81
        assert report.full_model_count == 0
        assert report.contradiction
        assert report.verified

    def test_five_particles(self):
        report = run_paradox(5)
        assert report.forced.residue == Residue(3, 4)
        assert report.swap_model_count == 4**5
        assert report.full_model_count == 0
        assert report.verified

    def test_six_particles_skips_enumeration(self):
        report = run_paradox(6)
        assert report.swap_model_count is None
        assert report.enumeration_note is not None
        assert "guard" in report.enumeration_note
        assert report.contradiction and report.verified

    def test_enumeration_opt_out(self):
        report = run_paradox(4, enumerate_models=False)
        assert report.swap_model_count is None
        assert report.witness is None
        assert report.verified  # algebraic stage alone still verifies

    def test_reruns_compare_equal(self):
        assert run_paradox(4) == run_paradox(4)

    def test_family_invariants(self):
        for particles in range(4, 13):
            report = run_paradox(particles, enumerate_models=False)
            ports = particles - 1
            swap_classes = report.quantum_classes[:-1]
            assert all(c == Residue(particles - 2, ports) for c in swap_classes)
            assert report.target_class == Residue(0, ports)
            assert report.forced.residue == Residue(particles - 2, ports)
            assert report.contradiction

    def test_exhaustive_stage_where_affordable(self):
        for particles in range(4, 9):
            scenario = build_scenario(particles)
            if scenario.catalog.model_count > 10**8:
                continue
            report = run_scenario(scenario)
            assert report.swap_model_count == scenario.ports**particles
            assert report.full_model_count == 0

    def test_brute_force_agreement_small_n(self):
        for particles in (4, 5):
            scenario = build_scenario(particles)
            cfg = scenario.config
            for experiment in scenario.experiments:
                settings = scenario.catalog.phase_settings(experiment.pattern)
                closed = correlation_closed(cfg, settings).value
                brute = correlation_brute(cfg, settings).value
                assert abs(closed - brute) < 1e-10

    def test_negative_control_no_contradiction(self):
        # if every premise already sits on the target pattern, the forced
        # value equals the quantum one and no contradiction appears
        scenario = build_scenario(4)
        flat = ParadoxExperiment((REFERENCE,) * 4, Residue(0, 3), "all reference")
        control = ParadoxScenario(
            **{**vars(scenario), "experiments": (flat, flat, flat, flat, flat)}
        )
        report = run_scenario(control)
        assert report.forced.pattern == (REFERENCE,) * 4
        assert report.forced.residue == Residue(0, 3)
        assert not report.contradiction
        assert not report.verified

    def test_graded_pattern_is_not_in_the_experiment_list(self):
        scenario = build_scenario(4)
        assert (GRADED,) * 4 not in {e.pattern for e in scenario.experiments}
