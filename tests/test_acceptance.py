"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance and runtime bound is pinned here, not configurable.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

import oracles
from ghzport.angles import PhaseAngle, Residue
from ghzport.lhv import Constraint, count_satisfying
from ghzport.multiport import bell_multiport, transmit, verify_unitarity
from ghzport.closed import perfect_correlation_class, predict_last
from ghzport.paradox import build_scenario, run_paradox
from ghzport.quantum import (
    ExperimentConfig,
    PhaseSettings,
    _class_probabilities_amplitude,
    _class_probabilities_cosine,
    correlation_brute,
    correlation_closed,
    full_distribution,
    sample_outcomes,
)

ALPHA = cmath.exp(2j * math.pi / 3)

SWEEP_CONFIGS = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (4, 3), (3, 4), (2, 5)]
SWEEP_SEED = 20260808
SETTINGS_PER_CONFIG = 100


def sweep_settings(particles, ports):
    """The shared random-settings sweep used by criteria 4, 5 and 7."""
    rng = np.random.default_rng(SWEEP_SEED + 1000 * particles + ports)
    return [
        PhaseSettings.build(rng.uniform(0.0, 2 * math.pi, (particles, ports)))
        for _ in range(SETTINGS_PER_CONFIG)
    ]


def check(failures, condition, message):
    if not condition:
        failures.append(message)


def report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  [{'; '.join(failures)}]"
    print(f"[{status}] criterion {number}: {description}{detail}")
    assert not failures, f"criterion {number} failed: " + "; ".join(failures)


def test_criterion_1_paradox_n4():
    failures = []
    started = time.perf_counter()
    report_n4 = run_paradox(4)
    scenario = report_n4.scenario
    # exact rational path: class residue 2 (alpha^2) on each swap, 0 at target
    for klass in report_n4.quantum_classes[:-1]:
        check(failures, klass == Residue(2, 3), f"swap class {klass} != 2 mod 3")
    check(failures, report_n4.target_class == Residue(0, 3),
          "all-reference class is not 0")
    # floating complex path within 1e-9 of alpha^2 (and of 1 at the target)
    cfg = scenario.config
    for experiment in scenario.experiments:
        exact_rows = scenario.catalog.phase_settings(experiment.pattern).rows
        float_rows = PhaseSettings.build(
            [[a.radians for a in row] for row in exact_rows])
        value = correlation_closed(cfg, float_rows).value
        target = ALPHA**2 if experiment.pattern != scenario.target.pattern else 1.0
        check(failures, abs(value - target) < 1e-9,
              f"floating E off target by {abs(value - target):.2e} "
              f"({experiment.label})")
    check(failures, report_n4.forced is not None
          and report_n4.forced.residue == Residue(2, 3),
          "LHV forced value is not alpha^2")
    check(failures, report_n4.contradiction, "contradiction flag is false")
    elapsed = time.perf_counter() - started
    check(failures, elapsed < 0.1, f"runtime {elapsed:.3f}s >= 0.1s")
    report(1, "N=4 paradox: swap classes alpha^2 exact and within 1e-9, "
              "target 1, forced alpha^2, contradiction", failures)


def test_criterion_2_exhaustive_refutation_n4():
    failures = []
    scenario = build_scenario(4)
    swaps = [Constraint(e.pattern, e.expected) for e in scenario.experiments[:-1]]
    every = swaps + [Constraint(scenario.target.pattern, scenario.target.expected)]
    started = time.perf_counter()
    swap_result = count_satisfying(scenario.catalog, swaps)
    full_result = count_satisfying(scenario.catalog, every)
    elapsed = time.perf_counter() - started
    check(failures, scenario.catalog.model_count == 6561,
          f"model space {scenario.catalog.model_count} != 6561")
    # 81 and 0 were frozen from the independent itertools oracle
    # (re-executed in test_lhv.py) before this implementation existed
    check(failures, swap_result.count == 81,
          f"swap-constraint count {swap_result.count} != 81")
    check(failures, full_result.count == 0,
          f"all-constraint count {full_result.count} != 0")
    check(failures, elapsed < 1.0, f"runtime {elapsed:.3f}s >= 1s")
    report(2, "N=4 exhaustive LHV refutation over 6561 models: 81 swap-only, "
              "0 overall", failures)


def test_criterion_3_paradox_family():
    failures = []
    started = time.perf_counter()
    for particles in range(4, 13):
        ports = particles - 1
        family_report = run_paradox(particles)
        for klass in family_report.quantum_classes[:-1]:
            check(failures, klass == Residue(particles - 2, ports),
                  f"N={particles}: swap class {klass.value} != {particles - 2}")
        check(failures, family_report.target_class == Residue(0, ports),
              f"N={particles}: target class nonzero")
        check(failures, family_report.contradiction,
              f"N={particles}: no contradiction")
        if particles in (4, 5):
            check(failures, family_report.swap_model_count == ports**particles,
                  f"N={particles}: swap models {family_report.swap_model_count}")
            check(failures, family_report.full_model_count == 0,
                  f"N={particles}: surviving models "
                  f"{family_report.full_model_count}")
        else:
            check(failures, family_report.enumeration_note is None
                  or "guard" in family_report.enumeration_note,
                  f"N={particles}: unexpected enumeration note")
    elapsed = time.perf_counter() - started
    check(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    report(3, "paradox family N=4..12: classes N-2 and 0 on the exact path; "
              "exhaustive stage passes for N=4,5", failures)


def test_criterion_4_oracle_equivalence():
    failures = []
    started = time.perf_counter()
    worst = 0.0
    for particles, ports in SWEEP_CONFIGS:
        cfg = ExperimentConfig(particles, ports)
        for settings in sweep_settings(particles, ports):
            gap = abs(correlation_closed(cfg, settings).value
                      - correlation_brute(cfg, settings).value)
            worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    check(failures, worst < 1e-10, f"max |closed - brute| = {worst:.2e} >= 1e-10")
    check(failures, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    report(4, f"closed vs brute correlation on {SETTINGS_PER_CONFIG} random "
              f"settings x {len(SWEEP_CONFIGS)} configs, max gap {worst:.2e}",
           failures)


def test_criterion_5_probability_integrity():
    failures = []
    worst_route = worst_total = worst_marginal = 0.0
    for particles, ports in SWEEP_CONFIGS:
        cfg = ExperimentConfig(particles, ports)
        for settings in sweep_settings(particles, ports):
            phi = settings.float_matrix()
            route_gap = float(np.max(np.abs(
                _class_probabilities_amplitude(phi, ports)
                - _class_probabilities_cosine(phi, ports))))
            worst_route = max(worst_route, route_gap)
            distribution = full_distribution(cfg, settings)
            worst_total = max(worst_total, abs(distribution.total - 1.0))
            if particles >= 2:
                # uniform marginals need a partner station to trace out
                for station in range(particles):
                    worst_marginal = max(
                        worst_marginal,
                        float(np.max(np.abs(
                            distribution.marginal(station) - 1.0 / ports))))
    check(failures, worst_route < 1e-10,
          f"amplitude vs cosine route gap {worst_route:.2e} >= 1e-10")
    check(failures, worst_total < 1e-10,
          f"normalization error {worst_total:.2e} >= 1e-10")
    check(failures, worst_marginal < 1e-10,
          f"marginal nonuniformity {worst_marginal:.2e} >= 1e-10")
    # spot-check the cosine route against a literal reimplementation
    rng = np.random.default_rng(SWEEP_SEED)
    for particles, ports in [(2, 2), (3, 3), (2, 5)]:
        cfg = ExperimentConfig(particles, ports)
        settings = PhaseSettings.build(
            rng.uniform(0.0, 2 * math.pi, (particles, ports)))
        rows = [[a.radians for a in row] for row in settings.rows]
        distribution = full_distribution(cfg, settings)
        for outcome in distribution:
            oracle_p = oracles.naive_probability_cosine(rows, ports, outcome)
            check(failures, abs(distribution[outcome] - oracle_p) < 1e-10,
                  f"cosine oracle mismatch at {outcome}")
    report(5, "probability integrity: route A vs B on the sweep, totals, "
              "uniform marginals (N >= 2)", failures)


def test_criterion_6_two_port_reduction():
    failures = []
    worst = 0.0
    rng = np.random.default_rng(SWEEP_SEED + 6)
    for particles in range(1, 5):
        cfg = ExperimentConfig(particles, 2)
        for _ in range(100):
            phi = rng.uniform(0.0, 2 * math.pi, (particles, 2))
            settings = PhaseSettings.build(phi)
            value = correlation_closed(cfg, settings).value
            target = math.cos(float(phi[:, 0].sum() - phi[:, 1].sum()))
            worst = max(worst, abs(value - target))
    check(failures, worst < 1e-12, f"max |E - cos| = {worst:.2e} >= 1e-12")
    report(6, f"M=2 reduction to cos(sum of phase differences), "
              f"max gap {worst:.2e}", failures)


def test_criterion_7_structural_invariants():
    failures = []
    # unitarity and even splitting for M = 2..16
    for ports in range(2, 17):
        matrix = bell_multiport(ports)
        check(failures, verify_unitarity(matrix, tol=1e-12),
              f"M={ports} fails unitarity at 1e-12")
        for port in range(ports):
            feed = np.zeros(ports, dtype=complex)
            feed[port] = 1.0
            out = np.abs(transmit(matrix, feed)) ** 2
            check(failures, float(np.max(np.abs(out - 1.0 / ports))) < 1e-12,
                  f"M={ports} port {port} splits unevenly")
    # |E| <= 1 + 1e-12 across the sweep
    worst_modulus = 0.0
    for particles, ports in SWEEP_CONFIGS:
        cfg = ExperimentConfig(particles, ports)
        for settings in sweep_settings(particles, ports):
            worst_modulus = max(
                worst_modulus, abs(correlation_closed(cfg, settings).value))
    check(failures, worst_modulus <= 1.0 + 1e-12,
          f"|E| reached {worst_modulus}")
    # global-phase invariance within 1e-12
    rng = np.random.default_rng(SWEEP_SEED + 7)
    for particles, ports in SWEEP_CONFIGS:
        cfg = ExperimentConfig(particles, ports)
        phi = rng.uniform(0.0, 2 * math.pi, (particles, ports))
        base = correlation_closed(cfg, PhaseSettings.build(phi)).value
        shifted = phi.copy()
        shifted[int(rng.integers(particles))] += float(rng.uniform(0, 2 * math.pi))
        moved = correlation_closed(cfg, PhaseSettings.build(shifted)).value
        check(failures, abs(base - moved) < 1e-12,
              f"global phase moved E by {abs(base - moved):.2e} "
              f"(N={particles}, M={ports})")
    # cyclic covariance, exact on the rational path
    for particles, ports in [(4, 3), (3, 4), (2, 5)]:
        cfg = ExperimentConfig(particles, ports)
        rng = np.random.default_rng(SWEEP_SEED + ports)
        rows = [
            [PhaseAngle.from_turns(Fraction(int(rng.integers(0, 24)), 24))
             for _ in range(ports)]
            for _ in range(particles)
        ]
        base = correlation_closed(cfg, PhaseSettings.build(rows))
        shifted_rows = [list(row) for row in rows]
        shifted_rows[0] = [
            angle + PhaseAngle.from_turns(Fraction(m, ports))
            for m, angle in enumerate(shifted_rows[0])
        ]
        moved = correlation_closed(cfg, PhaseSettings.build(shifted_rows))
        gamma_inverse = cmath.exp(-2j * math.pi / ports)
        check(failures, abs(moved.value - base.value * gamma_inverse) < 1e-12,
              f"cyclic shift off by "
              f"{abs(moved.value - base.value * gamma_inverse):.2e}")
        if base.exact_class is not None:
            check(failures,
                  moved.exact_class == Residue(base.exact_class.value - 1, ports),
                  "exact class did not shift by -1")
    scenario = build_scenario(4)
    base = correlation_closed(
        scenario.config, scenario.catalog.phase_settings((0, 0, 0, 1)))
    rows = [list(r) for r in scenario.catalog.phase_settings((0, 0, 0, 1)).rows]
    rows[2] = [a + PhaseAngle.from_turns(Fraction(m, 3)) for m, a in enumerate(rows[2])]
    moved = correlation_closed(scenario.config, PhaseSettings.build(rows))
    check(failures, base.exact_class == Residue(2, 3)
          and moved.exact_class == Residue(1, 3),
          "paradox-setting cyclic shift not exact (2 -> 1 mod 3)")
    report(7, "structural invariants: unitarity, even splitting, |E| <= 1, "
              "global-phase invariance, cyclic covariance", failures)


def test_criterion_8_prediction_at_a_distance():
    failures = []
    scenario = build_scenario(4)
    cfg = scenario.config
    settings = scenario.catalog.phase_settings(scenario.experiments[0].pattern)
    klass = perfect_correlation_class(cfg, settings)
    check(failures, klass == Residue(2, 3), "swap setting not perfectly correlated")
    distribution = full_distribution(cfg, settings)
    supported = list(distribution.support(1e-12))
    check(failures, len(supported) > 0, "empty support")
    seen = set()
    for outcome, probability in supported:
        predicted = predict_last(klass, outcome[:-1])
        check(failures, predicted.value == outcome[-1],
              f"outcome {outcome} (p={probability:.3g}) defies the prediction")
        seen.add(predicted.value)
    check(failures, seen == {0, 1, 2},
          f"predicted classes {sorted(seen)} do not cover all detectors")
    report(8, "prediction at a distance: every supported N=4 swap outcome obeys "
              "predict_last; all classes occur", failures)


def test_criterion_9_sampling():
    failures = []
    cfg = ExperimentConfig(2, 2)
    settings = PhaseSettings.build([[0.0, 0.0], [0.0, math.pi]])
    shots = 100_000
    first = sample_outcomes(cfg, settings, shots, seed=424242)
    second = sample_outcomes(cfg, settings, shots, seed=424242)
    bound = 5.0 / math.sqrt(shots)
    estimate = first.correlation.value
    check(failures, abs(estimate.real - (-1.0)) <= bound,
          f"Re deviation {abs(estimate.real + 1):.4f} > {bound:.4f}")
    check(failures, abs(estimate.imag) <= bound,
          f"Im deviation {abs(estimate.imag):.4f} > {bound:.4f}")
    check(failures, first == second, "identical seeds produced different results")
    serialized = [repr((r.counts, r.correlation.value, r.seed, r.generator))
                  for r in (first, second)]
    check(failures, serialized[0].encode() == serialized[1].encode(),
          "serialized outputs are not byte-identical")
    report(9, f"sampling: 1e5 seeded shots estimate E within {bound:.4f} of -1; "
              "rerun is byte-identical", failures)
