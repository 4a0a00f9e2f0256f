"""Output checks that share no code with ghzport.

Each checker takes the parsed scenario file (or the paradox size), the
command's argv and its stdout, and returns None when the output is right or a
one-line reason when it is not. The physics is recomputed here from the
closed forms in the project README; the LHV count is a dynamic program over
partial constraint sums, not an enumeration of models.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np

#: Correlation and probability agreement required of the program.
TOLERANCE = 1e-10
#: A sampled correlation may sit this many multiples of 1/sqrt(shots) from the
#: closed form; the estimator's total variance is at most 1/shots.
SAMPLE_SIGMAS = 6.0
#: Class probabilities below this count as zero for the sampling check.
ZERO_PROBABILITY = 1e-12


def _turns_or_radians(entry):
    """(exact turns, radians) of one scenario phase entry."""
    if isinstance(entry, str) and "/" in entry:
        turns = Fraction(entry.strip()) % 1
        return turns, 2 * math.pi * float(turns)
    return None, float(entry)


def closed_form(phases):
    """Literal closed form E = (1/M) sum_m exp(i sum_l (phi_l^m - phi_l^(m+1)))
    and, when every entry is an exact "p/q", the class k with E = gamma_M^k."""
    ports = len(phases[0])
    parsed = [[_turns_or_radians(e) for e in row] for row in phases]
    exact = all(t is not None for row in parsed for t, _ in row)
    exponents = []
    for m in range(ports):
        if exact:
            turns = sum(row[m][0] - row[(m + 1) % ports][0] for row in parsed) % 1
            exponents.append(turns)
        else:
            radians = sum(row[m][1] - row[(m + 1) % ports][1] for row in parsed)
            exponents.append(radians / (2 * math.pi))
    value = sum(cmath.exp(2j * math.pi * float(e)) for e in exponents) / ports
    klass = None
    if exact and len(set(exponents)) == 1 and (exponents[0] * ports).denominator == 1:
        klass = int(exponents[0] * ports) % ports
    return value, klass


def class_probabilities(phases):
    """Probability of one outcome in each digit-sum class s = sum(k_l) mod M:
    |sum_m exp(i sum_l phi_l^m) gamma_M^(m s)|^2 / M^(N+1)."""
    particles, ports = len(phases), len(phases[0])
    weights = [
        cmath.exp(1j * sum(_turns_or_radians(row[m])[1] for row in phases))
        for m in range(ports)
    ]
    return [
        abs(sum(w * cmath.exp(2j * math.pi * m * s / ports) for m, w in enumerate(weights))) ** 2
        / ports ** (particles + 1)
        for s in range(ports)
    ]


def lhv_count(ports, setting_counts, patterns, classes):
    """Number of assignments x[station][setting] in Z_M meeting every
    sum_l x[l][pattern_j[l]] = class_j (mod M), by a dynamic program over the
    stations whose state is the vector of partial constraint sums mod M."""
    k = len(patterns)
    counts = np.zeros((ports,) * k, dtype=np.int64)
    counts[(0,) * k] = 1
    axes = tuple(range(k))
    for station, settings in enumerate(setting_counts):
        step = np.zeros_like(counts)
        for values in itertools.product(range(ports), repeat=settings):
            shift = tuple(values[p[station]] for p in patterns)
            step += np.roll(counts, shift, axis=axes)
        counts = step
    return int(counts[tuple(c % ports for c in classes)])


def _records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _by_type(records, kind):
    return [r for r in records if r.get("record") == kind]


def _class_of(detectors, ports):
    return sum(d - 1 for d in detectors) % ports


def check_correlate(scenario, argv, stdout):
    (record,) = _by_type(_records(stdout), "correlation")
    expected, klass = closed_form(scenario["phases"])
    for route in ("closed", "brute"):
        got = complex(*record[route])
        if abs(got - expected) > TOLERANCE:
            return f"{route} correlation {got} differs from the closed-form sum {expected}"
    got_class = record["exact_class"] and record["exact_class"]["k"]
    if got_class != klass:
        return f"exact class {got_class} != {klass}"
    perfect = record["perfect_class"] and record["perfect_class"]["k"]
    if klass is not None and perfect != klass:
        return f"perfect class {perfect} != {klass}"
    if abs(abs(expected) - 1) > 1e-6 and perfect is not None:
        return f"perfect class {perfect} reported for |E| = {abs(expected)}"
    return None


def check_probability(scenario, argv, stdout):
    records = _records(stdout)
    rows = _by_type(records, "probability")
    ports, particles = scenario["ports"], scenario["particles"]
    if len(rows) != ports ** particles:
        return f"{len(rows)} probability rows, expected {ports ** particles}"
    probs = class_probabilities(scenario["phases"])
    for row in rows:
        want = probs[_class_of(row["detectors"], ports)]
        if abs(row["p"] - want) > TOLERANCE:
            return f"p{row['detectors']} = {row['p']}, expected {want}"
    (total,) = _by_type(records, "probability-total")
    if abs(total["total"] - 1) > TOLERANCE:
        return f"reported total {total['total']} is not 1 within {TOLERANCE}"
    if abs(math.fsum(r["p"] for r in rows) - 1) > TOLERANCE:
        return f"rows sum to {math.fsum(r['p'] for r in rows)}, not 1 within {TOLERANCE}"
    return None


def check_sample(scenario, argv, stdout):
    records = _records(stdout)
    (meta,) = _by_type(records, "sample-meta")
    shots = int(argv[argv.index("--shots") + 1]) if "--shots" in argv else scenario["sampling"]["shots"]
    if meta["shots"] != shots:
        return f"{meta['shots']} shots reported, {shots} asked"
    ports = scenario["ports"]
    probs = class_probabilities(scenario["phases"])
    rows = _by_type(records, "sample-count")
    if sum(r["count"] for r in rows) != shots:
        return "counts do not sum to shots"
    estimate = 0j
    for row in rows:
        s = _class_of(row["detectors"], ports)
        if probs[s] < ZERO_PROBABILITY:
            return f"count on zero-probability outcome {row['detectors']}"
        estimate += row["count"] * cmath.exp(2j * math.pi * s / ports)
    estimate /= shots
    (reported,) = _by_type(records, "sample-correlation")
    if abs(complex(*reported["estimate"]) - estimate) > 1e-9:
        return f"estimate {reported['estimate']} does not match the counts ({estimate})"
    expected, _ = closed_form(scenario["phases"])
    if abs(estimate - expected) > SAMPLE_SIGMAS / math.sqrt(shots):
        return f"estimate {estimate} is beyond {SAMPLE_SIGMAS}/sqrt(shots) of {expected}"
    return None


def check_lhv_search(scenario, argv, stdout):
    (record,) = _by_type(_records(stdout), "lhv-search")
    ports = scenario["ports"]
    block = scenario["constraints"]
    setting_counts = [len(s) for s in block["settings"]]
    patterns = [[i - 1 for i in c["pattern"]] for c in block["require"]]
    classes = [c["class"] for c in block["require"]]
    space = ports ** sum(setting_counts)
    if record["model_space"] != space:
        return f"model space {record['model_space']} != {space}"
    expected = lhv_count(ports, setting_counts, patterns, classes)
    if record["satisfying"] != expected:
        return f"{record['satisfying']} satisfying models, dynamic program counts {expected}"
    witness = record["witness"]
    if (witness is None) != (expected == 0):
        return "witness presence does not match the count"
    for pattern, klass in zip(patterns, classes) if witness else ():
        if sum(witness[l][s] for l, s in enumerate(pattern)) % ports != klass % ports:
            return f"witness breaks constraint {[s + 1 for s in pattern]}"
    return None


def check_multiport(ports, argv, stdout):
    rows = _by_type(_records(stdout), "multiport-row")
    if len(rows) != ports:
        return f"{len(rows)} rows, expected {ports}"
    for m, row in enumerate(rows):
        for mp, (re_, im) in enumerate(row["entries"]):
            want = cmath.exp(2j * math.pi * (m * mp % ports) / ports) / math.sqrt(ports)
            if abs(complex(re_, im) - want) > 1e-12:
                return f"entry ({m + 1}, {mp + 1}) is {re_}{im:+}i, expected {want}"
    return None


_EXPERIMENT = re.compile(r"^  (swap station \d+|all reference)\s+([gr ]+?)\s+γ_(\d+)\^(\d+)$")


def check_paradox(particles, argv, stdout):
    ports = particles - 1
    swap_class = (particles - 2) % ports
    if "records" in argv:
        records = _records(stdout)
        experiments = [(r["pattern"].count(2), r["quantum_class"]) for r in _by_type(records, "experiment")]
        (lhv,) = _by_type(records, "lhv")
        (verdict,) = _by_type(records, "verdict")
        verified = verdict["contradiction"] and verdict["verified"]
        models = (lhv["swap_models"], lhv["all_models"])
        forced = (lhv["forced_pattern"], lhv["forced_class"] and lhv["forced_class"]["k"])
        if forced != ([2] * particles, swap_class):
            return f"forced value {forced}"
    else:
        experiments = []
        for line in stdout.splitlines():
            match = _EXPERIMENT.match(line)
            if match:
                experiments.append((match[2].split().count("r"),
                                    {"k": int(match[4]), "mod": int(match[3])}))
        verified = any(line.startswith("contradiction:") and line.endswith("-> VERIFIED")
                       for line in stdout.splitlines())
        models = (None, None)
        for line in stdout.splitlines():
            found = re.match(r"exhaustive stage: (\d+) models; (\d+) satisfy the swap "
                             r"constraints; (\d+) satisfy all", line)
            if found:
                models = (int(found[2]), int(found[3]))
        if models == (None, None) and "exhaustive stage: exhaustive stage skipped" not in stdout:
            return "no exhaustive-stage line"
    want = [(1, {"k": swap_class, "mod": ports})] * particles + [(particles, {"k": 0, "mod": ports})]
    if experiments != want:
        return f"quantum classes {experiments}, expected {want}"
    if models not in ((ports ** particles, 0), (None, None)):
        return f"model counts {models}"
    if not verified:
        return "verdict not verified"
    return None


CHECKERS = {
    "correlate": check_correlate,
    "probability": check_probability,
    "sample": check_sample,
    "lhv-search": check_lhv_search,
    "multiport": check_multiport,
    "paradox": check_paradox,
}
