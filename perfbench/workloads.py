"""The benchmark's seeded workloads.

Each workload is a list of ``python -m ghzport`` command lines plus the
scenario files they read. The seed changes phases, constraint patterns,
planted models and command order, never the sizes, so every seed costs the
program the same work. Why each workload exists is in BENCHMARK.json and
README.md.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BUNDLED = Path("src/ghzport/scenarios")

#: paradox --N values; N <= 5 also enumerates every LHV model.
PARADOX_LADDER = (4, 5, 8, 16, 32, 48, 64)

#: (ports M, settings per station, constraints, consistent). Model spaces run
#: from about 1e6 to 1.4e7; every cell appears in some constraint, so the
#: enumerator's cost does not depend on the seed.
LHV_CATALOGS = (
    (2, (2,) * 10, 6, True),         # 2^20 = 1.0e6 models
    (3, (2,) * 5 + (3,), 7, False),  # 3^13 = 1.6e6
    (4, (2,) * 4 + (3,), 6, True),   # 4^11 = 4.2e6
    (6, (2, 2, 2, 3), 7, False),     # 6^9  = 1.0e7
    (3, (3,) * 5, 6, True),          # 3^15 = 1.4e7
)

#: (ports M, particles N, phase kind, also run probability). "perfect" is an
#: exact table planted to correlate perfectly with a seeded class, "exact" an
#: exact table with random "p/q" entries, "float" random radians.
OUTCOME_TABLES = (
    (3, 7, "perfect", True),    # 2187 outcomes
    (2, 12, "float", True),     # 4096
    (4, 8, "exact", True),      # 65536
    (2, 20, "float", False),    # 1048576
    (3, 14, "perfect", False),  # 4782969
    (10, 7, "float", False),    # 10^7, the enumeration guard
)
SHOTS = 20000
MULTIPORT_PORTS = (2, 8, 64)

WORKLOADS = ("paradox-ladder", "lhv-catalogs", "outcome-tables")


@dataclass(frozen=True)
class Command:
    """One program invocation: ``python -m ghzport <argv>``.

    ``kind`` is the subcommand; ``subject`` is what its output check needs
    (the scenario document, the paradox N or the multiport M).
    """

    kind: str
    argv: tuple
    subject: object


def _turns(value: Fraction) -> str:
    value %= 1
    return f"{value.numerator}/{value.denominator}"


def _random_turns(rng, ports) -> Fraction:
    denominator = rng.choice((2 * ports, 3 * ports, ports * ports))
    return Fraction(rng.randrange(denominator), denominator)


def _catalog(rng, ports, counts, size, consistent):
    """Constraints on a planted model; an inconsistent set breaks one relation
    class(P) + class(S) = class(Q) + class(R), where Q and R move P at one
    station each and S moves it at both."""
    planted = [[rng.randrange(ports) for _ in range(c)] for c in counts]
    orders = [rng.sample(range(c), c) for c in counts]
    patterns = [[order[j % len(order)] for order in orders] for j in range(max(counts))]
    if consistent:
        while len(patterns) < size:
            patterns.append([rng.randrange(c) for c in counts])
    else:
        a, b = rng.sample(range(len(counts)), 2)
        base = [rng.randrange(c) for c in counts]
        moved = {a: (base[a] + 1) % counts[a], b: (base[b] + 1) % counts[b]}
        for stations in ((), (a,), (b,), (a, b)):
            patterns.append([moved[l] if l in stations else s for l, s in enumerate(base)])
    assert len(patterns) == size, "catalog slot size does not fit its construction"
    classes = [sum(planted[l][s] for l, s in enumerate(p)) % ports for p in patterns]
    if not consistent:
        classes[-1] = (classes[-1] + rng.randrange(1, ports)) % ports
    order = rng.sample(range(size), size)
    settings = [[[_turns(_random_turns(rng, ports)) for _ in range(ports)] for _ in range(c)]
                for c in counts]
    return {
        "schema": "ghzport-scenario/1",
        "particles": len(counts),
        "ports": ports,
        "phases": [station[0] for station in settings],
        "constraints": {
            "settings": settings,
            "require": [{"pattern": [s + 1 for s in patterns[j]], "class": classes[j]}
                        for j in order],
        },
    }


def _table(rng, ports, particles, kind):
    if kind == "float":
        phases = [[rng.uniform(0.0, 2 * math.pi) for _ in range(ports)]
                  for _ in range(particles)]
        return {"schema": "ghzport-scenario/1", "particles": particles, "ports": ports,
                "phases": phases}
    rows = [[_random_turns(rng, ports) for _ in range(ports)] for _ in range(particles)]
    if kind == "perfect":
        # Column sums S_m = c - m k / M make every closed-form exponent k / M.
        k, c = rng.randrange(ports), _random_turns(rng, ports)
        rows[-1] = [c - Fraction(m * k, ports) - sum(row[m] for row in rows[:-1])
                    for m in range(ports)]
    return {"schema": "ghzport-scenario/1", "particles": particles, "ports": ports,
            "phases": [[_turns(t) for t in row] for row in rows]}


def _scenario_file(inputs: Path, name: str, data: dict) -> str:
    path = inputs / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _bundled(name: str):
    path = BUNDLED / f"{name}.json"
    return str(path), json.loads(path.read_text(encoding="utf-8"))


def build(workload: str, seed: int, inputs: Path) -> list:
    """Write the workload's scenario files under ``inputs`` and return its
    commands in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    commands = []
    if workload == "paradox-ladder":
        for n in PARADOX_LADDER:
            for fmt in ("text", "records"):
                commands.append(Command("paradox", ("paradox", "--N", str(n), "--format", fmt), n))
    elif workload == "lhv-catalogs":
        for index, slot in enumerate(LHV_CATALOGS):
            data = _catalog(rng, *slot)
            path = _scenario_file(inputs, f"catalog-{index}", data)
            commands.append(Command("lhv-search", ("lhv-search", path, "--format", "records"), data))
        for name in ("ghz-n4-m3", "ghz-n5-m4"):
            path, data = _bundled(name)
            commands.append(Command("lhv-search", ("lhv-search", path, "--format", "records"), data))
    elif workload == "outcome-tables":
        for index, (ports, particles, kind, probability) in enumerate(OUTCOME_TABLES):
            data = _table(rng, ports, particles, kind)
            path = _scenario_file(inputs, f"table-{index}", data)
            sample_seed = str(rng.randrange(2**32))
            commands.append(Command("correlate", ("correlate", path, "--format", "records"), data))
            commands.append(Command("sample", ("sample", path, "--shots", str(SHOTS), "--seed",
                                               sample_seed, "--format", "records"), data))
            if probability:
                commands.append(Command("probability", ("probability", path, "--format", "records"), data))
        for ports in MULTIPORT_PORTS:
            commands.append(Command("multiport", ("multiport", "--ports", str(ports), "--format", "records"), ports))
        for name in ("mach-zehnder-n1-m2", "bell-epr-n2-m3", "ghz-n4-m3", "ghz-n5-m4"):
            path, data = _bundled(name)
            for kind in ("correlate", "sample"):
                commands.append(Command(kind, (kind, path, "--format", "records"), data))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng.shuffle(commands)
    return commands


def probes(inputs: Path) -> list:
    """One small command per layer, on the bundled ghz-n4-m3 scenario and a
    tiny float-phase table. The traced pass runs them on every workload, so
    each per-layer metric is measured everywhere; a layer the workload itself
    does not use reads near 0."""
    path, data = _bundled("ghz-n4-m3")
    table = _table(random.Random("probe"), 3, 3, "float")
    table_path = _scenario_file(inputs, "probe-float", table)
    return [
        Command("paradox", ("paradox", "--N", "4", "--format", "records"), 4),
        Command("multiport", ("multiport", "--ports", "3", "--format", "records"), 3),
        Command("lhv-search", ("lhv-search", path, "--format", "records"), data),
        Command("correlate", ("correlate", path, "--format", "records"), data),
    ] + [Command(kind, (kind, table_path, *extra, "--format", "records"), table)
         for kind, extra in (("correlate", ()), ("sample", ("--shots", "1000")), ("probability", ()))]
