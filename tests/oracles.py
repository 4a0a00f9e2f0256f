"""Independent brute-force oracles used to pin expected values.

Everything here is written in the most literal style possible (plain loops,
cmath, itertools), deliberately sharing no code with the library's vectorized
paths, so that agreement between the two is evidence and not tautology.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

TAU = 2.0 * math.pi


def naive_amplitude(phi_rows, ports, outcome):
    """(1/sqrt(M))^(N+1) * sum_m exp(i sum_l phi_l^m) * prod_n gamma^(m*k_n)."""
    particles = len(phi_rows)
    gamma = cmath.exp(2j * math.pi / ports)
    total = 0j
    for m in range(ports):
        term = cmath.exp(1j * sum(row[m] for row in phi_rows))
        for k in outcome:
            term *= gamma ** (m * k)
        total += term
    return total * (1.0 / math.sqrt(ports)) ** (particles + 1)


def naive_probability(phi_rows, ports, outcome):
    return abs(naive_amplitude(phi_rows, ports, outcome)) ** 2


def naive_probability_cosine(phi_rows, ports, outcome):
    """The cosine-expansion route, per-station delta phases spelled out."""
    particles = len(phi_rows)
    total = float(ports)
    for m in range(ports):
        for mp in range(m):
            phase = 0.0
            for l in range(particles):
                phase += (
                    phi_rows[l][m]
                    - phi_rows[l][mp]
                    + (TAU / ports) * outcome[l] * (m - mp)
                )
            total += 2.0 * math.cos(phase)
    return total * (1.0 / ports) ** (particles + 1)


def naive_correlation(phi_rows, ports):
    """sum over all outcomes of prod_l gamma^(k_l) times the probability."""
    particles = len(phi_rows)
    gamma = cmath.exp(2j * math.pi / ports)
    total = 0j
    for outcome in itertools.product(range(ports), repeat=particles):
        value = 1 + 0j
        for k in outcome:
            value *= gamma**k
        total += value * naive_probability(phi_rows, ports, outcome)
    return total


def closed_form_exponents(turn_rows, ports):
    """Closed-form exponents sum_l (t_l^m - t_l^(m+1)) mod 1, as Fractions.

    ``turn_rows`` holds each phase as a Fraction of a turn; the wraparound
    column m = M-1 uses t^M - t^1. One plain Fraction addition per entry.
    """
    exponents = []
    for m in range(ports):
        total = Fraction(0)
        for row in turn_rows:
            total += row[m] - row[(m + 1) % ports]
        exponents.append(total % 1)
    return exponents


def closed_correlation(turn_rows, ports):
    """(value, class k or None) of (1/M) sum_m exp(2*pi*i*exponent_m).

    The class is k when every exponent equals k/M of a turn.
    """
    exponents = closed_form_exponents(turn_rows, ports)
    value = sum(cmath.exp(1j * TAU * float(e)) for e in exponents) / ports
    klass = None
    if len(set(exponents)) == 1 and (exponents[0] * ports).denominator == 1:
        klass = int(exponents[0] * ports) % ports
    return value, klass


def naive_marginal(phi_rows, ports, station):
    """Single-station marginal by summing the joint table."""
    particles = len(phi_rows)
    marginal = [0.0] * ports
    for outcome in itertools.product(range(ports), repeat=particles):
        marginal[outcome[station]] += naive_probability(phi_rows, ports, outcome)
    return marginal


def lex_table_sum(values_per_class, particles, ports):
    """numpy's own sum over the materialized lexicographic table.

    Builds the M**N-long array values_per_class[sum(outcome) % M], outcomes
    lexicographic by station, and sums it with ``.sum()``: the order in which
    numpy adds is the reference, so this one routine uses numpy on purpose.
    """
    digits = np.indices((ports,) * particles).reshape(particles, -1)
    return values_per_class[digits.sum(axis=0) % ports].sum()


def full_table_amplitudes(phi, ports):
    """Route A's class amplitudes from the whole M x M table of terms.

    amp(s) = M^(-(N+1)/2) * sum_m exp(i sum_l phi[l, m]) * gamma_M^(m*s),
    summed term by term over the full table with numpy's ``.sum(axis=0)``,
    not by a fast transform, so that it shares no method with the library's
    inverse FFT. The roots are exp(2*pi*i*j/M) from cmath.
    """
    particles = phi.shape[0]
    roots = np.array([cmath.exp(2j * math.pi * j / ports) for j in range(ports)])
    weights = np.exp(1j * phi.sum(axis=0))
    powers = np.outer(np.arange(ports), np.arange(ports)) % ports
    amps = (weights[:, None] * roots[powers]).sum(axis=0)
    return amps * ports ** (-(particles + 1) / 2)


def class_first_counts(class_probabilities, particles, ports, shots, seed):
    """The counts of a class-first draw, rebuilt one raw draw at a time.

    The draws come from the generator calls that the library documents: one
    multinomial split of the shots over the classes, then for each class s
    that got any, one call for that many uniform (N-1)-digit prefixes (so up
    to 2**16 shots, the library's block). Each prefix is spelled out digit by
    digit and completed by the last digit (s - prefix sum) mod M. Returns a
    dict from outcome tuple to count, in lex order.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    per_class = rng.multinomial(shots, class_probabilities / class_probabilities.sum())
    counts = {}
    for klass, drawn in enumerate(per_class.tolist()):
        if drawn == 0:
            continue
        for head in rng.integers(0, ports ** (particles - 1), size=drawn).tolist():
            prefix = []
            for _ in range(particles - 1):
                head, digit = divmod(head, ports)
                prefix.insert(0, digit)
            outcome = tuple(prefix) + ((klass - sum(prefix)) % ports,)
            counts[outcome] = counts.get(outcome, 0) + 1
    return dict(sorted(counts.items()))


def enumerate_models(setting_counts, ports, constraints):
    """Count assignment tables satisfying every (pattern, required) pair.

    ``constraints`` is a list of (pattern, required_value) with 0-based
    setting indices. Returns (count, first satisfying table or None) walking
    tables in lexicographic order.
    """
    cells = sum(setting_counts)
    count = 0
    first = None
    for flat in itertools.product(range(ports), repeat=cells):
        tables = []
        cursor = 0
        for n in setting_counts:
            tables.append(flat[cursor : cursor + n])
            cursor += n
        ok = True
        for pattern, required in constraints:
            total = sum(tables[l][s] for l, s in enumerate(pattern))
            if total % ports != required:
                ok = False
                break
        if ok:
            count += 1
            if first is None:
                first = tuple(tables)
    return count, first


def solve_congruences(rows, cells, modulus):
    """Every x in Z_modulus^cells with a_1 x_1 + ... + a_cells x_cells = b
    (mod modulus) for each row [b, a_1, ..., a_cells], by enumeration."""
    solutions = []
    for x in itertools.product(range(modulus), repeat=cells):
        if all((sum(a * v for a, v in zip(row[1:], x)) - row[0]) % modulus == 0
               for row in rows):
            solutions.append(x)
    return solutions


def multiplied_constraints(stations, ports, constraints):
    """The value forced by multiplying (pattern, required) constraints side
    by side: (pattern, residue) or None.

    Each (station, setting) cell is counted once per pattern that names it.
    Every value is an M-th root of unity, so a cell counted a multiple of M
    times drops out of the product. The product names a pattern when every
    station keeps exactly one cell, counted 1 mod M; its value is then the
    sum of the required residues, mod M.
    """
    hits = {}
    for pattern, _ in constraints:
        for station, setting in enumerate(pattern):
            hits[(station, setting)] = hits.get((station, setting), 0) + 1
    pattern = []
    for station in range(stations):
        left = [(setting, n % ports) for (where, setting), n in sorted(hits.items())
                if where == station and n % ports]
        if len(left) != 1 or left[0][1] != 1:
            return None
        pattern.append(left[0][0])
    return tuple(pattern), sum(required for _, required in constraints) % ports
