"""Objective oracle written apart from ``croopt.benchmarks``.

Each formula is plain Python over floats (``math.fsum`` for sums), applied to
z = scale * M (x - o) built from an instance's own shift o, rotation M and
scale. Which functions are shifted or rotated, and their scales, come from
this file's table and are cross-checked against the instance, so a wrong
table entry in the library shows as a mismatch.

Two formulas follow the library's documented reading rather than the usual
textbook one, so that the oracle checks the evaluation pipeline (transform,
scale, dispatch) and not a definition dispute; both are listed in the
README:

* Schwefel 1.2 is sum_i i * z_i^2 (textbook: sum_i (sum_{j<=i} z_j)^2);
* Griewank divides by the index i inside the cosine (textbook: sqrt(i)).
"""

from __future__ import annotations

import math


def sphere(z):
    return math.fsum(v * v for v in z)


def schwefel_1_2(z):
    return math.fsum((i + 1) * v * v for i, v in enumerate(z))


def schwefel_2_21(z):
    return max(abs(v) for v in z)


def rosenbrock(z):
    return math.fsum(
        100.0 * (z[i] * z[i] - z[i + 1]) ** 2 + (z[i] - 1.0) ** 2
        for i in range(len(z) - 1)
    )


def ackley(z):
    n = len(z)
    return (
        -20.0 * math.exp(-0.2 * math.sqrt(math.fsum(v * v for v in z) / n))
        - math.exp(math.fsum(math.cos(2.0 * math.pi * v) for v in z) / n)
        + 20.0
        + math.e
    )


def rastrigin(z):
    return math.fsum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in z)


def griewank(z):
    product = 1.0
    for i, v in enumerate(z):
        product *= math.cos(v / (i + 1))
    return math.fsum(v * v for v in z) / 4000.0 - product + 1.0


#: function id -> (formula, shifted, rotated, scale)
TABLE = {
    1: (sphere, True, False, 1.0),
    3: (schwefel_1_2, True, True, 1.0),
    5: (schwefel_2_21, True, True, 1.0),
    8: (rosenbrock, True, False, 0.3),
    12: (ackley, True, True, 0.32),
    15: (rastrigin, True, False, 0.0512),
    16: (rastrigin, True, True, 0.0512),
    18: (griewank, True, True, 6.0),
}


def check_instance(inst):
    """Problems with an instance's flags or scale against the table."""
    formula, shifted, rotated, scale = TABLE[inst.func_id]
    problems = []
    if (inst.shifted, inst.rotated) != (shifted, rotated):
        problems.append(
            f"f{inst.func_id}: shifted/rotated {inst.shifted}/{inst.rotated}, "
            f"expected {shifted}/{rotated}"
        )
    if inst.transform.scale != scale:
        problems.append(f"f{inst.func_id}: scale {inst.transform.scale}, expected {scale}")
    return problems


def evaluate(inst, x):
    """Objective value of ``x`` on ``inst`` by this file's formulas."""
    formula, shifted, rotated, scale = TABLE[inst.func_id]
    x = [float(v) for v in x]
    shift = [float(v) for v in inst.transform.shift] if shifted else [0.0] * len(x)
    d = [xi - oi for xi, oi in zip(x, shift)]
    if rotated:
        rows = inst.transform.rotation.tolist()
        d = [math.fsum(m * v for m, v in zip(row, d)) for row in rows]
    return formula([scale * v for v in d])
