"""Exact Phase-I simplex for cone membership.

`in_cone` asks whether G x = v has a solution x >= 0, where the columns of G
are the generators: the natural variables (coefficients of generators) are
already sign-constrained, so Phase I alone decides it and no witness is read
off. Bland's rule (smallest entering index; ratio ties to the smallest basic
index) guarantees termination.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): each row holds
integers and stands for its rational row times an unknown positive scale. A
pivot replaces every other row r by p*r - f*(pivot row), p > 0 the pivot, and
divides out the gcd (`linalg._eliminate`); the phase-I cost row is updated
the same way. Signs and ratios do not depend on the scales, so every decision
of the rational simplex is read off the integer rows, ratios compared by
cross-multiplication.
"""

from math import lcm

from .linalg import _eliminate, _int_row


def in_cone(v, generators):
    """Whether v is a nonnegative rational combination of the generators."""
    if not generators:
        return all(x == 0 for x in v)
    m, n = len(v), len(generators)
    # row i is [g_1[i] .. g_n[i] | e_i | v_i], negated outside e_i when
    # v_i < 0, times the lcm of its denominators; its artificial entry
    # rows[i][n + i] holds that positive scale
    rows = []
    for i, vi in enumerate(v):
        sign = -1 if vi < 0 else 1
        unit = [0] * m
        unit[i] = 1
        rows.append(_int_row([sign * g[i] for g in generators] + unit + [sign * vi]))
    basis = list(range(n, n + m))
    # phase-I cost row for the objective sum(x_art) at basis = artificials:
    # reduced costs, then minus the objective value, all times `scale`
    scale = lcm(*(row[n + i] for i, row in enumerate(rows)))
    weights = [scale // row[n + i] for i, row in enumerate(rows)]
    cost = [-sum(w * row[j] for w, row in zip(weights, rows))
            for j in range(n + m + 1)]
    cost[n:n + m] = [0] * m

    while cost[-1]:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            return False
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a <= 0:
                continue
            if leave is not None:
                best = rows[leave]
                lhs, rhs = row[-1] * best[enter], best[-1] * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave is None:
            raise RuntimeError("phase-I objective unbounded")  # cannot happen
        prow = rows[leave]
        for i, row in enumerate(rows):
            if i != leave and row[enter]:
                rows[i] = _eliminate(row, prow, enter)
        cost = _eliminate(cost, prow, enter)
        basis[leave] = enter
    return True
