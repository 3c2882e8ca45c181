"""Exact linear programming over the rationals.

A compact two-phase simplex method on Fraction tableaus. Bland's smallest
index rule is used for both the entering and the leaving variable, so the
method terminates on every input, including degenerate ones. Problem sizes
in this library are tiny (a handful of variables and constraints), which
makes the dense tableau perfectly adequate.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LPInfeasible, LPUnbounded

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pivot_row = tableau[row]
    inv = ONE / pivot_row[col]
    tableau[row] = [v * inv for v in pivot_row]
    pivot_row = tableau[row]
    for r, other in enumerate(tableau):
        if r != row and other[col] != 0:
            factor = other[col]
            tableau[r] = [v - factor * p for v, p in zip(other, pivot_row)]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]):
    """Maximize cost over the current feasible tableau in place (Bland's rule)."""
    m = len(tableau)
    width = len(tableau[0])
    while True:
        reduced = cost[:]
        shift = ZERO
        for r, b in enumerate(basis):
            cb = cost[b]
            if cb != 0:
                row = tableau[r]
                reduced = [v - cb * row[j] for j, v in enumerate(reduced)]
                shift += cb * row[-1]
        entering = next(
            (j for j in range(width - 1) if reduced[j] > 0),
            None,
        )
        if entering is None:
            return shift
        leaving = None
        best = None
        for r in range(m):
            coeff = tableau[r][entering]
            if coeff > 0:
                ratio = tableau[r][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving is None:
            raise LPUnbounded("objective is unbounded above")
        _pivot(tableau, basis, leaving, entering)


def maximize(objective, eq=(), ge=(), le=()):
    """Maximize objective . z over z >= 0 subject to linear constraints.

    eq, ge and le are iterables of (coefficients, rhs) pairs. Returns
    (optimal value, optimizer tuple). Raises LPInfeasible or LPUnbounded.
    """
    c = [Fraction(v) for v in objective]
    nvars = len(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_specs: list[int] = []  # +1 slack, -1 surplus, 0 none
    for coeffs, b in eq:
        rows.append([Fraction(v) for v in coeffs])
        rhs.append(Fraction(b))
        slack_specs.append(0)
    for coeffs, b in ge:
        rows.append([Fraction(v) for v in coeffs])
        rhs.append(Fraction(b))
        slack_specs.append(-1)
    for coeffs, b in le:
        rows.append([Fraction(v) for v in coeffs])
        rhs.append(Fraction(b))
        slack_specs.append(+1)
    m = len(rows)
    nslack = sum(1 for s in slack_specs if s != 0)
    total = nvars + nslack + m  # structural + slack + artificial

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = 0
    for i in range(m):
        row = [ZERO] * (total + 1)
        coeffs = rows[i]
        if len(coeffs) != nvars:
            raise ValueError("constraint width does not match the objective")
        b = rhs[i]
        sign = ONE
        if b < 0:
            sign = -ONE
            b = -b
        for j, v in enumerate(coeffs):
            row[j] = sign * v
        if slack_specs[i] != 0:
            row[nvars + slack_at] = sign * slack_specs[i]
            slack_at += 1
        art = nvars + nslack + i
        row[art] = ONE
        row[-1] = b
        tableau.append(row)
        basis.append(art)

    # phase 1: drive the artificial variables to zero
    phase1 = [ZERO] * total
    for i in range(m):
        phase1[nvars + nslack + i] = -ONE
    value = _run_simplex(tableau, basis, phase1)
    if value != 0:
        raise LPInfeasible("no feasible point")
    for r in range(m):
        if basis[r] >= nvars + nslack:
            col = next(
                (j for j in range(nvars + nslack) if tableau[r][j] != 0),
                None,
            )
            if col is not None:
                _pivot(tableau, basis, r, col)
    keep = [r for r in range(m) if basis[r] < nvars + nslack]
    tableau = [tableau[r][: nvars + nslack] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    # phase 2: the real objective
    phase2 = c + [ZERO] * nslack
    value = _run_simplex(tableau, basis, phase2)
    solution = [ZERO] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            solution[b] = tableau[r][-1]
    return value, tuple(solution)
