"""Shared random-case generators for the transformation-step property tests."""
from fractions import Fraction

from cremona.action import DiagonalAction, InvariantHypersurface
from cremona.poly import LaurentPoly


def _invariant_case(rng, action, d, max_terms, tries):
    """An invariant homogeneous polynomial of degree d with 2..max_terms
    terms and the last coordinate as chart, or None when the draw leaves
    fewer than two terms or every term divisible by the chart."""
    nv = action.n_vars
    chart = nv - 1

    def random_monomial(chart_free):
        width = nv - 1 if chart_free else nv
        e = [0] * nv
        for _ in range(d):
            e[rng.randrange(width)] += 1
        return tuple(e)

    terms = {}
    need_chart_free = True
    target_terms = rng.randint(2, max_terms)
    for _ in range(tries):
        if len(terms) >= target_terms:
            break
        m = random_monomial(need_chart_free)
        if any(action.character(m)):
            continue
        need_chart_free = False
        terms[m] = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    if len(terms) < 2 or all(e[chart] for e in terms):
        return None
    F = LaurentPoly(tuple(f"x{i + 1}" for i in range(nv)), terms)
    return InvariantHypersurface(F, action), chart


def random_invariant_case(rng):
    """Random diagonal action (order <= 27) and invariant homogeneous
    polynomial (<= 12 terms, degree 3 or 4) satisfying the step
    preconditions: the last coordinate is fixed, the polynomial is not
    divisible by it, and at least two terms survive."""
    while True:
        n = rng.choice([2, 3, 4])
        nv = n + 2
        gens = []
        for _ in range(rng.choice([1, 1, 2])):
            e = rng.choice([2, 3])
            row = tuple(rng.randrange(e) for _ in range(nv - 1)) + (0,)
            gens.append((e, row))
        action = DiagonalAction(nv, tuple(gens))
        if action.group_order() > 27:
            continue
        case = _invariant_case(rng, action, rng.choice([3, 4]), 12, 400)
        if case is not None:
            return case


def random_cyclic_case(rng):
    """One cyclic generator of order 17..32 on 4 or 5 coordinates, the last
    one fixed, and an invariant homogeneous polynomial (<= 8 terms, degree
    4..8) satisfying the step preconditions.  The HNF basis of such a
    lattice often has an entry above the search's entry bound, as
    ``DiagonalAction(4, ((27, (1, 5, 0, 0)),))`` starts at
    ``((1, 16, 0), (0, 27, 0), (0, 0, 1))``."""
    while True:
        nv = rng.choice([4, 5])
        e = rng.randint(17, 32)
        action = DiagonalAction(nv, ((e, tuple(rng.randrange(e) for _ in range(nv - 1)) + (0,)),))
        case = _invariant_case(rng, action, rng.randint(4, 8), 8, 2000)
        if case is not None:
            return case
