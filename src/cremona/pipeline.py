"""The quotient-to-hypersurface transformation pipeline.

One step takes a hypersurface X = {F = 0} whose terms share one character,
a chart coordinate, and a square basis of invariant Laurent monomials.  The
invariant chart equation is rewritten in the basis monomials, cleared to a
coprime fraction p/q with q a monomial, and p is rehomogenized.  The output
hypersurface is birational to X/G; the forward monomial map, the degree, and
the residual action of a larger group are recorded for chaining.

Output coordinates: basis row j becomes the j-th non-chart coordinate, the
chart keeps its slot, so coordinate names survive across steps.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub

from . import lattice
from .action import DiagonalAction, InvariantHypersurface, subgroup_index
from .coeffs import ParamCoeff
from .poly import LaurentPoly, divide_exact, poly_gcd, poly_str, term_key


# ---------------------------------------------------------------------------
# monomial bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialBasis:
    """Rows are exponent vectors of the chosen invariant monomials u_i,
    indexed over the non-chart coordinates."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("basis matrix must be square")
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))

    @property
    def size(self) -> int:
        return len(self.rows)

    def monomial_strs(self, variables: tuple[str, ...], chart: int) -> list[str]:
        names = tuple(v for i, v in enumerate(variables) if i != chart)
        return [poly_str(LaurentPoly.monomial(names, row)) for row in self.rows]


@dataclass(frozen=True)
class BasisDiagnosis:
    """The verdict of ``validate_basis``; ``group_order`` is the action's
    order once the check has computed it (always when ``ok``)."""

    ok: bool
    reason: str | None = None
    sublattice_index: int | None = None
    group_order: int | None = None


def validate_basis(action: DiagonalAction, chart: int, basis: MonomialBasis) -> BasisDiagnosis:
    """Check that the basis rows are invariant and span the full invariant lattice."""
    n = action.n_vars - 1
    if basis.size != n:
        return BasisDiagnosis(False, f"expected a {n}x{n} basis, got {basis.size}x{basis.size}")
    for j, row in enumerate(basis.rows):
        chi = action.character(row, chart=chart)
        if any(chi):
            return BasisDiagnosis(False, f"row {j + 1} is not invariant (character {chi})")
    d = lattice.det(basis.rows)
    if d == 0:
        return BasisDiagnosis(False, "rank deficiency: basis rows are dependent")
    order = action.group_order()
    if abs(d) != order:
        idx = abs(d) // order
        return BasisDiagnosis(False, f"rows span a proper sublattice of index {idx}",
                              sublattice_index=idx, group_order=order)
    return BasisDiagnosis(True, group_order=order)


def hnf_basis_for(action: DiagonalAction, chart: int | None = None) -> MonomialBasis:
    """The canonical HNF basis of the invariant lattice."""
    return MonomialBasis(action.invariant_lattice(chart))


# ---------------------------------------------------------------------------
# rational maps
# ---------------------------------------------------------------------------

class RationalMap:
    """A tuple of homogeneous polynomials of common degree, defining a
    rational map between projective spaces.  Common monomial factors are
    removed at construction."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("a map needs at least one component")
        variables = comps[0].vars
        for c in comps:
            if c.vars != variables:
                raise ValueError("components live in different ambients")
        if all(not c for c in comps):
            raise ValueError("all components vanish identically")
        degs = {c.homogeneous_degree() for c in comps if c}
        if None in degs or len(degs) != 1:
            raise ValueError("components must be homogeneous of a common degree")
        comps = _strip_monomial_content(comps)
        self.components = comps

    @property
    def source_vars(self) -> tuple[str, ...]:
        return self.components[0].vars

    @property
    def source_dim(self) -> int:
        return len(self.source_vars) - 1

    @property
    def target_dim(self) -> int:
        return len(self.components) - 1

    def degree(self) -> int:
        return next(c.homogeneous_degree() for c in self.components if c)

    def is_monomial(self) -> bool:
        return all(len(c.terms) <= 1 for c in self.components)

    @classmethod
    def identity(cls, variables) -> RationalMap:
        return cls([LaurentPoly.variable(variables, v) for v in variables])

    @classmethod
    def coordinate_projection(cls, variables, drop: int) -> RationalMap:
        return cls([LaurentPoly.variable(variables, v)
                    for i, v in enumerate(variables) if i != drop])

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return "RationalMap(" + " : ".join(str(c) for c in self.components) + ")"


def _strip_monomial_content(comps):
    shift = tuple(map(min, zip(*(e for c in comps for e in c.terms))))
    if not any(shift):
        return comps
    return tuple(LaurentPoly._raw(c.vars, {tuple(map(sub, e, shift)): v
                                           for e, v in c.terms.items()}) for c in comps)


def compose_maps(g: RationalMap, f: RationalMap) -> RationalMap:
    """g after f: substitute f's components into g, then cancel.

    Common monomial factors are always removed; a full common polynomial
    factor is cancelled when the coefficient domain is a field with exact gcd
    (rationals, cyclotomics, prime fields).  Parameter-polynomial
    coefficients only get the monomial cancellation.
    """
    if g.source_dim != f.target_dim:
        raise ValueError(
            f"cannot compose: source dimension {g.source_dim} != target dimension {f.target_dim}")
    images = {name: f.components[i] for i, name in enumerate(g.source_vars)}
    comps = [c.substitute(images) for c in g.components]
    if all(not c for c in comps):
        raise ArithmeticError("composite vanishes: image lies in the indeterminacy locus")
    comps = list(_strip_monomial_content(tuple(comps)))
    if not any(isinstance(c, ParamCoeff)
               for comp in comps for c in comp.terms.values()):
        gcd = None
        for comp in comps:
            if comp:
                gcd = comp if gcd is None else poly_gcd(gcd, comp)
                if gcd.homogeneous_degree() == 0:
                    gcd = None
                    break
        if gcd is not None:
            comps = [divide_exact(comp, gcd) if comp else comp for comp in comps]
    return RationalMap(comps)


# ---------------------------------------------------------------------------
# the transformation step
# ---------------------------------------------------------------------------

def rewrite_invariant(f: LaurentPoly, chart: int, basis: MonomialBasis):
    """Write the chart equation f as p/q in the basis monomials, gcd(p, q) = 1.

    Returns (p, q) over variables u1..un; q is a single monomial.  The basis
    is reduced to Hermite normal form once, and every term is solved against
    that one reduction.  Distinct terms must get distinct coordinates, so p
    keeps every term of f; an ArithmeticError says it did not.  The basis
    search scores these coordinates, and only the step it builds for its
    winner checks the image's coefficients.
    """
    n = basis.size
    u_vars = tuple(f"u{i + 1}" for i in range(n))
    reduced = lattice.hermite_normal_form(basis.rows)
    coords: dict[tuple[int, ...], object] = {}
    for e, c in f.terms.items():
        alpha = e[:chart] + e[chart + 1:]
        if e[chart] != 0:
            raise ValueError("chart variable still occurs after dehomogenization")
        sol = lattice.solve_in_lattice(basis.rows, alpha, reduced=reduced)
        if sol is None:
            raise ValueError(
                f"term with exponents {alpha} is not generated by the basis "
                "(non-invariant polynomial or invalid basis)")
        coords[sol] = c
    if len(coords) != len(f.terms):
        raise ArithmeticError(
            f"{len(f.terms)} terms have {len(coords)} distinct coordinates in the basis")
    q_exp = tuple(max(0, -min(sol[j] for sol in coords)) for j in range(n))
    p = LaurentPoly._raw(u_vars, {tuple(map(add, sol, q_exp)): c
                                  for sol, c in coords.items()})
    return p, LaurentPoly._raw(u_vars, {q_exp: Fraction(1)})


def forward_monomial_map(variables: tuple[str, ...], chart: int, basis: MonomialBasis) -> RationalMap:
    """The induced monomial map; RationalMap clears it to a common
    homogeneous degree."""
    rows = [row[:chart] + (-sum(row),) + row[chart:] for row in basis.rows]
    rows.insert(chart, (0,) * len(variables))
    return RationalMap([LaurentPoly._raw(variables, {w: Fraction(1)}) for w in rows])


def residual_action(parent: DiagonalAction, sub: DiagonalAction,
                    basis: MonomialBasis, chart: int) -> DiagonalAction:
    """The induced action of parent/sub on the output coordinates.

    Output coordinate j transforms by the parent-character of basis row j
    at the chart; the chart slot is fixed.  The result's order equals
    [parent : sub].
    """
    idx = subgroup_index(parent, sub)
    diag = validate_basis(sub, chart, basis)
    if not diag.ok:
        raise ValueError(f"basis invalid for the subgroup: {diag.reason}")
    chis = zip(*(parent.character(row, chart=chart) for row in basis.rows))
    gens = [(order, w[:chart] + (0,) + w[chart:])
            for (order, _), w in zip(parent.generators, chis) if any(w)]
    out = DiagonalAction(parent.n_vars, tuple(gens))
    if out.group_order() != idx:
        raise ArithmeticError(
            f"residual action order {out.group_order()} != subgroup index {idx}")
    return out


@dataclass(frozen=True)
class CremonaStep:
    """One application of the transformation, with full bookkeeping."""

    input: InvariantHypersurface
    chart: int
    basis: MonomialBasis
    p: LaurentPoly
    q: LaurentPoly
    image: LaurentPoly
    degree: int
    forward: RationalMap
    residual: DiagonalAction
    group_order: int

    def output_hypersurface(self) -> InvariantHypersurface:
        return InvariantHypersurface(self.image, self.residual)


def _check_chart(X: InvariantHypersurface, chart: int) -> None:
    """The chart checks of a step: the chart is in range, x_chart is no
    factor of F, and F is not a monomial."""
    F = X.F
    if not 0 <= chart < X.action.n_vars:
        raise ValueError(f"chart index {chart} out of range")
    if F.min_deg_in_var(chart) > 0:
        raise ValueError(
            f"defining polynomial is divisible by the chart variable {F.vars[chart]}; "
            "choose a different chart")
    if len(F.terms) < 2:
        raise ValueError("defining polynomial is a monomial; the hypersurface is reducible")


def _chart_equation(X: InvariantHypersurface, chart: int, basis: MonomialBasis):
    """The chart equation of a step: ``validate_basis``, then F / x_chart^d,
    or F / x^m0 where x_chart^d has not the character of F's leading term
    x^m0, rewritten in the basis.  Returns (group order, p, q)."""
    diag = validate_basis(X.action, chart, basis)
    if not diag.ok:
        raise ValueError(f"invalid basis: {diag.reason}")
    F, m0 = X.F, max(X.F.terms, key=term_key)
    if any(X.action.character(m0[:chart] + m0[chart + 1:], chart=chart)):
        # a term of F leaves p no monomial content; _raw keeps F's coefficients
        F = LaurentPoly._raw(F.vars, {tuple(map(sub, e, m0)): c for e, c in F.terms.items()})
    p, q = rewrite_invariant(F.dehomogenize(chart), chart, basis)
    return diag.group_order, p, q


def cremona_step(X: InvariantHypersurface, chart: int,
                 basis: MonomialBasis | None = None,
                 parent_action: DiagonalAction | None = None) -> CremonaStep:
    """Transform X into a hypersurface birational to X/G.

    The chart coordinate x_c must not divide F; the group need not fix it
    (see ``_chart_equation``).  ``parent_action``, when given, is a larger
    group containing X.action that also preserves X; the induced action of
    the quotient on the output coordinates is recorded so steps can be
    chained, and the image is semi-invariant under it.

    A step runs the chart checks, the chart equation, and then its
    bookkeeping: the image with its coefficient check, the forward map and
    the residual action.  ``search_basis`` runs only the first two on its
    start basis, so a search builds one step: its winner's.
    """
    _check_chart(X, chart)
    if parent_action is not None:  # the parent must preserve X too
        InvariantHypersurface(X.F, parent_action)
    if basis is None:
        basis = hnf_basis_for(X.action, chart)
    order, p_u, q_u = _chart_equation(X, chart, basis)
    F = X.F
    # u_j becomes the j-th non-chart coordinate
    p_x = LaurentPoly._raw(F.vars, {e[:chart] + (0,) + e[chart:]: c
                                    for e, c in p_u.terms.items()})
    image, d = p_x.homogenize(chart)

    # the step moves F's own coefficient objects, so a changed value is a
    # different object, and the multisets compare identities, hashing no value
    if Counter(map(id, image.terms.values())) != Counter(map(id, F.terms.values())):
        raise ArithmeticError(
            "coefficient preservation violated: term multiset changed across the step")

    forward = forward_monomial_map(F.vars, chart, basis)
    if parent_action is not None:
        residual = residual_action(parent_action, X.action, basis, chart)
    else:
        residual = DiagonalAction.trivial(F.n_vars)
    return CremonaStep(
        input=X, chart=chart, basis=basis, p=p_u, q=q_u, image=image, degree=d,
        forward=forward, residual=residual, group_order=order)


# ---------------------------------------------------------------------------
# rationality certificates
# ---------------------------------------------------------------------------

def linear_witness(F: LaurentPoly):
    """Smallest variable index occurring to degree exactly 1 in F, or None."""
    if not F:
        return None
    for i in range(F.n_vars):
        if F.deg_in_var(i) == 1:
            return i
    return None


def parametrize_linear(F: LaurentPoly, i: int) -> RationalMap:
    """Solve the degree-1 variable: a rational parametrization of {F = 0}.

    With F = A*x_i + B, the map sends (y_j) to (y_j * A) in every slot except
    i, which receives -B.  Substituting into F gives the zero polynomial; the
    inverse is the coordinate projection forgetting x_i.
    """
    if F.deg_in_var(i) != 1:
        raise ValueError(f"degree of {F.vars[i]} in F is not 1")
    source = tuple(v for j, v in enumerate(F.vars) if j != i)

    def strip(e):
        return tuple(k for j, k in enumerate(e) if j != i)

    A_terms, B_terms = {}, {}
    for e, c in F.terms.items():
        if e[i] == 1:
            A_terms[strip(e)] = c
        elif e[i] == 0:
            B_terms[strip(e)] = c
        else:
            raise ValueError("unexpected exponent pattern")
    A = LaurentPoly(source, A_terms)
    B = LaurentPoly(source, B_terms)
    comps = []
    for j, v in enumerate(F.vars):
        if j == i:
            comps.append(-B)
        else:
            comps.append(LaurentPoly.variable(source, v) * A)
    return RationalMap(comps)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CremonaChain:
    """A composable sequence of steps; each step consumes the previous image
    together with its recorded residual action."""

    steps: tuple[CremonaStep, ...]

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            self.check_link(a, b.input.F, b.input.action)

    @staticmethod
    def check_link(prev: CremonaStep, F: LaurentPoly, action: DiagonalAction) -> None:
        """Raise ValueError unless F and action are prev's image and its
        recorded residual action, so that a step on them may follow prev."""
        if F != prev.image:
            raise ValueError("chain broken: step input differs from previous image")
        if action != prev.residual and not _same_group(action, prev.residual):
            raise ValueError("chain broken: step action differs from recorded residual")

    def accumulated_order(self, start: int = 0) -> int:
        acc = 1
        for s in self.steps[start:]:
            acc *= s.group_order
        return acc

    def forward_map(self, start: int = 0) -> RationalMap:
        acc = None
        for s in self.steps[start:]:
            acc = s.forward if acc is None else compose_maps(s.forward, acc)
        if acc is None:
            raise ValueError("empty chain")
        return acc


def _same_group(a: DiagonalAction, b: DiagonalAction) -> bool:
    """True iff two actions, however presented, are one group: b is a
    subgroup of a of index 1."""
    try:
        return subgroup_index(a, b) == 1
    except ValueError:  # other ambient, or b not in a
        return False


def chain_parametrization(chain: CremonaChain, model: RationalMap,
                          start: int = 0) -> tuple[RationalMap, int]:
    """Push a birational model of the input of chain.steps[start] through the
    remaining forward maps.

    Returns the composite together with the bookkeeping degree: the product
    of the group orders of the traversed steps (the model itself counts 1).
    The geometric degree should be confirmed separately by fiber counting.
    """
    composite = compose_maps(chain.forward_map(start), model)
    return composite, chain.accumulated_order(start)


# ---------------------------------------------------------------------------
# basis search
# ---------------------------------------------------------------------------

SEARCH_ENTRY_BOUND = 16


def _search_entry(key, rows, coords):
    """A beam entry: the basis's key and rows, the chart equation's
    coordinate rows, their column sums, each coordinate row's shift
    max(0, -min(row)) and their total."""
    shifts = tuple([-low if low < 0 else 0 for low in map(min, coords)])
    return key, rows, coords, tuple(map(sum, zip(*coords))), shifts, sum(shifts)


def search_basis(X: InvariantHypersurface, chart: int,
                 width: int = 8, depth: int = 6) -> tuple[MonomialBasis, CremonaStep]:
    """Deterministic beam search for a basis minimizing the output degree.

    Starts from the HNF basis and explores elementary unimodular row
    operations (row +/- row, row negation) with entries bounded by
    SEARCH_ENTRY_BOUND, keeping the best ``width`` >= 1 candidates on each
    of ``depth`` >= 0 levels.  Candidates are ranked by (total degree of the
    rewritten chart equation p, rows); that degree is the output degree.

    Each basis is keyed by one int (Monagan & Pearce, 2009).  Let M be the
    larger of SEARCH_ENTRY_BOUND and the largest |entry| of the start: a
    move keeps every entry within M, because a row sum must stay within the
    bound and a negation keeps |x|.  The key writes the n^2 entries, first
    entry most significant, as signed digits in radix R = 2M + 1; it differs
    by a constant from the number whose digits are the entries plus M, all
    in [0, 2M], so int order on keys is the lexicographic order of the rows,
    and the ranking's tie-breaks are the rows'.  With w_i the weight of slot
    i and P(row) the row written in the same radix, adding k times row r to
    row i adds k * P(row r) * w_i to the key, and negating row i subtracts
    2 * P(row i) * w_i.  So the seen set holds keys, ``heapq.nsmallest``
    and the best compare (degree, key) pairs, which are distinct, so each
    level keeps exactly its first ``width`` candidates in sorted order
    without sorting the rest, and row tuples are built for survivors only.

    A beam entry also carries the coordinates of the chart equation's terms
    in its basis, one row per basis row, with their column sums and shifts,
    so that p's degree is max(column sums) + total shift.  Adding k times
    basis row j to row i subtracts k times coordinate row i from coordinate
    row j, and negating basis row i subtracts twice coordinate row i from
    itself (Cohen, Sec. 2.4).  Either way the column sums lose a multiple of
    coordinate row i and one shift changes, so a candidate is scored from
    its parent's entry in O(terms).  Only the survivors of a level get
    entries.  The start basis gets the chart checks and its chart equation,
    with no image, forward map or residual; the winner alone builds a
    ``cremona_step``, so a search builds one step.
    """
    if width < 1 or depth < 0:
        raise ValueError(f"search needs width >= 1 and depth >= 0, got {width} and {depth}")
    start = hnf_basis_for(X.action, chart)
    _check_chart(X, chart)
    _, p, q = _chart_equation(X, chart, start)
    (q_exp,) = q.terms
    n = start.size
    radix = 2 * max([SEARCH_ENTRY_BOUND] + [abs(x) for row in start.rows for x in row]) + 1
    digits = tuple(radix ** (n - 1 - k) for k in range(n))
    slots = tuple(radix ** (n * (n - 1 - i)) for i in range(n))
    key = sum(sum(map(mul, row, digits)) * w for row, w in zip(start.rows, slots))
    beam = [_search_entry(key, start.rows, tuple(
        tuple(e[j] - qj for e in p.terms) for j, qj in enumerate(q_exp)))]
    *_, cols, _, total = beam[0]
    best = (max(cols) + total, key, start.rows)
    seen = {key}
    for _ in range(depth):
        # every move keeps the rows invariant and |det| equal to the group
        # order, so every candidate is a valid basis; a candidate is (degree,
        # key, parent, r, i, m): coordinate row r of the parent loses m
        # times its coordinate row i
        candidates = []
        for b, (key, rows, coords, cols, shifts, total) in enumerate(beam):
            packed = [sum(map(mul, r, digits)) for r in rows]
            sizes = [max(map(abs, r)) for r in rows]
            for i, (ri, pi, ci, wi) in enumerate(zip(rows, packed, coords, slots)):
                down = tuple(map(sub, cols, ci))
                key2 = key - 2 * pi * wi
                if key2 not in seen:
                    seen.add(key2)
                    high = max(ci)
                    degree = max(map(sub, down, ci)) + total - shifts[i]
                    candidates.append((degree + high if high > 0 else degree,
                                       key2, b, i, i, 2))
                # row i +/- row j: coordinate row j -/+ coordinate row i, the
                # column sums down or up.  A seen key is skipped before the
                # bound is checked: a move past the bound is skipped either
                # way, and only moves within it enter seen, since a row with
                # an entry past M can share its key with another basis.  Rows
                # whose sizes sum to at most the bound give a row within it.
                top_add = max(down) + total
                top_sub = max(map(add, cols, ci)) + total
                room = SEARCH_ENTRY_BOUND - sizes[i]
                for j, (rj, pj, cj, sj) in enumerate(zip(rows, packed, coords, sizes)):
                    if j == i:
                        continue
                    move = pj * wi
                    key2 = key + move
                    if key2 not in seen and (
                            sj <= room or max(map(abs, map(add, ri, rj))) <= SEARCH_ENTRY_BOUND):
                        seen.add(key2)
                        low = min(map(sub, cj, ci))
                        degree = top_add - shifts[j]
                        candidates.append((degree - low if low < 0 else degree,
                                           key2, b, j, i, 1))
                    key2 = key - move
                    if key2 not in seen and (
                            sj <= room or max(map(abs, map(sub, ri, rj))) <= SEARCH_ENTRY_BOUND):
                        seen.add(key2)
                        low = min(map(add, cj, ci))
                        degree = top_sub - shifts[j]
                        candidates.append((degree - low if low < 0 else degree,
                                           key2, b, j, i, -1))
        if not candidates:
            break
        survivors = heapq.nsmallest(width, candidates)
        parents, beam = beam, []
        for _, key, b, r, i, m in survivors:
            _, rows, coords = parents[b][:3]
            k = -m if r == i else m  # basis row i gains k times basis row r
            row = tuple(map(add, rows[i], map(mul, repeat(k), rows[r])))
            coord = tuple(map(sub, coords[r], map(mul, repeat(m), coords[i])))
            beam.append(_search_entry(key, rows[:i] + (row,) + rows[i + 1:],
                                      coords[:r] + (coord,) + coords[r + 1:]))
        best = min(best, (survivors[0][0],) + beam[0][:2])
    basis = MonomialBasis(best[2])
    return basis, cremona_step(X, chart, basis)
