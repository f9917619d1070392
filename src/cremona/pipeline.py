"""The quotient-to-hypersurface transformation pipeline.

One step takes an invariant hypersurface X = {F = 0}, a chart coordinate
fixed by the group, and a square basis of invariant Laurent monomials.  The
chart equation is rewritten in the basis monomials, cleared to a coprime
fraction p/q with q a monomial, and p is rehomogenized.  The output
hypersurface is birational to X/G; the forward monomial map, the degree, and
the residual action of a larger group are recorded for chaining.

Output coordinates: basis row j becomes the j-th non-chart coordinate, the
chart keeps its slot, so coordinate names survive across steps.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg, sub

from . import lattice
from .action import DiagonalAction, InvariantHypersurface, subgroup_index
from .coeffs import ParamCoeff
from .poly import LaurentPoly, divide_exact, poly_gcd, poly_str


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
    ok: bool
    reason: str | None = None
    sublattice_index: int | None = None


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
        return BasisDiagnosis(
            False, f"rows span a proper sublattice of index {idx}", sublattice_index=idx)
    return BasisDiagnosis(True)


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

    Returns (p, q) over variables u1..un; q is a single monomial.
    """
    n = basis.size
    u_vars = tuple(f"u{i + 1}" for i in range(n))
    coords: dict[tuple[int, ...], object] = {}
    for e, c in f.terms.items():
        alpha = e[:chart] + e[chart + 1:]
        if e[chart] != 0:
            raise ValueError("chart variable still occurs after dehomogenization")
        sol = lattice.solve_in_lattice(basis.rows, alpha)
        if sol is None:
            raise ValueError(
                f"term with exponents {alpha} is not generated by the basis "
                "(non-invariant polynomial or invalid basis)")
        coords[sol] = c
    mins = tuple(min(sol[j] for sol in coords) for j in range(n))
    q_exp = tuple(max(0, -m) for m in mins)
    p = LaurentPoly(u_vars, {
        tuple(a + b for a, b in zip(sol, q_exp)): c for sol, c in coords.items()})
    q = LaurentPoly.monomial(u_vars, q_exp, Fraction(1))
    return p, q


def forward_monomial_map(variables: tuple[str, ...], chart: int, basis: MonomialBasis) -> RationalMap:
    """The induced monomial map; RationalMap clears it to a common
    homogeneous degree."""
    rows = [row[:chart] + (-sum(row),) + row[chart:] for row in basis.rows]
    rows.insert(chart, (0,) * len(variables))
    return RationalMap([LaurentPoly.monomial(variables, w) for w in rows])


def residual_action(parent: DiagonalAction, sub: DiagonalAction,
                    basis: MonomialBasis, chart: int) -> DiagonalAction:
    """The induced action of parent/sub on the output coordinates.

    Output coordinate j transforms by the parent-character of basis row j;
    the chart slot is fixed.  The result's order equals [parent : sub].
    """
    idx = subgroup_index(parent, sub)
    diag = validate_basis(sub, chart, basis)
    if not diag.ok:
        raise ValueError(f"basis invalid for the subgroup: {diag.reason}")
    gens = []
    for order, row in parent.generators:
        rest = row[:chart] + row[chart + 1:]
        w = tuple(sum(a * b for a, b in zip(rest, brow)) % order for brow in basis.rows)
        if any(w):
            gens.append((order, w[:chart] + (0,) + w[chart:]))
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


def cremona_step(X: InvariantHypersurface, chart: int,
                 basis: MonomialBasis | None = None,
                 parent_action: DiagonalAction | None = None) -> CremonaStep:
    """Transform X into a hypersurface birational to X/G.

    The chart coordinate must carry trivial character and must not divide F.
    ``parent_action``, when given, is a larger group containing X.action; the
    induced action of the quotient on the output coordinates is recorded so
    steps can be chained.
    """
    action = X.action
    F = X.F
    n = action.n_vars
    if not 0 <= chart < n:
        raise ValueError(f"chart index {chart} out of range")
    if chart not in action.trivial_coordinates():
        raise ValueError(f"coordinate {F.vars[chart]} is not fixed by the action")
    if F.min_deg_in_var(chart) > 0:
        raise ValueError(
            f"defining polynomial is divisible by the chart variable {F.vars[chart]}; "
            "choose a different chart")
    if len(F.terms) < 2:
        raise ValueError("defining polynomial is a monomial; the hypersurface is reducible")
    if basis is None:
        basis = hnf_basis_for(action, chart)
    diag = validate_basis(action, chart, basis)
    if not diag.ok:
        raise ValueError(f"invalid basis: {diag.reason}")

    f = F.dehomogenize(chart)
    p_u, q_u = rewrite_invariant(f, chart, basis)
    # u_j becomes the j-th non-chart coordinate
    p_x = LaurentPoly(F.vars, {e[:chart] + (0,) + e[chart:]: c for e, c in p_u.terms.items()})
    image, d = p_x.homogenize(chart)

    if len(image.terms) != len(F.terms) or \
            Counter(image.terms.values()) != Counter(F.terms.values()):
        raise ArithmeticError(
            "coefficient preservation violated: term multiset changed across the step")

    forward = forward_monomial_map(F.vars, chart, basis)
    if parent_action is not None:
        residual = residual_action(parent_action, action, basis, chart)
        ok, offender = residual.is_invariant(image)
        if not ok:
            raise ValueError(
                "output is only semi-invariant under the residual action "
                f"(offending exponent {offender}); pick basis monomials whose "
                "clearing monomial has trivial parent character")
    else:
        residual = DiagonalAction.trivial(n)
    return CremonaStep(
        input=X, chart=chart, basis=basis, p=p_u, q=q_u, image=image, degree=d,
        forward=forward, residual=residual, group_order=action.group_order())


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
        if action != prev.residual:
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


def _search_entry(rows, coords):
    """A beam entry: basis rows, coordinate rows, the coordinates' column
    sums, each coordinate row's shift max(0, -min(row)) and their total."""
    shifts = tuple(max(0, -min(r)) for r in coords)
    return rows, coords, tuple(map(sum, zip(*coords))), shifts, sum(shifts)


def search_basis(X: InvariantHypersurface, chart: int,
                 width: int = 8, depth: int = 6) -> tuple[MonomialBasis, CremonaStep]:
    """Deterministic beam search for a basis minimizing the output degree.

    Starts from the HNF basis and explores elementary unimodular row
    operations (row +/- row, row negation) with entries bounded by
    SEARCH_ENTRY_BOUND, keeping the best ``width`` >= 1 candidates on each
    of ``depth`` >= 0 levels.  Candidates are ranked by (total degree of the
    rewritten chart equation p, rows); that degree is the output degree.

    A beam entry carries the coordinates of the chart equation's terms in
    its basis, one row per basis row, with their column sums and shifts, so
    that p's degree is max(column sums) + total shift.  Adding k times basis
    row j to row i subtracts k times coordinate row i from coordinate row j,
    and negating basis row i subtracts twice coordinate row i from itself
    (Cohen, Sec. 2.4).  Either way the column sums lose a multiple of
    coordinate row i and one shift changes, so a candidate is scored from
    its parent's entry in O(terms).  Only the survivors of a level get
    entries, and only the start and the winner build a step.
    """
    if width < 1 or depth < 0:
        raise ValueError(f"search needs width >= 1 and depth >= 0, got {width} and {depth}")
    start = hnf_basis_for(X.action, chart)
    step = cremona_step(X, chart, start)  # validates the chart, F and the start basis once
    (q_exp,) = step.q.terms
    beam = [_search_entry(start.rows, tuple(tuple(e[j] - qj for e in step.p.terms)
                                            for j, qj in enumerate(q_exp)))]
    _, _, cols, _, total = beam[0]
    best = (max(cols) + total, start.rows)
    seen = {start.rows}
    for _ in range(depth):
        # every move keeps the rows invariant and |det| equal to the group
        # order, so every candidate is a valid basis; a candidate is (degree,
        # rows, parent, r, i, m): coordinate row r of the parent loses m
        # times its coordinate row i
        candidates = []
        for b, (rows, coords, cols, shifts, total) in enumerate(beam):
            for i, (ri, ci) in enumerate(zip(rows, coords)):
                head, tail = rows[:i], rows[i + 1:]
                down, up = tuple(map(sub, cols, ci)), tuple(map(add, cols, ci))
                rows2 = head + (tuple(map(neg, ri)),) + tail
                if rows2 not in seen:
                    seen.add(rows2)
                    degree = max(map(sub, down, ci)) + total - shifts[i] + max(0, max(ci))
                    candidates.append((degree, rows2, b, i, i, 2))
                # row i +/- row j: coordinate row j -/+ coordinate row i
                signs = ((1, add, sub, max(down) + total), (-1, sub, add, max(up) + total))
                for j, (rj, cj) in enumerate(zip(rows, coords)):
                    if j == i:
                        continue
                    for m, row_op, coord_op, top in signs:
                        row = tuple(map(row_op, ri, rj))
                        if max(map(abs, row)) > SEARCH_ENTRY_BOUND:
                            continue
                        rows2 = head + (row,) + tail
                        if rows2 in seen:
                            continue
                        seen.add(rows2)
                        degree = top - shifts[j] + max(0, -min(map(coord_op, cj, ci)))
                        candidates.append((degree, rows2, b, j, i, m))
        if not candidates:
            break
        candidates.sort()  # (degree, rows) differ, so the tails are never compared
        best = min(best, candidates[0][:2])
        parents, beam = beam, []
        for _, rows2, b, r, i, m in candidates[:width]:
            coords = parents[b][1]
            row = tuple(a - m * x for a, x in zip(coords[r], coords[i]))
            beam.append(_search_entry(rows2, coords[:r] + (row,) + coords[r + 1:]))
    basis = MonomialBasis(best[1])
    return basis, cremona_step(X, chart, basis)
