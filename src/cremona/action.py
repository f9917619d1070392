"""Diagonal finite abelian group actions on projective space.

A generator of order e with weight row w scales coordinate j by the e-th
root of unity raised to w[j].  On projective space a weight row matters only
up to multiples of (1, ..., 1): at a chart c characters are read on degree-0
monomials x^a / x_c^|a|, through w - w_c, so every order, invariant lattice
and subgroup index below is the projective group's, whatever the presentation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import lattice
from .poly import LaurentPoly


@dataclass(frozen=True)
class DiagonalAction:
    n_vars: int
    generators: tuple[tuple[int, tuple[int, ...]], ...]
    _order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = []
        for order, weights in self.generators:
            if order < 1:
                raise ValueError("generator order must be positive")
            if len(weights) != self.n_vars:
                raise ValueError(
                    f"weight row has length {len(weights)}, expected {self.n_vars}")
            gens.append((order, tuple(w % order for w in weights)))
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_order", lattice.lattice_index(self.invariant_lattice())
                           if self.generators else 1)

    @classmethod
    def trivial(cls, n_vars: int) -> DiagonalAction:
        return cls(n_vars, ())

    def is_trivial(self) -> bool:
        return self.group_order() == 1

    # -- characters ---------------------------------------------------------

    def trivial_coordinates(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n_vars)
                     if all(row[j] == 0 for _, row in self.generators))

    def default_chart(self) -> int:
        """The last coordinate of weight 0 under every generator, else the last."""
        return max(self.trivial_coordinates(), default=self.n_vars - 1)

    def character(self, exps: tuple[int, ...], chart: int | None = None) -> tuple[int, ...]:
        """Character of a (Laurent) monomial: one residue per generator.

        ``exps`` has length n_vars, or n_vars - 1 with the chart coordinate
        omitted: then it names the degree-0 monomial x^exps / x_chart^|exps|.
        """
        if chart is not None and len(exps) == self.n_vars - 1:
            exps = exps[:chart] + (-sum(exps),) + exps[chart:]
        if len(exps) != self.n_vars:
            raise ValueError("exponent vector length mismatch")
        return tuple(sum(w * k for w, k in zip(row, exps)) % order
                     for order, row in self.generators)

    def is_invariant(self, F: LaurentPoly):
        """(True, None) or (False, first offending exponent vector)."""
        if len(F.vars) != self.n_vars:
            raise ValueError("polynomial ambient does not match the action")
        for e, _ in F.sorted_terms():
            if any(self.character(e)):
                return False, e
        return True, None

    # -- invariant lattice ----------------------------------------------------

    def invariant_lattice(self, chart: int | None = None) -> tuple[tuple[int, ...], ...]:
        """HNF basis of the lattice of invariant degree-0 monomials
        x^a / x_chart^|a|, as exponent vectors a in the non-chart coordinates."""
        c = self.default_chart() if chart is None else chart
        if not 0 <= c < self.n_vars:
            raise ValueError(f"chart {c} out of range for {self.n_vars} coordinates")
        if not self.generators:
            return lattice.identity(self.n_vars - 1)
        W = tuple(tuple(w - row[c] for j, w in enumerate(row) if j != c)
                  for _, row in self.generators)
        orders = tuple(order for order, _ in self.generators)
        return lattice.congruence_kernel(W, orders)

    def group_order(self) -> int:
        """Order of the induced projective group, fixed at construction."""
        return self._order


def common_chart(a: DiagonalAction, b: DiagonalAction) -> int:
    """The last coordinate both actions give weight 0, else the last."""
    shared = set(a.trivial_coordinates()) & set(b.trivial_coordinates())
    return max(shared, default=a.n_vars - 1)


def subgroup_index(action: DiagonalAction, subaction: DiagonalAction) -> int:
    """Index [G : G1] computed as the lattice index of invariants.

    Every G-invariant monomial must have trivial G1-character.
    """
    if action.n_vars != subaction.n_vars:
        raise ValueError("ambient dimension mismatch")
    c = common_chart(action, subaction)
    if any(any(subaction.character(row, chart=c)) for row in action.invariant_lattice(c)):
        raise ValueError("containment violated: not a subgroup situation")
    big, small = action.group_order(), subaction.group_order()
    if big % small:
        raise ArithmeticError("lattice indices are not compatible")
    return big // small


@dataclass(frozen=True)
class InvariantHypersurface:
    """A homogeneous hypersurface of degree >= 2 preserved by a diagonal action."""

    F: LaurentPoly
    action: DiagonalAction

    def __post_init__(self):
        if len(self.F.vars) != self.action.n_vars:
            raise ValueError("polynomial ambient does not match the action")
        d = self.F.homogeneous_degree()
        if d is None:
            raise ValueError("defining polynomial must be homogeneous")
        if d < 2:
            raise ValueError("hypersurface degree must be at least 2")
        if not self.F.is_polynomial():
            raise ValueError("defining polynomial must have nonnegative exponents")
        ok, offender = self.action.is_invariant(self.F)
        if not ok:
            raise ValueError(f"polynomial is not invariant; offending exponent {offender}")

    @property
    def degree(self) -> int:
        return self.F.homogeneous_degree()
