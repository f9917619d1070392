"""Finite-field verification: smoothness scans, exact on-variety identities,
fiber-degree histograms, and quotient-fiber checks.

``on_variety`` is exact: it runs the engine's single expansion,
``LaurentPoly.substitute``, and holds no arithmetic of its own.  Every
enumeration evaluates through ``compile_mod``, which generates one
straight-line function per polynomial and prime: a shared power table per
variable, each inverse computed once, then a sum of products reduced mod p
(straight-line programs; Buergisser, Clausen and Shokrollahi, *Algebraic
Complexity Theory*, 1997).  ``eval_compiled`` calls it and rejects a prime
other than the one it was compiled for.

Scans are evidence, not proofs: an empty singular list means "no
F_q-rational singular point found".  Exact smoothness is only decided in
closed form for diagonal (sum of scaled powers) equations.  Prime fields
only; the default prime is the smallest p >= 7 with every needed root order
dividing p - 1.
"""
from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass

from .action import InvariantHypersurface
from .coeffs import is_prime, root_embed, to_prime_field
from .pipeline import CremonaStep, RationalMap
from .poly import LaurentPoly

ENUMERATION_GUARD = 10 ** 7


def default_prime(orders=(), degree: int | None = None) -> int:
    """Smallest prime p >= 7 with all root orders dividing p - 1 and p
    coprime to the degree (so the Euler relation argument applies)."""
    p = 7
    while True:
        if is_prime(p) and all((p - 1) % e == 0 for e in orders) \
                and (degree is None or degree % p != 0):
            return p
        p += 1


def proj_points(n_coords: int, p: int):
    """Canonical representatives of P^{n_coords-1}(F_p): first nonzero = 1."""
    for lead in range(n_coords):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=n_coords - lead - 1):
            yield prefix + tail


def proj_point_count(n_coords: int, p: int) -> int:
    return (p ** n_coords - 1) // (p - 1)


def _check_enumeration_guard(n_coords: int, p: int) -> None:
    total = proj_point_count(n_coords, p)
    if total > ENUMERATION_GUARD:
        raise ValueError(f"enumeration guard exceeded: |P^{n_coords - 1}(F_{p})| = {total}")


def normalize_point(pt: tuple[int, ...], p: int) -> tuple[int, ...]:
    for v in pt:
        if v % p:
            inv = pow(v, p - 2, p)
            return tuple(x * inv % p for x in pt)
    raise ValueError("zero vector does not define a projective point")


class CompiledPoly:
    """A polynomial reduced mod p, with its straight-line evaluator.

    ``terms`` is the nonzero ``(coeff, exps)`` list and ``len`` its length.
    ``fn(pt)`` returns the value at ``pt`` in ``[0, p)``; it raises
    ``ZeroDivisionError`` at a zero coordinate with a negative exponent.
    """

    __slots__ = ("terms", "p", "fn")

    def __init__(self, terms: list[tuple[int, tuple[int, ...]]], p: int, n_vars: int):
        self.terms = terms
        self.p = p
        self.fn = _straight_line(terms, n_vars, p)

    def __len__(self) -> int:
        return len(self.terms)


# Terms summed per statement: keeps each generated expression shallow enough
# for the compiler whatever the term count.
_TERMS_PER_STATEMENT = 64


def _power_name(i: int, k: int) -> str:
    return f"x{i}" if k == 1 else f"x{i}_{k}" if k > 0 else f"x{i}_m{-k}"


def _straight_line(terms, n_vars: int, p: int):
    """Generate ``f(pt)`` evaluating ``sum c * prod x_i^k_i mod p``.

    Exponents are first reduced to ``1 <= |k| <= p - 1`` (Fermat: x^k and
    x^r agree on F_p when k = r mod p - 1 and both are positive), so the
    code stays short for any degree.  Each variable's powers are then built
    once, up to its largest exponent, and reduced mod p at every step; a
    variable with a negative exponent is checked for a pole and inverted
    once.  The source is made only of int literals and the positional names
    ``x{i}``, so no input text reaches it.
    """
    p = operator.index(p)
    monomials = []
    for c, e in terms:
        factors = []
        for i, k in enumerate(e):
            if k:
                r = (abs(operator.index(k)) - 1) % (p - 1) + 1
                factors.append((i, r if k > 0 else -r))
        monomials.append((operator.index(c), factors))
    lo, hi = [0] * n_vars, [0] * n_vars
    for _, factors in monomials:
        for i, k in factors:
            lo[i], hi[i] = min(lo[i], k), max(hi[i], k)
    lines = ["def f(pt):"]
    if n_vars:
        lines.append("    " + "".join(f"x{i}, " for i in range(n_vars)) + "= pt")
    for i in range(n_vars):
        for k in range(2, hi[i] + 1):
            lines.append(f"    {_power_name(i, k)} = {_power_name(i, k - 1)} * x{i} % {p}")
        if lo[i] < 0:
            lines.append(f"    if x{i} % {p} == 0:")
            lines.append("        raise ZeroDivisionError('pole at zero coordinate')")
            lines.append(f"    x{i}_m1 = pow(x{i}, {p - 2}, {p})")
            for k in range(2, -lo[i] + 1):
                lines.append(f"    x{i}_m{k} = x{i}_m{k - 1} * x{i}_m1 % {p}")
    products = []
    for c, factors in monomials:
        names = [_power_name(i, k) for i, k in factors]
        products.append("*".join(names if c == 1 and names else [str(c)] + names))
    if not products:
        lines.append("    return 0")
    else:
        step = _TERMS_PER_STATEMENT
        lines.append("    acc = " + " + ".join(products[:step]))
        for j in range(step, len(products), step):
            lines.append("    acc += " + " + ".join(products[j:j + step]))
        lines.append(f"    return acc % {p}")
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<compile_mod p={p}>", "exec"), namespace)
    return namespace["f"]


def compile_mod(poly: LaurentPoly, p: int) -> CompiledPoly:
    """Reduce coefficients mod p, drop zeros, and generate the evaluator."""
    terms = []
    for e, c in poly.sorted_terms():
        v = to_prime_field(c, p).value
        if v:
            terms.append((v, e))
    return CompiledPoly(terms, p, poly.n_vars)


def eval_compiled(compiled: CompiledPoly, pt: tuple[int, ...], p: int) -> int:
    """The value of a compiled polynomial at ``pt``, in ``[0, p)``."""
    if p != compiled.p:
        raise ValueError(f"polynomial compiled for F_{compiled.p}, evaluated over F_{p}")
    return compiled.fn(pt)


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    prime: int
    points_scanned: int
    singular_points: list[tuple[int, ...]]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.singular_points


def smooth_scan(F: LaurentPoly, p: int) -> ScanReport:
    """Scan P^n(F_p) for points where all partials of F vanish.

    Requires char not in {2, 3} and char not dividing deg F, so vanishing
    partials force F = 0 by the Euler relation.
    """
    d = F.homogeneous_degree()
    if d is None or not F.is_polynomial():
        raise ValueError("smooth_scan needs a homogeneous polynomial")
    if p in (2, 3) or d % p == 0:
        raise ValueError(f"bad characteristic {p} for degree {d}")
    t0 = time.perf_counter()
    n = F.n_vars
    _check_enumeration_guard(n, p)
    partials = [compile_mod(F.partial_deriv(i), p) for i in range(n)]
    f_mod = compile_mod(F, p)
    singular = []
    count = 0
    for pt in proj_points(n, p):
        count += 1
        if all(eval_compiled(g, pt, p) == 0 for g in partials):
            if eval_compiled(f_mod, pt, p) != 0:
                raise ArithmeticError("Euler relation violated; check the characteristic")
            singular.append(pt)
    return ScanReport(p, count, singular, time.perf_counter() - t0)


def diagonal_form_smooth(F: LaurentPoly) -> bool:
    """Exact smoothness for diagonal equations sum c_i x_i^d over an exact field.

    Such a hypersurface is smooth iff every variable occurs (all c_i nonzero),
    since the partials d*c_i*x_i^{d-1} vanish only at the origin.
    """
    d = F.homogeneous_degree()
    if d is None:
        raise ValueError("not homogeneous")
    seen = set()
    for e, c in F.terms.items():
        support = [i for i, k in enumerate(e) if k]
        if len(support) != 1 or e[support[0]] != d:
            raise ValueError("not a diagonal equation")
        seen.add(support[0])
    return len(seen) == F.n_vars


# ---------------------------------------------------------------------------
# exact on-variety identity
# ---------------------------------------------------------------------------

def on_variety(rmap: RationalMap, F_target: LaurentPoly) -> bool:
    """True iff F_target composed with the map is the identically-zero
    polynomial, decided by the exact expansion ``LaurentPoly.substitute``."""
    if len(rmap.components) != F_target.n_vars:
        raise ValueError(
            f"map has {len(rmap.components)} components, target expects {F_target.n_vars}")
    return not F_target.substitute(dict(zip(F_target.vars, rmap.components)))


# ---------------------------------------------------------------------------
# fiber histograms
# ---------------------------------------------------------------------------

@dataclass
class FiberHistogram:
    prime: int
    source_points: int
    indeterminacy: int
    histogram: dict[int, int]  # fiber size -> number of image points
    inferred_degree: int
    image_points: int
    elapsed_s: float

    def mass_ok(self) -> bool:
        return sum(s * c for s, c in self.histogram.items()) + self.indeterminacy \
            == self.source_points


def fiber_histogram(rmap: RationalMap, p: int) -> FiberHistogram:
    """Exhaustively push every source point forward and bucket image points
    by preimage count.  The inferred degree is the fiber size attained by the
    most image points: the mode tracks the generic fiber, since special
    fibers inflate individual counts but stay few.  Ties between modal sizes
    are broken upward, because fibers of a generically finite map lose
    irrational points but never gain extra ones outside the special loci."""
    t0 = time.perf_counter()
    n = len(rmap.source_vars)
    _check_enumeration_guard(n, p)
    comps = [compile_mod(c, p) for c in rmap.components]
    fibers: dict[tuple[int, ...], int] = {}
    indet = 0
    count = 0
    for pt in proj_points(n, p):
        count += 1
        img = tuple(eval_compiled(c, pt, p) for c in comps)
        if not any(img):
            indet += 1
            continue
        img = normalize_point(img, p)
        fibers[img] = fibers.get(img, 0) + 1
    hist: dict[int, int] = {}
    for size in fibers.values():
        hist[size] = hist.get(size, 0) + 1
    degree = max(hist, key=lambda s: (hist[s], s)) if hist else 0
    return FiberHistogram(
        prime=p, source_points=count, indeterminacy=indet, histogram=dict(sorted(hist.items())),
        inferred_degree=degree, image_points=len(fibers), elapsed_s=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# quotient fibers
# ---------------------------------------------------------------------------

@dataclass
class QuotientFiberReport:
    prime: int
    torus_points: int
    all_on_image: bool
    orbits_ok: bool
    fiber_sizes: dict[int, int]  # size -> number of fibers
    generic_fiber: int
    group_order: int
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return self.all_on_image and self.orbits_ok and \
            self.generic_fiber == self.group_order


def group_elements_mod_p(action, p: int) -> list[tuple[int, ...]]:
    """All elements of the acting matrix group embedded in (F_p*)^n."""
    n = action.n_vars
    gens = []
    for order, row in action.generators:
        r = root_embed(order, p).value
        gens.append((order, tuple(pow(r, w, p) for w in row)))
    elems = set()
    ranges = [range(o) for o, _ in gens]
    for powers in itertools.product(*ranges):
        e = (1,) * n
        for (_, g), k in zip(gens, powers):
            if k:
                gk = tuple(pow(x, k, p) for x in g)
                e = tuple(a * b % p for a, b in zip(e, gk))
        elems.add(e)
    return sorted(elems)


def quotient_fiber_check(X: InvariantHypersurface, step: CremonaStep, p: int) -> QuotientFiberReport:
    """Check that torus points of X(F_p) land on the transformed hypersurface
    and that fibers of the forward map are single group orbits."""
    return map_fiber_orbit_check(X.F, X.action, step.forward, step.image, p)


def map_fiber_orbit_check(F: LaurentPoly, action, forward: RationalMap,
                          target: LaurentPoly, p: int) -> QuotientFiberReport:
    """Torus-fiber check for any forward map claimed to realize the quotient
    of {F = 0} by the action, with image inside {target = 0}."""
    t0 = time.perf_counter()
    for order, _ in action.generators:
        if (p - 1) % order != 0:
            raise ValueError(f"root of order {order} unavailable in F_{p}")
    n = action.n_vars
    _check_enumeration_guard(n, p)
    f_mod = compile_mod(F, p)
    target_mod = compile_mod(target, p)
    comps = [compile_mod(c, p) for c in forward.components]

    elements = group_elements_mod_p(action, p)
    if len(elements) != action.group_order():
        raise ArithmeticError("embedded group order mismatch")

    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    count = 0
    all_on = True
    for tail in itertools.product(range(1, p), repeat=n - 1):
        pt = (1,) + tail
        if eval_compiled(f_mod, pt, p) != 0:
            continue
        count += 1
        img = tuple(eval_compiled(c, pt, p) for c in comps)
        img = normalize_point(img, p)
        if eval_compiled(target_mod, img, p) != 0:
            all_on = False
            continue
        fibers.setdefault(img, []).append(pt)

    orbits_ok = True
    sizes: dict[int, int] = {}
    for img, pts in fibers.items():
        orbit = {normalize_point(tuple(g[i] * pts[0][i] % p for i in range(n)), p)
                 for g in elements}
        if set(pts) != orbit:
            orbits_ok = False
        sizes[len(pts)] = sizes.get(len(pts), 0) + 1
    generic = max(sizes, key=lambda s: (sizes[s], s)) if sizes else 0
    return QuotientFiberReport(
        prime=p, torus_points=count, all_on_image=all_on, orbits_ok=orbits_ok,
        fiber_sizes=dict(sorted(sizes.items())), generic_fiber=generic,
        group_order=action.group_order(), elapsed_s=time.perf_counter() - t0)
