"""Finite-field verification: smoothness scans, exact on-variety identities,
fiber-degree histograms, and quotient-fiber checks.

``on_variety`` is exact: it runs the engine's single expansion,
``LaurentPoly.substitute``, and holds no arithmetic of its own.  Scans are
evidence, not proofs: an empty singular list means "no F_q-rational
singular point found".  Exact smoothness is only decided in closed form for
diagonal (sum of scaled powers) equations.  Prime fields only; the default
prime is the smallest p >= 7 with every needed root order dividing p - 1.
"""
from __future__ import annotations

import itertools
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


def compile_mod(poly: LaurentPoly, p: int):
    """[(coeff int, exps), ...] with coefficients reduced mod p, zeros dropped."""
    out = []
    for e, c in poly.sorted_terms():
        v = to_prime_field(c, p).value
        if v:
            out.append((v, e))
    return out


def eval_compiled(compiled, pt: tuple[int, ...], p: int) -> int:
    acc = 0
    for c, e in compiled:
        t = c
        for x, k in zip(pt, e):
            if k == 0:
                continue
            if k < 0:
                if x % p == 0:
                    raise ZeroDivisionError("pole at zero coordinate")
                t = t * pow(x, (p - 2) * (-k), p)
            else:
                t = t * pow(x, k, p)
        acc += t
    return acc % p


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
