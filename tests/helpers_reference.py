"""Naive references: the product and power of ``LaurentPoly`` as a
tuple-key double loop and square-and-multiply over it, ``substitute`` built
from those and ``__add__``, evaluation mod p by a
per-term ``pow`` loop, the F_p enumerations as per-point loops over
``proj_points``, and a basis search that solves every candidate in the
lattice again."""
import itertools
import time

from cremona.coeffs import to_prime_field
from cremona.pipeline import (SEARCH_ENTRY_BOUND, MonomialBasis, cremona_step,
                              hnf_basis_for, rewrite_invariant)
from cremona.poly import LaurentPoly
from cremona.verify import (FiberHistogram, QuotientFiberReport, ScanReport,
                            _check_enumeration_guard, group_elements_mod_p,
                            normalize_point, proj_points)


def reference_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b by a double loop over tuple keys and coefficient objects: the
    product ``LaurentPoly.__mul__`` ran before it used the packed kernel."""
    if a.vars != b.vars:
        raise ValueError(f"variable sets differ: {a.vars} vs {b.vars}")
    acc: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    return LaurentPoly(a.vars, acc)


def reference_pow(a: LaurentPoly, n: int) -> LaurentPoly:
    """a ** n by square-and-multiply over ``reference_mul``, starting from
    the base so that F_p powers stay in F_p; a ** 0 is the unit of a's
    domain (Q for the zero polynomial); negative n for monomials only."""
    if n == 0:
        return LaurentPoly.constant(a.vars, next(iter(a.terms.values()), 1) ** 0)
    if n < 0:
        if len(a.terms) != 1:
            raise ValueError("negative powers only for monomials")
        (e, c), = a.terms.items()
        return LaurentPoly(a.vars, {tuple(n * x for x in e): c ** n})
    result = None
    while True:
        if n & 1:
            result = a if result is None else reference_mul(result, a)
        n >>= 1
        if not n:
            return result
        a = reference_mul(a, a)


def reference_substitute(F: LaurentPoly, images: dict) -> LaurentPoly:
    target = next(iter(images.values())).vars
    acc = LaurentPoly.zero(target)
    for e, c in F.terms.items():
        t = LaurentPoly.constant(target, c)
        for name, k in zip(F.vars, e):
            if k:
                t = reference_mul(t, reference_pow(images[name], k))
        acc = acc + t
    return acc


def reference_eval_mod(F: LaurentPoly, pt: tuple, p: int) -> int:
    """F at pt mod p by one ``pow`` per variable per term: the term loop
    ``verify.eval_compiled`` ran before it evaluated generated code."""
    acc = 0
    for e, c in F.sorted_terms():
        t = to_prime_field(c, p).value
        if not t:
            continue
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


def reference_smooth_scan(F: LaurentPoly, p: int) -> ScanReport:
    """``verify.smooth_scan`` as a loop over ``proj_points`` that evaluates
    one partial at a time, the way it ran before its loops were generated."""
    d = F.homogeneous_degree()
    if d is None or not F.is_polynomial():
        raise ValueError("smooth_scan needs a homogeneous polynomial")
    if p in (2, 3) or d % p == 0:
        raise ValueError(f"bad characteristic {p} for degree {d}")
    t0 = time.perf_counter()
    n = F.n_vars
    _check_enumeration_guard(n, p)
    partials = [F.partial_deriv(i) for i in range(n)]
    singular = []
    count = 0
    for pt in proj_points(n, p):
        count += 1
        if all(reference_eval_mod(g, pt, p) == 0 for g in partials):
            if reference_eval_mod(F, pt, p) != 0:
                raise ArithmeticError("Euler relation violated; check the characteristic")
            singular.append(pt)
    return ScanReport(p, count, singular, time.perf_counter() - t0)


def reference_fiber_histogram(rmap, p: int) -> FiberHistogram:
    """``verify.fiber_histogram`` as a loop over ``proj_points``."""
    t0 = time.perf_counter()
    n = len(rmap.source_vars)
    _check_enumeration_guard(n, p)
    comps = rmap.components
    fibers: dict[tuple[int, ...], int] = {}
    indet = 0
    count = 0
    for pt in proj_points(n, p):
        count += 1
        img = tuple(reference_eval_mod(c, pt, p) for c in comps)
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


def reference_map_fiber_orbit_check(F: LaurentPoly, action, forward, target: LaurentPoly,
                                    p: int) -> QuotientFiberReport:
    """``verify.map_fiber_orbit_check`` as a loop over the torus points."""
    t0 = time.perf_counter()
    for order, _ in action.generators:
        if (p - 1) % order != 0:
            raise ValueError(f"root of order {order} unavailable in F_{p}")
    n = action.n_vars
    _check_enumeration_guard(n, p)
    comps = forward.components

    elements = group_elements_mod_p(action, p)
    if len(elements) != action.group_order():
        raise ArithmeticError("embedded group order mismatch")

    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    count = 0
    all_on = True
    for tail in itertools.product(range(1, p), repeat=n - 1):
        pt = (1,) + tail
        if reference_eval_mod(F, pt, p) != 0:
            continue
        count += 1
        img = tuple(reference_eval_mod(c, pt, p) for c in comps)
        img = normalize_point(img, p)
        if reference_eval_mod(target, img, p) != 0:
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


def reference_search_basis(X, chart, width=8, depth=6):
    """``pipeline.search_basis`` as it was before it carried term
    coordinates through its row moves: every candidate is scored by
    rewriting the chart equation in its basis with ``rewrite_invariant``."""
    start = hnf_basis_for(X.action, chart)
    cremona_step(X, chart, start)
    f = X.F.dehomogenize(chart)

    def score(basis):
        flat = tuple(x for row in basis.rows for x in row)
        return rewrite_invariant(f, chart, basis)[0].total_degree(), flat

    best_score = score(start)
    best_basis = start
    beam = [(best_score, start)]
    seen = {start.rows}
    n = start.size
    for _ in range(depth):
        candidates = []
        for _, basis in beam:
            rows = basis.rows
            neighbors = []
            for i in range(n):
                neg = tuple(tuple(-x for x in r) if k == i else r for k, r in enumerate(rows))
                neighbors.append(neg)
                for j in range(n):
                    if i == j:
                        continue
                    for sign in (1, -1):
                        new_row = tuple(a + sign * b for a, b in zip(rows[i], rows[j]))
                        if max(abs(x) for x in new_row) > SEARCH_ENTRY_BOUND:
                            continue
                        neighbors.append(tuple(new_row if k == i else r
                                               for k, r in enumerate(rows)))
            for rows2 in neighbors:
                if rows2 in seen:
                    continue
                seen.add(rows2)
                cand = MonomialBasis(rows2)
                candidates.append((score(cand), cand))
        if not candidates:
            break
        candidates.sort(key=lambda t: t[0])
        beam = candidates[:width]
        if candidates[0][0] < best_score:
            best_score, best_basis = candidates[0]
    return best_basis, cremona_step(X, chart, best_basis)
