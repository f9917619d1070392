"""Naive references: ``LaurentPoly.substitute`` built only from the ring
operators ``__pow__``, ``__mul__`` and ``__add__``, evaluation mod p by a
per-term ``pow`` loop, and a basis search that solves every candidate in
the lattice again."""
from cremona.coeffs import to_prime_field
from cremona.pipeline import (SEARCH_ENTRY_BOUND, MonomialBasis, cremona_step,
                              hnf_basis_for, rewrite_invariant)
from cremona.poly import LaurentPoly


def reference_substitute(F: LaurentPoly, images: dict) -> LaurentPoly:
    target = next(iter(images.values())).vars
    acc = LaurentPoly.zero(target)
    for e, c in F.terms.items():
        t = LaurentPoly.constant(target, c)
        for name, k in zip(F.vars, e):
            if k:
                t = t * images[name] ** k
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
