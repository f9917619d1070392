"""Seeded workloads for the cremona benchmark.

Each item is one user-level request.  Its input is an input-language document
generated from the seed; the item parses it with `lang.parse_input`, exactly
where the command line would read a file, then calls the public API.  Every
answer is checked against a reference known from how the input was built.

The three workloads separate the engine's three costs:

* `search`      -- basis search as `cremona transform` runs it without a basis:
                   lattice, action and pipeline work, no F_p work.
* `fp_evidence` -- finite-field evidence: fiber histograms, smoothness scans and
                   quotient-fiber checks, i.e. `eval_compiled` enumeration.
* `expand`      -- exact symbolic expansion: `on_variety` on both sides of its
                   packed/generic fork, map composition with gcd cancellation.

A round is the seeded list of items of one workload.  Every seed draws the same
strata (sizes, coefficient domains, primes) in the same order.  The seed draws
all coefficients, the random maps of `fp_evidence`, and in `expand` a
relabeling of the coordinates; the supports of the `search` and `expand`
polynomials are drawn once per stratum, since they set the cost.  That keeps
the cost of a round nearly independent of the seed while the inputs change.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from cremona import action, coeffs, lang, pipeline, poly, scenarios, verify


@dataclass(frozen=True)
class Item:
    kind: str          # selects the request and its check, see KINDS
    label: str         # what the item is, for failure reports
    text: str          # the input-language document handed to the engine
    args: tuple = ()   # options the command line would take besides the file
    expect: object = None  # reference data for the check


def _spec_text(variables, polys, params=(), zeta=None, groups=(), maps=None,
               chart=None, basis=None, primes=()) -> str:
    return lang.render_spec(lang.ProblemSpec(
        variables=tuple(variables), params=tuple(params), zeta_order=zeta,
        generators=tuple(groups), polys=dict(polys), maps=dict(maps or {}),
        chart=chart, basis=basis, primes=tuple(primes)))


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def _action_of(spec) -> action.DiagonalAction:
    return action.DiagonalAction(len(spec.variables), spec.generators)


# ---------------------------------------------------------------------------
# search: basis search, then the winning step
# ---------------------------------------------------------------------------

def _run_search(item: Item):
    spec = lang.parse_input(item.text)
    X = action.InvariantHypersurface(spec.polys["F"], _action_of(spec))
    chart = spec.chart_index()
    basis, searched = pipeline.search_basis(X, chart, width=8, depth=6)
    return X, chart, searched, pipeline.cremona_step(X, chart, basis)


def _check_search(item: Item, result) -> str | None:
    X, chart, searched, step = result
    if step.image != searched.image:
        return "re-running the winning basis gives another image"
    hnf_degree = pipeline.cremona_step(X, chart).degree
    if step.degree > hnf_degree:
        return f"winner degree {step.degree} exceeds the HNF-basis degree {hnf_degree}"
    want = item.expect or {}
    if "degree" in want and step.degree != want["degree"]:
        return f"winner degree {step.degree}, want {want['degree']}"
    if "image" in want and step.image != want["image"]:
        return "winner image differs from the reference model"
    return None


def _swap_coordinates(G, i: int, j: int):
    """G with coordinates i and j exchanged."""
    def swap(e):
        e = list(e)
        e[i], e[j] = e[j], e[i]
        return tuple(e)
    return poly.LaurentPoly(G.vars, {swap(e): c for e, c in G.terms.items()})


def _bundled_search_items() -> list[Item]:
    families = (
        ("ex1", scenarios.ex1_family(), scenarios.EX1_PARAMS, scenarios.EX1_ACTION,
         {"degree": 3}),
        ("paired", scenarios.ex3_family(), scenarios.EX3_PARAMS, scenarios.PAIR_ACTION, {}),
        # at width 8 and depth 6 the search's tie-break picks the basis whose
        # image is the announced cubic with x1 and x3 exchanged; the search is
        # deterministic, so any other image is a change
        ("c3c3", scenarios.c3c3_family(), scenarios.C7_PARAMS, scenarios.C3C3_ACTION,
         {"image": _swap_coordinates(scenarios.MAIN_CUBIC, 0, 2)}),
    )
    return [Item("search", name, _spec_text(F.vars, {"F": F}, params=params,
                                            groups=act.generators, chart="x5"),
                 expect=expect)
            for name, F, params, act, expect in families]


def invariant_support(rng: random.Random, n_vars: int, n_terms: int):
    """A random diagonal action of order <= 27 fixing the last coordinate, and
    the support of an invariant polynomial of degree 3 or 4 with n_terms
    terms, not divisible by the last coordinate."""
    while True:
        gens = []
        for _ in range(rng.choice((1, 1, 2))):
            e = rng.choice((2, 3))
            gens.append((e, tuple(rng.randrange(e) for _ in range(n_vars - 1)) + (0,)))
        act = action.DiagonalAction(n_vars, tuple(gens))
        if act.group_order() > 27:
            continue
        monomials = [e for e in _monomials(n_vars, rng.choice((3, 4)))
                     if not any(act.character(e))]
        if len(monomials) < n_terms:
            continue
        support = rng.sample(monomials, n_terms)
        if not all(e[-1] for e in support):
            return act.generators, support


def _monomials(n_vars: int, degree: int, among=None) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(among or range(n_vars), degree):
        e = [0] * n_vars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _relabel(perm):
    """Move coordinate j to slot perm[j]."""
    def move(v):
        out = [0] * len(v)
        for j, x in enumerate(v):
            out[perm[j]] = x
        return tuple(out)
    return move


# (variables, terms) of the seeded search items, in round order: mostly small
# surfaces, so that a run holds enough items for its 90th percentile
SEARCH_STRATA = tuple((4, 3 + k % 3) for k in range(12)) + ((5, 5),) + \
    tuple((4, 3 + k % 3) for k in range(12)) + ((6, 3),)


def search_round(seed: int, strata=SEARCH_STRATA, fixed: bool = True) -> list[Item]:
    """The seed draws the coefficients.  Each stratum's action and support are
    drawn once, independent of the seed: the search looks only at exponents,
    and relabeling coordinates by seed moved single-item latencies by 10-15 %
    through the beam's tie-breaks, more than the benchmark's bounds."""
    rng = random.Random(f"search-{seed}")
    seeded = []
    for k, (n_vars, n_terms) in enumerate(strata):
        gens, support = invariant_support(random.Random(f"search-support-{k}"), n_vars, n_terms)
        F = poly.LaurentPoly(_names(n_vars), {
            e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
            for e in support})
        seeded.append(Item("search", f"random n={n_vars} terms={n_terms} #{k}",
                           _spec_text(F.vars, {"F": F}, groups=gens, chart=F.vars[-1])))
    return _interleave(_bundled_search_items() if fixed else [], seeded)


# ---------------------------------------------------------------------------
# fp_evidence: fiber histograms, smoothness scans, quotient-fiber checks
# ---------------------------------------------------------------------------

def _run_histogram(item: Item):
    spec = lang.parse_input(item.text)
    rmap = pipeline.RationalMap([spec.polys[c] for c in spec.maps["M"]])
    return verify.fiber_histogram(rmap, spec.primes[0])


def _check_histogram(item: Item, hist) -> str | None:
    if not hist.mass_ok():
        return "histogram mass does not account for every source point"
    if item.expect == "degree3":
        h = hist.histogram
        if hist.inferred_degree != 3 or not h.get(3, 0) > 2 * h.get(2, 0):
            return f"degree-13 map: inferred degree {hist.inferred_degree}, histogram {h}"
    return None


def _run_smooth(item: Item):
    spec = lang.parse_input(item.text)
    F = spec.polys["F"]
    return F, verify.smooth_scan(F, spec.primes[0])


def _check_smooth(item: Item, result) -> str | None:
    F, scan = result
    if scan.ok != verify.diagonal_form_smooth(F):
        return f"scan verdict {scan.ok} disagrees with the closed-form criterion"
    if item.expect == "singular" and scan.ok:
        return "the cone shows no singular point"
    return None


def _run_quotient(item: Item):
    spec = lang.parse_input(item.text)
    X = action.InvariantHypersurface(spec.polys["F"], _action_of(spec))
    step = pipeline.cremona_step(X, spec.chart_index(), pipeline.MonomialBasis(spec.basis))
    return X, verify.quotient_fiber_check(X, step, spec.primes[0])


def _check_quotient(item: Item, result) -> str | None:
    X, rep = result
    if not rep.ok or rep.generic_fiber != X.action.group_order():
        return f"quotient fibers: ok={rep.ok}, generic {rep.generic_fiber}, sizes {rep.fiber_sizes}"
    return None


def _degree13_map_polys(variables):
    """The explicit degree-13 map's components over `variables` (padded with
    unused trailing variables), as named polys and a map declaration."""
    emap = scenarios.explicit_degree3_map()
    comps = [poly.LaurentPoly(variables, {e + (0,) * (len(variables) - len(e)): c
                                          for e, c in comp.terms.items()})
             for comp in emap.components]
    polys = {f"P{i + 1}": c for i, c in enumerate(comps)}
    return polys, {"M": tuple(polys)}


def _quotient_items() -> list[Item]:
    ones = {t: 1 for t in scenarios.C7_PARAMS}  # covers EX1_PARAMS too
    q40057 = lang.parse_poly("x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x1 + x5^3", scenarios.X5)
    cases = (
        ("ex1", scenarios.ex1_family().specialize_params(ones),
         scenarios.EX1_ACTION, scenarios.EX1_BASIS, (13, 19)),
        ("c3c3", scenarios.c3c3_family().specialize_params(ones),
         scenarios.C3C3_ACTION, scenarios.C3C3_BASIS, (13, 19)),
        # order 5 needs p = 1 mod 5: 11 is the scenario's prime, 31 the next one
        ("qfano_40057", q40057, action.DiagonalAction(5, ((5, (1, 3, 4, 2, 0)),)),
         pipeline.MonomialBasis(((0, 1, 0, 1), (0, 1, 3, 0), (0, 0, 2, 1), (1, 0, 0, 2))),
         (11,)),
    )
    return [Item("quotient", f"{name} p={p}",
                 _spec_text(F.vars, {"F": F}, groups=act.generators, chart="x5",
                            basis=basis.rows, primes=(p,)))
            for name, F, act, basis, primes in cases for p in primes]


def random_map(rng: random.Random, n_src: int, n_comps: int, degree: int, n_terms: int):
    variables = _names(n_src)
    monomials = [e for e in itertools.product(range(degree + 1), repeat=n_src)
                 if sum(e) == degree]
    return [poly.LaurentPoly(variables, {e: rng.randint(1, 9)
                                         for e in rng.sample(monomials, n_terms)})
            for _ in range(n_comps)]


def diagonal_cubic(rng: random.Random, n_vars: int, dropped: int):
    """sum c_i x_i^3 over the first n_vars - dropped coordinates (a cone when
    dropped > 0), with coefficients prime to every scanned characteristic."""
    variables = _names(n_vars)
    keep = n_vars - dropped
    terms = {tuple(3 if j == i else 0 for j in range(n_vars)): rng.randint(1, 9)
             for i in range(keep)}
    return poly.LaurentPoly(variables, terms)


# smoothness scans: (variables, dropped coordinates, prime)
SMOOTH_STRATA = ((4, 0, 31), (5, 0, 13), (4, 1, 23), (4, 0, 19), (5, 1, 13), (4, 0, 13),
                 (4, 2, 29), (5, 0, 17))
# random maps P^{n-1} -> P^{k-1}: (source variables, components, degree, terms, prime)
MAP_STRATA = ((3, 3, 3, 4, 31), (4, 4, 2, 4, 13), (3, 4, 2, 3, 37), (4, 3, 2, 5, 17),
              (3, 3, 2, 4, 23), (4, 4, 2, 3, 19))


def fp_round(seed: int, smooth_strata=SMOOTH_STRATA, map_strata=MAP_STRATA,
             fixed: bool = True) -> list[Item]:
    rng = random.Random(f"fp_evidence-{seed}")
    heavy: list[Item] = []
    if fixed:
        polys, decl = _degree13_map_polys(_names(4))
        heavy.append(Item("histogram", "degree-13 map p=13",
                          _spec_text(_names(4), polys, zeta=3, maps=decl, primes=(13,)),
                          expect="degree3"))
        heavy += _quotient_items()
    smooth: list[Item] = []
    if fixed:
        for p in (13, 19):
            smooth.append(Item("smooth", f"Fermat p={p}",
                               _spec_text(scenarios.X5, {"F": scenarios.FERMAT}, primes=(p,))))
        cone = lang.parse_poly("x1^3 + x2^3 + x3^3", scenarios.X5)
        smooth.append(Item("smooth", "cone p=13",
                           _spec_text(scenarios.X5, {"F": cone}, primes=(13,)),
                           expect="singular"))
    for n_vars, dropped, p in smooth_strata:
        F = diagonal_cubic(rng, n_vars, dropped)
        smooth.append(Item("smooth", f"diagonal n={n_vars} dropped={dropped} p={p}",
                           _spec_text(F.vars, {"F": F}, primes=(p,))))
    maps: list[Item] = []
    for n_src, n_comps, deg, n_terms, p in map_strata:
        comps = random_map(rng, n_src, n_comps, deg, n_terms)
        polys = {f"P{i + 1}": c for i, c in enumerate(comps)}
        maps.append(Item("histogram", f"random map {n_src}->{n_comps} deg {deg} p={p}",
                         _spec_text(comps[0].vars, polys, maps={"M": tuple(polys)},
                                    primes=(p,))))
    light = _interleave(maps, smooth)
    return _interleave(heavy, light)


# ---------------------------------------------------------------------------
# expand: exact identities, parametrizations and their twins, compositions
# ---------------------------------------------------------------------------

def _run_identity(item: Item):
    spec = lang.parse_input(item.text)
    rmap = pipeline.RationalMap([spec.polys[c] for c in spec.maps["M"]])
    return verify.on_variety(rmap, spec.polys["T"])


def _run_model(item: Item):
    spec = lang.parse_input(item.text)
    F = spec.polys["F"]
    model = pipeline.parametrize_linear(F, pipeline.linear_witness(F))
    return verify.on_variety(model, spec.polys.get("T", F))


def _check_verdict(item: Item, verdict) -> str | None:
    return None if verdict is item.expect else f"on_variety gave {verdict}, want {item.expect}"


def _run_inverse(item: Item):
    spec = lang.parse_input(item.text)
    F = spec.polys["F"]
    i = pipeline.linear_witness(F)
    model = pipeline.parametrize_linear(F, i)
    back = pipeline.compose_maps(pipeline.RationalMap.coordinate_projection(F.vars, i), model)
    return back, model


def _check_inverse(item: Item, result) -> str | None:
    """The composite is the identity up to one common scalar (the gcd that
    compose_maps cancels is monic)."""
    back, model = result
    identity = pipeline.RationalMap.identity(model.source_vars).components
    scale = next(iter(back.components[0].terms.values()), None)
    if not scale or any(c != i * scale for c, i in zip(back.components, identity)):
        return "projection after the parametrization is not the identity"
    return None


def _run_chain(item: Item):
    spec = lang.parse_input(item.text)
    F = spec.polys["F"]
    X = action.InvariantHypersurface(F, _action_of(spec))
    steps = []
    for chart, rows, parent in item.args:
        act = X.action
        c = act.default_chart() if chart is None else chart
        basis = pipeline.MonomialBasis(rows) if rows else pipeline.hnf_basis_for(act, c)
        parent_action = action.DiagonalAction(act.n_vars, parent) if parent else None
        step = pipeline.cremona_step(X, c, basis, parent_action)
        steps.append(step)
        X = step.output_hypersurface()
    chain = pipeline.CremonaChain(tuple(steps))
    return F, steps[-1].image, chain.forward_map()


def _check_chain(item: Item, result) -> str | None:
    """The last image pulled back along the composite forward map is the
    input polynomial times a monomial."""
    F, image, forward = result
    pulled = image.substitute({v: forward.components[i] for i, v in enumerate(image.vars)})
    if pulled.monomial_content()[1] != F:
        return "pulled-back image is not a monomial multiple of the input"
    return None


def _chain_items() -> list[Item]:
    s = scenarios
    ex1_step2 = ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    chains = (
        ("ex1 chain", s.ex1_family(), s.EX1_PARAMS, s.EX1_ACTION,
         ((4, s.EX1_BASIS.rows, None), (1, ex1_step2, None))),
        ("c3c3 chain", s.c3c3_family(), s.C7_PARAMS, s.C3C3_ACTION,
         ((4, s.C3C3_BASIS.rows, None), (0, s.C3C3_STEP2_BASIS.rows, None),
          (2, s.C3C3_STEP3_BASIS.rows, None))),
        ("main chain", s.FERMAT, (), s.MAIN_G1,
         ((1, None, s.MAIN_G.generators), (None, None, None))),
    )
    return [Item("chain", name, _spec_text(F.vars, {"F": F}, params=params,
                                           groups=act.generators), args=args)
            for name, F, params, act, args in chains]


PARAMS = ("t1", "t2", "t3")


def _random_coeff(rng: random.Random, domain: str):
    """A nonzero coefficient of a fixed shape per domain, so that the seed
    changes values but not the cost of the arithmetic."""
    sign = rng.choice((-1, 1))
    if domain == "Q":
        return Fraction(sign * rng.randint(1, 9), rng.randint(1, 3))
    if domain == "Q(zeta3)":
        return sign * rng.randint(1, 3) + rng.choice((-2, -1, 1, 2)) * coeffs.Cyclotomic.zeta(3)
    # c0 + c1 * t for one named parameter t
    return coeffs.ParamCoeff.const(PARAMS, sign * rng.randint(1, 3)) + \
        rng.choice((-2, -1, 1, 2)) * coeffs.ParamCoeff.param(PARAMS, rng.choice(PARAMS))


def linear_support(rng: random.Random, n_vars: int, degree: int, a_terms: int,
                   b_terms: int):
    """Support of F = x1 * A + B with A, B free of x1, where x1 is the only
    variable of degree exactly 1 (so it is the linear witness), plus one more
    monomial of the same shape for the perturbed twin."""
    others = range(1, n_vars)
    with_x1 = [(1,) + e[1:] for e in _monomials(n_vars, degree - 1, others)]
    without = _monomials(n_vars, degree, others)
    while True:
        support = rng.sample(with_x1, a_terms) + rng.sample(without, b_terms)
        if all(max(e[j] for e in support) != 1 for j in others):
            break
    extra = rng.choice([e for e in with_x1 + without if e not in support])
    return support, extra


def linear_poly(rng: random.Random, domain: str, support, extra):
    """The seeded polynomial on a support and its perturbed twin: the seed
    relabels all coordinates and draws every coefficient."""
    n_vars = len(extra)
    variables = _names(n_vars)
    move = _relabel(rng.sample(range(n_vars), n_vars))
    F = poly.LaurentPoly(variables, {move(e): _random_coeff(rng, domain) for e in support})
    twin = F + poly.LaurentPoly(variables, {move(extra): _random_coeff(rng, domain)})
    return F, twin


DOMAINS = ("Q", "Q(zeta3)", "params")
# (variables, degree, terms of A, terms of B) per coefficient domain
MODEL_STRATA = {
    "Q": ((5, 4, 6, 10), (6, 4, 8, 14), (5, 3, 4, 6), (6, 3, 5, 8)),
    "Q(zeta3)": ((5, 4, 6, 10), (6, 4, 8, 14), (5, 3, 4, 6), (6, 3, 5, 8)),
    "params": ((4, 3, 3, 4), (5, 3, 4, 5), (4, 3, 4, 5), (5, 3, 3, 6), (4, 3, 3, 5),
               (5, 3, 4, 4)),
}


def expand_round(seed: int, strata=MODEL_STRATA, fixed: bool = True) -> list[Item]:
    rng = random.Random(f"expand-{seed}")
    fixed_items: list[Item] = []
    if fixed:
        polys, decl = _degree13_map_polys(scenarios.X5)
        polys["T"] = scenarios.FERMAT
        fixed_items.append(Item("identity", "degree-13 map onto Fermat",
                                _spec_text(scenarios.X5, polys, zeta=3, maps=decl),
                                expect=True))
        fixed_items += _chain_items()
    seeded: list[Item] = []
    for k in range(max(len(s) for s in strata.values())):
        for domain in DOMAINS:
            if k >= len(strata[domain]):
                continue
            n_vars, degree, a_terms, b_terms = strata[domain][k]
            support, extra = linear_support(random.Random(f"expand-support-{domain}-{k}"),
                                            n_vars, degree, a_terms, b_terms)
            F, twin = linear_poly(rng, domain, support, extra)
            params = PARAMS if domain == "params" else ()
            zeta = 3 if domain == "Q(zeta3)" else None
            size = f"{domain} n={n_vars} d={degree} #{k}"
            seeded.append(Item("model", f"model {size}",
                               _spec_text(F.vars, {"F": F}, params=params, zeta=zeta),
                               expect=True))
            seeded.append(Item("model", f"perturbed twin {size}",
                               _spec_text(F.vars, {"F": F, "T": twin}, params=params,
                                          zeta=zeta),
                               expect=False))
            # exact gcd needs a field of coefficients; its cost at degree 4
            # swings with the variable order, so only cubics are inverted
            if domain != "params" and degree == 3:
                seeded.append(Item("inverse", f"projection after model {size}",
                                   _spec_text(F.vars, {"F": F}, zeta=zeta)))
    return _interleave(fixed_items, seeded)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

KINDS = {
    "search": (_run_search, _check_search),
    "histogram": (_run_histogram, _check_histogram),
    "smooth": (_run_smooth, _check_smooth),
    "quotient": (_run_quotient, _check_quotient),
    "identity": (_run_identity, _check_verdict),
    "model": (_run_model, _check_verdict),
    "inverse": (_run_inverse, _check_inverse),
    "chain": (_run_chain, _check_chain),
}

ROUNDS = {"search": search_round, "fp_evidence": fp_round, "expand": expand_round}


def build_round(workload: str, seed: int) -> list[Item]:
    return ROUNDS[workload](seed)


def run_item(item: Item):
    return KINDS[item.kind][0](item)


def check_item(item: Item, result) -> str | None:
    """None when the answer matches its reference, else the reason it does not."""
    return KINDS[item.kind][1](item, result)


def _interleave(sparse: list[Item], dense: list[Item]) -> list[Item]:
    """Spread the sparse items evenly through the dense ones, so that every
    prefix of a round holds a similar mix."""
    if not sparse:
        return list(dense)
    out: list[Item] = []
    step = len(dense) / len(sparse)
    j = 0
    for k, item in enumerate(sparse):
        stop = round((k + 1) * step)
        out.append(item)
        out.extend(dense[j:stop])
        j = stop
    out.extend(dense[j:])
    return out
