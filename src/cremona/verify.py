"""Finite-field verification: smoothness scans, exact on-variety identities,
fiber-degree histograms, and quotient-fiber checks.

``on_variety`` is exact: it runs the engine's single expansion,
``LaurentPoly.substitute``, with ``zero_test``, which decides at the
expansion's inner sum whether the composite is zero without forming it, and
holds no arithmetic of its own.

Every enumeration is one generated program: ``compile_enumeration`` writes
the point loops of P^n(F_p) (one block per lead coordinate, in
``proj_points`` order) or of the torus x0 = 1, x_i != 0 for its
polynomials and prime, with each polynomial nested Horner-fashion in the
loop variables and powers read from per-prime tables.  It yields the points
where its polynomials vanish or each such point's normalized image, or, for
a quotient-fiber check, groups the torus points by image itself: it counts
each fiber and tests every later point's packed int code against the orbit
of the fiber's first point, built once by arithmetic on the group's scaled
elements.  The first zero test fixed by the last coordinate is not tested
per value: the innermost loop runs over the bucket of a per-prime root
table, keyed by the test's coefficients that vary, which holds only the
values where it vanishes.  The table is used when it has no more buckets
than the enclosing loops have iterations.
``compile_mod`` generates one straight-line function per polynomial and
prime (straight-line programs; Buergisser, Clausen and Shokrollahi,
*Algebraic Complexity Theory*, 1997); ``eval_compiled`` runs it at computed
points, such as the Euler check at singular points (compiled only when a scan
finds some) and the target check, once per distinct image of a quotient-fiber
check, and rejects a prime other than the one it was compiled for.
``compile_enumeration``, which runs every enumeration, refuses a p that is
not a prime below ``PRIME_TEST_BOUND``, then checks ``ENUMERATION_GUARD``,
both before any code is generated, and raises ``Refusal`` on either.

Scans are evidence, not proofs: an empty singular list means "no
F_q-rational singular point found".  Exact smoothness is only decided in
closed form for diagonal (sum of scaled powers) equations.  Prime fields
only; the default prime is the smallest p >= 7 with every needed root order
dividing p - 1.
"""
from __future__ import annotations

import itertools
import math
import operator
import time
from collections import Counter
from dataclasses import dataclass

from .action import InvariantHypersurface
from .coeffs import PRIME_TEST_BOUND, is_prime, root_embed, to_prime_field
from .pipeline import CremonaStep, RationalMap
from .poly import LaurentPoly, scalar_str

ENUMERATION_GUARD = 10 ** 7


class Refusal(ValueError):
    """A check declined its input before running: a p that is not prime, a
    characteristic its argument does not cover, a polynomial it does not
    apply to (among them one with a coefficient that has no residue mod p),
    a map with more or fewer components than its target has variables (or,
    for a degree, fewer than its source has coordinates), or an enumeration
    past ``ENUMERATION_GUARD``.  The command line exits 2 on it."""


def default_prime(orders=(), degree: int | None = None) -> int:
    """Smallest prime p >= 7 with all root orders dividing p - 1 and p
    coprime to the degree (so the Euler relation argument applies): p runs
    through 1 + k * lcm(orders), the only candidates."""
    step = math.lcm(*orders)
    p = 1 + -(-6 // step) * step
    while not (is_prime(p) and (degree is None or degree % p != 0)):
        p += step
    return p


def proj_points(n_coords: int, p: int):
    """Canonical representatives of P^{n_coords-1}(F_p): first nonzero = 1."""
    for lead in range(n_coords):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=n_coords - lead - 1):
            yield prefix + tail


def proj_point_count(n_coords: int, p: int) -> int:
    return (p ** n_coords - 1) // (p - 1)


def _check_prime(p: int) -> None:
    if p >= PRIME_TEST_BOUND or not is_prime(p):
        raise Refusal(f"p = {p} is not a prime below {PRIME_TEST_BOUND}")


def _check_enumeration_guard(n_coords: int, p: int) -> None:
    total = proj_point_count(n_coords, p)
    if total > ENUMERATION_GUARD:
        raise Refusal(f"enumeration guard exceeded: |P^{n_coords - 1}(F_{p})| = {total}")


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


def _terms_mod(poly: LaurentPoly, p: int) -> list[tuple[int, tuple[int, ...]]]:
    """The ``(coeff, exps)`` terms of ``poly`` whose coefficient is nonzero
    mod p; a coefficient with no residue mod p is refused."""
    terms = []
    for e, c in poly.sorted_terms():
        try:
            v = to_prime_field(c, p).value
        except (ZeroDivisionError, ValueError) as exc:
            raise Refusal(f"coefficient {scalar_str(c)} has no residue mod {p}: {exc}") from exc
        if v:
            terms.append((v, e))
    return terms


def _fermat(k: int, p: int) -> int:
    """The exponent r with 1 <= |r| <= p - 1 and the sign of k != 0 such that
    x^r = x^k on F_p (on F_p^* for negative k): x^(p-1) = 1 away from zero,
    and two positive exponents agree at zero too."""
    r = (abs(operator.index(k)) - 1) % (p - 1) + 1
    return r if k > 0 else -r


def _power_name(i: int, k: int) -> str:
    return f"x{i}" if k == 1 else f"x{i}_{k}" if k > 0 else f"x{i}_m{-k}"


def _sum_mod(lines: list[str], pad: str, products: list[str], p: int) -> str:
    """The expression for ``sum(products) % p``.  A sum longer than
    ``_TERMS_PER_STATEMENT`` is first accumulated into ``s`` by lines
    appended to ``lines``."""
    step = _TERMS_PER_STATEMENT
    if len(products) <= step:
        return f"({' + '.join(products)}) % {p}"
    lines.append(f"{pad}s = " + " + ".join(products[:step]))
    for j in range(step, len(products), step):
        lines.append(f"{pad}s += " + " + ".join(products[j:j + step]))
    return f"s % {p}"


def _straight_line(terms, n_vars: int, p: int):
    """Generate ``f(pt)`` evaluating ``sum c * prod x_i^k_i mod p``.

    Exponents are first reduced by ``_fermat``, so the code stays short for
    any degree.  Each variable's powers are then built once, up to its
    largest exponent, and reduced mod p at every step; a variable with a
    negative exponent is checked for a pole and inverted once.  The source is
    made only of int literals and the positional names ``x{i}``, so no input
    text reaches it.
    """
    p = operator.index(p)
    monomials = [(operator.index(c), [(i, _fermat(k, p)) for i, k in enumerate(e) if k])
                 for c, e in terms]
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
    lines.append(f"    return {_sum_mod(lines, '    ', products, p) if products else 0}")
    return _define(lines, f"<compile_mod p={p}>", {})


def _define(lines: list[str], filename: str, namespace: dict):
    """Compile the function ``f`` that ``lines`` define, with ``namespace``
    as its globals, and return it."""
    exec(compile("\n".join(lines), filename, "exec"), namespace)
    return namespace["f"]


def compile_mod(poly: LaurentPoly, p: int) -> CompiledPoly:
    """Reduce coefficients mod p, drop zeros, and generate the evaluator."""
    return CompiledPoly(_terms_mod(poly, p), p, poly.n_vars)


def eval_compiled(compiled: CompiledPoly, pt: tuple[int, ...], p: int) -> int:
    """The value of a compiled polynomial at ``pt``, in ``[0, p)``."""
    if p != compiled.p:
        raise ValueError(f"polynomial compiled for F_{compiled.p}, evaluated over F_{p}")
    return compiled.fn(pt)


# ---------------------------------------------------------------------------
# enumeration kernels
# ---------------------------------------------------------------------------

def compile_enumeration(n_vars: int, p: int, zeros=(), images=None, torus: bool = False,
                        elements=None):
    """Generate one program that enumerates the points of P^{n_vars-1}(F_p)
    in ``proj_points`` order, or with ``torus`` the points (1, x1, ...) with
    every x_i in [1, p), and evaluates ``zeros`` and ``images`` at each.

    The program skips a point as soon as one of ``zeros`` is nonzero there
    (in order).  Without ``elements`` it is a generator function: at the
    points left it yields the point when ``images`` is None, else the image
    (``images`` evaluated, scaled so its first nonzero entry is 1, or None
    for the zero vector).

    With ``elements``, int tuples h of length ``n_vars`` with h_0 = 1 (on
    the torus, with ``images``), the program returns the fibers instead: a
    dict from each image, in first-appearance order and None included, to
    ``[count, in_orbit, codes]``.  A point (1, x1, ..., xm) has the code
    sum x_i * p^(m-i), extended at each loop level; when an image first
    appears, ``codes`` is the set of codes of h * pt over ``elements``, each
    coordinate h_i * x_i % p, and ``in_orbit`` stays True while every later
    point of the fiber has its code there.

    The loops live inside the program.  A projective block per lead
    coordinate sets x_i = 0 for i < lead and x_lead = 1 when the code is
    generated, so terms in the zeroed variables drop out; the torus is one
    block with x0 = 1.  Inside a block the last coordinate runs fastest, and
    each polynomial is nested Horner-fashion in the loop variables: its
    coefficients with respect to the inner variables are updated once per
    value of each outer one, so the innermost loop pays one product per
    distinct exponent of the last variable.  A polynomial whose value is
    fixed before the innermost loop is tested (or finished) at the level
    where it is fixed.  Powers come from per-prime tables unpacked by the
    ``for`` statement.  The image's entries are tested for zero in order,
    and on the torus the tests stop at a lone term, which cannot vanish
    there.

    The first of ``zeros`` fixed at the innermost level is sum c_k * x^k in the
    last variable x, each c_k an int literal or a name of a value in [0, p)
    fixed by the outer loops.  Its test is replaced by a root table, built
    here once per shape: the varying coefficients, flattened to one index
    ``c + p*c' + ...``, select the bucket of the x in the loop's range where
    the sum vanishes, in increasing order and as the rows of that loop's
    power table, and the loop runs over that bucket only.  The table has
    p^(varying coefficients) buckets and is used when that is at most the
    number of iterations of the enclosing loops; otherwise, and for every
    other test fixed there, the loop tests each x.  Either way the points
    come in the same order.

    Exponents are reduced by ``_fermat``.  A negative
    exponent in a projective enumeration of two or more coordinates raises
    ``ZeroDivisionError``: some point there has that coordinate zero.  The
    source holds only int literals and positional names.
    """
    p = operator.index(p)
    _check_prime(p)
    _check_enumeration_guard(n_vars, p)
    if elements is not None and not (torus and images is not None and elements):
        raise ValueError("fibers are enumerated on the torus, with images and group elements")
    polys = [[(c, tuple(_fermat(k, p) if k else 0 for k in e)) for c, e in _terms_mod(f, p)]
             for f in (*zeros, *(images or ()))]
    if not torus and n_vars > 1 and any(k < 0 for terms in polys for _, e in terms for k in e):
        raise ZeroDivisionError("pole at zero coordinate")
    tables: dict[tuple[int, ...], tuple[str, tuple]] = {}
    lines = ["def f():"]
    if elements is not None:
        lines.append("    D = {}")
    blocks = [(0, 1)] if torus else [(lead, 0) for lead in range(n_vars)]
    for lead, start in blocks:
        lines += _block(polys, len(zeros), images is not None, elements, n_vars, lead, start,
                        p, tables)
    # without elements, a generator even when every block drops out
    lines.append("    yield from ()" if elements is None else "    return D")
    namespace = dict(tables.values())
    if images is not None:
        namespace["INV"] = (0,) + tuple(pow(x, -1, p) for x in range(1, p))
    return _define(lines, f"<compile_enumeration p={p}>", namespace)


def _block(polys, n_zeros: int, want_image: bool, elements, n_vars: int, lead: int,
           start: int, p: int, tables: dict) -> list[str]:
    """The lines of one block of ``compile_enumeration``: x_i = 0 for
    i < lead, x_lead = 1, and loops over x_i in [start, p) for i > lead.
    ``tables`` maps each power set to the name and rows of its table, and
    each root-table shape to the name and buckets of its table."""
    free = range(lead + 1, n_vars)
    m = len(free)
    # each polynomial as {exponents of the free variables: coefficient}
    coeffs = []
    for terms in polys:
        acc: dict[tuple[int, ...], int] = {}
        for c, e in terms:
            if not any(e[:lead]):
                acc[e[lead + 1:]] = (acc.get(e[lead + 1:], 0) + c) % p
        coeffs.append({mu: c for mu, c in acc.items() if c})
    # on the torus (start 1) every loop variable is nonzero, so a polynomial
    # of one term cannot vanish
    lone = [start == 1 and len(cs) == 1 for cs in coeffs]
    # the loop level after which each polynomial's value is fixed
    final = [max((t + 1 for mu in cs for t in range(m) if mu[t]), default=0) for cs in coeffs]
    for q in range(n_zeros):
        if final[q] == 0 and coeffs[q]:
            return []  # a nonzero constant: no point of the block survives
    # each polynomial's value, an int literal or a name once it is fixed
    value: list = [cs.get((0,) * m, 0) if final[q] == 0 else None
                   for q, cs in enumerate(coeffs)]
    lines = []
    for t in range(1, m + 1):
        i = free[t - 1]
        pad = "    " * (t + 1)
        # group each polynomial's coefficients by their inner exponents
        groups: dict[int, dict] = {}
        for q, cs in enumerate(coeffs):
            if final[q] >= t:
                g = groups[q] = {}
                for mu, c in cs.items():
                    g.setdefault(mu[1:], []).append((c, mu[0]))
        # the first zero test fixed at the innermost level is read from its
        # root table, if that has no more buckets than the enclosing loops
        # have iterations
        solved = next((q for q in range(n_zeros) if final[q] == t == m), None)
        if solved is not None:
            root = groups[solved][()]
            keys = list(dict.fromkeys(c for c, _ in root if isinstance(c, str)))
            if p ** len(keys) > (p - start) ** (m - 1):
                solved = None
            else:
                del groups[solved]
        # the powers of x_i that the loop body uses
        ks = tuple(sorted({k for g in groups.values() for parts in g.values()
                           for _, k in parts if k not in (0, 1)}))
        if solved is not None:
            # one table per shape: literal coefficients, key slots, powers
            shape = (ks, tuple((c if isinstance(c, int) else str(keys.index(c)), k)
                               for c, k in root))
            if shape not in tables:
                tables[shape] = (f"R{len(tables)}",
                                 _root_table(root, keys, _power_rows(ks, start, p), p))
            index = " + ".join(c if j == 0 else f"{p ** j}*{c}" for j, c in enumerate(keys))
            source = f"{tables[shape][0]}[{index or 0}]"
        elif ks:
            if ks not in tables:  # one table per power set, rows (x, x^k, ...)
                tables[ks] = (f"T{len(tables)}", _power_rows(ks, start, p))
            source = tables[ks][0]
        else:
            source = f"range({start}, {p})"
        names = ", ".join(_power_name(i, k) for k in (1,) + ks)
        lines.append(f"{pad[4:]}for {names} in {source}:")
        # tests first, so a failed one skips the other polynomials' updates
        order = sorted(groups, key=lambda q: (q >= n_zeros or final[q] != t, q))
        named: dict[tuple[str, ...], str] = {}  # products -> the name of their sum mod p
        for q in order:
            new = {}
            for j, (inner, parts) in enumerate(groups[q].items()):
                if len(parts) == 1 and parts[0][1] == 0:
                    new[inner] = parts[0][0]  # independent of x_i: kept as it is
                    continue
                products = tuple(str(c) if k == 0 else _power_name(i, k) if c == 1
                                 else f"{c}*{_power_name(i, k)}" for c, k in parts)
                if len(parts) == 1 and parts[0][0] == 1:
                    expr = name = _power_name(i, parts[0][1])  # a power, already in [0, p)
                elif products in named:
                    expr = name = named[products]  # an equal sum, assigned in this body
                else:
                    expr = _sum_mod(lines, pad, list(products), p)
                    name = f"v{q}" if final[q] == t else f"a{q}_{t}_{j}"
                if final[q] == t and q < n_zeros:
                    lines.append(f"{pad}if {expr}:")
                    lines.append(f"{pad}    continue")
                    continue
                if name != expr:
                    lines.append(f"{pad}{name} = {expr}")
                    named[products] = name
                if final[q] == t:
                    value[q] = name
                else:
                    new[inner] = name
            coeffs[q] = new
        if elements is not None and t < m:  # the point's code so far
            lines.append(f"{pad}k{t} = {f'k{t - 1} + ' if t > 1 else ''}{p ** (m - t)}*x{i}")
    pad = "    " * (m + 1)
    point = "(" + "".join(f"{x}, " for x in ["0"] * lead + ["1"] + [f"x{i}" for i in free]) + ")"
    if not want_image:
        lines.append(f"{pad}yield {point}")
        return lines
    _normalize(lines, pad, value[n_zeros:], lone[n_zeros:], p)
    if elements is None:
        lines.append(f"{pad}yield y")
        return lines
    # the fiber of y: its first point builds the codes of its orbit, and
    # every later point looks its own code up there
    code = " + ".join([f"k{m - 1}"] * (m > 1) + [f"x{n_vars - 1}"] * (m > 0)) or "0"
    orbit = ", ".join(" + ".join(_scaled_coordinate(h[i], i, p ** (n_vars - 1 - i), p)
                                 for i in free) or "0" for h in elements)
    lines += [f"{pad}e = D.get(y)",
              f"{pad}if e is None:",
              f"{pad}    D[y] = [1, True, {{{orbit}}}]",
              f"{pad}else:",
              f"{pad}    e[0] += 1",
              f"{pad}    if {code} not in e[2]:",
              f"{pad}        e[1] = False"]
    return lines


def _scaled_coordinate(h: int, i: int, weight: int, p: int) -> str:
    """The expression for ``(h * x_i % p) * weight``, one coordinate's part
    of the code of h * pt."""
    x = f"x{i}" if h == 1 else f"{h}*x{i} % {p}"
    return x if weight == 1 else f"{x} * {weight}"


def _power_rows(ks: tuple[int, ...], start: int, p: int) -> tuple:
    """The rows ``(x, x^k for k in ks)`` for x in [start, p), or the plain x
    when ``ks`` is empty."""
    if not ks:
        return tuple(range(start, p))
    return tuple((x,) + tuple(pow(x, k, p) for k in ks) for x in range(start, p))


def _root_table(parts, keys: list[str], rows: tuple, p: int) -> tuple:
    """The root table of ``sum c * x^k`` over ``parts``, where each c is an
    int literal or one of ``keys``, a name of a value in [0, p).  Bucket
    ``sum v_j * p^j`` holds, in their order, the ``rows`` (x first) at which
    the sum vanishes when ``keys[j]`` is v_j.

    At each x the sum is linear in the key values, so one key whose
    multiplier is nonzero at x is solved for, once per value of the others:
    the table costs p^len(keys) buckets and as many appends, not an
    evaluation per bucket and row."""
    r = len(keys)
    buckets: list[list] = [[] for _ in range(p ** r)]
    for row in rows:
        x = row[0] if isinstance(row, tuple) else row
        powers = [pow(x, k, p) for _, k in parts]
        # the keys' part of the sum must be rest
        rest = -sum(c * xk for (c, _), xk in zip(parts, powers) if isinstance(c, int)) % p
        mult = [sum(xk for (c, _), xk in zip(parts, powers) if c == key) % p for key in keys]
        pivot = max((j for j in range(r) if mult[j]), default=None)
        if pivot is None:  # no key reaches the sum at x
            if not rest:
                for bucket in buckets:
                    bucket.append(row)
            continue
        # (the other keys' part of the sum, their part of the index), per value
        others = [(0, 0)]
        for j in range(r):
            if j != pivot:
                others = [(s + u * mult[j], i + u * p ** j) for s, i in others for u in range(p)]
        inv, weight = pow(mult[pivot], -1, p), p ** pivot
        for s, i in others:
            buckets[(rest - s) * inv % p * weight + i].append(row)
    return tuple(map(tuple, buckets))


def _normalize(lines: list[str], pad: str, values: list, lone: list, p: int) -> None:
    """Append lines setting ``y`` to the image ``values`` (int literals or
    names of ints in [0, p)) scaled so that its first nonzero entry is 1, or
    to None for the zero vector.  The tests stop at the first value that
    ``lone`` marks as unable to vanish."""
    for j, v in enumerate(values):
        entries = ["0"] * j + ["1"] + [f"{u} * w % {p}" for u in values[j + 1:]]
        body = [f"w = INV[{v}]", "y = (" + "".join(f"{e}, " for e in entries) + ")"]
        if lone[j]:
            if j:
                lines.append(f"{pad}else:")
            lines += [f"{pad}{'    ' * bool(j)}{b}" for b in body]
            return
        lines.append(f"{pad}{'elif' if j else 'if'} {v}:")
        lines += [f"{pad}    {b}" for b in body]
    if values:
        lines.append(f"{pad}else:")
    lines.append(f"{pad}{'    ' * bool(values)}y = None")


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
    _check_prime(p)
    d = F.homogeneous_degree()
    if d is None or not F.is_polynomial():
        raise Refusal("smooth_scan needs a homogeneous polynomial")
    if p in (2, 3) or d % p == 0:
        raise Refusal(f"bad characteristic {p} for degree {d}")
    t0 = time.perf_counter()
    n = F.n_vars
    scan = compile_enumeration(n, p, zeros=[F.partial_deriv(i) for i in range(n)])
    singular = list(scan())
    if singular:
        f_mod = compile_mod(F, p)
        if any(eval_compiled(f_mod, pt, p) for pt in singular):
            raise ArithmeticError("Euler relation violated; check the characteristic")
    return ScanReport(p, proj_point_count(n, p), singular, time.perf_counter() - t0)


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
    polynomial, decided by the exact expansion ``LaurentPoly.substitute`` at
    its inner sum (``zero_test``)."""
    if len(rmap.components) != F_target.n_vars:
        raise Refusal(
            f"map has {len(rmap.components)} components, target expects {F_target.n_vars}")
    return F_target.substitute(dict(zip(F_target.vars, rmap.components)), zero_test=True)


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
    fibers = Counter(compile_enumeration(n, p, images=rmap.components)())
    indet = fibers.pop(None, 0)
    hist = Counter(fibers.values())
    degree = max(hist, key=lambda s: (hist[s], s)) if hist else 0
    return FiberHistogram(
        prime=p, source_points=proj_point_count(n, p), indeterminacy=indet,
        histogram=dict(sorted(hist.items())),
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
    """All elements of the presented matrix group embedded in (F_p*)^n; those
    that differ by a scalar are one element of the projective group."""
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
    of {F = 0} by the action, with image inside {target = 0}.

    One generated program (``compile_enumeration`` with the group's
    elements) groups the torus points of {F = 0} by image, counts each
    fiber and tests its orbit membership.  The target is then evaluated
    once per distinct image, in order of first appearance, so a zero image
    or a pole of the target raises in enumeration order.  Fibers over images
    off {target = 0} are left out of the sizes.

    A torus point has x0 = 1, so g * pt normalizes to (g / g0) * pt, and the
    scaled elements g / g0 act freely on the torus: h * pt = pt with every
    coordinate nonzero forces h = 1.  Each orbit therefore has exactly
    |scaled| points, and a fiber is its first point's orbit iff it has
    |scaled| points and all of them lie in that orbit.  The program builds
    each orbit by arithmetic on the scaled elements, once per fiber, so it
    keeps no table that grows with p.
    """
    t0 = time.perf_counter()
    _check_prime(p)
    for order, _ in action.generators:
        if (p - 1) % order != 0:
            raise ValueError(f"root of order {order} unavailable in F_{p}")
    n = action.n_vars
    _check_enumeration_guard(n, p)
    scaled = sorted({normalize_point(g, p) for g in group_elements_mod_p(action, p)})
    if len(scaled) != action.group_order():
        raise ArithmeticError("embedded group order mismatch")
    on_F = compile_enumeration(n, p, zeros=[F], images=forward.components, torus=True,
                               elements=scaled)
    target_mod = compile_mod(target, p)

    fibers = on_F()
    all_on_image = orbits_ok = True
    sizes: dict[int, int] = {}
    for img, (size, in_orbit, _) in fibers.items():
        if img is None:
            raise ValueError("zero vector does not define a projective point")
        if eval_compiled(target_mod, img, p) != 0:
            all_on_image = False
            continue
        orbits_ok = orbits_ok and in_orbit and size == len(scaled)
        sizes[size] = sizes.get(size, 0) + 1
    generic = max(sizes, key=lambda s: (sizes[s], s)) if sizes else 0
    return QuotientFiberReport(
        prime=p, torus_points=sum(size for size, _, _ in fibers.values()),
        all_on_image=all_on_image, orbits_ok=orbits_ok,
        fiber_sizes=dict(sorted(sizes.items())), generic_fiber=generic,
        group_order=action.group_order(), elapsed_s=time.perf_counter() - t0)
