"""Naive references: ``LaurentPoly.substitute`` built only from the ring
operators ``__pow__``, ``__mul__`` and ``__add__``, and evaluation mod p by
a per-term ``pow`` loop."""
from cremona.coeffs import to_prime_field
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
