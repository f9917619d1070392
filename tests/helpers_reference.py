"""Naive reference for ``LaurentPoly.substitute``, built only from the ring
operators ``__pow__``, ``__mul__`` and ``__add__``."""
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
