#!/usr/bin/env python3
"""Beam-search low-degree models for the bundled quotient families.

For the first worked family the search finds a basis mapping straight to a
cubic, beating the quartic produced by the textbook basis choice.
"""
import argparse

from cremona.action import InvariantHypersurface
from cremona.cli import int_at_least
from cremona.pipeline import cremona_step, search_basis
from cremona.scenarios import (C3C3_ACTION, EX1_ACTION, PAIR_ACTION, c3c3_family,
                               ex1_family, ex3_family)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--width", type=int_at_least(1), default=8)
    ap.add_argument("--depth", type=int_at_least(0), default=6)
    args = ap.parse_args()
    cases = [
        ("order-3 cubic family", ex1_family(), EX1_ACTION, 4),
        ("paired order-3 family", ex3_family(), PAIR_ACTION, 4),
        ("order-9 two-parameter family", c3c3_family(), C3C3_ACTION, 4),
    ]
    for label, F, action, chart in cases:
        X = InvariantHypersurface(F, action)
        base = cremona_step(X, chart)
        basis, step = search_basis(X, chart, width=args.width, depth=args.depth)
        print(f"{label}: HNF-basis degree {base.degree} -> searched degree {step.degree}")
        for mono, row in zip(basis.monomial_strs(F.vars, chart), basis.rows):
            print(f"    {mono:<14} {list(row)}")
        print(f"    image: {step.image}")


if __name__ == "__main__":
    main()
