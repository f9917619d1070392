"""Command-line front end.

Subcommands: invariants, transform, chain, search-basis,
verify {smooth,map-degree,identity}, reproduce, list-scenarios.
Exit codes: 0 success, 1 assertion or engine failure, 2 usage or parse
error, a broken chain, a refused check (``verify.Refusal``) or an expansion
over one of the kernel's work, term or bit budgets (``poly.BudgetError``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .action import DiagonalAction, InvariantHypersurface
from .coeffs import PRIME_TEST_BOUND, is_prime
from .lang import ParseError, ProblemSpec, parse_input
from .pipeline import CremonaChain, MonomialBasis, RationalMap, cremona_step, \
    hnf_basis_for, search_basis
from .poly import BudgetError, poly_str
from .scenarios import Report, list_scenarios, run_scenario
from .verify import Refusal, default_prime, fiber_histogram, on_variety, smooth_scan


def int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return parse


def _load_spec(path: str) -> ProblemSpec:
    text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    return parse_input(text)


def _build_action(spec: ProblemSpec) -> DiagonalAction:
    return DiagonalAction(len(spec.variables), spec.generators)


def _pick_poly(spec: ProblemSpec, name: str | None):
    if name is not None:
        if name not in spec.polys:
            raise ValueError(f"poly {name!r} is not declared")
        return spec.polys[name]
    if "F" in spec.polys:
        return spec.polys["F"]
    if spec.polys:
        return next(iter(spec.polys.values()))
    raise ValueError("the input declares no polynomial")


def _chart_index(spec: ProblemSpec, action: DiagonalAction) -> int:
    idx = spec.chart_index()
    return action.default_chart() if idx is None else idx


def _pick_prime(spec: ProblemSpec, action: DiagonalAction, degree: int | None) -> int:
    if spec.primes:
        return spec.primes[0]
    orders = [e for e, _ in action.generators] + [spec.effective_zeta_order() or 1]
    return default_prime(orders, degree)


def _pick_map(spec: ProblemSpec, name: str | None) -> RationalMap:
    if not spec.maps:
        raise ValueError("the input declares no map")
    if name is None:
        name = next(iter(spec.maps))
    if name not in spec.maps:
        raise ValueError(f"map {name!r} is not declared")
    return RationalMap([spec.polys[c] for c in spec.maps[name]])


def _action_payload(action: DiagonalAction) -> dict:
    return {
        "order": action.group_order(),
        "generators": [{"order": e, "weights": list(w)} for e, w in action.generators],
    }


def _step_payload(step) -> dict:
    variables = step.input.F.vars
    return {
        "input": poly_str(step.input.F),
        "group": _action_payload(step.input.action),
        "chart": variables[step.chart],
        "basis": [list(r) for r in step.basis.rows],
        "basis_monomials": step.basis.monomial_strs(variables, step.chart),
        "p": poly_str(step.p),
        "q": poly_str(step.q),
        "image": poly_str(step.image),
        "degree": step.degree,
        "forward_map": [poly_str(c) for c in step.forward.components],
        "residual": _action_payload(step.residual),
        "group_order": step.group_order,
    }


def _print_step(step) -> None:
    pay = _step_payload(step)
    print(f"chart: {pay['chart']}")
    for mono, row in zip(pay["basis_monomials"], pay["basis"]):
        print(f"  u = {mono}    {row}")
    print(f"p = {pay['p']}")
    print(f"q = {pay['q']}")
    print(f"image = {pay['image']}")
    print(f"degree = {pay['degree']}")
    print("forward map: (" + " : ".join(pay["forward_map"]) + ")")
    if pay["residual"]["generators"]:
        print(f"residual action of order {pay['residual']['order']}")


def _emit(args, payload: dict, text_fn) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
    else:
        text_fn()


def _report_payload(rep: Report) -> dict:
    return {
        "scenario": rep.name,
        "passed": rep.passed,
        "elapsed_s": round(rep.elapsed_s, 3),
        "checks": [
            {"label": c.label, "passed": c.passed, "provenance": c.provenance,
             "detail": c.detail}
            for c in rep.checks
        ],
        "objects": rep.objects,
    }


def _print_report(rep: Report) -> None:
    print(f"scenario {rep.name}: {'ok' if rep.passed else 'FAILED'} "
          f"({rep.elapsed_s:.2f}s)")
    for c in rep.checks:
        mark = "ok " if c.passed else "FAIL"
        line = f"  [{mark}] {c.label}"
        if c.detail and not c.passed:
            line += f" -- {c.detail}"
        print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_invariants(args) -> int:
    spec = _load_spec(args.file)
    action = _build_action(spec)
    chart = _chart_index(spec, action)
    basis = hnf_basis_for(action, chart)
    payload = {
        "group": _action_payload(action),
        "chart": spec.variables[chart],
        "lattice_basis": [list(r) for r in basis.rows],
        "basis_monomials": basis.monomial_strs(spec.variables, chart),
    }

    def text():
        print(f"group order: {payload['group']['order']}")
        print(f"chart: {payload['chart']}")
        print("invariant lattice (HNF basis):")
        for mono, row in zip(payload["basis_monomials"], payload["lattice_basis"]):
            print(f"  {mono}    {row}")

    _emit(args, payload, text)
    return 0


def _make_step(spec: ProblemSpec, args):
    action = _build_action(spec)
    F = _pick_poly(spec, getattr(args, "poly", None))
    X = InvariantHypersurface(F, action)
    chart = _chart_index(spec, action)
    if spec.basis is not None:
        return cremona_step(X, chart, MonomialBasis(spec.basis))
    if getattr(args, "search", True):
        _, step = search_basis(X, chart)
        return step
    return cremona_step(X, chart)


def _cmd_transform(args) -> int:
    spec = _load_spec(args.file)
    step = _make_step(spec, args)
    _emit(args, _step_payload(step), lambda: _print_step(step))
    return 0


def _cmd_chain(args) -> int:
    specs = [_load_spec(f) for f in args.files]
    steps = []
    for spec in specs:
        action = _build_action(spec)
        if spec.polys or not steps:
            F = _pick_poly(spec, None)
        else:
            F = steps[-1].image
            if len(F.vars) != len(spec.variables):
                raise ValueError("chained spec has a different ambient dimension")
        if steps:  # checked before the group is asked to fix F
            try:
                CremonaChain.check_link(steps[-1], F, action)
            except ValueError as exc:  # not the predecessor's image or residual action
                print(f"error: {exc}", file=sys.stderr)
                return 2
        X = InvariantHypersurface(F, action)
        chart = _chart_index(spec, action)
        basis = MonomialBasis(spec.basis) if spec.basis is not None else None
        steps.append(cremona_step(X, chart, basis))
    degree = CremonaChain(tuple(steps)).accumulated_order()
    payload = {"steps": [_step_payload(s) for s in steps], "accumulated_order": degree}

    def text():
        for k, s in enumerate(steps):
            print(f"--- step {k + 1} ---")
            _print_step(s)
        print(f"accumulated quotient order: {degree}")

    _emit(args, payload, text)
    return 0


def _cmd_search_basis(args) -> int:
    spec = _load_spec(args.file)
    action = _build_action(spec)
    F = _pick_poly(spec, args.poly)
    X = InvariantHypersurface(F, action)
    chart = _chart_index(spec, action)
    basis, step = search_basis(X, chart, width=args.width, depth=args.depth)
    payload = {
        "basis": [list(r) for r in basis.rows],
        "basis_monomials": basis.monomial_strs(spec.variables, chart),
        "degree": step.degree,
        "terms": len(step.p.terms),
        "image": poly_str(step.image),
    }

    def text():
        print("best basis found:")
        for mono, row in zip(payload["basis_monomials"], payload["basis"]):
            print(f"  {mono}    {row}")
        print(f"degree = {step.degree}, image terms = {payload['terms']}")
        print(f"image = {payload['image']}")

    _emit(args, payload, text)
    return 0


def _cmd_verify(args) -> int:
    spec = _load_spec(args.file)
    action = _build_action(spec)
    if args.what == "smooth":
        F = _pick_poly(spec, args.poly)
        p = args.prime or _pick_prime(spec, action, F.homogeneous_degree())
        scan = smooth_scan(F, p)
        payload = {
            "prime": scan.prime,
            "points_scanned": scan.points_scanned,
            "singular_points": [list(pt) for pt in scan.singular_points],
            "elapsed_s": round(scan.elapsed_s, 3),
        }

        def text():
            print(f"{len(scan.singular_points)} singular points / "
                  f"{scan.points_scanned} scanned over F_{scan.prime}")
            for pt in scan.singular_points:
                print(f"  ({':'.join(map(str, pt))})")

        _emit(args, payload, text)
        return 0 if scan.ok else 1
    if args.what == "map-degree":
        rmap = _pick_map(spec, args.map)
        n_comps, n_coords = len(rmap.components), len(rmap.source_vars)
        if n_comps < n_coords:  # its fibers are positive-dimensional: no degree to infer
            raise Refusal(f"map has {n_comps} components on {n_coords} source coordinates, "
                          "so it cannot be generically finite")
        p = args.prime or _pick_prime(spec, action, None)
        hist = fiber_histogram(rmap, p)
        payload = {
            "prime": hist.prime,
            "source_points": hist.source_points,
            "indeterminacy": hist.indeterminacy,
            "histogram": hist.histogram,
            "inferred_degree": hist.inferred_degree,
        }

        def text():
            print(f"fiber histogram over F_{p} "
                  f"({hist.source_points} source points, "
                  f"{hist.indeterminacy} indeterminate):")
            print(f"  {'fiber size':>10} | image points")
            for size, count in hist.histogram.items():
                print(f"  {size:>10} | {count}")
            print(f"inferred degree: {hist.inferred_degree}")

        _emit(args, payload, text)
        return 0
    if args.what == "identity":
        rmap = _pick_map(spec, args.map)
        F = _pick_poly(spec, args.target)
        ok = on_variety(rmap, F)
        _emit(args, {"on_variety": ok},
              lambda: print("identity holds" if ok else "identity FAILS"))
        return 0 if ok else 1
    raise ValueError(f"unknown verify mode {args.what!r}")


def _cmd_reproduce(args) -> int:
    names = args.names or [name for name, _ in list_scenarios()]
    reports = []
    for name in names:
        reports.append(run_scenario(name))
    payload = [_report_payload(r) for r in reports]
    ok = all(r.passed for r in reports)

    def text():
        for r in reports:
            _print_report(r)
        n_pass = sum(1 for r in reports if r.passed)
        print(f"{n_pass}/{len(reports)} scenarios passed")

    _emit(args, {"reports": payload, "passed": ok}, text)
    return 0 if ok else 1


def _cmd_list_scenarios(args) -> int:
    rows = list_scenarios()
    _emit(args, {"scenarios": [{"name": n, "summary": s} for n, s in rows]},
          lambda: [print(f"{n:<28} {s}") for n, s in rows])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cremona",
        description="exact quotient-to-hypersurface transformations and their "
                    "finite-field verification")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    # --json is accepted after the subcommand too; SUPPRESS keeps the
    # subcommand's copy from overwriting a --json given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common],
                       help="print the invariant lattice and group order")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("transform", parents=[common], help="run one transformation step")
    p.add_argument("file")
    p.add_argument("--poly")
    p.add_argument("--no-search", dest="search", action="store_false",
                   help="use the HNF basis instead of searching when none is given")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("chain", parents=[common],
                       help="run several steps, feeding images forward")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("search-basis", parents=[common],
                       help="beam-search a basis minimizing the degree")
    p.add_argument("file")
    p.add_argument("--poly")
    p.add_argument("--width", type=int_at_least(1), default=8)
    p.add_argument("--depth", type=int_at_least(0), default=6)
    p.set_defaults(fn=_cmd_search_basis)

    p = sub.add_parser("verify", parents=[common], help="finite-field and symbolic checks")
    p.add_argument("what", choices=["smooth", "map-degree", "identity"])
    p.add_argument("file")
    p.add_argument("--poly")
    p.add_argument("--map")
    p.add_argument("--target")
    p.add_argument("--prime", type=int)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reproduce", parents=[common], help="run registered scenarios")
    p.add_argument("names", nargs="*")
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("list-scenarios", parents=[common], help="list registered scenarios")
    p.set_defaults(fn=_cmd_list_scenarios)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    p = getattr(args, "prime", None)
    if p is not None and (p >= PRIME_TEST_BOUND or not is_prime(p)):
        ap.error(f"argument --prime: {p} is not a prime below {PRIME_TEST_BOUND}")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader left: exit 1 quietly, as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (Refusal, BudgetError) as exc:  # exit 1 stays a verdict; none was reached
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, ArithmeticError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
