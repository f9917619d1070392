"""Per-layer spans and counters, installed from outside the engine.

The tracer wraps the public functions and operators of each cremona module
(`lang`, `coeffs`, `poly`, `lattice`, `action`, `pipeline`, `verify`) and
rebinds every module-level name that holds one of them, because several
modules import names by value (`from .verify import eval_compiled`).

A span opens only where a call crosses from one layer into another; a call
nested inside its own layer is counted but not timed.  Every span carries
the item it belongs to and its parent span.  A layer's self time is the
duration of its spans minus the time covered by their child spans.

The hot leaf calls -- `eval_compiled` and the `Cyclotomic` / `ParamCoeff` /
`FpElem` operators -- run millions of times per workload.  They get no span
record: their count and time are aggregated under the parent span instead.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

from cremona.poly import LaurentPoly

LAYERS = ("lang", "coeffs", "poly", "lattice", "action", "pipeline", "verify")

_COEFF_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse")
_POLY_OPS = ("__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__pow__")

# (layer, module, class or None, names, leaf)
TARGETS = (
    ("lang", "cremona.lang", None, ("parse_input", "parse_poly", "render_spec"), False),
    ("coeffs", "cremona.coeffs", None,
     ("is_prime", "prime_factors", "cyclotomic_polynomial", "euler_phi", "root_embed",
      "to_prime_field", "specialize"), True),
    ("coeffs", "cremona.coeffs", "Cyclotomic", _COEFF_OPS, True),
    ("coeffs", "cremona.coeffs", "FpElem", _COEFF_OPS, True),
    ("coeffs", "cremona.coeffs", "ParamCoeff",
     tuple(n for n in _COEFF_OPS if n not in ("__rtruediv__", "inverse")), True),
    ("poly", "cremona.poly", None, ("divide_exact", "poly_gcd", "poly_str"), False),
    ("poly", "cremona.poly", "LaurentPoly",
     _POLY_OPS + ("zero", "one", "constant", "monomial", "variable", "sorted_terms",
                  "total_degree", "homogeneous_degree", "is_polynomial", "deg_in_var",
                  "min_deg_in_var", "dehomogenize", "homogenize", "partial_deriv",
                  "monomial_content", "map_coeffs", "specialize_params", "reduce_mod",
                  "evaluate", "substitute"), False),
    ("lattice", "cremona.lattice", None,
     ("identity", "transpose", "matmul", "vec_mat", "det", "hermite_normal_form",
      "hnf_basis", "smith_normal_form", "elementary_divisors", "lattice_index",
      "solve_in_lattice", "lattice_contains", "spans_same_lattice", "congruence_kernel"),
     False),
    ("action", "cremona.action", None, ("common_chart", "subgroup_index"), False),
    ("action", "cremona.action", "DiagonalAction",
     ("__post_init__", "trivial", "is_trivial", "trivial_coordinates", "default_chart",
      "character", "is_invariant", "invariant_lattice", "group_order"), False),
    ("action", "cremona.action", "InvariantHypersurface", ("__post_init__",), False),
    ("pipeline", "cremona.pipeline", None,
     ("validate_basis", "hnf_basis_for", "compose_maps", "rewrite_invariant",
      "forward_monomial_map", "residual_action", "cremona_step", "linear_witness",
      "parametrize_linear", "chain_parametrization", "search_basis"), False),
    ("pipeline", "cremona.pipeline", "MonomialBasis", ("__post_init__", "monomial_strs"),
     False),
    ("pipeline", "cremona.pipeline", "RationalMap",
     ("__init__", "degree", "is_monomial", "identity", "coordinate_projection"), False),
    ("pipeline", "cremona.pipeline", "CremonaChain",
     ("__post_init__", "accumulated_order", "forward_map"), False),
    ("verify", "cremona.verify", None,
     ("default_prime", "proj_points", "proj_point_count", "normalize_point", "compile_mod",
      "smooth_scan", "diagonal_form_smooth", "on_variety", "fiber_histogram",
      "group_elements_mod_p", "quotient_fiber_check", "map_fiber_orbit_check"), False),
    ("verify", "cremona.verify", None, ("eval_compiled",), True),
)


class _Frame:
    __slots__ = ("layer", "id", "child")

    def __init__(self, layer: str, span_id):
        self.layer = layer
        self.id = span_id
        self.child = 0.0


class Tracer:
    """Collects spans and counters while items run; inert between items."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls: dict[str, list[int]] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        # (span id, parent span id, item id, layer, name, start, duration)
        self.spans: list[tuple] = []
        self.item = None
        self.stat: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._search_depth = 0
        self._variety_depth = 0
        self._variety_generic = False
        self._item_t0 = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- items -------------------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin_item(self, item_id) -> None:
        self.item = item_id
        self._item_t0 = perf_counter()
        self.stack.append(_Frame("bench", self._new_id()))

    def end_item(self) -> None:
        frame = self.stack.pop()
        dt = perf_counter() - self._item_t0
        self.self_s["bench"] += dt - frame.child
        self.spans.append((frame.id, None, self.item, "bench", "item", self._item_t0, dt))
        self.item = None

    def count(self, name: str) -> int:
        cell = self.calls.get(name)
        return cell[0] if cell else 0

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, leaf: bool, hook):
        cell = self.calls.setdefault(name, [0])
        stack = self.stack
        self_s = self.self_s
        spans = self.spans
        new_id = self._new_id

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            cell[0] += 1
            top = stack[-1]
            if hook is not None:
                hook.enter(self, args)
            crossing = top.layer != layer
            if not crossing and (hook is None or not hook.leaves):
                return fn(*args, **kwargs)
            if crossing:
                frame = _Frame(layer, None if leaf else new_id())
                stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                if crossing:
                    stack.pop()
                    self_s[layer] += dt - frame.child
                    top.child += dt
                    if not leaf:
                        spans.append((frame.id, top.id, self.item, layer, name, t0, dt))
                if hook is not None and hook.leaves:
                    hook.leave(self, args, result, dt)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind each module name that holds one."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer, modname, clsname, names, leaf in TARGETS:
            module = importlib.import_module(modname)
            owner = getattr(module, clsname) if clsname else module
            for name in names:
                key = f"{modname[8:]}.{clsname + '.' if clsname else ''}{name}"
                raw = vars(owner).get(name)
                if raw is None:
                    self.missing.append(key)
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                wrapped = self._wrap(layer, key, fn, leaf, HOOKS.get(key))
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._set(owner, name, wrapped)
                if clsname is None:
                    replaced[id(raw)] = (raw, wrapped)
        for module in _holders():
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _holders():
    """Modules that may hold engine functions by value: the engine's own and
    the benchmark's."""
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        path = getattr(module, "__file__", None)
        if name == "cremona" or name.startswith("cremona.") or \
                (path and os.path.abspath(path).startswith(_BENCH_DIR)):
            yield module


# ---------------------------------------------------------------------------
# hooks: counters that need arguments, results or nesting context
# ---------------------------------------------------------------------------

class _Hook:
    leaves = False  # whether leave() needs the result and duration

    def enter(self, tr: Tracer, args) -> None:
        pass

    def leave(self, tr: Tracer, args, result, dt: float) -> None:
        pass


class _MulPairs(_Hook):
    """Term pairs formed by a product: len(a) * len(b), a scalar being one term."""

    def enter(self, tr, args):
        a, b = args
        other = len(b.terms) if isinstance(b, LaurentPoly) else 1
        tr.stat["poly.mul.term_pairs"] += len(a.terms) * other


class _Substitute(_Hook):
    def enter(self, tr, args):
        if tr._variety_depth:
            tr._variety_generic = True


class _OnVariety(_Hook):
    leaves = True

    def enter(self, tr, args):
        tr._variety_depth += 1
        tr._variety_generic = False

    def leave(self, tr, args, result, dt):
        tr._variety_depth -= 1
        tr.stat["verify.on_variety.calls"] += 1
        tr.stat["verify.on_variety.generic"] += tr._variety_generic
        tr._variety_generic = False


class _Search(_Hook):
    leaves = True

    def enter(self, tr, args):
        tr._search_depth += 1

    def leave(self, tr, args, result, dt):
        tr._search_depth -= 1
        if not tr._search_depth:
            tr.stat["pipeline.search.s"] += dt


class _InSearch(_Hook):
    def __init__(self, stat: str):
        self.stat = stat

    def enter(self, tr, args):
        if tr._search_depth:
            tr.stat[self.stat] += 1


class _EvalTerms(_Hook):
    def enter(self, tr, args):
        tr.stat["verify.eval.term_evals"] += len(args[0])


class _Points(_Hook):
    """Points enumerated by a verify entry point, read from its report."""

    leaves = True

    def __init__(self, field):
        self.field = field

    def leave(self, tr, args, result, dt):
        if result is None:
            return
        tr.stat["verify.points"] += getattr(result, self.field)
        tr.stat["verify.scan.s"] += dt


class _Torus(_Hook):
    """Torus points evaluated, and those found on X, by a quotient-fiber check."""

    leaves = True

    def leave(self, tr, args, result, dt):
        if result is None:
            return
        n = args[1].n_vars
        evaluated = (result.prime - 1) ** (n - 1)
        tr.stat["verify.points"] += evaluated
        tr.stat["verify.torus.evaluated"] += evaluated
        tr.stat["verify.torus.hits"] += result.torus_points
        tr.stat["verify.scan.s"] += dt


HOOKS = {
    "poly.LaurentPoly.__mul__": _MulPairs(),
    "poly.LaurentPoly.__rmul__": _MulPairs(),
    "poly.LaurentPoly.substitute": _Substitute(),
    "verify.on_variety": _OnVariety(),
    "pipeline.search_basis": _Search(),
    "pipeline.cremona_step": _InSearch("pipeline.search.candidates"),
    "lattice.hermite_normal_form": _InSearch("pipeline.search.hnf"),
    "verify.eval_compiled": _EvalTerms(),
    "verify.smooth_scan": _Points("points_scanned"),
    "verify.fiber_histogram": _Points("source_points"),
    "verify.map_fiber_orbit_check": _Torus(),
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    c, s = tr.count, tr.stat

    def ops(cls: str) -> int:
        return sum(c(f"coeffs.{cls}.{op}") for op in _COEFF_OPS)

    candidates = s["pipeline.search.candidates"]
    out = {
        "lang.parse_input.calls": (c("lang.parse_input"), "count"),
        "coeffs.cyclotomic_ops": (ops("Cyclotomic"), "count"),
        "coeffs.param_ops": (ops("ParamCoeff"), "count"),
        "poly.mul.calls": (c("poly.LaurentPoly.__mul__") + c("poly.LaurentPoly.__rmul__"),
                           "count"),
        "poly.mul.term_pairs": (int(s["poly.mul.term_pairs"]), "count"),
        "poly.substitute.calls": (c("poly.LaurentPoly.substitute"), "count"),
        "poly.gcd.calls": (c("poly.poly_gcd"), "count"),
        "lattice.hnf.calls": (c("lattice.hermite_normal_form"), "count"),
        "lattice.solve.calls": (c("lattice.solve_in_lattice"), "count"),
        "action.group_order.calls": (c("action.DiagonalAction.group_order"), "count"),
        "action.invariant_lattice.calls": (c("action.DiagonalAction.invariant_lattice"),
                                           "count"),
        "pipeline.cremona_step.calls": (c("pipeline.cremona_step"), "count"),
        "pipeline.search.candidates_scored": (int(candidates), "count"),
        "pipeline.search.candidates_per_s": (_ratio(candidates, s["pipeline.search.s"]), "1/s"),
        "pipeline.hnf_per_candidate": (_ratio(s["pipeline.search.hnf"], candidates), "ratio"),
        "verify.points_enumerated": (int(s["verify.points"]), "count"),
        "verify.points_per_s": (_ratio(s["verify.points"], s["verify.scan.s"]), "1/s"),
        "verify.eval.calls": (c("verify.eval_compiled"), "count"),
        "verify.eval.term_evals": (int(s["verify.eval.term_evals"]), "count"),
        "verify.torus_hit_ratio": (_ratio(s["verify.torus.hits"], s["verify.torus.evaluated"]),
                                   "ratio"),
        "verify.on_variety.generic_share": (
            _ratio(s["verify.on_variety.generic"], s["verify.on_variety.calls"]), "ratio"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr.self_s[layer], "s")
    return out
