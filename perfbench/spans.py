"""Spans around the public functions of projconst, recorded from outside.

``Tracer.install`` replaces every public function of a projconst module
with a timing wrapper in the namespace of each module that binds it
(``kyfan_sum``, say, is bound in ``eigsum``, ``search``, ``almostmin`` and
``relproj``), so calls are caught whichever import path they take.  Spans
(name, start, end, parent) stay in memory; ``layer_metrics`` turns them
into the per-layer numbers, with self time taken as a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, ROOT, INFO = range(6)


def _shape(a) -> tuple:
    return tuple(getattr(getattr(a, "entries", a), "shape", ()))


def _ascent_info(args, kwargs, result):
    s0 = args[1] if len(args) > 1 else kwargs["s0"]
    return (result.iterations, result.converged, result.value,
            hash(s0.entries.tobytes()))


def _lp_info(args, kwargs, result):
    def arg(i, name):
        return args[i] if len(args) > i else kwargs.get(name)

    rows = sum(_shape(a)[0] for a in (arg(1, "a_eq"), arg(3, "a_ub"))
               if a is not None and len(_shape(a)) == 2)
    return result.iterations, rows, _shape(arg(0, "c"))[0]


# Counters read from arguments and return values, per wrapped function.
HOOKS = {
    "search.alternate_maximize": _ascent_info,
    "matcore.eig_sym": lambda a, k, r: r.d,
    "_simplex.solve_lp": _lp_info,
    "rationalize.dirichlet_approx": lambda a, k, r: r.q,
    "blowup.blow_up": lambda a, k, r: r.d,
    "almostmin.almost_minimal": lambda a, k, r: r.iterations,
    "almostmin.certify": lambda a, k, r: (r.rho is not None, r.witness_kind),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    stack[0] if stack else idx, None]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                span[INFO] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public projconst function in every projconst module
        namespace that binds it."""
        wrappers = {}
        for key, mod in sorted(sys.modules.items()):
            if key != "projconst" and not key.startswith("projconst."):
                continue
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and not val.__name__.startswith("_")
                        and val.__module__.startswith("projconst")):
                    if val not in wrappers:
                        short = val.__module__.rsplit(".", 1)[-1]
                        wrappers[val] = self._wrap(f"{short}.{val.__name__}",
                                                   val)
                    setattr(mod, attr, wrappers[val])


def instance_counters(spans: list[list]) -> dict[int, dict]:
    """Pivots and ascent iterations per root span (one CLI call)."""
    out: dict[int, dict] = defaultdict(
        lambda: {"pivots": 0, "ascent_iterations": 0})
    for s in spans:
        if s[NAME] == "_simplex.solve_lp":
            out[s[ROOT]]["pivots"] += s[INFO][0]
        elif s[NAME] == "search.alternate_maximize":
            out[s[ROOT]]["ascent_iterations"] += s[INFO][0]
    return dict(out)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(list)
    # Time of a child called directly by the given parent.
    under = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        calls[name] += 1
        info[name].append(s[INFO])
        if s[PARENT] >= 0:
            under[spans[s[PARENT]][NAME], name] += dur[i]

    def per(num, den):
        return num / den if den else 0.0

    # An ascent run is useful when it raises the best value of its class:
    # one sign-matrix class of an exhaustive search, or all restarts of
    # one alternating CLI call.
    useful = 0
    best: dict[tuple, float] = {}
    for s in spans:
        if s[NAME] == "search.alternate_maximize":
            _, _, value, s0 = s[INFO]
            in_class = (s[PARENT] >= 0 and
                        spans[s[PARENT]][NAME] == "search.exhaustive_pi")
            key = (s[PARENT], s0 if in_class else None)
            if key not in best or value > best[key]:
                best[key] = value
                useful += 1

    ascent = info["search.alternate_maximize"]
    iters = sum(x[0] for x in ascent)
    lp = info["_simplex.solve_lp"]
    pivots = sum(x[0] for x in lp)
    tried = [kind for attempted, kind in info["almostmin.certify"]
             if attempted]
    return {
        "search.enumerate_s": (total["search.exhaustive_pi"] - under[
            "search.exhaustive_pi", "search.alternate_maximize"]),
        "search.ascent_s": total["search.alternate_maximize"],
        "search.ascent_runs": len(ascent),
        "search.ascent_iterations": iters,
        "search.ascent_us_per_iteration": per(
            1e6 * total["search.alternate_maximize"], iters),
        "search.ascent_nonconverged": sum(not x[1] for x in ascent),
        "search.ascent_useful_ratio": per(useful, len(ascent)),
        "eigsum.kyfan_sum_calls": calls["eigsum.kyfan_sum"],
        "eigsum.kyfan_sum_s": total["eigsum.kyfan_sum"],
        "matcore.eig_sym_calls": calls["matcore.eig_sym"],
        "matcore.eig_sym_s": total["matcore.eig_sym"],
        "matcore.eig_sym_d3": sum(d ** 3 for d in info["matcore.eig_sym"]),
        "matcore.eigensolves_per_s": per(calls["matcore.eig_sym"],
                                         total["matcore.eig_sym"]),
        "matcore.perron_calls": calls["matcore.perron"],
        "matcore.perron_s": total["matcore.perron"],
        "matcore.validate_projection_calls": calls["matcore.validate_projection"],
        "matcore.validate_projection_s": total["matcore.validate_projection"],
        "relproj.lp_build_s": (total["relproj.min_projection_norm"] - under[
            "relproj.min_projection_norm", "_simplex.solve_lp"]),
        "relproj.trace_certificate_s": total["relproj.trace_certificate"],
        "simplex.solve_lp_s": total["_simplex.solve_lp"],
        "simplex.pivots": pivots,
        "simplex.ms_per_pivot": per(1e3 * total["_simplex.solve_lp"], pivots),
        "simplex.rows": max((x[1] for x in lp), default=0),
        "simplex.cols": max((x[2] for x in lp), default=0),
        "rationalize.dirichlet_s": total["rationalize.dirichlet_approx"],
        "rationalize.q_sum": sum(info["rationalize.dirichlet_approx"]),
        "blowup.blow_up_s": total["blowup.blow_up"],
        "blowup.lift_s": total["blowup.lift_eigenvectors"],
        "blowup.d_max": max(info["blowup.blow_up"], default=0),
        "almostmin.certify_s": total["almostmin.certify"],
        "almostmin.pipeline_self_s": self_time["almostmin.almost_minimal"],
        "almostmin.refine_iterations": sum(info["almostmin.almost_minimal"]),
        "almostmin.perron_witness_ratio": per(tried.count("perron"),
                                              len(tried)),
        "cli.self_s": self_time["cli.main"],
    }


def _unit(name: str) -> str:
    for suffix, unit in (("_us_per_iteration", "us"), ("ms_per_pivot", "ms"),
                         ("_per_s", "1/s"), ("_ratio", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


LAYER_UNITS = {k: _unit(k) for k in layer_metrics([])}
LAYER_UNITS["trace.overhead_s"] = "s"


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
