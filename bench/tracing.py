"""Spans around calls into tenfun's modules, and the per-layer table.

The benchmark wraps the public functions of each module (and the methods
that carry the work: contraction, box-sum apply/compose/dense) from here;
the program itself is not changed.  A span is [name, start, end, parent,
op]; spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import Counter

import tenfun
from tenfun import BoxSum, ScalarFn


class CountingFn(ScalarFn):
    """Delegates to a tenfun function and counts calls of ``deriv``."""

    def __init__(self, fn: ScalarFn, counter: list):
        self.fn = fn
        self.counter = counter
        self.is_strain_measure = fn.is_strain_measure

    def in_domain(self, x):
        return self.fn.in_domain(x)

    def deriv(self, order, x):
        self.counter[0] += 1
        return self.fn.deriv(order, x)

    def __repr__(self):
        return f"CountingFn({self.fn!r})"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    def graft(self, spans: list[list], parent: int) -> None:
        """Append spans recorded in another process under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, self.op])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# (module, attribute, span name): module-level functions
FUNCTIONS = [
    ("spectral", "decompose", "spectral.decompose"),
    ("spectral", "apply_fn", "spectral.apply_fn"),
    ("coefficients", "build_table", "coefficients.build_table"),
    ("derivatives", "derivative", "derivatives.derivative"),
    ("derivatives", "taylor_eval", "derivatives.taylor_eval"),
    ("inverse_gradient", "grad_spectral", "inverse_gradient.grad_spectral"),
    ("inverse_gradient", "inverse_grad", "inverse_gradient.inverse_grad"),
    ("inverse_gradient", "sylvester_power", "inverse_gradient.sylvester_power"),
    ("inverse_gradient", "sylvester_commutator", "inverse_gradient.sylvester_commutator"),
    ("inverse_gradient", "log_inverse_integral", "inverse_gradient.log_inverse_integral"),
    ("cli", "parse_document", "cli.parse_document"),
    ("cli", "format_document", "cli.format_document"),
    ("cli", "run", "cli.run"),
]
# (module, class, method, span name)
METHODS = [
    ("derivatives", "SpectralDerivative", "contract", "derivatives.contract"),
    ("derivatives", "SpectralDerivative", "as_box_sum", "derivatives.as_box_sum"),
    ("multilinear", "BoxSum", "apply", "multilinear.apply"),
    ("multilinear", "BoxSum", "compose", "multilinear.compose"),
    ("multilinear", "BoxSum", "dense", "multilinear.dense"),
]


def _after(tracer: Tracer, name: str, args, out) -> None:
    if isinstance(out, BoxSum):
        tracer.counts["box_terms"] += len(out.terms)
    if name == "coefficients.build_table":
        tracer.counts["coeff_entries"] += len(out)


def _contract_name(args) -> str:
    xs = [getattr(x, "matrix", x) for x in args[1]]
    return "derivatives.contract." + ("equal" if all(x is xs[0] or (x == xs[0]).all()
                                                    for x in xs) else "distinct")


def _contract_matmuls(tracer: Tracer, args) -> None:
    """Matrix products of the seed's contraction loop: index tuples with a
    nonzero coefficient x distinct orderings of the directions x 2n."""
    dv, xs = args[0], args[1]
    n = dv.order
    tuples = 0
    for idx, v in dv.coeffs.values.items():
        if v != 0.0:
            tuples += math.factorial(n + 1) // math.prod(
                math.factorial(c) for c in Counter(idx).values())
    keys = Counter(getattr(x, "matrix", x).tobytes() for x in xs)
    orderings = math.factorial(n) // math.prod(math.factorial(c) for c in keys.values())
    tracer.counts["matmuls"] += tuples * orderings * 2 * n


def _wrap(tracer: Tracer, fn, name: str):
    contract = name == "derivatives.contract"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.begin(_contract_name(args) if contract else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(i)
        _after(tracer, name, args, out)
        if contract:
            _contract_matmuls(tracer, args)
        return out

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every listed function wherever a tenfun module binds it."""
    mods = [m for k, m in list(sys.modules.items()) if k == "tenfun" or k.startswith("tenfun.")]
    for mod, attr, name in FUNCTIONS:
        orig = getattr(getattr(tenfun, mod, None), attr, None)
        if orig is None:
            continue
        wrapped = _wrap(tracer, orig, name)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    for mod, cls, attr, name in METHODS:
        klass = getattr(getattr(tenfun, mod, None), cls, None)
        if klass is not None and attr in vars(klass):
            setattr(klass, attr, _wrap(tracer, vars(klass)[attr], name))


# ---------------------------------------------------------------------------
# per-layer table


def _p50_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: int, accuracy: Counter, deriv_calls: int) -> dict:
    """The per-layer table.  ``accuracy`` holds the check statuses that
    coefficients.wrong and coefficients.refused are shares of: the accuracy
    scan's where the workload has one, else the traced ops'."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    by_name: dict[str, list[float]] = {}
    for s, d in zip(spans, dur):
        by_name.setdefault(s[0], []).append(d)
    op_idx = [i for i, s in enumerate(spans) if s[0] == "op"]
    op_time = sum(dur[i] for i in op_idx) or 1.0

    def outermost_share(prefix: str) -> float:
        total = 0.0
        for i, s in enumerate(spans):
            if not s[0].startswith(prefix):
                continue
            p = s[3]
            while p >= 0 and not spans[p][0].startswith(prefix):
                p = spans[p][3]
            if p < 0:
                total += dur[i]
        return total / op_time

    direct = sum(dur[i] for i, s in enumerate(spans) if s[3] >= 0 and spans[s[3]][0] == "op")
    per_op_io: dict[int, float] = {}
    for s, d in zip(spans, dur):
        if s[0] in ("cli.parse_document", "cli.format_document"):
            per_op_io[s[4]] = per_op_io.get(s[4], 0.0) + d
    n = max(ops, 1)
    c = tracer.counts
    return {
        "spectral.decompose.ms_p50": _p50_ms(by_name.get("spectral.decompose", [])),
        "spectral.decompose.share": outermost_share("spectral.decompose"),
        "spectral.apply_fn.ms_p50": _p50_ms(by_name.get("spectral.apply_fn", [])),
        "scalar_functions.deriv.calls_per_op": deriv_calls / n,
        "coefficients.build_table.ms_p50": _p50_ms(by_name.get("coefficients.build_table", [])),
        "coefficients.build_table.share": outermost_share("coefficients.build_table"),
        "coefficients.entries_per_op": c["coeff_entries"] / n,
        "coefficients.wrong": accuracy["wrong"] / max(sum(accuracy.values()), 1),
        "coefficients.refused": accuracy["raised"] / max(sum(accuracy.values()), 1),
        "derivatives.contract.equal.ms_p50": _p50_ms(by_name.get("derivatives.contract.equal", [])),
        "derivatives.contract.distinct.ms_p50":
            _p50_ms(by_name.get("derivatives.contract.distinct", [])),
        "derivatives.contract.share": outermost_share("derivatives.contract."),
        "derivatives.contract.matmuls_per_op": c["matmuls"] / n,
        "multilinear.box_terms_per_op": c["box_terms"] / n,
        "multilinear.apply.ms_p50": _p50_ms(by_name.get("multilinear.apply", [])),
        "multilinear.compose.ms_p50": _p50_ms(by_name.get("multilinear.compose", [])),
        "multilinear.dense.ms_p50": _p50_ms(by_name.get("multilinear.dense", [])),
        "inverse_gradient.grad_spectral.ms_p50":
            _p50_ms(by_name.get("inverse_gradient.grad_spectral", [])),
        "inverse_gradient.inverse_grad.ms_p50":
            _p50_ms(by_name.get("inverse_gradient.inverse_grad", [])),
        "inverse_gradient.sylvester_power.ms_p50":
            _p50_ms(by_name.get("inverse_gradient.sylvester_power", [])),
        "inverse_gradient.sylvester_commutator.ms_p50":
            _p50_ms(by_name.get("inverse_gradient.sylvester_commutator", [])),
        "inverse_gradient.share": outermost_share("inverse_gradient."),
        "cli.startup.interp_ms": _p50_ms(by_name.get("cli.startup.interp", [])),
        "cli.startup.numpy_ms": _p50_ms(by_name.get("cli.startup.numpy", [])),
        "cli.startup.tenfun_ms": _p50_ms(by_name.get("cli.startup.tenfun", [])),
        "cli.run.ms_p50": _p50_ms(by_name.get("cli.run", [])),
        "cli.io.ms_p50": _p50_ms(list(per_op_io.values())),
        "trace.unattributed_frac": 1.0 - direct / op_time,
    }
