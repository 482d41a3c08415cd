"""The four workloads: input generation, the timed op, and output checks.

Every workload hands out its ops in chunks.  Chunk k is generated from
(seed, k) alone, so a chunk can be regenerated bit for bit (the traced run
replays the untraced run's ops), and every op gets a fresh A.  References
are computed per chunk before its ops are timed; outputs are checked after.
"""
from __future__ import annotations

import ast
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import tenfun
from tenfun import ScalarFn, SymTensor

import refs
from tracing import CountingFn

CLUSTER_TOL = tenfun.DEFAULT_CLUSTER_TOL


@dataclass
class Op:
    kind: str
    spec: str
    n: int = 0
    a: object = None          # SymTensor (in-process) or float matrix (CLI)
    lam: np.ndarray = None    # designed eigenvalues, ascending, with repeats
    d: int = 3
    args: dict = field(default_factory=dict)
    ref: object = None
    log2_scale: int = 0       # near_confluent: A is 2**log2_scale times a checked matrix


def _frames(rng, k: int) -> np.ndarray:
    """k Haar-random rotations."""
    q, r = np.linalg.qr(rng.standard_normal((k, 3, 3)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _with_spectrum(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return _sym(q @ (lam[..., :, None] * np.swapaxes(q, -1, -2)))


def _separated(rng, d: int, lo: float, hi: float, min_rel_gap: float) -> np.ndarray:
    """d distinct values in [lo, hi], pairwise relative gaps >= min_rel_gap,
    spread over three eigenvalue slots (repeats fill a degenerate spectrum)."""
    while True:
        v = np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), d)))
        if d == 1 or np.min(np.diff(v) / v[1:]) >= min_rel_gap:
            break
    if d == 1:
        return np.repeat(v, 3)
    if d == 2:
        return np.sort(np.array([v[0], v[1], v[rng.integers(2)]]))
    return v


def _random_sym(rng, k: int) -> np.ndarray:
    """k random symmetric matrices with unit Frobenius norm."""
    m = _sym(rng.standard_normal((k, 3, 3)))
    return m / np.linalg.norm(m, axis=(1, 2))[:, None, None]


def _spread(rng, costs: list[float], strata: int) -> list[int]:
    """A random order in which every prefix holds cheap and costly ops in
    about the same proportion as the whole list, so a run cut short inside a
    pass still measures the workload's mix."""
    ranked = sorted(range(len(costs)), key=lambda i: (costs[i], rng.random()))
    groups = [list(rng.permutation(g)) for g in np.array_split(ranked, strata)]
    order = []
    for j in range(max(len(g) for g in groups)):
        for g in rng.permutation(strata):
            if j < len(groups[g]):
                order.append(int(groups[g][j]))
    return order


def _tensors(m: np.ndarray) -> list[SymTensor]:
    """SymTensors from a stack of symmetric matrices (components 11 22 33 12 13 23)."""
    comps = m[..., [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]].reshape(-1, 6)
    return [SymTensor(c) for c in comps]


class Workload:
    """Base: subclasses define ``chunk``, ``prepare``, ``run`` and ``check``."""

    name = ""
    bound = ""

    counter = None      # set to a one-element list to count scalar-function calls

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, k: int, stream: int = 0):
        """Generator for chunk k (k = -1 is the warm-up chunk)."""
        return np.random.default_rng([self.seed, sum(map(ord, self.name)), stream, k + 1])

    def warmup(self) -> list[Op]:
        """A few cheap ops, run untimed during set-up (chunk -1, never measured)."""
        return self.chunk(-1)[:8]

    def prepare(self, ops: list[Op]) -> None:
        """Compute references for a chunk before its ops are timed."""

    def fn(self, op: Op) -> ScalarFn:
        return op.args["fn"] if self.counter is None else CountingFn(op.args["fn"], self.counter)

    def timed(self, op: Op):
        """(output or the exception raised, seconds) for one op."""
        t0 = time.perf_counter()
        try:
            out = self.run(op)
        except Exception as exc:  # counted as a refused op, never fatal
            out = exc
        return out, time.perf_counter() - t0

    def timed_traced(self, op: Op, tracer):
        """timed() inside an "op" span."""
        span = tracer.begin("op")
        try:
            return self.timed(op)
        finally:
            tracer.end(span)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Stop any helper process."""

    def scan(self):
        """Status counts of an untimed accuracy scan, or None (no scan)."""
        return None

    def check_all(self, ops: list[Op], outs: list) -> list[str]:
        """'ok', 'wrong' (outside the stated bound) or 'raised', per op."""
        return ["raised" if isinstance(out, Exception) else
                ("ok" if self.check(op, out) else "wrong") for op, out in zip(ops, outs)]


# ---------------------------------------------------------------------------


class TaylorHighOrder(Workload):
    """taylor_eval and distinct-direction contraction, n up to 6."""

    name = "taylor_highorder"
    bound = "relative Frobenius error <= 1e-9 against the resolvent integral"
    FNS = ("log", "exp", "sqrt", "seth_hill:2")
    TOL = 1e-9
    POINTS = 128

    def __init__(self, seed):
        super().__init__(seed)
        cells = [("taylor", f, d, n) for f in self.FNS for d in (1, 2, 3) for n in range(1, 7)]
        cells += [("distinct", f, d, n) for f in self.FNS for d in (1, 2, 3) for n in (2, 3, 4)]
        # n = 5 with distinct directions costs ~1.4 s per op at d = 3: one such op would
        # outweigh the rest of a pass, so that cell is left out.
        cells += [("distinct", f, d, 5) for f in self.FNS for d in (1, 2)]
        # The two costliest distinct cells run twice per pass, so that the top
        # decile of latencies lies inside the costly group, not on its edge.
        cells += [("distinct", f, d, n) for f in self.FNS for d, n in ((3, 4), (2, 5))]
        self.cells = cells

    @staticmethod
    def _work(kind, d, n):
        """Matrix products of the seed's contraction loop, as a cost proxy."""
        if kind == "taylor":
            return sum(d ** (k + 1) * 2 * k for k in range(1, n + 1))
        return d ** (n + 1) * math.factorial(n) * 2 * n

    def chunk(self, k):
        rng = self.rng(k)
        cells = self.cells if k >= 0 else [c for c in self.cells if c[3] <= 2]
        order = _spread(rng, [self._work(c[0], c[2], c[3]) for c in cells], 8)
        frames = _frames(rng, len(cells))
        ops = []
        for i, q in zip(order, frames):
            kind, spec, d, n = cells[i]
            lam = _separated(rng, d, 1.0, 3.0, 0.15)
            a = _with_spectrum(q, lam)
            if kind == "taylor":
                xs = [_random_sym(rng, 1)[0] * 0.3 * lam[0]]
            else:
                xs = list(_random_sym(rng, n))
            ops.append(Op(kind, spec, n, SymTensor.from_matrix(a), lam, d,
                          {"x": [SymTensor.from_matrix(x) for x in xs], "fn": tenfun.parse_fn_spec(spec)}))
        return ops

    def prepare(self, ops):
        for op in ops:
            z, w = refs.contour(op.lam[:1], op.lam[-1:], refs.entire(op.spec), self.POINTS)
            r = refs.resolvents(op.a.matrix[None], z)
            fz = refs.complex_fn(op.spec)(z)
            xs = [x.matrix[None] for x in op.args["x"]]
            if op.kind == "taylor":
                chain = sum(refs.chain_equal(r, xs[0], op.n))
            else:
                chain = refs.chain_symmetrised(r, xs) / math.factorial(op.n)
            value, scale = refs.integrate(fz, w, chain)
            op.ref = (value[0], scale[0])

    def run(self, op):
        f = self.fn(op)
        xs = op.args["x"]
        if op.kind == "taylor":
            return tenfun.taylor_eval(f, op.a, xs[0], op.n)
        return tenfun.derivative(f, op.a, op.n).contract(xs)

    def check(self, op, out):
        return bool(refs.close(out.matrix, op.ref[0], op.ref[1], self.TOL))


# ---------------------------------------------------------------------------


class StrainUpdate(Workload):
    """The chain of a constitutive update on one positive definite A."""

    name = "strain_update"
    bound = ("f(A), grad and inverse grad within 1e-9 of the resolvent integral; "
             "Sylvester residuals <= 1e-10")
    MS = (-2.0, 0.0, 0.5, 1.0, 2.0)
    TOL = 1e-9
    RES_TOL = 1e-10
    POINTS = 100
    CHUNK = 600
    BATCH = 100

    def chunk(self, k):
        rng = self.rng(k)
        size = self.CHUNK if k >= 0 else 15
        combos = [(m, d) for m in self.MS for d in (1, 2, 3)]
        picks = rng.permutation(np.arange(size) % len(combos))
        lam = np.array([_separated(rng, combos[p][1], 0.6, 1.8, 0.15) for p in picks])
        am = _with_spectrum(_frames(rng, size), lam)
        y, c, z = _random_sym(rng, size), _random_sym(rng, size), _random_sym(rng, size)
        w = am @ z - z @ am
        fns = {m: tenfun.parse_fn_spec(f"seth_hill:{m:g}") for m in self.MS}
        ops = []
        for i, (a, yi, ci) in enumerate(zip(_tensors(am), _tensors(y), _tensors(c))):
            m, d = combos[picks[i]]
            ops.append(Op("strain", f"seth_hill:{m:g}", 1, a, lam[i], d,
                          {"fn": fns[m], "y": yi, "c": ci, "w": w[i]}))
        return ops

    def run(self, op):
        f = self.fn(op)
        a = op.a
        s = tenfun.decompose(a)
        fa = tenfun.apply_fn(s, f)
        gy = tenfun.grad_spectral(f, s).apply(op.args["y"])
        iy = tenfun.inverse_grad(f, s).apply(op.args["y"])
        xp = tenfun.sylvester_power(2, a, op.args["c"])
        xc = tenfun.sylvester_commutator(a, op.args["w"])
        return s.d, fa, gy, iy, xp, xc.solution

    def check_all(self, ops, outs):
        # f(A) and the gradient's action on Y and on the inverse-gradient
        # output by resolvent integrals; Sylvester solutions by residuals.
        status = ["raised" if isinstance(out, Exception) else None for out in outs]
        live = [i for i, s in enumerate(status) if s is None]
        norm = lambda m: np.linalg.norm(m, axis=(-2, -1))  # noqa: E731
        for b in range(0, len(live), self.BATCH):
            idx = live[b:b + self.BATCH]
            a = np.array([ops[i].a.matrix for i in idx])
            z, w = refs.contour(np.array([ops[i].lam[0] for i in idx]),
                                np.array([ops[i].lam[-1] for i in idx]), False, self.POINTS)
            r = refs.resolvents(a, z)
            fz = np.array([refs.complex_fn(ops[i].spec)(z[j]) for j, i in enumerate(idx)])
            y = np.array([ops[i].args["y"].matrix for i in idx])
            c = np.array([ops[i].args["c"].matrix for i in idx])
            wc = np.array([ops[i].args["w"] for i in idx])
            fa, gy, iy, xp, xc = (np.array([getattr(outs[i][k], "matrix", outs[i][k])
                                            for i in idx]) for k in range(1, 6))
            ok = np.array([outs[i][0] == ops[i].d for i in idx])
            ok &= refs.close(fa, *refs.integrate(fz, w, r), self.TOL)
            ok &= refs.close(gy, *refs.integrate(fz, w, r @ y[:, None] @ r), self.TOL)
            g_iy, scale = refs.integrate(fz, w, r @ iy[:, None] @ r)
            ok &= refs.close(g_iy, y, scale, self.TOL)
            ok &= norm(a @ xp + xp @ a - c) <= self.RES_TOL
            ok &= norm(a @ xc - xc @ a - wc) <= self.RES_TOL * norm(a)
            for j, i in enumerate(idx):
                status[i] = "ok" if ok[j] else "wrong"
        return status


# ---------------------------------------------------------------------------


SIGNED_PERMS = [np.diag(s) @ np.eye(3)[list(p)]
                for p in itertools.permutations(range(3))
                for s in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))]


class NearConfluent(Workload):
    """derivative(f, A, n) on spectra with one close pair or one close triple."""

    name = "near_confluent"
    bound = "every coefficient within 1e-6 relative of mpmath (50+ digits)"
    # Timed ops: clusters tighter than the clustering threshold, which tenfun
    # merges.  Between 1e-1 and 1e-8, and for exp at small scales, tenfun
    # misses the bound (a known defect); every op of a workload must pass its
    # check, so those inputs are left to the untimed accuracy scan (scan()).
    FNS = ("log", "sqrt", "seth_hill:-2")
    # f(s x) = s^p f(x) + const, so order-n divided differences scale as s^(p - n)
    DEGREE = {"log": 0.0, "sqrt": 0.5, "seth_hill:-2": -2.0}
    LOG2_SCALES = (-2, -1, 0, 1)
    LEVELS = range(9, 13)           # relative gaps 1e-9 .. 1e-12
    SCAN_FNS = ("log", "exp", "sqrt", "seth_hill:-2")
    SCAN_LEVELS = range(1, 10)      # relative gaps 1e-1 .. 1e-9
    TOL = 1e-6
    SLICE = 6                       # a pass over the grid is cut into this many chunks
    DIGITS = 50
    MP_BITS = int(3.33 * DIGITS)

    def __init__(self, seed):
        super().__init__(seed)
        self.cells = self._grid(self.FNS, self.LEVELS)
        import mpmath
        self.mp = mpmath.mp

    @staticmethod
    def _grid(fns, levels):
        # ordered by (n, level) first: consecutive blocks of len(fns) * 2
        # cells share n and level
        return [(f, n, lvl, kind) for n in range(1, 7) for lvl in levels
                for f in fns for kind in ("pair", "triple")]

    def _spectrum(self, rng, spec, level, kind):
        """Eigenvalues of one cell; no gap lies within 10% of the clustering threshold."""
        top = 300.0 if spec == "exp" else 1e3
        while True:
            c = math.exp(rng.uniform(math.log(1e-3), math.log(top)))
            g = 10.0 ** (-level + rng.uniform(-0.25, 0.25))
            if kind == "pair":
                gaps = [g * c]
            else:
                gaps = [g * c, g * c * rng.uniform(0.5, 2.0)]
            cluster = c + np.concatenate([[0.0], np.cumsum(gaps)])
            r = 10.0 ** rng.uniform(0.3, 1.0)
            other = c / r if c * r > top else cluster[-1] * r
            lam = np.sort(np.concatenate([cluster, [other]] if kind == "pair" else [cluster]))
            thresh = CLUSTER_TOL * max(float(np.abs(lam).max()), 1.0)
            if all(abs(gap / thresh - 1.0) > 0.1 for gap in np.diff(lam)):
                return lam

    def _ops(self, rng, cells, perms, log2_scales=(0,)):
        """One random-frame matrix per cell, conjugated by each of ``perms``
        and scaled by each power of two (both exact in floating point)."""
        frames = _frames(rng, len(cells))
        ops = []
        for (spec, n, level, kind), q in zip(cells, frames):
            lam = self._spectrum(rng, spec, level, kind)
            a0 = _with_spectrum(q, lam)
            shared = {"a0": a0, "fn": tenfun.parse_fn_spec(spec)}
            variants = np.array([2.0 ** j * (p @ a0 @ p.T) for j in log2_scales for p in perms])
            js = [j for j in log2_scales for _ in perms]
            ops += [Op("deriv", spec, n, a, lam, 3, shared, log2_scale=j)
                    for a, j in zip(_tensors(variants), js)]
        return ops

    def chunk(self, k):
        if k < 0:
            rng = self.rng(k)
            cells = [(f, n, 9, "pair") for f in self.FNS for n in (1, 2)]
        else:
            # Each pass deals its cells to SLICE chunks so that every chunk
            # holds one cell per (n, gap level): chunks differ only in which
            # function and cluster kind each of those cells gets.
            pas, part = divmod(k, self.SLICE)
            pass_rng = self.rng(pas, stream=1)
            deal = np.concatenate([pass_rng.permutation(self.SLICE)
                                   for _ in range(len(self.cells) // self.SLICE)])
            cells = [c for c, j in zip(self.cells, deal) if j == part]
            rng = self.rng(k)
        ops = self._ops(rng, cells, SIGNED_PERMS, self.LOG2_SCALES)
        return [ops[i] for i in rng.permutation(len(ops))]

    def scan(self):
        """Untimed accuracy scan: one matrix per cell of the full grid (all
        four functions, relative gaps 1e-1 .. 1e-9), checked like the ops.
        Returns the status counts."""
        cells = self._grid(self.SCAN_FNS, self.SCAN_LEVELS)
        ops = self._ops(self.rng(0, stream=2), cells, SIGNED_PERMS[:1])
        self.prepare(ops)
        return Counter(self.check_all(ops, [self.timed(op)[0] for op in ops]))

    def prepare(self, ops):
        tables, refs_by_variant = {}, {}
        for op in ops:
            key = id(op.args)
            if key not in tables:
                table = self._table(op, 64)
                if not tables and not self._agrees(table, self._table(op, 128)):
                    raise ArithmeticError("mpmath reference is not stable under 64 more bits")
                tables[key] = table
            if (key, op.log2_scale) not in refs_by_variant:
                table = tables[key]
                with self.mp.workprec(self.MP_BITS):
                    factor = (self.mp.mpf(2) ** (op.log2_scale * (self.DEGREE[op.spec] - op.n))
                              if op.log2_scale else 1)
                    values = np.array([float(v * factor) for v in table.values()])
                # the third item caches, per cluster pattern of the output,
                # which of tenfun's entries each reference entry is
                refs_by_variant[key, op.log2_scale] = (list(table), values, {})
            op.ref = refs_by_variant[key, op.log2_scale]

    def _table(self, op, extra_bits):
        """Divided differences at the high-precision eigenvalues of the float A."""
        base = self.MP_BITS + extra_bits
        nodes = refs.eigenvalues_mp(self.mp, op.args["a0"], op.lam, base)
        prec = base + refs.cancellation_bits([float(x) for x in nodes], op.n)
        return refs.dd_table_mp(self.mp, op.spec, nodes, op.n, prec)

    def _agrees(self, t1, t2):
        tol = self.mp.mpf(10) ** -self.DIGITS
        return all(abs(t1[k] - t2[k]) <= tol * abs(t2[k]) for k in t2)

    def run(self, op):
        f = self.fn(op)
        return tenfun.derivative(f, op.a, op.n)

    def check(self, op, out):
        # map raw eigenvalue slots to tenfun's cluster labels via projector ranks
        sizes = tuple(round(float(p.components[:3].sum())) for p in out.spectrum.projectors)
        keys, ref, mapped = op.ref
        if sizes not in mapped:
            label = [i for i, s in enumerate(sizes) for _ in range(s)]
            mapped[sizes] = ([tuple(sorted(label[i] for i in k)) for k in keys]
                             if len(label) == 3 else None)
        if mapped[sizes] is None:
            return False
        values = out.coeffs.values
        got = np.array([values.get(k, np.nan) for k in mapped[sizes]])
        return bool(np.all(np.abs(got - ref) <= self.TOL * np.abs(ref)))


# ---------------------------------------------------------------------------


def write_document(path: str, entries: list[tuple[str, object]]) -> None:
    """Job document in the CLI's key = value format (floats round-trip)."""

    def fmt(v):
        if isinstance(v, np.ndarray):
            v = v.tolist()
        if isinstance(v, list):
            return "[" + ", ".join(fmt(x) for x in v) + "]"
        return repr(v) if isinstance(v, float) else str(v)

    with open(path, "w", encoding="utf-8") as fh:
        for k, v in entries:
            fh.write(f"{k} = {fmt(v)}\n")


def read_document(text: str) -> dict:
    """The CLI's result document: arrays and numbers as Python values, tokens as text."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.partition("=")
        raw = raw.strip()
        try:
            out[key.strip()] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            out[key.strip()] = raw
    return out


class CliJobs(Workload):
    """One ``python -m tenfun.cli --input <doc>`` subprocess per op."""

    name = "cli_jobs"
    bound = ("exit 0; values within 1e-9 (dense contractions 1e-8) of resolvent "
             "integrals; coefficients within 1e-6 of mpmath; residuals <= 1e-10; "
             "every check passes")
    FNS = ("log", "sqrt", "exp", "seth_hill:-2")
    TOL = 1e-9
    COEFF_TOL = 1e-6    # as near_confluent: order-6 tables miss 1e-9 even at gaps of 0.2
    MP_BITS = NearConfluent.MP_BITS + 64    # as near_confluent's references
    DENSE_TOL = 1e-8
    RES_TOL = 1e-10
    POINTS = 128

    def __init__(self, seed, workdir, env, command):
        super().__init__(seed)
        self.workdir = workdir
        self.env = env
        self.command = command      # argv prefix that runs the CLI
        self.peak_kb = 0
        import mpmath
        self.mp = mpmath.mp
        os.makedirs(workdir, exist_ok=True)
        here = os.path.dirname(os.path.abspath(__file__))
        self.shim = os.path.join(here, "cli_shim.py")
        self.spawner = subprocess.Popen([sys.executable, os.path.join(here, "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True, env=env)

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=120)

    def _jobs(self):
        # (kind, order, dense).  Only dense n = 4 exports stand well above the
        # ~0.1 s of a plain job; three per pass of 16 put p90 inside that group.
        jobs = [("eval", 0, False)] + [("grad", n, False) for n in range(1, 7)]
        jobs += [("grad", n, True) for n in (2, 3, 4, 4, 4)]
        jobs += [("taylor", 0, False), ("solve", 2, False), ("commutator", 0, False)]
        jobs += [("check", 0, False)]
        return jobs

    def chunk(self, k):
        rng = self.rng(k)
        jobs = self._jobs() if k >= 0 else [("eval", 0, False), ("grad", 1, False)]
        order = _spread(rng, [10.0 ** n if dense else 1.0 for _, n, dense in jobs],
                        min(4, len(jobs)))
        frames = _frames(rng, len(jobs))
        ops = []
        for j, (i, q) in enumerate(zip(order, frames)):
            kind, n, dense = jobs[i]
            spec = self.FNS[rng.integers(len(self.FNS))]
            lam = _separated(rng, 3, 1.0, 3.0, 0.15)
            a = _with_spectrum(q, lam)
            path = os.path.join(self.workdir, f"job-{k}-{j}.txt")
            entries = [("command", "solve" if kind == "commutator" else kind), ("matrix", a)]
            args = {"path": path, "dense": dense}
            if kind in ("eval", "grad", "taylor", "check"):
                entries.append(("fn", spec))
            if kind == "grad":
                entries.append(("order", n))
            if kind == "taylor":
                n = int(rng.integers(1, 7))
                x = _random_sym(rng, 1)[0] * 0.3 * lam[0]
                entries += [("order", n), ("direction", x)]
                args["x"] = x
            if kind == "check":
                n = int(rng.integers(2, 5))
                entries.append(("order", n))
            if kind == "solve":
                c = _random_sym(rng, 1)[0]
                entries += [("m", n), ("rhs", c)]
                args["c"] = c
            if kind == "commutator":
                zm = _random_sym(rng, 1)[0]
                w = a @ zm - zm @ a
                entries += [("equation", "commutator"), ("rhs", w)]
                args["w"] = w
            write_document(path, entries)
            ops.append(Op(kind, spec, n, a, lam, 3, args))
        return ops

    def argv(self, op, command=None):
        out = list(command or self.command) + ["--input", op.args["path"]]
        return out + (["--dense"] if op.args["dense"] else [])

    def timed(self, op, command=None):
        out_path = os.path.join(self.workdir, "stdout.txt")
        self.spawner.stdin.write(json.dumps({"argv": self.argv(op, command), "out": out_path}) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        return (reply["code"], text), reply["seconds"]

    def run(self, op):
        return self.timed(op)[0]

    def peak_rss_mb(self):
        return self.peak_kb / 1024.0

    def timed_traced(self, op, tracer):
        """Run the job through cli_shim.py and graft its spans under an op span."""
        path = os.path.join(self.workdir, "child-spans.json")
        out, seconds = self.timed(op, [sys.executable, self.shim, "{spawn}", path])
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        start = child["spans"][0][1]     # the spawn time, first span's start
        tracer.graft(child["spans"], tracer.add("op", start, start + seconds))
        counts = child["counts"]
        self.counter[0] += counts.pop("deriv_calls", 0)
        tracer.counts.update(counts)
        return out, seconds

    def check(self, op, out):
        code, text = out
        if code != 0:
            return False
        doc = read_document(text)
        a = op.a
        if op.kind == "check":
            checks = [v for k, v in doc.items() if k.startswith("check_")]
            return bool(checks) and all(v == "pass" for v in checks)
        if op.kind == "solve":
            x = np.array(doc["solution"])
            lhs = a @ x + x @ a
            return np.linalg.norm(lhs - op.args["c"]) <= self.RES_TOL
        if op.kind == "commutator":
            x = np.array(doc["solution"])
            return np.linalg.norm(a @ x - x @ a - op.args["w"]) <= self.RES_TOL * np.linalg.norm(a)
        fz_fn = refs.complex_fn(op.spec)
        z, w = refs.contour(op.lam[:1], op.lam[-1:], refs.entire(op.spec), self.POINTS)
        r = refs.resolvents(a[None], z)
        fz = fz_fn(z)
        if op.kind == "eval":
            ref, scale = refs.integrate(fz, w, r)
            return bool(refs.close(np.array(doc["value"]), ref[0], scale[0], self.TOL))
        if op.kind == "taylor":
            x = op.args["x"]
            ref, scale = refs.integrate(fz, w, sum(refs.chain_equal(r, x[None], op.n)))
            value, exact = np.array(doc["value"]), np.array(doc["exact"])
            lo, hi = op.lam[0] - np.linalg.norm(x), op.lam[-1] + np.linalg.norm(x)
            z2, w2 = refs.contour(np.array([lo]), np.array([hi]), refs.entire(op.spec), self.POINTS)
            exact_ref, exact_scale = refs.integrate(fz_fn(z2), w2, refs.resolvents((a + x)[None], z2))
            return (refs.close(value, ref[0], scale[0], self.TOL)
                    and refs.close(exact, exact_ref[0], exact_scale[0], self.TOL)
                    and abs(doc["remainder_norm"] - np.linalg.norm(exact - value))
                    <= 1e-12 * np.linalg.norm(exact))
        # grad: eigenvalues, projectors, coefficient table, optional dense export
        alphas = np.array(doc["alphas"])
        if doc["d"] != 3 or np.max(np.abs(alphas - op.lam)) > 1e-12 * op.lam[-1]:
            return False
        for i in range(3):
            p = np.array(doc[f"projector_{i + 1}"])
            if np.linalg.norm(a @ p - op.lam[i] * p) > 1e-10 * op.lam[-1]:
                return False
        # coefficients against mpmath: at order 6 the trapezoid rule around a
        # spectrum that nearly reaches the branch point of sqrt or log is off
        # by up to 5e-6 relative, which is no reference for a 1e-6 bound
        nodes = refs.eigenvalues_mp(self.mp, a, op.lam, self.MP_BITS)
        prec = self.MP_BITS + refs.cancellation_bits([float(x) for x in nodes], op.n)
        table = refs.dd_table_mp(self.mp, op.spec, nodes, op.n, prec)
        coeffs = {tuple(sorted(int(t) - 1 for t in key.split("_")[1:])): v
                  for key, v in doc.items() if key.startswith("coeff_")}
        if set(coeffs) != set(table):
            return False
        for idx, v in coeffs.items():
            if abs(v - float(table[idx])) > self.COEFF_TOL * abs(float(table[idx])):
                return False
        if op.args["dense"]:
            t = np.array(doc["dense"]).reshape(doc["dense_shape"])
            rng = np.random.default_rng([self.seed, op.n, 7])
            xs = rng.standard_normal((op.n, 3, 3))
            got = t
            for x in xs:
                got = np.tensordot(got, x, axes=([2, 3], [0, 1]))
            chain = r
            for x in xs:
                chain = chain @ x[None, None] @ r
            ref, scale = refs.integrate(fz, w, chain)
            if not refs.close(got, ref[0], scale[0], self.DENSE_TOL):
                return False
        return True


def make(name: str, seed: int, workdir: str, env: dict):
    if name == "taylor_highorder":
        return TaylorHighOrder(seed)
    if name == "strain_update":
        return StrainUpdate(seed)
    if name == "near_confluent":
        return NearConfluent(seed)
    if name == "cli_jobs":
        return CliJobs(seed, os.path.join(workdir, "docs"), env,
                       [sys.executable, "-m", "tenfun.cli"])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("taylor_highorder", "strain_update", "near_confluent", "cli_jobs")
