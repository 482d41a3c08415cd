"""Command-line front end: job documents in, result documents out.

Job and result files share one plain-text format: ``key = value`` lines,
where a value is an integer, a float, a bare token, or a bracketed array of
numbers (nested to any depth).  Blank lines and lines starting with '#' are
ignored.  Floats are emitted with 17 significant digits so that emitted
documents re-parse to bit-identical values.

Exit codes: 0 success, 2 parse errors, 3 domain errors, 4 numerical failures.
"""
from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .coefficients import build_table, coeff_residue, IndexClass
from .derivatives import derivative, taylor_eval
from .errors import DomainError, NumericalError, ParseError
from .inverse_gradient import (
    _commutator,
    grad_spectral,
    inverse_grad,
    log_inverse_integral,
    sylvester_commutator,
    sylvester_power,
)
from .multilinear import FourthTensor
from .scalar_functions import Log, ScalarFn, parse_fn_spec
from .spectral import DEFAULT_CLUSTER_TOL, SymTensor, apply_fn, decompose

__all__ = ["JobSpec", "parse_document", "format_document", "run", "main"]

_COMMANDS = ("eval", "grad", "taylor", "solve", "check")
_MAX_ORDER = 6
_MAX_DENSE_ORDER = 4
_SYM_TOL = 1e-12

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.startswith("["):
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError) as exc:
            raise ParseError(f"bad array literal {raw!r}: {exc}") from exc
        _check_numbers(value, raw)
        return value
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw and all(c.isalnum() or c in "_:.,+-" for c in raw):
        return raw
    raise ParseError(f"cannot parse value {raw!r}")


def _check_numbers(value, raw):
    if isinstance(value, (list, tuple)):
        for v in value:
            _check_numbers(v, raw)
    elif not isinstance(value, (int, float)):
        raise ParseError(f"array {raw!r} must contain only numbers")


def parse_document(text: str) -> dict:
    """Parse a key = value document into a dict (later keys win)."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key or not key.replace("_", "").isalnum():
            raise ParseError(f"line {lineno}: bad key {key!r}")
        out[key] = _parse_value(raw)
    return out


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = format(float(value), ".17g")
        # keep a float marker so the value re-parses as a float
        if not any(c in text for c in ".en"):
            text += ".0"
        return text
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return str(value)


def format_document(entries) -> str:
    """Serialise (key, value) pairs; floats keep 17 significant digits."""
    if isinstance(entries, dict):
        entries = entries.items()
    return "".join(f"{k} = {_format_value(v)}\n" for k, v in entries)


@dataclass
class JobSpec:
    """One CLI job: a command plus its tensors, function and knobs."""

    command: str
    fn: ScalarFn | None = None
    fn_spec: str | None = None
    order: int = 1
    matrix: SymTensor | None = None
    direction: SymTensor | None = None
    rhs: np.ndarray | None = None
    m: int = 2
    equation: str = "power"
    dense: bool = False
    cluster_tol: float = DEFAULT_CLUSTER_TOL
    quad_points: int = 32
    method: str = "dd"


def _as_sym(value, key: str) -> SymTensor:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key}: expected a 3x3 array: {exc}") from exc
    if arr.shape != (3, 3):
        raise ParseError(f"{key}: expected a 3x3 array, got shape {arr.shape}")
    try:
        return SymTensor.from_matrix(arr, tol=_SYM_TOL)
    except ValueError as exc:
        raise ParseError(f"{key}: {exc}") from exc


def job_from_document(doc: dict, overrides: dict | None = None) -> JobSpec:
    doc = dict(doc)
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    command = doc.pop("command", None)
    if command not in _COMMANDS:
        raise ParseError(f"command must be one of {_COMMANDS}, got {command!r}")
    job = JobSpec(command=command)
    if "fn" in doc:
        job.fn_spec = str(doc.pop("fn"))
        job.fn = parse_fn_spec(job.fn_spec)
    if "order" in doc:
        order = doc.pop("order")
        if not isinstance(order, int) or not (1 <= order <= _MAX_ORDER):
            raise ParseError(f"order must be an integer in 1..{_MAX_ORDER}, got {order!r}")
        job.order = order
    if "matrix" in doc:
        job.matrix = _as_sym(doc.pop("matrix"), "matrix")
    if "direction" in doc:
        job.direction = _as_sym(doc.pop("direction"), "direction")
    if "rhs" in doc:
        # the commutator right-hand side may legitimately be skew
        arr = np.asarray(doc.pop("rhs"), dtype=float)
        if arr.shape != (3, 3) or not np.all(np.isfinite(arr)):
            raise ParseError("rhs: expected a finite 3x3 array")
        job.rhs = arr
    if "m" in doc:
        m = doc.pop("m")
        if not isinstance(m, int):
            raise ParseError(f"m must be an integer, got {m!r}")
        job.m = m
    if "equation" in doc:
        eq = str(doc.pop("equation"))
        if eq not in ("power", "commutator"):
            raise ParseError(f"equation must be 'power' or 'commutator', got {eq!r}")
        job.equation = eq
    if job.command == "solve" and job.equation == "power" and job.m < 1:
        raise ParseError(f"the power-sum equation needs m >= 1, got {job.m}")
    if "dense" in doc:
        raw = doc.pop("dense")
        dense = {"true": True, "1": True, "false": False, "0": False}.get(_format_value(raw))
        if dense is None:
            raise ParseError(f"dense must be true, false, 1 or 0, got {raw!r}")
        job.dense = dense
    if "tol" in doc:
        tol = doc.pop("tol")
        if not isinstance(tol, (int, float)) or not 0.0 < tol < 1.0:
            raise ParseError(f"tol must be a number in (0, 1), got {tol!r}")
        job.cluster_tol = float(tol)
    if "quad_points" in doc:
        q = doc.pop("quad_points")
        if not isinstance(q, int) or q < 1:
            raise ParseError(f"quad_points must be a positive integer, got {q!r}")
        job.quad_points = q
    if "method" in doc:
        method = str(doc.pop("method"))
        if method not in ("dd", "residue", "interp"):
            raise ParseError(f"method must be dd, residue or interp, got {method!r}")
        job.method = method
    if doc:
        raise ParseError(f"unknown job keys: {sorted(doc)}")
    return job


def _need(job: JobSpec, attr: str, what: str):
    value = getattr(job, attr)
    if value is None:
        raise ParseError(f"command {job.command!r} needs {what}")
    return value


def _matrix_entries(key: str, m) -> list[tuple[str, object]]:
    arr = np.asarray(getattr(m, "matrix", m), dtype=float)
    return [(key, [list(row) for row in arr])]


def run(job: JobSpec) -> list[tuple[str, object]]:
    """Execute a job and return result-document entries."""
    out: list[tuple[str, object]] = [("result", job.command)]
    if job.fn_spec is not None:
        out.append(("fn", job.fn_spec))

    if job.command == "eval":
        f = _need(job, "fn", "a function spec")
        a = _need(job, "matrix", "a matrix")
        s = decompose(a, job.cluster_tol)
        out += _matrix_entries("value", apply_fn(s, f))
        return out

    if job.command == "grad":
        f = _need(job, "fn", "a function spec")
        a = _need(job, "matrix", "a matrix")
        dv = derivative(f, a, job.order, cluster_tol=job.cluster_tol, method=job.method)
        s = dv.spectrum
        out.append(("order", job.order))
        out.append(("d", s.d))
        out.append(("alphas", [float(x) for x in s.alphas]))
        for i, p in enumerate(s.projectors, start=1):
            out += _matrix_entries(f"projector_{i}", p)
        for idx in sorted(dv.coeffs.values):
            key = "coeff_" + "_".join(str(i + 1) for i in idx)
            out.append((key, dv.coeffs.values[idx]))
        if job.dense:
            if job.order > _MAX_DENSE_ORDER:
                raise ParseError(f"dense export is capped at order {_MAX_DENSE_ORDER} "
                                 f"(3^{2 * (job.order + 1)} entries)")
            dense = dv.as_box_sum().dense()
            out.append(("dense_shape", list(dense.shape)))
            out.append(("dense", [float(v) for v in dense.reshape(-1)]))
        return out

    if job.command == "taylor":
        f = _need(job, "fn", "a function spec")
        a = _need(job, "matrix", "a matrix")
        x = _need(job, "direction", "a direction")
        approx = taylor_eval(f, a, x, job.order, cluster_tol=job.cluster_tol)
        exact = apply_fn(decompose(a + x, job.cluster_tol), f)
        out.append(("order", job.order))
        out += _matrix_entries("value", approx)
        out += _matrix_entries("exact", exact)
        out.append(("remainder_norm", (exact - approx).norm()))
        return out

    if job.command == "solve":
        a = _need(job, "matrix", "a matrix")
        rhs = _need(job, "rhs", "a right-hand side")
        if job.equation == "commutator":
            sol = sylvester_commutator(a, rhs, cluster_tol=job.cluster_tol)
            x = sol.solution
            am = a.matrix
            residual = float(np.linalg.norm(am @ x - x @ am - rhs))
            out += _matrix_entries("solution", x)
            out.append(("residual", residual))
            out.append(("null_component", sol.null_norm))
            return out
        scale = max(1.0, float(np.abs(rhs).max()))
        if np.abs(rhs - rhs.T).max() > _SYM_TOL * scale:
            raise ParseError("rhs: the power-sum equation needs a symmetric right-hand side")
        x = sylvester_power(job.m, a, rhs, cluster_tol=job.cluster_tol)
        am, xm = a.matrix, x.matrix
        lhs = sum(np.linalg.matrix_power(am, job.m - k) @ xm @ np.linalg.matrix_power(am, k - 1)
                  for k in range(1, job.m + 1))
        out.append(("m", job.m))
        out += _matrix_entries("solution", x)
        out.append(("residual", float(np.linalg.norm(lhs - rhs))))
        return out

    if job.command == "check":
        return out + _run_checks(job)

    raise ParseError(f"unhandled command {job.command!r}")


def _run_checks(job: JobSpec) -> list[tuple[str, object]]:
    """Invariant battery for the given input; one pass/fail entry per property."""
    a = _need(job, "matrix", "a matrix")
    s = decompose(a, job.cluster_tol)
    eye = np.eye(3)
    results: list[tuple[str, bool]] = []

    worst = 0.0
    for i, p in enumerate(s.projectors):
        for j, q in enumerate(s.projectors):
            target = p.matrix if i == j else np.zeros((3, 3))
            worst = max(worst, float(np.abs(p.matrix @ q.matrix - target).max()))
    results.append(("projector_orthogonality", worst <= 1e-10))
    part = sum(p.matrix for p in s.projectors) - eye
    results.append(("partition_of_unity", float(np.abs(part).max()) <= 1e-12))
    recon = (s.reconstruct() - a).norm()
    results.append(("reconstruction", recon <= 1e-10 * max(1.0, a.norm())))

    if job.fn is not None:
        f = job.fn
        try:
            fa = apply_fn(s, f)
        except DomainError:
            results.append(("function_domain", False))
            fa = None
        if fa is not None:
            grad = derivative(f, a, 1, cluster_tol=job.cluster_tol).as_fourth_tensor()
            resid = float(np.abs(_commutator(a).compose(grad).dense()
                                 - _commutator(fa).dense()).max())
            scale = max(1.0, fa.norm())
            results.append(("gradient_commutator_identity", resid <= 1e-10 * scale))

            table = build_table(f, s, min(job.order, 4))
            worst = 0.0
            for idx, v in table.values.items():
                ref = coeff_residue(f, IndexClass.from_multi_index(idx), s.alphas)
                worst = max(worst, abs(v - ref) / max(1.0, abs(v), abs(ref)))
            results.append(("coefficient_paths_agree", worst <= 1e-8))

            if f.is_strain_measure and s.positive:
                comp = grad_spectral(f, s).as_fourth_tensor().compose(
                    inverse_grad(f, s).as_fourth_tensor())
                resid = float(np.abs(comp.dense() - FourthTensor.identity().dense()).max())
                results.append(("inverse_gradient_composition", resid <= 1e-10))

    if s.positive:
        quad = log_inverse_integral(a, job.quad_points, cluster_tol=job.cluster_tol).dense()
        spectral = inverse_grad(Log(), s).as_fourth_tensor().dense()
        resid = float(np.abs(quad - spectral).max())
        results.append(("log_integral_quadrature",
                        resid <= 1e-10 * max(1.0, float(np.abs(spectral).max()))))

    entries: list[tuple[str, object]] = [(f"check_{name}", "pass" if ok else "fail")
                                         for name, ok in results]
    entries.append(("check_overall", "pass" if all(ok for _, ok in results) else "fail"))
    return entries


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenfun",
        description="Evaluate tensor functions, their derivatives, inverse "
                    "gradients and Sylvester solvers on symmetric 3x3 tensors.")
    parser.add_argument("--input", required=True, help="job document path ('-' for stdin)")
    parser.add_argument("--fn", help="function spec, e.g. seth_hill:-2 or poly:1,0,-2")
    parser.add_argument("--order", type=int, help=f"derivative order (1..{_MAX_ORDER})")
    parser.add_argument("--dense", action="store_true",
                        help=f"export dense components (order <= {_MAX_DENSE_ORDER})")
    parser.add_argument("--tol", type=float, help="eigenvalue clustering tolerance")
    parser.add_argument("--quad-points", type=int, dest="quad_points",
                        help="quadrature points for the log-measure integral")
    parser.add_argument("--method", choices=("dd", "residue", "interp"),
                        help="coefficient evaluation path (for cross-checking)")
    parser.add_argument("--version", action="version", version=f"tenfun {__version__}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read {args.input!r}: {exc}") from exc
        doc = parse_document(text)
        overrides = {
            "fn": args.fn,
            "order": args.order,
            "dense": True if args.dense else None,
            "tol": args.tol,
            "quad_points": args.quad_points,
            "method": args.method,
        }
        job = job_from_document(doc, overrides)
        entries = run(job)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        sys.stdout.write(format_document(entries))
        sys.stdout.flush()
    except BrokenPipeError:
        return EXIT_OK
    if ("check_overall", "fail") in entries:
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
