"""Command line front end: deterministic JSON/text reports over the session
DSL.

Subcommands: check-jacobi, check-compat, cohomology, reduce, lenard, echelon,
det, sigma, solve-skew.  Exit code 0 when every result is ok, 1 when any
check fails, 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .complexes import SkewArray, reduce_closed
from .diffalg import (DiffPoly, DiffRat, LocalFunctional, NotExact,
                      format_diff_poly)
from .diffop import (MatDiffOp, NotSkewadjoint, ScalarDiffOp, dieudonne_det,
                     format_scalar_op, row_echelon)
from .field import FieldElem, format_field_elem
from .lambdapoly import LambdaPoly, format_lambda_poly
from .lenard import NoPreimage, run_hierarchy, verify_involution
from .parser import ParseError, Session, parse_session
from .polydiff import (KDiffOp, chi_representative, sigma_space, skew_product,
                       solve_skew_equation)
from .pva import LambdaBracketStruct, check_compatible, check_jacobi


class Report:
    """Deterministic result container: fixed key order, witnesses only on
    failures, timing kept outside the hashable body."""

    def __init__(self, command: str):
        self.command = command
        self.inputs: dict = {}
        self.results: list = []
        self.timing_ms: Optional[int] = None

    def add(self, name: str, status: str, value=None, witness=None):
        entry = {"name": name, "status": status, "value": value}
        if status == "fail" and witness is not None:
            entry["witness"] = witness
        self.results.append(entry)

    def body(self) -> dict:
        return {"command": self.command, "inputs": self.inputs,
                "results": self.results}

    def exit_code(self) -> int:
        if any(r["status"] == "error" for r in self.results):
            return 2
        if any(r["status"] == "fail" for r in self.results):
            return 1
        return 0

    def to_json(self) -> str:
        out = dict(self.body())
        out["timing_ms"] = self.timing_ms
        return json.dumps(out, indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, val in self.inputs.items():
            lines.append(f"input {key}: {val}")
        for r in self.results:
            line = f"{r['name']}: {r['status']}"
            if r.get("value") is not None:
                line += f"  {json.dumps(r['value'], sort_keys=False)}"
            if "witness" in r:
                line += f"  witness: {json.dumps(r['witness'])}"
            lines.append(line)
        lines.append(f"timing_ms: {self.timing_ms}")
        return "\n".join(lines)


# -- serialization helpers -----------------------------------------------------------


def _fmt_value(v) -> str:
    if isinstance(v, DiffPoly):
        return format_diff_poly(v)
    if isinstance(v, FieldElem):
        return format_field_elem(v)
    if isinstance(v, DiffRat):
        return repr(v)
    if isinstance(v, ScalarDiffOp):
        return format_scalar_op(v)
    if isinstance(v, MatDiffOp):
        return "[" + ",".join(
            "[" + ", ".join(format_scalar_op(e) for e in r) + "]"
            for r in v.rows) + "]"
    if isinstance(v, LocalFunctional):
        return format_diff_poly(v.representative)
    return str(v)


def _array_to_json(P) -> dict:
    entries = {}
    src = P.entries
    for idx in sorted(src):
        L = src[idx]
        terms = []
        for e, p in L.sorted_terms():
            terms.append([list(e), format_diff_poly(p)])
        entries[",".join(map(str, idx))] = terms
    return {"arity": P.k, "entries": entries}


def _array_from_json(doc: dict, session: Session, kind: str):
    k = int(doc["arity"])
    alg = session.alg
    target = SkewArray(alg, k) if kind == "skew" else KDiffOp(alg, k)
    for key, terms in doc["entries"].items():
        idx = tuple(int(t) for t in key.split(","))
        L = LambdaPoly.zero(alg, k)
        for e, expr in terms:
            coeff = session.evaluate(expr)
            if not isinstance(coeff, DiffPoly):
                raise ParseError("array coefficients must be differential "
                                 "polynomials", 1, 1)
            L = L + LambdaPoly.monomial(alg, k, tuple(e), coeff)
        if kind == "skew":
            target.set_entry(idx, L)
        else:
            target.set_entry(idx, target.entry(idx) + L)
    return target


def _witness_json(wit) -> dict:
    triple, residual = wit
    return {"triple": list(triple),
            "residual": format_lambda_poly(residual)}


# -- command implementations -----------------------------------------------------------


def _eval_operator(session: Session, text: str,
                   square: bool = True) -> MatDiffOp:
    v = session.evaluate(text)
    if isinstance(v, ScalarDiffOp):
        v = MatDiffOp.scalar(v)
    elif isinstance(v, DiffPoly):
        v = MatDiffOp.scalar(ScalarDiffOp(session.alg, {0: v}))
    if not isinstance(v, MatDiffOp):
        raise ParseError("expected an operator", 1, 1)
    if square and (v.m, v.n) != (session.alg.nvars, session.alg.nvars):
        raise ParseError(
            f"operator must be {session.alg.nvars}x{session.alg.nvars} "
            f"for this session, got {v.m}x{v.n}", 1, 1)
    return v


def _eval_bracket(session: Session, text: str) -> LambdaBracketStruct:
    return LambdaBracketStruct(_eval_operator(session, text))


def cmd_check_jacobi(args, session: Session, report: Report):
    H = _eval_bracket(session, args.H)
    report.inputs["H"] = _fmt_value(H.op)
    try:
        ok, wit = check_jacobi(H)
    except NotSkewadjoint:
        report.add("skewadjoint", "fail", False)
        return
    report.add("skewadjoint", "ok", True)
    report.add("jacobi", "ok" if ok else "fail", ok,
               None if ok else _witness_json(wit))


def cmd_check_compat(args, session: Session, report: Report):
    A = _eval_bracket(session, args.A)
    B = _eval_bracket(session, args.B)
    report.inputs["A"] = _fmt_value(A.op)
    report.inputs["B"] = _fmt_value(B.op)
    for name, S in (("A", A), ("B", B)):
        try:
            ok, wit = check_jacobi(S)
        except NotSkewadjoint:
            report.add(f"{name}-skewadjoint", "fail", False)
            return
        report.add(f"{name}-poisson", "ok" if ok else "fail", ok,
                   None if ok else _witness_json(wit))
        if not ok:
            return
    ok, wit = check_compatible(A, B)
    report.add("compatible", "ok" if ok else "fail", ok,
               None if ok else _witness_json(wit))


def cmd_cohomology(args, session: Session, report: Report):
    K = _eval_operator(session, args.K)
    report.inputs["K"] = _fmt_value(K)
    report.inputs["k"] = args.k
    basis, _, flagged = sigma_space(K, args.k)
    reps = [_array_to_json(chi_representative(P)) for P in basis]
    value = {"dim": len(basis), "basis_representatives": reps,
             "flagged_lower_bound": bool(flagged)}
    status = "flagged" if value["flagged_lower_bound"] else "ok"
    report.add("cohomology", status, value)


def cmd_sigma(args, session: Session, report: Report):
    K = _eval_operator(session, args.K)
    report.inputs["K"] = _fmt_value(K)
    report.inputs["k"] = args.k
    basis, expected, flagged = sigma_space(K, args.k)
    value = {"dim": len(basis), "expected": expected,
             "basis": [_array_to_json(P) for P in basis]}
    report.add("sigma", "flagged" if flagged else "ok", value)


def cmd_solve_skew(args, session: Session, report: Report):
    K = _eval_operator(session, args.K)
    with open(args.S) as fh:
        doc = json.load(fh)
    S = _array_from_json(doc, session, "kdiff")
    report.inputs["K"] = _fmt_value(K)
    report.inputs["S"] = _array_to_json(S)
    P = solve_skew_equation(K, S)
    verified = skew_product(K, P) == S
    report.add("solution", "ok" if verified else "fail",
               _array_to_json(P))


def cmd_det(args, session: Session, report: Report):
    M = _eval_operator(session, args.M, square=False)
    report.inputs["M"] = _fmt_value(M)
    dv = dieudonne_det(M)
    if dv.is_zero:
        report.add("det", "ok", {"zero": True})
    else:
        report.add("det", "ok", {"c": _fmt_value(dv.c), "degree": dv.d})


def cmd_echelon(args, session: Session, report: Report):
    M = _eval_operator(session, args.M, square=False)
    report.inputs["M"] = _fmt_value(M)
    ech, ops = row_echelon(M)
    report.add("echelon", "ok", {"matrix": _fmt_value(ech),
                                 "operations": len(ops)})


def cmd_reduce(args, session: Session, report: Report):
    K = _eval_operator(session, args.K)
    report.inputs["K"] = _fmt_value(K)
    if args.array:
        with open(args.array) as fh:
            P = _array_from_json(json.load(fh), session, "skew")
    else:
        vec = session.evaluate(args.form)
        if isinstance(vec, DiffPoly):
            vec = [vec]
        P = SkewArray.from_one_form(vec)
    report.inputs["P"] = _array_to_json(P)
    Q, R = reduce_closed(P, K)
    report.add("reduce", "ok", {"Q": _array_to_json(Q),
                                "R": _array_to_json(R),
                                "exact": R.is_zero()})


def cmd_lenard(args, session: Session, report: Report):
    H = _eval_bracket(session, args.H)
    K = _eval_bracket(session, args.K)
    seed = session.evaluate(args.seed)
    if not isinstance(seed, DiffPoly):
        raise ParseError("seed must be a differential polynomial", 1, 1)
    report.inputs["H"] = _fmt_value(H.op)
    report.inputs["K"] = _fmt_value(K.op)
    report.inputs["seed"] = _fmt_value(seed)
    report.inputs["steps"] = args.steps
    try:
        state = run_hierarchy(H, K, LocalFunctional(seed), args.steps)
    except (NoPreimage, NotExact) as err:
        report.add("hierarchy", "fail", str(err),
                   {"obstruction": _fmt_value(err.witness)
                    if err.witness is not None else None})
        return
    densities = [_fmt_value(h) for h in state.densities]
    inv = verify_involution(state)
    certs = [{"step": c.index, "recursion_exact": c.recursion_exact}
             for c in state.certificates]
    all_inv = all(all(row) for row in inv)
    report.add("densities", "ok", densities)
    report.add("certificates",
               "ok" if all(c.recursion_exact for c in state.certificates)
               else "fail", certs)
    report.add("involution", "ok" if all_inv else "fail",
               [[bool(v) for v in row] for row in inv])


COMMANDS = {
    "check-jacobi": cmd_check_jacobi,
    "check-compat": cmd_check_compat,
    "cohomology": cmd_cohomology,
    "sigma": cmd_sigma,
    "solve-skew": cmd_solve_skew,
    "det": cmd_det,
    "echelon": cmd_echelon,
    "reduce": cmd_reduce,
    "lenard": cmd_lenard,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="varpois",
        description="variational Poisson calculus engine")
    ap.add_argument("--session", help="session file with vars/params/defs")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    sub = ap.add_subparsers(dest="command")
    p = sub.add_parser("check-jacobi")
    p.add_argument("--H", required=True)
    p = sub.add_parser("check-compat")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p = sub.add_parser("cohomology")
    p.add_argument("--K", required=True)
    p.add_argument("--k", type=int, required=True)
    p = sub.add_parser("sigma")
    p.add_argument("--K", required=True)
    p.add_argument("--k", type=int, required=True)
    p = sub.add_parser("solve-skew")
    p.add_argument("--K", required=True)
    p.add_argument("--S", required=True, help="JSON file with the array")
    p = sub.add_parser("det")
    p.add_argument("--M", required=True)
    p = sub.add_parser("echelon")
    p.add_argument("--M", required=True)
    p = sub.add_parser("reduce")
    p.add_argument("--K", required=True)
    p.add_argument("--array", help="JSON file with the closed array")
    p.add_argument("--form", help="inline 1-form [expr, ...]")
    p = sub.add_parser("lenard")
    p.add_argument("--H", required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--steps", type=int, default=1)
    return ap


_PARSER = build_parser()


def run(argv=None):
    return _run_args(_PARSER.parse_args(argv))


def _run_args(args):
    if args.command is None:
        _PARSER.print_help()
        return None, 2
    report = Report(args.command)
    t0 = time.monotonic()
    try:
        if args.session:
            with open(args.session) as fh:
                session = parse_session(fh.read())
        else:
            session = parse_session("")
        COMMANDS[args.command](args, session, report)
    except ParseError as err:
        report.add("parse", "error", str(err))
    except Exception as err:  # noqa: BLE001 - reported, nonzero exit
        report.add(args.command, "error", f"{type(err).__name__}: {err}")
    report.timing_ms = int((time.monotonic() - t0) * 1000)
    return report, report.exit_code()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    report, code = _run_args(args)
    if report is not None:
        print(report.to_json() if args.format == "json"
              else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
