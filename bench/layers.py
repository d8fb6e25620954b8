"""What the traced run wraps, and the per-layer metrics it reports.

Layers are the modules of `varpois`, plus sympy's `PolyElement.cancel`,
which counts as part of the `field` layer.  Each traced function belongs to
one layer (its self time goes there) and to the metric groups named after it
(`.calls` counts every call in the group, `_s` is the time covered by the
group's outermost calls).  Besides the functions the metrics name, each layer
wraps its main entry points, so that its `self_s` holds the time spent in its
own code rather than in its callers'.
"""

from __future__ import annotations

from tracer import Tracer

# field operand kinds, lightest first; an op is counted under the heavier
# operand's kind.
RAT, CONST, POLY, FRAC = range(4)
KIND_NAMES = ("rat", "const", "poly", "frac")


def field_kind(v) -> int:
    """rat: a plain rational (or an int/Fraction operand); const: free of x
    but not plain (parameters); poly: x appears and the denominator is a
    plain rational; frac: x appears and the denominator is not plain."""
    f = getattr(v, "f", None)
    if f is None:
        return RAT
    num, den = f.numer, f.denom
    has_x = any(m[0] for m in num) or any(m[0] for m in den)
    if den.is_ground:
        if num.is_ground:
            return RAT
        return POLY if has_x else CONST
    return FRAC if has_x else CONST


def _field_op_hook(counters, args, result):
    if result is NotImplemented:
        return
    kind = field_kind(args[0])
    if len(args) > 1:
        kind = max(kind, field_kind(args[1]))
    counters["field.ops"] += 1
    counters["field.ops." + KIND_NAMES[kind]] += 1


def _cancel_hook(counters, args, result):
    f, g = args
    p, q = result
    if not (p == f and q == g):
        counters["field.cancel.useful"] += 1


def _affine_steps_hook(counters, args, result):
    counters["lambdapoly.affine_pow_on.steps"] += args[2]


def _bracket_terms_hook(counters, args, result):
    counters["pva.lambda_bracket.terms"] += len(result.terms)


def _gauss_cells_hook(counters, args, result):
    rows, ncols = args[0], args[2]
    counters["linsolve.gauss_solve.cells"] += len(rows) * ncols


V = "varpois."
FIELD_OPS = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
             "__rtruediv__", "__pow__", "__neg__")

# (target "module:qualname", layer, metric groups, hook)
TARGETS = (
    *((f"{V}field:FieldElem.{op}", "field", (), _field_op_hook)
      for op in FIELD_OPS),
    (f"{V}field:FieldElem.derive", "field", (), None),
    (f"{V}field:rational_antiderivative", "field", (), None),
    ("sympy.polys.rings:PolyElement.cancel", "field", ("field.cancel",),
     _cancel_hook),

    (f"{V}diffalg:DiffPoly.__add__", "diffalg", (), None),
    (f"{V}diffalg:DiffPoly.__sub__", "diffalg", (), None),
    (f"{V}diffalg:DiffPoly.__mul__", "diffalg", ("diffalg.mul",), None),
    (f"{V}diffalg:DiffPoly.scale", "diffalg", (), None),
    (f"{V}diffalg:DiffPoly.derive", "diffalg", ("diffalg.derive",), None),
    (f"{V}diffalg:DiffPoly.jet_partial", "diffalg", (), None),
    (f"{V}diffalg:variational_derivative", "diffalg",
     ("diffalg.variational_derivative",), None),
    (f"{V}diffalg:LocalFunctional.is_zero", "diffalg",
     ("diffalg.functional_zero",), None),
    (f"{V}diffalg:functional_eq", "diffalg", ("diffalg.functional_zero",),
     None),
    (f"{V}diffalg:antiderivative_in_v", "diffalg",
     ("diffalg.antiderivative_in_v",), None),
    (f"{V}diffalg:frechet", "diffalg", (), None),
    (f"{V}diffalg:is_exact_1form", "diffalg", (), None),
    (f"{V}diffalg:reconstruct_density", "diffalg", (), None),
    (f"{V}diffalg:DiffRat.__add__", "diffalg", (), None),
    (f"{V}diffalg:DiffRat.__sub__", "diffalg", (), None),
    (f"{V}diffalg:DiffRat.__mul__", "diffalg", (), None),
    (f"{V}diffalg:DiffRat.__truediv__", "diffalg", (), None),

    (f"{V}lambdapoly:affine_pow_on", "lambdapoly",
     ("lambdapoly.affine_pow_on",), _affine_steps_hook),
    (f"{V}lambdapoly:affine_apply_once", "lambdapoly", (), None),
    (f"{V}lambdapoly:symbol_act", "lambdapoly", (), None),
    (f"{V}lambdapoly:LambdaPoly.__add__", "lambdapoly", (), None),
    (f"{V}lambdapoly:LambdaPoly.__sub__", "lambdapoly", (), None),
    (f"{V}lambdapoly:LambdaPoly.scale", "lambdapoly", (), None),

    (f"{V}pva:lambda_bracket", "pva", ("pva.lambda_bracket",),
     _bracket_terms_hook),
    (f"{V}pva:check_jacobi", "pva", ("pva.check_jacobi",), None),
    (f"{V}pva:jacobi_residual", "pva", ("pva.jacobi_residual",), None),
    (f"{V}pva:poisson_bracket", "pva", ("pva.poisson_bracket",), None),
    (f"{V}pva:check_compatible", "pva", (), None),
    (f"{V}pva:compatibility_residual", "pva", (), None),
    (f"{V}pva:check_skewadjoint", "pva", (), None),

    (f"{V}lenard:lenard_step", "lenard", ("lenard.lenard_step",), None),
    (f"{V}lenard:verify_involution", "lenard", ("lenard.verify_involution",),
     None),
    (f"{V}lenard:run_hierarchy", "lenard", (), None),

    (f"{V}diffop:ScalarDiffOp.compose", "diffop", ("diffop.compose",), None),
    (f"{V}diffop:MatDiffOp.compose", "diffop", ("diffop.compose",), None),
    (f"{V}diffop:PseudoDiffOp.compose", "diffop", ("diffop.compose",), None),
    (f"{V}diffop:ScalarDiffOp.adjoint", "diffop", (), None),
    (f"{V}diffop:ScalarDiffOp.apply", "diffop", (), None),
    (f"{V}diffop:MatDiffOp.apply", "diffop", (), None),
    (f"{V}diffop:row_echelon", "diffop", ("diffop.row_echelon",), None),
    (f"{V}diffop:dieudonne_det", "diffop", ("diffop.dieudonne_det",), None),
    (f"{V}diffop:majorant", "diffop", (), None),
    (f"{V}diffop:majorant_preserving_reduce", "diffop",
     ("diffop.majorant_preserving_reduce",), None),
    (f"{V}diffop:kernel_dim_bound", "diffop", (), None),
    (f"{V}diffop:solve_rational", "diffop", ("diffop.solve_rational",), None),
    (f"{V}diffop:selfadjoint_product_space", "diffop",
     ("diffop.selfadjoint_product_space",), None),

    (f"{V}linsolve:gauss_solve", "linsolve", ("linsolve.gauss_solve",),
     _gauss_cells_hook),
    (f"{V}linsolve:matrix_inverse", "linsolve", ("linsolve.matrix_inverse",),
     None),
    (f"{V}linsolve:det", "linsolve", ("linsolve.det",), None),

    (f"{V}polydiff:sigma_space", "polydiff", ("polydiff.sigma_space",), None),
    (f"{V}polydiff:solve_skew_equation", "polydiff",
     ("polydiff.solve_skew_equation",), None),
    (f"{V}polydiff:module_action", "polydiff", (), None),
    (f"{V}polydiff:total_skewsymmetrize", "polydiff", (), None),
    (f"{V}polydiff:skew_product", "polydiff", (), None),

    (f"{V}complexes:cohomology_dim", "complexes", ("complexes.cohomology_dim",),
     None),
    (f"{V}complexes:delta_k", "complexes", ("complexes.delta_k",), None),
    (f"{V}complexes:reduce_closed", "complexes", ("complexes.reduce_closed",),
     None),
    (f"{V}complexes:homotopy", "complexes", (), None),

    (f"{V}parser:parse_session", "parser", ("parser.parse_session",), None),
    (f"{V}parser:Session.evaluate", "parser", ("parser.evaluate",), None),

    (f"{V}cli:run", "cli", (), None),
    (f"{V}cli:Report.to_json", "cli", (), None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target; raises TraceTargetMissing if one is gone."""
    for target, layer, groups, hook in TARGETS:
        name = target.split(":", 1)[1]
        packages = ("varpois",) if target.startswith(V) else ()
        tracer.install(target, f"{target.split(':')[0].split('.')[-1]}."
                       f"{name}", layer, groups, hook, packages=packages)


# Per-layer metrics, named by rule: `<layer>.self_s` is the layer's self
# time, `<group>.calls` the group's calls, `<group>_s` the time covered by
# the group's outermost calls, `field.cancel.useful_frac` the share of cancel
# calls that changed their input, and any other name a counter.
PER_LAYER = (
    "field.ops", "field.ops.rat", "field.ops.const", "field.ops.poly",
    "field.ops.frac", "field.self_s", "field.cancel.calls", "field.cancel_s",
    "field.cancel.useful_frac",
    "diffalg.mul.calls", "diffalg.derive.calls", "diffalg.self_s",
    "diffalg.variational_derivative.calls",
    "diffalg.variational_derivative_s", "diffalg.functional_zero.calls",
    "diffalg.functional_zero_s", "diffalg.antiderivative_in_v.calls",
    "diffalg.antiderivative_in_v_s",
    "lambdapoly.affine_pow_on.calls", "lambdapoly.affine_pow_on.steps",
    "lambdapoly.affine_pow_on_s",
    "pva.lambda_bracket.calls", "pva.lambda_bracket_s",
    "pva.lambda_bracket.terms", "pva.check_jacobi_s", "pva.jacobi_residual_s",
    "pva.poisson_bracket.calls", "pva.poisson_bracket_s",
    "lenard.lenard_step.calls", "lenard.lenard_step_s",
    "lenard.verify_involution_s", "lenard.self_s",
    "diffop.compose.calls", "diffop.row_echelon_s", "diffop.dieudonne_det_s",
    "diffop.majorant_preserving_reduce_s", "diffop.solve_rational.calls",
    "diffop.solve_rational_s", "diffop.selfadjoint_product_space_s",
    "diffop.self_s",
    "linsolve.gauss_solve.calls", "linsolve.gauss_solve.cells",
    "linsolve.gauss_solve_s", "linsolve.matrix_inverse.calls",
    "linsolve.det.calls",
    "polydiff.sigma_space.calls", "polydiff.sigma_space_s",
    "polydiff.solve_skew_equation_s", "complexes.cohomology_dim.calls",
    "complexes.cohomology_dim_s", "complexes.delta_k.calls",
    "complexes.reduce_closed_s",
    "parser.parse_session_s", "parser.evaluate.calls", "cli.self_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


COUNTERS = ("field.ops", *(f"field.ops.{k}" for k in KIND_NAMES),
            "lambdapoly.affine_pow_on.steps", "pva.lambda_bracket.terms",
            "linsolve.gauss_solve.cells")


def per_layer_values(tracer: Tracer, rounds: int) -> dict:
    """Every metric of PER_LAYER, per round (totals divided by `rounds`).
    A name that matches no layer, group or counter raises KeyError."""
    groups = tracer.group_stats()
    selfs = tracer.layer_self_s()
    out = {}
    for name in PER_LAYER:
        if name == "field.cancel.useful_frac":
            calls = groups["field.cancel"][0]
            value = tracer.counters["field.cancel.useful"] / calls \
                if calls else 0.0
        elif name.endswith(".self_s"):
            value = selfs[name[:-len(".self_s")]] / rounds
        elif name.endswith(".calls"):
            value = groups[name[:-len(".calls")]][0] / rounds
        elif name.endswith("_s"):
            value = groups[name[:-len("_s")]][1] / rounds
        elif name in COUNTERS:
            value = tracer.counters[name] / rounds
        else:
            raise KeyError(f"per-layer metric {name!r} has no source")
        out[name] = {"value": value, "unit": unit_of(name)}
    return out
