import json

import pytest

from varpois import cli
from varpois.cli import main, run

SESSION = """\
vars 1
params c
H = u' + 2*u*d + c*d^3
K = d
a = u
"""


@pytest.fixture
def session_file(tmp_path):
    p = tmp_path / "session.vp"
    p.write_text(SESSION)
    return str(p)


def _run(args):
    report, code = run(args)
    return report.body(), code


def test_check_compat_ok(session_file):
    body, code = _run(["--session", session_file, "check-compat",
                       "--A", "H", "--B", "K"])
    assert code == 0
    assert [r["status"] for r in body["results"]] == ["ok", "ok", "ok"]


def test_check_jacobi_failure_witness(session_file):
    body, code = _run(["--session", session_file, "check-jacobi",
                       "--H", "u'*d + u''/2"])
    assert code == 1
    jac = body["results"][-1]
    assert jac["status"] == "fail" and "witness" in jac
    assert jac["witness"]["triple"] == [1, 1, 1]


def test_det_degenerate_leading_example(session_file):
    body, code = _run(["--session", session_file, "det",
                       "--M", "[[1, a],[d, a*d]]"])
    assert code == 0
    val = body["results"][0]["value"]
    assert val == {"c": "-u'", "degree": 0}


def test_echelon(session_file):
    body, code = _run(["--session", session_file, "echelon",
                       "--M", "[[1, a],[d, a*d]]"])
    assert code == 0
    assert body["results"][0]["value"]["matrix"] == "[[1, u],[0, -u']]"


def test_cohomology(session_file):
    body, code = _run(["--session", session_file, "cohomology",
                       "--K", "d", "--k", "1"])
    assert code == 0
    val = body["results"][0]["value"]
    assert val["dim"] == 0 and not val["flagged_lower_bound"]
    assert val["closed"] is True


def test_cohomology_flagged(session_file):
    body, code = _run(["--session", session_file, "cohomology",
                       "--K", "d + 1", "--k", "0"])
    assert code == 0
    val = body["results"][0]["value"]
    assert val["dim"] == 0 and val["flagged_lower_bound"]
    assert body["results"][0]["status"] == "flagged"


@pytest.mark.parametrize("vars_, K, k", [(1, "x*d^2", 0),
                                         (2, "[[d^2, 0],[0, d^2]]", 1)])
def test_cohomology_dim_counts_its_representatives(tmp_path, vars_, K, k):
    """The cohomology report takes its dim, flag and representatives from
    one solve: dim is the number of representatives, flagged or not, and
    each representative passed the d_K closure check."""
    session = tmp_path / "s.vp"
    session.write_text(f"vars {vars_}\n")
    body, code = _run(["--session", str(session), "cohomology",
                       "--K", K, "--k", str(k)])
    assert code == 0
    val = body["results"][0]["value"]
    assert val["dim"] == len(val["basis_representatives"]) > 0
    assert val["closed"] is True
    assert body["results"][0]["status"] == (
        "flagged" if val["flagged_lower_bound"] else "ok")


def test_cohomology_representative_that_is_not_closed_is_an_error(
        session_file, monkeypatch):
    """A representative whose d_K is not zero is an invariant violation
    (exit 2), not a count: here d_K is replaced by the identity on the
    nonzero representative 1 of H^0(d)."""
    monkeypatch.setattr(cli, "d_k", lambda P, K: P)
    body, code = _run(["--session", session_file, "cohomology",
                       "--K", "d", "--k", "0"])
    assert code == 2
    assert body["results"][0]["value"] == (
        "InvariantViolation: a cohomology representative is not d_K-closed")


def test_sigma(session_file):
    body, code = _run(["--session", session_file, "sigma",
                       "--K", "d^2", "--k", "1"])
    assert code == 0
    val = body["results"][0]["value"]
    assert val["dim"] == 1 == val["expected"]


@pytest.mark.parametrize("args, message", [
    (["cohomology", "--K", "d", "--k", "-1"], "k must be nonnegative, got -1"),
    (["sigma", "--K", "d", "--k", "-1"], "k must be nonnegative, got -1"),
    (["lenard", "--H", "H", "--K", "K", "--seed", "u^2/2", "--steps", "-3"],
     "steps must be nonnegative, got -3")])
def test_negative_arity_or_step_count_is_an_error(session_file, args,
                                                  message):
    body, code = _run(["--session", session_file] + args)
    assert code == 2
    assert body["results"] == [{"name": args[0], "status": "error",
                                "value": f"ValueError: {message}"}]


@pytest.mark.parametrize("command", ["sigma", "cohomology"])
def test_singular_leading_coefficient_error(tmp_path, command):
    """sigma and cohomology name the same error for a singular K_N."""
    session = tmp_path / "two.vp"
    session.write_text("vars 2\n")
    body, code = _run(["--session", str(session), command,
                       "--K", "[[d, d],[d, d]]", "--k", "0"])
    assert code == 2
    assert body["results"][0]["value"] == \
        "LeadingCoeffSingular: leading coefficient is singular"


def test_solve_skew(session_file, tmp_path):
    doc = {"arity": 1, "entries": {"1,1": [[[1], "2"]]}}
    sfile = tmp_path / "S.json"
    sfile.write_text(json.dumps(doc))
    body, code = _run(["--session", session_file, "solve-skew",
                       "--K", "d", "--S", str(sfile)])
    assert code == 0
    assert body["results"][0]["status"] == "ok"


def test_reduce(session_file):
    body, code = _run(["--session", session_file, "reduce",
                       "--K", "1", "--form", "[u]"])
    assert code == 0
    val = body["results"][0]["value"]
    assert val["exact"] is True


def test_lenard(session_file):
    body, code = _run(["--session", session_file, "lenard", "--H", "H",
                       "--K", "K", "--seed", "1/2*u^2", "--steps", "1"])
    assert code == 0
    names = [r["name"] for r in body["results"]]
    assert names == ["densities", "certificates", "involution"]
    assert all(r["status"] == "ok" for r in body["results"])


@pytest.mark.parametrize("session, seed, message, obstruction", [
    ("vars 2\nH = [[0, d^3],[d^3, 0]]\nK = [[d, 0],[0, d]]\n", "1/2*u1^2",
     "F is not a variational gradient: delta h != F",
     "[[0, -d^2],[d^2, 0]]"),
    ("vars 1\nH = d\nK = d^3\n", "u^2",
     "component 1 is not in the image of K (obstruction at derivative 2 of "
     "3): not a total derivative: top jet has order 0 (u1 appears "
     "underived)", "2*u")])
def test_lenard_reports_an_obstruction(tmp_path, session, seed, message,
                                       obstruction):
    """Both pairs pass run_hierarchy's checks.  From u1^2/2 the preimage
    (0, u1'') under diag(d, d) is not a variational gradient (NotExact,
    witness D_G - D_G*); from u^2, H g = 2 u' has no preimage under d^3
    (NoPreimage, witness the integrand).  Each is a failed hierarchy with
    its witness, exit 1."""
    path = tmp_path / "pair.vp"
    path.write_text(session)
    body, code = _run(["--session", str(path), "lenard", "--H", "H",
                       "--K", "K", "--seed", seed])
    assert code == 1
    assert body["results"] == [{"name": "hierarchy", "status": "fail",
                                "value": message,
                                "witness": {"obstruction": obstruction}}]


def test_lenard_requires_a_seed(session_file, capsys):
    """--seed is the one source of the seed: without it the parser stops
    with its usage and exit status 2, before the library sees None."""
    with pytest.raises(SystemExit) as err:
        run(["--session", session_file, "lenard", "--H", "H", "--K", "K"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_parse_error_exit_2(session_file):
    body, code = _run(["--session", session_file, "det", "--M", "[[1, a],"])
    assert code == 2
    assert body["results"][0]["status"] == "error"


@pytest.mark.parametrize("M, column", [
    ("[[v, 1]]", 3), ("[[A, 1]]", 3), ("d + v", 3), ("[[1, d + v]]", 8)])
def test_operator_entry_type_error_is_a_parse_error(tmp_path, M, column):
    """A vector or a matrix where an operator entry belongs is reported as
    a parse error with its position, as every other DSL error is."""
    p = tmp_path / "session.vp"
    p.write_text("vars 1\nv = [u]\nA = [[d, 1],[1, d]]\n")
    body, code = _run(["--session", str(p), "echelon", "--M", M])
    assert code == 2
    (result,) = body["results"]
    assert result["name"] == "parse" and result["status"] == "error"
    kind = "list" if "v" in M else "MatDiffOp"
    assert result["value"] == (f"cannot use {kind} as an operator entry "
                               f"(line 1, column {column})")


def test_report_determinism(session_file):
    b1, _ = _run(["--session", session_file, "det",
                  "--M", "[[1, a],[d, a*d]]"])
    b2, _ = _run(["--session", session_file, "det",
                  "--M", "[[1, a],[d, a*d]]"])
    assert json.dumps(b1, sort_keys=False) == json.dumps(b2, sort_keys=False)


# Exact report text (without the timing line) of det and echelon: the
# determinant is a Dieudonne invariant, and the echelon pivot rule (least
# order, first row among ties) with fraction-free steps (the target row times
# the pivot's leading coefficient, then divided by its content) fixes the
# matrix, whose rows are free of denominators, and the operation count.
PINNED_REPORTS = [
    ("det", "[[1, a],[d, a*d]]", "[[1, u],[d, u*d]]",
     'det: ok  {"c": "-u\'", "degree": 0}'),
    ("echelon", "[[1, a],[d, a*d]]", "[[1, u],[d, u*d]]",
     'echelon: ok  {"matrix": "[[1, u],[0, -u\']]", "operations": 1}'),
    ("det", "[[d, 1],[1, d]]", "[[d, 1],[1, d]]",
     'det: ok  {"c": "1", "degree": 2}'),
    ("echelon", "[[d, 1],[1, d]]", "[[d, 1],[1, d]]",
     'echelon: ok  {"matrix": "[[1, d],[0, -d^2 + 1]]", "operations": 2}'),
    ("det", "[[x*d^2 + 1, u],[d, d^2 + c]]", "[[x*d^2 + 1, u],[d, d^2 + c]]",
     'det: ok  {"c": "x", "degree": 4}'),
    ("echelon", "[[x*d^2 + 1, u],[d, d^2 + c]]",
     "[[x*d^2 + 1, u],[d, d^2 + c]]",
     'echelon: ok  {"matrix": "[[1, -x*d^3 + -x*c*d + u],[0, x*d^4 + d^3 + '
     '((x*c + 1))*d^2 + (-u + c)*d + (-u\' + c)]]", "operations": 4}'),
    ("det", "[[d^2, x*d, 1],[1, d, c],[x, 1, d^3]]",
     "[[d^2, x*d, 1],[1, d, c],[x, 1, d^3]]",
     'det: ok  {"c": "1", "degree": 6}'),
    ("echelon", "[[d^2, x*d, 1],[1, d, c],[x, 1, d^3]]",
     "[[d^2, x*d, 1],[1, d, c],[x, 1, d^3]]",
     'echelon: ok  {"matrix": "[[1, d, c],[0, -x^2, x*d^5 + -d^4 + '
     '-x^2*d^3 + -x*c*d + (x^3*c - x^2 + c)],[0, 0, -x^2*d^6 + 3*x*d^5 + '
     '(x^3 - 3)*d^4 + x^2*c*d^2 + (-x^4*c + x^3 - 3*x*c)*d + (-x^3*c - x^2 '
     '+ 3*c)]]", "operations": 10}'),
]


@pytest.mark.parametrize("command, M, shown, line", PINNED_REPORTS)
def test_det_and_echelon_reports_pinned(session_file, command, M, shown,
                                        line):
    report, code = run(["--session", session_file, command, "--M", M])
    assert code == 0
    assert report.to_text().splitlines()[:-1] == \
        [f"command: {command}", f"input M: {shown}", line]


@pytest.mark.parametrize("fmt", [["--format", "json"], ["--format=json"],
                                 []])
def test_main_output_format(session_file, capsys, fmt):
    """main prints JSON for either spelling of --format json, text by
    default."""
    code = main(["--session", session_file, *fmt, "det",
                 "--M", "[[1, a],[d, a*d]]"])
    out = capsys.readouterr().out
    assert code == 0
    if fmt:
        doc = json.loads(out)
        assert doc["command"] == "det" and "timing_ms" in doc
    else:
        assert out.startswith("command: det\ninput M: [[1, u],[d, u*d]]\n")


@pytest.mark.parametrize("A, B, results", [
    ("d^2", "d", [("A-skewadjoint", "fail")]),
    ("d", "d^2", [("A-poisson", "ok"), ("B-skewadjoint", "fail")]),
])
def test_check_compat_names_the_operator_that_is_not_skewadjoint(
        session_file, A, B, results):
    """A bracket operator that is not skewadjoint is a failed check of that
    operator (exit 1), as in check-jacobi, not an error."""
    body, code = _run(["--session", session_file, "check-compat",
                       "--A", A, "--B", B])
    assert code == 1
    assert [(r["name"], r["status"]) for r in body["results"]] == results


@pytest.mark.parametrize("H, K, name", [("d^2", "K", "H"), ("H", "d^2", "K")])
def test_lenard_names_the_operator_that_is_not_skewadjoint(session_file, H,
                                                           K, name):
    body, code = _run(["--session", session_file, "lenard", "--H", H,
                       "--K", K, "--seed", "u^2/2"])
    assert code == 2
    assert body["results"][-1]["value"] == \
        f"NotSkewadjoint: bracket operator {name} is not skewadjoint"


def test_lenard_takes_each_bracket_adjoint_once(session_file, monkeypatch):
    """run_hierarchy certifies H* = -H and K* = -K, and verify_involution
    reads the verdicts kept on the structures instead of taking the two
    adjoints again.  With no recursion step (each step's exactness test
    takes adjoints of its own) the job takes exactly two."""
    from varpois.diffop import MatDiffOp
    calls = []
    adjoint = MatDiffOp.adjoint

    def counted(self):
        calls.append(self)
        return adjoint(self)
    monkeypatch.setattr(MatDiffOp, "adjoint", counted)
    body, code = _run(["--session", session_file, "lenard", "--H", "H",
                       "--K", "K", "--seed", "u^2/2", "--steps", "0"])
    assert code == 0
    assert body["results"][-1]["name"] == "involution"
    assert len(calls) == 2
