import json
import math

from support import (
    reference_rotation_angle_degrees,
    reference_rotation_document,
    run_cli,
)

from ortho3 import parse_scalar
from ortho3.cli import format_degrees_minutes
from ortho3.qfield.tower import QQ

IDENTITY_DOC = '{"mode":"float","matrix":[[1,0,0],[0,1,0],[0,0,1]]}'


def close_rows(rows, expected, tol=1e-9):
    return all(
        abs(a - b) <= tol for ra, rb in zip(rows, expected) for a, b in zip(ra, rb)
    )


# ---------------------------------------------------------------------------
# rotate
# ---------------------------------------------------------------------------

def test_rotate_quarter_turn():
    code, out, err = run_cli(["--json", "rotate", "0 0 1", "--angle-deg", "90"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["mode"] == "float"
    assert close_rows(doc["matrix"], [[0, -1, 0], [1, 0, 0], [0, 0, 1]])


def test_rotate_zero_angle_identity():
    code, out, _ = run_cli(["--json", "rotate", "0 0 1", "--angle-deg", "0"])
    assert code == 0
    assert close_rows(json.loads(out)["matrix"], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_rotate_exact_reference_example():
    code, out, err = run_cli(
        [
            "--mode", "exact", "--json", "rotate",
            "(sqrt(2)+sqrt(3)) (2-sqrt(2)-sqrt(3)+sqrt(2)*sqrt(3)) 1",
            "--cos=-1/2-sqrt(2)/4+sqrt(3)/6-sqrt(2)*sqrt(3)/6",
            "--sin=-sqrt(2)*sqrt(3)*sqrt(9-2*sqrt(2)-2*sqrt(2)*sqrt(3))/12",
        ]
    )
    assert code == 0, err
    got = json.loads(out)["matrix"]
    expected = [
        ["sqrt(2)/(sqrt(2)*sqrt(3))", "sqrt(3)/(sqrt(2)*sqrt(3))", "1/(sqrt(2)*sqrt(3))"],
        ["sqrt(2)/(sqrt(2)*sqrt(3))", "-sqrt(3)/(sqrt(2)*sqrt(3))", "1/(sqrt(2)*sqrt(3))"],
        ["sqrt(2)/(sqrt(2)*sqrt(3))", "0", "-2/(sqrt(2)*sqrt(3))"],
    ]
    field = QQ
    for grow, erow in zip(got, expected):
        for gtext, etext in zip(grow, erow):
            a = parse_scalar(gtext, field)
            field = a.field
            b = parse_scalar(etext, field)
            field = b.field
            assert a == b


def test_rotate_rejects_degrees_in_exact_mode():
    code, _, err = run_cli(
        ["--mode", "exact", "rotate", "0 0 1", "--angle-deg", "5"]
    )
    assert code == 3
    assert "--angle-deg" in err


def test_rotate_rejects_unnormalized_pair():
    code, _, err = run_cli(
        ["--mode", "exact", "rotate", "0 0 1", "--cos", "3/5", "--sin", "3/5"]
    )
    assert code == 3
    assert "--cos" in err or "--sin" in err


def test_rotate_requires_an_angle():
    code, _, err = run_cli(["rotate", "0 0 1"])
    assert code == 3


# ---------------------------------------------------------------------------
# reflect
# ---------------------------------------------------------------------------

def test_reflect_mirror_through_xy():
    code, out, _ = run_cli(["--json", "reflect", "0 0 1"])
    assert code == 0
    assert close_rows(json.loads(out)["matrix"], [[1, 0, 0], [0, 1, 0], [0, 0, -1]])


def test_reflect_diagonal_normal():
    code, out, _ = run_cli(["--json", "reflect", "1 1 0"])
    assert code == 0
    assert close_rows(json.loads(out)["matrix"], [[0, -1, 0], [-1, 0, 0], [0, 0, 1]])


def test_reflect_zero_normal():
    code, _, err = run_cli(["reflect", "0 0 0"])
    assert code == 2
    assert "zero normal vector" in err


# ---------------------------------------------------------------------------
# rotoreflect
# ---------------------------------------------------------------------------

def test_rotoreflect_zero_angle_collapses_to_reflection():
    code, out, _ = run_cli(["--json", "rotoreflect", "0 0 1", "--angle-deg", "0"])
    assert code == 0
    assert close_rows(json.loads(out)["matrix"], [[1, 0, 0], [0, 1, 0], [0, 0, -1]])


def test_rotoreflect_half_turn_is_minus_identity():
    code, out, _ = run_cli(["--json", "rotoreflect", "0 0 1", "--angle-deg", "180"])
    assert code == 0
    assert close_rows(json.loads(out)["matrix"], [[-1, 0, 0], [0, -1, 0], [0, 0, -1]])


def test_rotoreflect_quarter_turn():
    code, out, _ = run_cli(["--json", "rotoreflect", "0 0 1", "--angle-deg", "90"])
    assert code == 0
    assert close_rows(json.loads(out)["matrix"], [[0, -1, 0], [1, 0, 0], [0, 0, -1]])


# ---------------------------------------------------------------------------
# default (plain-text) matrix output
# ---------------------------------------------------------------------------

def test_build_plain_text_output():
    quarter_float = [
        "1.11022302463e-16               -1.0                0.0",
        "              1.0  1.11022302463e-16                0.0",
    ]
    cases = [
        (["rotate", "0 0 1", "--angle-deg", "90"],
         quarter_float + ["              0.0                0.0                1.0"]),
        (["rotoreflect", "0 0 1", "--angle-deg", "90"],
         quarter_float + ["              0.0                0.0               -1.0"]),
        (["reflect", "1 1 0"], [
            "2.22044604925e-16               -1.0                0.0",
            "             -1.0  2.22044604925e-16                0.0",
            "              0.0                0.0                1.0",
        ]),
        (["--mode", "exact", "rotate", "1 2 2", "--cos", "3/5", "--sin", "4/5"], [
            "29/45   -4/9  28/45",
            "28/45    7/9  -4/45",
            " -4/9    4/9    7/9",
        ]),
        (["--mode", "exact", "reflect", "1 1 0"], [" 0  -1   0", "-1   0   0", " 0   0   1"]),
        (["--mode", "exact", "rotoreflect", "0 0 1", "--cos", "0", "--sin", "1"],
         [" 0  -1   0", " 1   0   0", " 0   0  -1"]),
    ]
    for argv, rows in cases:
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        assert out == "\n".join(rows) + "\n", argv


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_inline_identity():
    exact_int_doc = '{"mode":"exact","matrix":[[1,0,0],[0,1,0],[0,0,1]]}'
    for doc in (IDENTITY_DOC, exact_int_doc):
        code, out, err = run_cli(["--json", "classify", doc])
        assert code == 0, err
        rep = json.loads(out)
        assert rep["kind"] == "identity"
        assert rep["axis"] is None and rep["angle_deg"] is None
        assert rep["det"] == 1


def test_classify_reference_document():
    code, out, err = run_cli(["--json", "classify", reference_rotation_document()])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["kind"] == "rotation"
    assert rep["det"] == 1
    assert rep["sin"]["numeric"] < 0
    # angle_deg carries the default 12 significant digits: window one unit
    # in the 12th digit of the closed-form angle
    expected = float(reference_rotation_angle_degrees())
    window = 10.0 ** (math.floor(math.log10(expected)) + 1 - 12)
    assert abs(rep["angle_deg"] - expected) <= window
    # exact strings must re-parse to the stated closed forms
    field = QQ
    n_text = "sqrt(21-10*sqrt(2)-8*sqrt(3)+8*sqrt(2)*sqrt(3))"
    for comp_text, expected_text in zip(
        rep["axis"]["exact"],
        [
            f"(sqrt(2)+sqrt(3))/{n_text}",
            f"(2-sqrt(2)-sqrt(3)+sqrt(2)*sqrt(3))/{n_text}",
            f"1/{n_text}",
        ],
    ):
        got = parse_scalar(comp_text, field)
        field = got.field
        want = parse_scalar(expected_text, field)
        field = want.field
        assert got == want
    sin_got = parse_scalar(rep["sin"]["exact"], field)
    field = sin_got.field
    sin_want = parse_scalar(
        "-sqrt(2)*sqrt(3)*sqrt(9-2*sqrt(2)-2*sqrt(2)*sqrt(3))/12", field
    )
    assert sin_got == sin_want
    assert len(rep["radicands"]) == 3


def test_classify_file_document(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(reference_rotation_document())
    code, out, _ = run_cli(["--json", "classify", str(path)])
    assert code == 0
    assert json.loads(out)["kind"] == "rotation"


def test_classify_non_orthogonal_exit_4():
    doc = json.dumps(
        {"mode": "float", "matrix": [[1.0, 0.001, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
    )
    code, out, err = run_cli(["classify", doc, "--tol", "1e-9"])
    assert code == 4
    assert out == ""
    assert "residual" in err


def test_classify_tol_flag_loosens_check():
    doc = json.dumps(
        {"mode": "float", "matrix": [[1.0, 0.001, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
    )
    code, out, _ = run_cli(["--json", "classify", doc, "--tol", "0.01"])
    assert code == 0
    assert json.loads(out)["kind"] == "identity"


def test_classify_human_and_json_share_numbers():
    code_j, out_j, _ = run_cli(["--json", "classify", reference_rotation_document()])
    code_h, out_h, _ = run_cli(["classify", reference_rotation_document()])
    assert code_j == code_h == 0
    rep = json.loads(out_j)
    assert str(rep["angle_deg"]) in out_h
    assert str(rep["sin"]["numeric"]) in out_h
    assert str(rep["det"]) in out_h
    assert json.loads(out_j) == json.loads(out_j)  # stable round trip


def test_classify_degree_minute_rendering():
    _, out, _ = run_cli(["classify", reference_rotation_document()])
    assert "193° 19′" in out
    # the minute carry folds 360 to 0
    assert format_degrees_minutes(359.9999) == "0° 0′"
    assert format_degrees_minutes(359.99) == "359° 59′"


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_invariants_reference_document():
    code, out, _ = run_cli(["--json", "invariants", reference_rotation_document()])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["trace"] - (1 + 2 * -0.973126)) <= 5e-6
    assert abs(rep["det"] - 1) <= 1e-9
    assert rep["residual"] == 0


def test_invariants_mirror():
    doc = '{"mode":"float","matrix":[[1,0,0],[0,1,0],[0,0,-1]]}'
    code, out, _ = run_cli(["--json", "invariants", doc])
    rep = json.loads(out)
    assert rep["trace"] == 1 and rep["det"] == -1
    code, out, _ = run_cli(["invariants", doc])
    assert code == 0
    assert out == "det:      -1.0\ntrace:    1.0\nresidual: 0.0\n"


def test_invariants_exact_plain_text_with_int_entries():
    doc = json.dumps(
        {"mode": "exact", "scale": "1/sqrt(2)",
         "matrix": [[1, -1, 0], [1, 1, 0], [0, 0, "sqrt(2)"]]}
    )
    code, out, err = run_cli(["invariants", doc])
    assert code == 0, err
    assert out == (
        "det:      1.0  = 1\n"
        "trace:    2.41421356237  = (1 + sqrt(2))\n"
        "residual: 0.0\n"
    )


def test_invariants_identity():
    code, out, _ = run_cli(["--json", "invariants", IDENTITY_DOC])
    rep = json.loads(out)
    assert rep["trace"] == 3 and rep["det"] == 1


def test_invariants_never_classifies():
    doc = '{"mode":"float","matrix":[[2,0,0],[0,2,0],[0,0,2]]}'
    code, out, _ = run_cli(["--json", "invariants", doc])
    assert code == 0
    rep = json.loads(out)
    assert rep["det"] == 8 and rep["residual"] == 3


# ---------------------------------------------------------------------------
# errors and plumbing
# ---------------------------------------------------------------------------

def test_malformed_expression_reports_offset():
    doc = json.dumps(
        {"mode": "exact", "matrix": [["sqrt(", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    )
    code, _, err = run_cli(["classify", doc])
    assert code == 2
    assert "offset 5" in err


def test_bad_json_document():
    code, _, err = run_cli(["classify", "{not json"])
    assert code == 2


def test_missing_document_file():
    code, _, err = run_cli(["classify", "/nonexistent/matrix.json"])
    assert code == 2


def test_wrong_shape_document():
    code, _, err = run_cli(["classify", '{"mode":"float","matrix":[[1,0],[0,1]]}'])
    assert code == 2


def test_digits_flag_controls_rounding():
    code, out, _ = run_cli(
        ["--json", "--digits", "4", "rotate", "0 0 1", "--angle-deg", "30"]
    )
    rows = json.loads(out)["matrix"]
    assert rows[0][0] == 0.866  # cos 30 to four significant digits


def test_out_of_range_digits_and_tol_are_usage_errors():
    # rejected at argument parsing, before or after the subcommand: a
    # --digits below 1 has no meaning for the formatter, and --tol inf would
    # pass diag(2, 1, 1) as the identity
    diag = '{"mode":"float","matrix":[[2,0,0],[0,1,0],[0,0,1]]}'
    for flag, value in (("--digits", "-1"), ("--digits", "0"), ("--tol", "inf"),
                        ("--tol", "nan"), ("--tol", "-1")):
        for argv in ([flag, value, "rotate", "1 0 0", "--angle-deg", "30"],
                     ["classify", diag, flag, value]):
            code, out, err = run_cli(argv)
            assert code == 2, argv
            assert out == "" and f"argument {flag}: must be" in err, argv
    code, out, _ = run_cli(["--tol", "0", "--digits", "1", "--json", "classify", IDENTITY_DOC])
    assert code == 0 and json.loads(out)["kind"] == "identity"


def test_pipe_closure_rotate_to_classify():
    code, out, _ = run_cli(["--json", "rotate", "0.1 0.2 0.3", "--angle-deg", "37"])
    assert code == 0
    code2, out2, _ = run_cli(["--json", "classify", "-"], stdin=out)
    assert code2 == 0
    rep = json.loads(out2)
    assert rep["kind"] == "rotation"
    assert abs(rep["angle_deg"] - 37.0) <= 1e-5
    n = math.sqrt(0.01 + 0.04 + 0.09)
    expected = [0.1 / n, 0.2 / n, 0.3 / n]
    assert all(abs(a - b) <= 1e-7 for a, b in zip(rep["axis"]["numeric"], expected))


def test_pipe_closure_exact_bit_exact():
    argv = [
        "--mode", "exact", "--json", "rotate", "1 2 2",
        "--cos", "3/5", "--sin", "4/5",
    ]
    code, out, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(out)
    code2, out2, _ = run_cli(
        ["--json", "classify", json.dumps({"mode": "exact", "matrix": doc["matrix"]})]
    )
    assert code2 == 0
    rep = json.loads(out2)
    assert rep["kind"] == "rotation"
    field = QQ
    for text, want in zip(rep["axis"]["exact"], ("1/3", "2/3", "2/3")):
        got = parse_scalar(text, field)
        field = got.field
        assert got == parse_scalar(want, field)
    assert parse_scalar(rep["cos"]["exact"], field) == parse_scalar("3/5", field)
    assert parse_scalar(rep["sin"]["exact"], field) == parse_scalar("4/5", field)


def test_stdout_stderr_separation():
    code, out, err = run_cli(["classify", "{bad"])
    assert code == 2
    assert out == ""
    assert err != ""


def test_float_mode_accepts_expression_axis():
    code, out, _ = run_cli(["--json", "rotate", "sqrt(2) 0 sqrt(2)", "--angle-deg", "0"])
    assert code == 0
    assert close_rows(json.loads(out)["matrix"], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, out, _ = run_cli(["--json", "reflect", "sqrt(2) 0 sqrt(2)"])
    assert code == 0
    assert close_rows(json.loads(out)["matrix"], [[0, 0, -1], [0, 1, 0], [-1, 0, 0]])


def test_both_angle_forms_rejected():
    code, _, err = run_cli(
        ["rotate", "0 0 1", "--angle-deg", "10", "--cos", "1", "--sin", "0"]
    )
    assert code == 3
    assert "not both" in err


def test_float_document_rejects_string_entries():
    doc = '{"mode":"float","matrix":[["1",0,0],[0,1,0],[0,0,1]]}'
    code, _, err = run_cli(["classify", doc])
    assert code == 2


def test_exact_document_rejects_boolean_entries():
    cases = [
        ('{"mode":"exact","matrix":[[true,0,0],[0,1,0],[0,0,1]]}',
         "exact-mode entries must be expression strings"),
        # a boolean float scale was read as 1.0
        ('{"mode":"float","scale":true,"matrix":[[1,0,0],[0,1,0],[0,0,1]]}',
         "float-mode scale must be a number or an expression string"),
    ]
    for doc, message in cases:
        code, out, err = run_cli(["classify", doc])
        assert code == 2 and out == ""
        assert message in err


def test_exact_document_rejects_numeric_scale():
    doc = '{"mode":"exact","scale":2,"matrix":[["1","0","0"],["0","1","0"],["0","0","1"]]}'
    code, _, err = run_cli(["classify", doc])
    assert code == 2


def test_float_document_numeric_scale():
    doc = '{"mode":"float","scale":0.5,"matrix":[[2,0,0],[0,2,0],[0,0,2]]}'
    code, out, _ = run_cli(["--json", "classify", doc])
    assert code == 0
    assert json.loads(out)["kind"] == "identity"


def test_exact_document_expression_scale_and_classify_point_inversion():
    doc = '{"mode":"exact","scale":"-1/2","matrix":[["2","0","0"],["0","2","0"],["0","0","2"]]}'
    code, out, _ = run_cli(["--json", "classify", doc])
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "point_inversion"
    assert rep["axis"] is None
    assert rep["cos"]["numeric"] == -1


def test_help_exits_zero():
    code, out, _ = run_cli(["--help"])
    assert code == 0


def test_non_finite_axis_or_normal_is_an_input_error():
    for argv in (
        ["rotate", "nan 0 0", "--angle-deg", "90"],
        ["rotate", "inf 0 0", "--angle-deg", "90"],
        ["rotoreflect", "0 -inf 1", "--angle-deg", "90"],
        ["reflect", "nan 0 0"],
        ["reflect", f"sqrt({10**700}) 0 1"],  # beyond the float range
    ):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and "finite" in err, argv


def test_huge_or_tiny_axis_or_normal_is_normalized():
    for command, unit, rest in (
        ("rotate", "1 0 0", ["--angle-deg", "30"]),
        ("reflect", "0 0 1", []),
    ):
        _, want, _ = run_cli([command, unit, *rest])
        for scale in ("1e200", "1e-160", "1e-200"):
            vec = unit.replace("1", scale)
            code, out, err = run_cli([command, vec, *rest])
            assert (code, out, err) == (0, want, ""), vec


def test_non_finite_angle_deg_names_the_flag():
    for value in ("nan", "inf", "-inf"):
        code, _, err = run_cli(["rotate", "0 0 1", f"--angle-deg={value}"])
        assert code == 3, value
        assert "--angle-deg" in err and "--cos" not in err, value


def test_non_finite_float_document_is_an_input_error():
    ident = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    docs = [
        {"mode": "float", "matrix": [[math.nan, 0.0, 0.0], ident[1], ident[2]]},
        {"mode": "float", "matrix": [ident[0], [0.0, math.inf, 0.0], ident[2]]},
        {"mode": "float", "scale": math.nan, "matrix": ident},
        {"mode": "float", "scale": -math.inf, "matrix": ident},
        {"mode": "float", "scale": [2], "matrix": ident},
        {"mode": "float", "scale": f"sqrt({10**700})", "matrix": ident},
        {"mode": "float", "matrix": [[10**400, 0, 0], ident[1], ident[2]]},
    ]
    for doc in docs:
        for command in ("classify", "invariants"):
            code, out, err = run_cli([command, json.dumps(doc)])
            assert code == 2, (command, doc)
            assert out == "" and err.startswith("error: "), (command, doc)


def test_non_unit_axis_after_normalization_is_an_input_error():
    # with a zero tolerance the rounded normalized axis fails the unit check
    for axis in ("1 1 1", "3 5 7", "0.1 0.7 0.3"):
        code, out, err = run_cli(["--tol", "0", "rotate", axis, "--angle-deg", "30"])
        assert code == 2, axis
        assert out == "" and err.startswith("error: ") and "norm^2" in err, axis
