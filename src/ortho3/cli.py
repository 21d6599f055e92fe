"""Command-line front end.

Commands: rotate, reflect, rotoreflect (direct problem), classify and
invariants (inverse problem).  Inputs are scalar expressions (exact mode) or
numbers (float mode); matrices travel as JSON documents.  Exit codes:
0 ok, 2 parse error or invalid input (including NaN or infinite numbers and
an axis that fails the unit check), 3 invalid angle, 4 not orthogonal,
5 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import (
    DivisionByZero,
    Inconclusive,
    IncompatibleTowers,
    InvalidAngle,
    InvalidTower,
    NegativeRadicand,
    NonUnitAxis,
    NotOrthogonal,
    ParseError,
    ZeroAxis,
)
from .isometry import (
    AngleRep,
    Decomposition,
    UnitAxis,
    classify,
    invariant_report,
    reflection_matrix,
    rotation_matrix,
    rotoreflection_matrix,
)
from .linalg3 import ExactBackend, FloatBackend, Mat3, Vec3
from .qfield import QQ, parse_scalar
from .qfield.tower import TowerElem, TowerField

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ANGLE = 3
EXIT_NOT_ORTHOGONAL = 4
EXIT_INCONCLUSIVE = 5


class _InputError(ValueError):
    """Bad user input that is not a scalar-expression parse error."""


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps subcommand parsing from clobbering globals given before
    # the subcommand; main() fills the real defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=("float", "exact"), default=argparse.SUPPRESS,
                        help="scalar backend (default float)")
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="float-mode comparison tolerance (default 1e-9)")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--digits", type=int, default=argparse.SUPPRESS,
                        help="significant digits for numeric output (default 12)")

    ap = argparse.ArgumentParser(
        prog="ortho3",
        description="Build and decompose 3x3 orthogonal matrices.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    rot = sub.add_parser("rotate", parents=[common],
                         help="rotation matrix about an axis")
    rot.add_argument("axis", help="three scalar expressions, space-separated")
    _add_angle_args(rot)

    refl = sub.add_parser("reflect", parents=[common],
                          help="reflection through the plane normal to a vector")
    refl.add_argument("normal", help="three scalar expressions, space-separated")

    roto = sub.add_parser("rotoreflect", parents=[common],
                          help="rotation composed with the reflection across its normal plane")
    roto.add_argument("axis", help="three scalar expressions, space-separated")
    _add_angle_args(roto)

    cls = sub.add_parser("classify", parents=[common],
                         help="decompose an orthogonal matrix document")
    cls.add_argument("matrix", help="document path, inline JSON, or '-' for stdin")

    inv = sub.add_parser("invariants", parents=[common],
                         help="print det / trace / orthogonality residual")
    inv.add_argument("matrix", help="document path, inline JSON, or '-' for stdin")
    return ap


def _add_angle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--angle-deg", type=float, default=None,
                   help="angle in degrees (float mode only)")
    p.add_argument("--cos", dest="cos_expr", default=None,
                   help="exact cosine expression")
    p.add_argument("--sin", dest="sin_expr", default=None,
                   help="exact sine expression")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        tol = getattr(ns, "tol", 1e-9)
        digits = getattr(ns, "digits", 12)
        if not 0 <= tol < math.inf:
            parser.error(f"argument --tol: must be a finite number >= 0, got {tol}")
        if digits < 1:
            parser.error(f"argument --digits: must be at least 1, got {digits}")
    except SystemExit as e:
        return int(e.code or 0)
    mode = getattr(ns, "mode", None) or "float"
    json_out = bool(getattr(ns, "json", False))
    try:
        if ns.command == "rotate":
            return _cmd_build(ns, mode, tol, digits, json_out, reflect=False, roto=False)
        if ns.command == "rotoreflect":
            return _cmd_build(ns, mode, tol, digits, json_out, reflect=False, roto=True)
        if ns.command == "reflect":
            return _cmd_build(ns, mode, tol, digits, json_out, reflect=True, roto=False)
        if ns.command == "classify":
            return _cmd_classify(ns, tol, digits, json_out)
        return _cmd_invariants(ns, tol, digits, json_out)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (NegativeRadicand, DivisionByZero, ZeroAxis, NonUnitAxis, _InputError,
            IncompatibleTowers) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidAngle as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ANGLE
    except NotOrthogonal as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_ORTHOGONAL
    except (Inconclusive, InvalidTower) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


def entry() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _finite(x, what: str) -> float:
    """``x`` as a finite float, or an input error naming ``what``."""
    try:
        f = float(x)
    except (OverflowError, TypeError, ValueError):
        f = math.nan
    if not math.isfinite(f):
        raise _InputError(f"{what}: {x!r} is not a finite number")
    return f


def _split_fields(text: str) -> list[str]:
    """Split on whitespace at parenthesis depth zero."""
    fields, buf, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch.isspace() and depth == 0:
            if buf:
                fields.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if buf:
        fields.append("".join(buf))
    return fields


def _scalar_of(text: str, mode: str, field: TowerField):
    """One scalar from an expression: float value, or tower element + field."""
    if mode == "float":
        try:
            return float(text), field
        except ValueError:
            return _finite(parse_scalar(text, QQ), "expression"), field
    elem = parse_scalar(text, field)
    return elem, elem.field


def _parse_triple(text: str, mode: str, flag: str) -> tuple[Vec3, TowerField]:
    fields = _split_fields(text)
    if len(fields) != 3:
        raise _InputError(f"{flag}: expected 3 scalar expressions, got {len(fields)}")
    field = QQ
    comps = []
    for tok in fields:
        try:
            val, field = _scalar_of(tok, mode, field)
        except ParseError as e:
            raise ParseError(f"{flag}: {tok!r}: {e.message}", e.offset)
        comps.append(_finite(val, flag) if mode == "float" else val)
    if mode == "exact":
        comps = [c.lift(field) for c in comps]
    return Vec3(*comps), field


def _parse_angle(ns, mode: str, field: TowerField) -> tuple[AngleRep, TowerField]:
    has_deg = ns.angle_deg is not None
    has_cos = ns.cos_expr is not None
    has_sin = ns.sin_expr is not None
    if has_deg and (has_cos or has_sin):
        raise InvalidAngle("give either --angle-deg or --cos/--sin, not both")
    if has_deg:
        if mode == "exact":
            raise InvalidAngle(
                "--angle-deg is not representable in exact mode; give --cos and --sin"
            )
        if not math.isfinite(ns.angle_deg):
            raise InvalidAngle(f"--angle-deg: {ns.angle_deg} is not a finite angle")
        return AngleRep.from_degrees(ns.angle_deg), field
    if not (has_cos and has_sin):
        raise InvalidAngle("missing angle: give --angle-deg or both --cos and --sin")
    cos, field = _scalar_of(ns.cos_expr, mode, field)
    sin, field = _scalar_of(ns.sin_expr, mode, field)
    if mode == "exact":
        cos = cos.lift(field)
    return AngleRep(cos, sin), field


# ---------------------------------------------------------------------------
# construction commands
# ---------------------------------------------------------------------------

def _cmd_build(ns, mode, tol, digits, json_out, *, reflect: bool, roto: bool) -> int:
    backend = FloatBackend(tol) if mode == "float" else ExactBackend()
    vec_text = ns.normal if reflect else ns.axis
    flag = "normal" if reflect else "axis"
    v, field = _parse_triple(vec_text, mode, flag)
    try:
        axis = UnitAxis.normalize(v, backend)
    except ZeroAxis:
        raise ZeroAxis(f"{flag}: zero {flag} vector")
    if mode == "exact":
        # normalization may have extended the tower; keep parsing in it
        for comp in axis.vec:
            if isinstance(comp, TowerElem) and comp.field.depth > field.depth:
                field = comp.field
    if reflect:
        M = reflection_matrix(axis, backend)
    else:
        angle, field = _parse_angle(ns, mode, field)
        try:
            builder = rotoreflection_matrix if roto else rotation_matrix
            M = builder(axis, angle, backend)
        except InvalidAngle:
            raise InvalidAngle("--cos/--sin: cos^2 + sin^2 != 1")
    _emit_matrix(M, mode, digits, json_out)
    return EXIT_OK


def _round_sig(x: float, digits: int) -> float:
    return float(f"{x:.{digits}g}")


def _emit_matrix(M: Mat3, mode: str, digits: int, json_out: bool) -> None:
    if mode == "float":
        rows = [[_round_sig(float(e), digits) for e in row] for row in M.rows()]
    else:
        rows = [[e.render() if isinstance(e, TowerElem) else str(e) for e in row]
                for row in M.rows()]
    if json_out:
        print(json.dumps({"mode": mode, "scale": None, "matrix": rows}))
        return
    width = max(len(str(e)) for row in rows for e in row)
    for row in rows:
        print("  ".join(f"{str(e):>{width}}" for e in row))


# ---------------------------------------------------------------------------
# matrix documents
# ---------------------------------------------------------------------------

def _load_document(arg: str) -> dict:
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as e:
            raise _InputError(f"cannot read matrix document: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _InputError(f"matrix document is not valid JSON: {e}")
    if not isinstance(doc, dict) or doc.get("mode") not in ("float", "exact"):
        raise _InputError('matrix document needs "mode": "float" | "exact"')
    matrix = doc.get("matrix")
    if (
        not isinstance(matrix, list)
        or len(matrix) != 3
        or any(not isinstance(row, list) or len(row) != 3 for row in matrix)
    ):
        raise _InputError('matrix document needs a 3x3 "matrix" array')
    return doc


def _document_matrix(doc: dict, tol: float):
    """Matrix and backend described by a document."""
    mode = doc["mode"]
    scale = doc.get("scale")
    if mode == "float":
        flat = [e for row in doc["matrix"] for e in row]
        if any(isinstance(e, bool) or not isinstance(e, (int, float)) for e in flat):
            raise _InputError("float-mode entries must be numbers")
        entries = [_finite(e, "matrix entry") for e in flat]
        if isinstance(scale, bool):
            raise _InputError("float-mode scale must be a number or an expression string")
        if scale is not None:
            s = _finite(parse_scalar(scale) if isinstance(scale, str) else scale, "scale")
            entries = [e * s for e in entries]
        return Mat3(tuple(entries)), FloatBackend(tol)
    field = QQ
    elems = []
    for row in doc["matrix"]:
        for e in row:
            if isinstance(e, str):
                elem = parse_scalar(e, field)
            elif isinstance(e, int) and not isinstance(e, bool):
                elem = field.rational(e)
            else:
                raise _InputError("exact-mode entries must be expression strings")
            field = elem.field
            elems.append(elem)
    if scale is not None:
        if not isinstance(scale, str):
            raise _InputError("exact-mode scale must be an expression string")
        s = parse_scalar(scale, field)
        field = s.field
        elems = [e.lift(field) * s for e in elems]
    else:
        elems = [e.lift(field) for e in elems]
    return Mat3(tuple(elems)), ExactBackend()


# ---------------------------------------------------------------------------
# classify / invariants
# ---------------------------------------------------------------------------

def _cmd_classify(ns, tol, digits, json_out) -> int:
    doc = _load_document(ns.matrix)
    M, backend = _document_matrix(doc, tol)
    dec = classify(M, backend)
    report = _decomposition_report(dec, backend, digits, doc["mode"] == "exact")
    if json_out:
        print(json.dumps(report))
    else:
        _print_report(report)
    return EXIT_OK


def _cmd_invariants(ns, tol, digits, json_out) -> int:
    doc = _load_document(ns.matrix)
    M, backend = _document_matrix(doc, tol)
    inv = invariant_report(M, backend)
    exact = doc["mode"] == "exact"
    report = {
        "det": _round_sig(backend.to_float(inv.det), digits),
        "trace": _round_sig(backend.to_float(inv.trace), digits),
        "residual": _round_sig(inv.orthogonality_residual, digits),
    }
    if exact:
        report["det_exact"] = _render_scalar(inv.det)
        report["trace_exact"] = _render_scalar(inv.trace)
    if json_out:
        print(json.dumps(report))
    else:
        print(f"det:      {report['det']}" + (f"  = {report['det_exact']}" if exact else ""))
        print(f"trace:    {report['trace']}" + (f"  = {report['trace_exact']}" if exact else ""))
        print(f"residual: {report['residual']}")
    return EXIT_OK


def _render_scalar(x) -> str:
    return x.render() if isinstance(x, TowerElem) else str(x)


def _decomposition_field(dec: Decomposition) -> TowerField | None:
    """Deepest tower appearing in the decomposition's scalars."""
    best: TowerField | None = None
    scalars = []
    if dec.axis is not None:
        scalars += list(dec.axis.vec)
    if dec.angle is not None:
        scalars += [dec.angle.cos_alpha, dec.angle.sin_alpha]
    for s in scalars:
        if isinstance(s, TowerElem) and (best is None or best.depth < s.field.depth):
            best = s.field
    return best


def _decomposition_report(dec: Decomposition, backend, digits: int, exact: bool) -> dict:
    report: dict = {"kind": dec.kind.value}
    if dec.axis is not None:
        numeric = [_round_sig(backend.to_float(c), digits) for c in dec.axis.vec]
        report["axis"] = {
            "exact": [_render_scalar(c) for c in dec.axis.vec] if exact else None,
            "numeric": numeric,
        }
    else:
        report["axis"] = None
    if dec.angle is not None:
        for name, value in (("cos", dec.angle.cos_alpha), ("sin", dec.angle.sin_alpha)):
            report[name] = {
                "exact": _render_scalar(value) if exact else None,
                "numeric": _round_sig(backend.to_float(value), digits),
            }
        report["angle_deg"] = _round_sig(dec.angle.degrees, digits)
    else:
        report["cos"] = None
        report["sin"] = None
        report["angle_deg"] = None
    report["det"] = dec.determinant
    report["residual"] = _round_sig(dec.orthogonality_residual, digits)
    field = _decomposition_field(dec) if exact else None
    report["radicands"] = (
        [f.render() for f in (field.radicand(i) for i in range(field.depth))]
        if field is not None
        else []
    )
    return report


def format_degrees_minutes(deg: float) -> str:
    whole = int(deg)
    minutes = round((deg - whole) * 60)
    if minutes == 60:
        whole, minutes = (whole + 1) % 360, 0
    return f"{whole}° {minutes}′"


def _print_report(report: dict) -> None:
    print(f"kind: {report['kind']}")
    if report["axis"] is not None:
        print(f"axis: {report['axis']['numeric']}")
        if report["axis"]["exact"]:
            for label, s in zip("xyz", report["axis"]["exact"]):
                print(f"  {label} = {s}")
    if report["angle_deg"] is not None:
        print(
            f"angle: {report['angle_deg']} deg = {format_degrees_minutes(report['angle_deg'])}"
            f"  (cos {report['cos']['numeric']}, sin {report['sin']['numeric']})"
        )
        if report["cos"]["exact"]:
            print(f"  cos = {report['cos']['exact']}")
            print(f"  sin = {report['sin']['exact']}")
    print(f"det: {report['det']}")
    print(f"residual: {report['residual']}")
    if report["radicands"]:
        print("radicands adjoined: " + "; ".join(report["radicands"]))


if __name__ == "__main__":
    entry()
