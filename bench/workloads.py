"""Seeded input pools for the four benchmark workloads.

Every workload is a list of items.  An item's ``run`` is the timed user-level
task (normalize, build, classify and rebuild; or one ``ortho3.cli.main`` call);
its ``check`` compares what ``run`` returned with the answer the generator
derived on its own (see ``oracle``) and raises ``oracle.Mismatch`` on any
difference.  Pools are stratified: the count of every category is fixed, so
the descriptor a pool reports (kind mix, depth histogram, property shares)
does not depend on the seed, and only the numbers inside the items do.

ortho3 is reached through module attributes at call time
(``iso.classify``, ``cli.main``), never through names bound here, so that the
trace wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction as F
from typing import Callable

import ortho3.cli as cli
import ortho3.isometry as iso
import ortho3.linalg3 as la
import ortho3.qfield.expr as expr
import ortho3.qfield.tower as tw

import oracle as O

WORKLOADS = ("float_mix", "exact_rational", "exact_deep", "cli_docs")

EPS = 2.0 ** -52
FLOAT_MATRIX_TOL = 1e-12
FLOAT_ANGLE_TOL_DEG = 1e-9
CLI_NUMERIC_RTOL = 1e-10  # the CLI rounds to 12 significant digits
CLI_DECIMAL_TOL = 1e-45  # nested radicals rendered by the CLI, compared at 60 digits


def axis_tol(sin: float) -> float:
    """Float axis tolerance, scaled by the item's conditioning: the
    antisymmetric route divides input rounding by |sin|."""
    return 1e-12 + 8.0 * EPS / abs(sin)


@dataclass
class Item:
    category: str
    kind: str  # expected classify kind, or the CLI command
    run: Callable[[], object]
    check: Callable[[object], None]
    depth: int | None = None  # predicted working tower depth (exact items)
    key: tuple | None = None  # predicted radicand list of the working tower
    near: bool = False  # sin = 0 branch, or within 1e-6 degrees of 0 / 180
    sibling: bool = False  # angle built in a tower unrelated to the axis tower
    expect_code: int | None = None  # CLI items: the exit code to expect
    rational_radicand: bool = False  # every radicand adjoined is rational
    spec: str = ""  # the generated input, spelled out


def build(name: str, seed: int, cycle: int = 0) -> list[Item]:
    """The pool for one pass of ``name``; ``cycle`` numbers fresh pools
    within a run, so a later pass never repeats an earlier pass's numbers."""
    rng = random.Random(f"{name}:{seed}:{cycle}")
    items = _BUILDERS[name](rng)
    rng.shuffle(items)
    return items


def describe(items: list[Item]) -> dict:
    """Kind mix, depth histogram and property shares of one pool."""
    n = len(items)
    kinds: dict = {}
    depths: dict = {}
    seen: set = set()
    repeats = 0
    for it in items:
        kinds[it.kind] = kinds.get(it.kind, 0) + 1
        if it.depth is not None:
            depths[str(it.depth)] = depths.get(str(it.depth), 0) + 1
        if it.key is not None:
            repeats += it.key in seen
            seen.add(it.key)

    def share(count: int) -> float:
        return round(count / n, 6)

    return {
        "items_per_pass": n,
        "kind_mix": dict(sorted(kinds.items())),
        "depth_histogram": dict(sorted(depths.items())),
        "shares": {
            "near_degenerate": share(sum(it.near for it in items)),
            "sibling_tower": share(sum(it.sibling for it in items)),
            "expected_error": share(sum(it.expect_code not in (None, 0) for it in items)),
            "rational_radicand": share(sum(it.rational_radicand for it in items)),
            "tower_repeat": share(repeats),
        },
    }


def _stratified(rng, counts: dict) -> list:
    out = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# float_mix
# ---------------------------------------------------------------------------


def _unit(v):
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def _random_axis(rng):
    """A random direction with every unit component at least 0.05 in size,
    so the canonical sign (first nonzero component) is never a coin toss."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        u = _unit(v)
        if min(abs(c) for c in u) >= 0.05:
            return v, u


def _float_reference(kind: str, u, deg: float):
    if kind == "rotation":
        return O.quaternion_matrix(u, deg)
    if kind == "reflection":
        return O.householder(u)
    return O.matmul(O.householder(u), O.quaternion_matrix(u, deg))


def _float_expect(kind: str, u, deg: float, collapsed: bool) -> dict:
    """What classify reports for a float matrix of this kind and angle.

    A collapsed item has |sin| far below the backend tolerance, so classify
    takes the sin = 0 branch and snaps the angle to 0 or 180 degrees."""
    sin = math.sin(math.radians(deg))
    flip = u[0] < 0
    cu = [-c for c in u] if flip else list(u)
    half = abs(((deg + 90.0) % 360.0) - 90.0) > 90.0  # nearer 180 than 0
    if kind == "reflection":
        return {"kind": "reflection", "det": -1, "axis": cu, "deg": 0.0, "atol": 1e-12}
    if collapsed:
        slack = 4.0 * abs(sin) + 1e-12
        if kind == "rotation":
            if half:
                return {"kind": "rotation", "det": 1, "axis": cu, "deg": 180.0, "atol": slack}
            return {"kind": "identity", "det": 1, "axis": None, "deg": None, "atol": slack}
        if half:
            return {"kind": "point_inversion", "det": -1, "axis": None, "deg": 180.0, "atol": slack}
        return {"kind": "reflection", "det": -1, "axis": cu, "deg": 0.0, "atol": slack}
    want = (360.0 - deg) % 360.0 if flip else deg % 360.0
    det = 1 if kind == "rotation" else -1
    return {"kind": kind, "det": det, "axis": cu, "deg": want, "atol": axis_tol(sin)}


def _check_float(out, ref, exp, rebuild_tol: float, angle_slack: float = 0.0) -> None:
    M, dec, M2 = out
    got = [float(e) for e in M.entries]
    if ref is not None and max(abs(a - b) for a, b in zip(got, ref)) > FLOAT_MATRIX_TOL:
        raise O.Mismatch("built matrix differs from the quaternion reference")
    if dec.kind.value != exp["kind"] or dec.determinant != exp["det"]:
        raise O.Mismatch(f"kind {dec.kind.value} det {dec.determinant}, want {exp['kind']}")
    if exp["axis"] is None:
        if dec.axis is not None:
            raise O.Mismatch("unexpected axis")
    else:
        err = max(abs(float(a) - b) for a, b in zip(dec.axis.vec, exp["axis"]))
        if err > exp["atol"]:
            raise O.Mismatch(f"axis off by {err:.3e} (tolerance {exp['atol']:.3e})")
    if exp["deg"] is None:
        if dec.angle is not None:
            raise O.Mismatch("unexpected angle")
    elif O.angle_gap(dec.angle.degrees, exp["deg"]) > FLOAT_ANGLE_TOL_DEG + angle_slack:
        raise O.Mismatch(f"angle {dec.angle.degrees} want {exp['deg']}")
    err = max(abs(float(a) - float(b)) for a, b in zip(M2.entries, M.entries))
    if err > rebuild_tol:
        raise O.Mismatch(f"rebuild differs from the input by {err:.3e}")


def _float_build_item(category, kind, v, u, deg, collapsed, near) -> Item:
    def run():
        b = la.FloatBackend()
        axis = iso.UnitAxis.normalize(la.Vec3(*v), b)
        if kind == "reflection":
            M = iso.reflection_matrix(axis, b)
        else:
            builder = iso.rotation_matrix if kind == "rotation" else iso.rotoreflection_matrix
            M = builder(axis, iso.AngleRep.from_degrees(deg), b)
        dec = iso.classify(M, b)
        return M, dec, iso.rebuild(dec, b)

    ref = _float_reference(kind, u, deg)
    exp = _float_expect(kind, u, deg, collapsed)
    sin = abs(math.sin(math.radians(deg)))
    slack = math.degrees(2.0 * sin) if collapsed else 0.0
    rebuild_tol = FLOAT_MATRIX_TOL + (4.0 * sin if collapsed else 0.0)
    return Item(category, exp["kind"], run,
                lambda out: _check_float(out, ref, exp, rebuild_tol, slack), near=near,
                spec=repr((kind, v, deg)))


def _float_matrix_item(category, entries, exp) -> Item:
    def run():
        b = la.FloatBackend()
        M = la.Mat3(tuple(entries))
        dec = iso.classify(M, b)
        return M, dec, iso.rebuild(dec, b)

    return Item(category, exp["kind"], run,
                lambda out: _check_float(out, None, exp, FLOAT_MATRIX_TOL), near=True,
                spec=repr(entries))


def _float_mix(rng) -> list[Item]:
    items = []
    for kind in _stratified(rng, {"rotation": 72, "rotoreflection": 56, "reflection": 32}):
        v, u = _random_axis(rng)
        factor = rng.choice((1.0, 0.37, 2.5, 11.0))  # most axes are not unit length
        v = [c * factor for c in v]
        while True:
            deg = rng.uniform(0.0, 360.0)
            if abs(math.sin(math.radians(deg))) > 1e-6:
                break
        items.append(_float_build_item("general", kind, v, u, deg, False, False))
    # within 1e-6 degrees of 0 or 180: resolved (|sin| above the backend
    # tolerance with a 3x margin) or collapsed (|sin| 5x below it)
    for band, count, lo, hi in (("near_resolved", 20, 3e-7, 1e-6), ("near_collapsed", 12, 1e-10, 1e-8)):
        for i in range(count):
            kind = ("rotation", "rotoreflection")[i % 2]
            base = (0.0, 180.0)[(i // 2) % 2]
            offset = rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))
            v, u = _random_axis(rng)
            items.append(_float_build_item(band, kind, v, u, (base + offset) % 360.0,
                                           band == "near_collapsed", True))
    eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    for _ in range(2):
        items.append(_float_matrix_item("identity_matrix", eye, {
            "kind": "identity", "det": 1, "axis": None, "deg": None, "atol": 0.0}))
        items.append(_float_matrix_item("minus_identity", [-e for e in eye], {
            "kind": "point_inversion", "det": -1, "axis": None, "deg": 180.0, "atol": 0.0}))
    for _ in range(4):
        _, u = _random_axis(rng)
        half_turn = [2.0 * u[i] * u[j] - (1.0 if i == j else 0.0) for i in range(3) for j in range(3)]
        cu = [-c for c in u] if u[0] < 0 else u
        items.append(_float_matrix_item("half_turn_matrix", half_turn, {
            "kind": "rotation", "det": 1, "axis": cu, "deg": 180.0, "atol": 1e-12}))
    return items


# ---------------------------------------------------------------------------
# exact items: shared construction and checking
# ---------------------------------------------------------------------------


def _dot(v) -> dict:
    out: dict = {}
    for c in v:
        out = O.add(out, O.mul(c, c))
    return out


class _Tower:
    """An ortho3 tower over distinct primes, and conversion of the oracle's
    multiquadratic numbers into it (used only to hand inputs to ortho3)."""

    def __init__(self, primes):
        field = tw.QQ
        for p in primes:
            field = tw.sqrt(field.rational(p)).field
        self.field = field
        self.primes = list(primes)

    def elem(self, x: dict):
        f = self.field
        total = f.zero
        for k, c in x.items():
            term = f.rational(c)
            for i, p in enumerate(self.primes):
                if k % p == 0:
                    term = term * f.generator(i)
            total = total + term
        return total


def _to_input(x: dict, tower: _Tower | None):
    """Rational inputs go to ortho3 as ints / Fractions, as a user would."""
    if O.is_rational(x):
        v = O.to_fraction(x)
        return int(v) if v.denominator == 1 else v
    return tower.elem(x)


def _angle_from_t(t: dict):
    """(Pc, Ps, D) with cos = Pc/D and sin = Ps/D, from t = tan(angle/2)."""
    t2 = O.mul(t, t)
    return O.sub(O.mq(1), t2), O.scale(t, 2), O.add(O.mq(1), t2)


def _check_exact(out, kind, v, N, Pc, Ps, D) -> None:
    M, dec, M2 = out
    want = O.exact_matrix(kind, v, N, Pc, Ps, D)
    for idx, (got, got2, w) in enumerate(zip(M.entries, M2.entries, want)):
        O.check_equal(got, w, f"M[{idx // 3},{idx % 3}]")
        O.check_equal(got2, w, f"rebuild[{idx // 3},{idx % 3}]")
    exp = O.expected_decomposition(kind, v, N, Pc, Ps, D)
    _check_decomposition(dec, exp)


def _check_decomposition(dec, exp) -> None:
    if dec.kind.value != exp["kind"] or dec.determinant != exp["det"]:
        raise O.Mismatch(f"kind {dec.kind.value} det {dec.determinant}, want {exp['kind']}")
    if (dec.axis is None) != (exp["axis"] is None):
        raise O.Mismatch("axis presence differs")
    if exp["axis"] is not None:
        for i, (got, w) in enumerate(zip(dec.axis.vec, exp["axis"])):
            O.check_equal(got, w, f"axis[{i}]")
    if (dec.angle is None) != (exp["cos"] is None):
        raise O.Mismatch("angle presence differs")
    if exp["cos"] is not None:
        O.check_equal(dec.angle.cos_alpha, exp["cos"], "cos")
        O.check_equal(dec.angle.sin_alpha, exp["sin"], "sin")


def _exact_item(category, kind, v, t_or_pair, tower, *, depth, key, near=False,
                rational_radicand=True) -> Item:
    """Build from axis v (multiquadratic triple) and an angle given either
    by t = tan(angle/2) or by an explicit (Pc, Ps, D) triple."""
    N = _dot(v)
    Pc, Ps, D = t_or_pair if isinstance(t_or_pair, tuple) else _angle_from_t(t_or_pair)
    dinv = O.inv(D)
    vin = [_to_input(c, tower) for c in v]
    cin, sin_ = _to_input(O.mul(Pc, dinv), tower), _to_input(O.mul(Ps, dinv), tower)

    def run():
        b = la.ExactBackend()
        axis = iso.UnitAxis.normalize(la.Vec3(*vin), b)
        if kind == "reflection":
            M = iso.reflection_matrix(axis, b)
        else:
            builder = iso.rotation_matrix if kind == "rotation" else iso.rotoreflection_matrix
            M = builder(axis, iso.AngleRep(cin, sin_), b)
        dec = iso.classify(M, b)
        return M, dec, iso.rebuild(dec, b)

    exp_kind = O.expected_decomposition(kind, v, N, Pc, Ps, D)["kind"]
    return Item(category, exp_kind, run, lambda out: _check_exact(out, kind, v, N, Pc, Ps, D),
                depth=depth, key=key, near=near, rational_radicand=rational_radicand,
                spec=repr((kind, [O.render(c) for c in v], O.render(Pc), O.render(Ps), O.render(D))))


def _pythagorean(rng):
    """Integer (a, b, c) with a^2 + b^2 + c^2 a perfect square."""
    while True:
        m, n, p, q = (rng.randint(-4, 4) for _ in range(4))
        d = m * m + n * n + p * p + q * q
        if d:
            k = rng.randint(1, 2)
            return [O.mq(k * (m * m + n * n - p * p - q * q)),
                    O.mq(k * 2 * (m * q + n * p)), O.mq(k * 2 * (n * q - m * p))]


def _rational_t(rng) -> dict:
    return O.mq(F(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 8)))


def _int_axis_with_squarefree(rng, s: int):
    while True:
        v = [rng.randint(-6, 6) for _ in range(3)]
        n = sum(c * c for c in v)
        if n and O.squarefree(n)[1] == s:
            return [O.mq(c) for c in v]


# ---------------------------------------------------------------------------
# exact_rational
# ---------------------------------------------------------------------------

_SQUAREFREE = (2, 3, 5, 6, 10, 11, 13, 14, 17, 19, 21, 22)  # none is 7 mod 8


def _exact_rational(rng) -> list[Item]:
    """Category counts put the median inside the one-root items and the p90
    inside the Q(sqrt d) items, never on a boundary between two categories,
    so the percentiles hold steady from seed to seed."""
    items = []
    for kind in _stratified(rng, {"rotation": 11, "rotoreflection": 9, "reflection": 6}):
        items.append(_exact_item("pythagorean", kind, _pythagorean(rng), _rational_t(rng),
                                 None, depth=0, key=()))
    for kind, pair in (("rotation", (O.mq(1), {}, O.mq(1))), ("rotoreflection", (O.mq(-1), {}, O.mq(1))),
                       ("rotation", (O.mq(-1), {}, O.mq(1))), ("rotoreflection", (O.mq(1), {}, O.mq(1)))):
        for _ in range(2):
            items.append(_exact_item("degenerate", kind, _pythagorean(rng), pair, None,
                                     depth=0, key=(), near=True))
    # one normalizing root: five radicands, six items each
    groups = rng.sample(_SQUAREFREE, 5)
    kinds = _stratified(rng, {"rotation": 13, "rotoreflection": 10, "reflection": 7})
    for i, kind in enumerate(kinds):
        s = groups[i % 5]
        items.append(_exact_item("one_root", kind, _int_axis_with_squarefree(rng, s),
                                 _rational_t(rng), None, depth=1, key=(s,)))
    # axis and angle in Q(sqrt(d)) with a rational axis norm that needs a
    # new root: four (d, s) towers; a tower's items permute, flip and scale
    # its first axis
    seeds: dict = {}
    while len(seeds) < 4:
        d = rng.choice((2, 3, 5))
        v = [({d: F(rng.choice((-1, 1)) * rng.randint(1, 4))} if rng.random() < 0.5
              else O.mq(rng.randint(-4, 4))) for _ in range(3)]
        N = _dot(v)
        if not N or all(O.is_rational(c) for c in v):
            continue
        s = O.squarefree(O.to_fraction(N).numerator)[1]
        if s not in (1, d) and {d, s} != {2, 3} and (d, s) not in seeds:
            seeds[(d, s)] = v
    keys = list(seeds)
    kinds = _stratified(rng, {"rotation": 12, "rotoreflection": 10, "reflection": 8})
    for i, kind in enumerate(kinds):
        d, s = keys[i % 4]
        q = F(rng.choice((1, 2, 3, -1)), rng.choice((1, 2)))
        v = [O.scale(c, q * rng.choice((-1, 1))) for c in rng.sample(seeds[(d, s)], 3)]
        t = O.add(_rational_t(rng), {d: F(rng.randint(1, 3), rng.randint(1, 3))})
        items.append(_exact_item("quadratic", kind, v, t, _Tower([d]), depth=2, key=(d, s)))
    items.append(_reference_item())
    for i in range(5):
        items.append(_sibling_item(rng, i % 2, ("rotation", "rotoreflection")[i // 2 % 2]))
    return items


README_AXIS = ("(sqrt(2)+sqrt(3))", "(2-sqrt(2)-sqrt(3)+sqrt(2)*sqrt(3))", "1")
README_COS = "-1/2-sqrt(2)/4+sqrt(3)/6-sqrt(2)*sqrt(3)/6"
README_SIN = "-sqrt(2)*sqrt(3)*sqrt(9-2*sqrt(2)-2*sqrt(2)*sqrt(3))/12"
README_V = [{2: F(1), 3: F(1)}, {1: F(2), 2: F(-1), 3: F(-1), 6: F(1)}, O.mq(1)]
README_M = [{3: F(1, 3)}, {2: F(1, 2)}, {6: F(1, 6)},
            {3: F(1, 3)}, {2: F(-1, 2)}, {6: F(1, 6)},
            {3: F(1, 3)}, {}, {6: F(-1, 3)}]
README_COS_MQ = {1: F(-1, 2), 2: F(-1, 4), 3: F(1, 6), 6: F(-1, 6)}
README_SIN_EXPECT = O.Expect({}, None, {6: F(-1, 12)}, None, {1: F(9), 2: F(-2), 6: F(-2)})


def _readme_decomposition() -> dict:
    """The worked example's answer: rotation about (v / |v|) by the README's
    (cos, sin); its first axis component sqrt(2)+sqrt(3) is positive."""
    N = _dot(README_V)
    return {"kind": "rotation", "det": 1,
            "axis": [O.Expect({}, None, c, N, N) for c in README_V],
            "cos": O.Expect(README_COS_MQ), "sin": README_SIN_EXPECT}


def _reference_item() -> Item:
    """The README worked example, built the way the CLI threads fields: the
    angle is parsed inside the normalized axis's tower."""
    p = expr.parse_scalar("sqrt(2)")
    base = expr.parse_scalar("sqrt(3)", p.field).field
    v = [expr.parse_scalar(s, base) for s in README_AXIS]

    def run():
        b = la.ExactBackend()
        axis = iso.UnitAxis.normalize(la.Vec3(*v), b)
        field_ = max((c.field for c in axis.vec), key=lambda f: f.depth)
        cos = expr.parse_scalar(README_COS, field_)
        sin = expr.parse_scalar(README_SIN, cos.field)
        M = iso.rotation_matrix(axis, iso.AngleRep(cos.lift(sin.field), sin), b)
        dec = iso.classify(M, b)
        return M, dec, iso.rebuild(dec, b)

    def check(out):
        M, dec, M2 = out
        for idx, (a, a2, w) in enumerate(zip(M.entries, M2.entries, README_M)):
            O.check_equal(a, O.Expect(w), f"M[{idx}]")
            O.check_equal(a2, O.Expect(w), f"rebuild[{idx}]")
        _check_decomposition(dec, _readme_decomposition())

    # Q(sqrt2, sqrt3) plus the axis norm's nested root; the sine's root
    # already lies in that field
    return Item("readme_reference", "rotation", run, check, depth=3,
                key=("readme",), rational_radicand=False, spec="readme")


def _sibling_item(rng, variant: int, kind: str) -> Item:
    """The README library-tour pattern: the angle is parsed on its own, so it
    lives in a tower unrelated to the normalized axis's tower.  The correct
    answer is a decomposition; ortho3 raises IncompatibleTowers (no tower
    join yet), which the run counts as a failed item."""
    k = rng.randint(1, 3)
    if variant == 0:  # axis norm sqrt(2), angle in Q(sqrt(3))
        v = [O.mq(k), O.mq(k), {}]
        pair = (O.mq(F(1, 2)), {3: F(1, 2)}, O.mq(1))
        cos, sin_text, key = F(1, 2), "sqrt(3)/2", (2, 3)
    else:  # axis norm sqrt(3), angle in Q(sqrt(2))
        v = [O.mq(k), O.mq(k), O.mq(k)]
        pair = ({2: F(1, 2)}, {2: F(1, 2)}, O.mq(1))
        cos, sin_text, key = None, "sqrt(2)/2", (3, 2)
    sin = expr.parse_scalar(sin_text)
    cos = sin if cos is None else cos
    vin = [_to_input(c, None) for c in v]
    N = _dot(v)

    def run():
        b = la.ExactBackend()
        axis = iso.UnitAxis.normalize(la.Vec3(*vin), b)
        builder = iso.rotation_matrix if kind == "rotation" else iso.rotoreflection_matrix
        M = builder(axis, iso.AngleRep(cos, sin), b)
        dec = iso.classify(M, b)
        return M, dec, iso.rebuild(dec, b)

    return Item("sibling", kind, run, lambda out: _check_exact(out, kind, v, N, *pair),
                depth=2, key=key, sibling=True, rational_radicand=True,
                spec=repr((kind, variant, k)))


# ---------------------------------------------------------------------------
# exact_deep
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13)


def _sparse(rng, primes, terms: int, span: int = 3) -> dict:
    """A base-tower element with exactly ``terms`` nonzero coordinates."""
    monomials = [math.prod(c for i, c in enumerate(primes) if m >> i & 1)
                 for m in range(1 << len(primes))]
    return {k: F(rng.choice((-1, 1)) * rng.randint(1, span), rng.randint(1, 2))
            for k in rng.sample(monomials, terms)}


def _deep_plan(rng, primes, target: int):
    """An axis in the base tower whose normalization lands at ``target``
    working depth: base levels, maybe a rational root split off the norm's
    content, and one nested root that is provably new (its norm is not a
    rational square)."""
    for _ in range(200):
        v = [_sparse(rng, primes, 2), _sparse(rng, primes, 2),
             O.mq(rng.choice((-1, 1)) * rng.randint(1, 3))]
        N = _dot(v)
        if O.is_rational(N) or not O.norm_is_nonsquare(N):
            continue
        c = O.content(N)
        s = O.squarefree(c.numerator * c.denominator)[1]
        new_root = s != 1 and any(p not in primes for p in O.primes_of(s))
        if len(primes) + new_root + 1 != target:
            continue
        primitive = tuple(sorted(O.scale(N, 1 / c).items()))
        return v, (tuple(primes), s if new_root else None, primitive)
    return None, None


def _exact_deep(rng) -> list[Item]:
    """25 towers, two items each: the items of one tower scale the same
    axis by different rationals, so they share a working tower.  Kinds are
    stratified within each depth, since a reflection costs far less than a
    rotation of the same depth."""
    items = []
    kinds_by_depth = {
        3: _stratified(rng, {"rotation": 16, "rotoreflection": 14, "reflection": 10}),
        4: _stratified(rng, {"rotation": 4, "rotoreflection": 3, "reflection": 1}),
        5: _stratified(rng, {"rotation": 1, "rotoreflection": 1}),
    }
    keys: set = set()
    for target, kinds in kinds_by_depth.items():
        for g in range(len(kinds) // 2):
            while True:
                nbase = 2 if target == 3 else 3 if target == 5 else rng.choice((2, 3))
                primes = rng.sample(_PRIMES, nbase)
                v, key = _deep_plan(rng, primes, target)
                if key is not None and key not in keys:
                    break
            keys.add(key)
            tower = _Tower(primes)
            for kind in kinds[2 * g:2 * g + 2]:
                q = F(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2, 3)))
                vq = [O.scale(c, q) for c in v]
                t = _sparse(rng, primes, 2, span=2)
                items.append(_exact_item("deep", kind, vq, t, tower,
                                         depth=target, key=key, rational_radicand=False))
    return items


# ---------------------------------------------------------------------------
# cli_docs
# ---------------------------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_text_value(text: str, want: O.Expect, what: str) -> None:
    """Exact comparison when the rendered value is multiquadratic; otherwise
    a 60-digit comparison of the rendered nested radical."""
    try:
        x = O.parse_multiquadratic(text)
    except O.Nested:
        pass
    else:
        O.check_equal_parts({frozenset(): x} if x else {}, {}, want, what)
        return
    with localcontext() as ctx:
        ctx.prec = 70
        if abs(O.eval_text(text) - want.to_decimal()) > Decimal(CLI_DECIMAL_TOL):
            raise O.Mismatch(f"{what}: {text} differs from the expected value")


def _close(got: float, want: float, what: str) -> None:
    if abs(got - want) > CLI_NUMERIC_RTOL * max(1.0, abs(want)):
        raise O.Mismatch(f"{what}: {got} want {want}")


class WrongExitCode(Exception):
    """A CLI item ended with another exit code than its documented one: a
    failed item, counted apart from wrong output."""


def _expect_code(out, code: int) -> tuple:
    got, stdout, stderr = out
    if got != code:
        raise WrongExitCode(f"exit code {got}, want {code}")
    return stdout, stderr


def _cli_item(category, kind, argv, check, code=0) -> Item:
    def run():
        return run_cli(argv)

    def full_check(out):
        stdout, stderr = _expect_code(out, code)
        if code:
            if stdout or "error" not in stderr and "usage" not in stderr:
                raise O.Mismatch("a rejected input must print only an error, on stderr")
            return
        check(stdout)

    return Item(category, kind, run, full_check, expect_code=code, spec=repr(argv))


def _float_matrix_check(ref):
    def check(stdout):
        rows = json.loads(stdout)["matrix"]
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                _close(float(x), ref[3 * i + j], f"matrix[{i}][{j}]")
    return check


def _exact_matrix_check(want):
    def check(stdout):
        rows = json.loads(stdout)["matrix"]
        for idx, w in enumerate(want):
            _check_text_value(rows[idx // 3][idx % 3], w, f"matrix[{idx}]")
    return check


def _value(e: O.Expect) -> dict:
    """A multiquadratic Expect as one multiquadratic number."""
    x = O.mul(e.P, O.inv(e.Q))
    if e.N is not None:
        x = O.add(x, O.mul(O.mul(e.S, O.inv(e.T)), O.root(O.to_fraction(e.N))))
    return x


def _classify_check(exp: dict, exact: bool):
    """exp: kind, det, axis/cos/sin as Expect (exact) or floats, deg."""
    def check(stdout):
        r = json.loads(stdout)
        if r["kind"] != exp["kind"] or r["det"] != exp["det"]:
            raise O.Mismatch(f"kind {r['kind']} det {r['det']}, want {exp['kind']}")
        if (r["axis"] is None) != (exp["axis"] is None):
            raise O.Mismatch("axis presence differs")
        if exp["axis"] is not None:
            for i, w in enumerate(exp["axis"]):
                want = w.to_float() if exact else w
                _close(r["axis"]["numeric"][i], want, f"axis[{i}]")
                if exact:
                    _check_text_value(r["axis"]["exact"][i], w, f"axis[{i}]")
        if exp["deg"] is None:
            if r["angle_deg"] is not None:
                raise O.Mismatch("unexpected angle")
        else:
            if O.angle_gap(r["angle_deg"], exp["deg"]) > 1e-8:
                raise O.Mismatch(f"angle {r['angle_deg']} want {exp['deg']}")
            if exact:
                _check_text_value(r["cos"]["exact"], exp["cos"], "cos")
                _check_text_value(r["sin"]["exact"], exp["sin"], "sin")
    return check


def _exact_degrees(exp: dict) -> dict:
    if exp["cos"] is not None:
        exp["deg"] = math.degrees(math.atan2(exp["sin"].to_float(), exp["cos"].to_float())) % 360.0
    else:
        exp["deg"] = None
    return exp


def _invariants_check(det: int, trace: float, trace_exact: O.Expect | None):
    def check(stdout):
        r = json.loads(stdout)
        _close(r["det"], det, "det")
        _close(r["trace"], trace, "trace")
        if r["residual"] > 1e-12:
            raise O.Mismatch(f"residual {r['residual']}")
        if trace_exact is not None:
            _check_text_value(r["det_exact"], O.Expect(O.mq(det)), "det_exact")
            _check_text_value(r["trace_exact"], trace_exact, "trace_exact")
    return check


def _text_check(kind_line: str):
    def check(stdout):
        if kind_line not in stdout.splitlines():
            raise O.Mismatch(f"missing {kind_line!r} in the text report")
    return check


def _axis_text(v) -> str:
    return " ".join(f"({O.render(c)})" for c in v)


def _cli_exact_case(rng, shape: int):
    """Axis and angle for an exact CLI case, by shape: 0 a Pythagorean axis,
    1 an integer axis needing one root, 2 the same with the half-angle
    tangent in another Q(sqrt(d)), 3 an axis with a sqrt(d) entry and a
    rational norm; shapes 0, 1 and 3 take a rational tangent."""
    if shape == 3:
        d = rng.choice((2, 3, 5))
        v = [{d: F(rng.randint(1, 3))}, O.mq(rng.randint(-3, 3)), O.mq(rng.choice((-1, 1)) * rng.randint(1, 3))]
        return v, _rational_t(rng)
    if shape == 0:
        return _pythagorean(rng), _rational_t(rng)
    s = rng.choice(_SQUAREFREE)
    v = _int_axis_with_squarefree(rng, s)
    t = _rational_t(rng)
    if shape == 2:
        t = O.add(t, {rng.choice([d for d in (2, 3, 5) if d != s]): F(1, rng.randint(1, 3))})
    return v, t


def _document(rows_text, scale_text=None, mode="exact") -> str:
    doc = {"mode": mode, "matrix": rows_text}
    if scale_text is not None:
        doc["scale"] = scale_text
    return json.dumps(doc)


def _cli_docs(rng) -> list[Item]:
    """About two thirds of the items are cheap (float commands, rejected
    inputs), so the median falls inside them and the p90 inside the exact
    items, not on the boundary between the two."""
    items = []
    # float builds: expression axes in float mode, angle in degrees
    for kind in _stratified(rng, {"rotate": 12, "rotoreflect": 9, "reflect": 7}):
        v, u = _random_axis(rng)
        spelled = [f"{c:.6f}" for c in v]
        if rng.random() < 0.5:
            spelled[0] = "sqrt(2)/3" if v[0] > 0 else "-sqrt(2)/3"
        vals = [math.sqrt(2) / 3 * (1 if v[0] > 0 else -1) if s.startswith(("sqrt", "-sqrt"))
                else float(s) for s in spelled]
        u = _unit(vals)
        deg = round(rng.uniform(0.0, 360.0), 3)
        argv = ["--json", kind, " ".join(spelled)]
        ref_kind = {"rotate": "rotation", "rotoreflect": "rotoreflection", "reflect": "reflection"}[kind]
        if kind != "reflect":
            argv += ["--angle-deg", str(deg)]
        items.append(_cli_item("float_build", kind, argv,
                               _float_matrix_check(_float_reference(ref_kind, u, deg))))
    # exact builds: expression axes, --cos/--sin
    for i, kind in enumerate(_stratified(rng, {"rotate": 7, "rotoreflect": 5, "reflect": 4})):
        v, t = _cli_exact_case(rng, i % 4)
        N = _dot(v)
        Pc, Ps, D = _angle_from_t(t)
        ref_kind = {"rotate": "rotation", "rotoreflect": "rotoreflection", "reflect": "reflection"}[kind]
        argv = ["--mode", "exact", "--json", kind, _axis_text(v)]
        if kind != "reflect":
            dinv = O.inv(D)
            argv += [f"--cos={O.render(O.mul(Pc, dinv))}", f"--sin={O.render(O.mul(Ps, dinv))}"]
        items.append(_cli_item("exact_build", kind, argv,
                               _exact_matrix_check(O.exact_matrix(ref_kind, v, N, Pc, Ps, D))))
    items.append(_cli_item("exact_build", "rotate", [
        "--mode", "exact", "--json", "rotate", " ".join(README_AXIS),
        f"--cos={README_COS}", f"--sin={README_SIN}"],
        _exact_matrix_check([O.Expect(w) for w in README_M])))
    # classify float documents
    for kind in _stratified(rng, {"rotation": 7, "rotoreflection": 6, "reflection": 3}):
        _, u = _random_axis(rng)
        deg = rng.uniform(1.0, 359.0)
        ref = _float_reference(kind, u, deg)
        exp = _float_expect(kind, u, deg, False)
        argv = ["--json", "classify", _document([ref[0:3], ref[3:6], ref[6:9]], mode="float")]
        items.append(_cli_item("float_classify", "classify", argv, _classify_check(exp, False)))
    # classify exact documents, some with a common scale factor
    for i, kind in enumerate(_stratified(rng, {"rotation": 5, "rotoreflection": 4, "reflection": 3})):
        v, t = _cli_exact_case(rng, i % 4)
        N = _dot(v)
        Pc, Ps, D = _angle_from_t(t)
        entries = [_value(e) for e in O.exact_matrix(kind, v, N, Pc, Ps, D)]
        form = i % 3
        if form == 0:
            rows, scale_text = [[O.render(x) for x in entries[3 * i:3 * i + 3]] for i in range(3)], None
        else:
            den = math.lcm(*(c.denominator for x in entries for c in x.values()))
            if form == 1:
                scale_text, factor = f"1/{den}", O.mq(den)
            else:
                scale_text = f"sqrt(2)/{den}"
                factor = O.scale(O.inv(O.root(2)), den)
            rows = [[O.render(O.mul(x, factor)) for x in entries[3 * i:3 * i + 3]] for i in range(3)]
        exp = _exact_degrees(O.expected_decomposition(kind, v, N, Pc, Ps, D))
        argv = ["--json", "classify", _document(rows, scale_text)]
        items.append(_cli_item("exact_classify", "classify", argv, _classify_check(exp, True)))
    readme_doc = _document([["sqrt(2)", "sqrt(3)", "1"], ["sqrt(2)", "-sqrt(3)", "1"],
                            ["sqrt(2)", "0", "-2"]], "1/(sqrt(2)*sqrt(3))")
    items.append(_cli_item("exact_classify", "classify", ["--json", "classify", readme_doc],
                           _classify_check(_exact_degrees(_readme_decomposition()), True)))
    # invariants, JSON and text; classify as text
    for i in range(10):
        kind = ("rotation", "rotoreflection")[i % 2]
        det = 1 if kind == "rotation" else -1
        if i < 6:
            _, u = _random_axis(rng)
            deg = rng.uniform(0.0, 360.0)
            ref = _float_reference(kind, u, deg)
            argv = ["--json", "invariants", _document([ref[0:3], ref[3:6], ref[6:9]], mode="float")]
            trace = ref[0] + ref[4] + ref[8]
            items.append(_cli_item("invariants", "invariants", argv, _invariants_check(det, trace, None)))
            continue
        v, t = _cli_exact_case(rng, i % 4)
        N = _dot(v)
        Pc, Ps, D = _angle_from_t(t)
        entries = [_value(e) for e in O.exact_matrix(kind, v, N, Pc, Ps, D)]
        tr = O.add(O.add(entries[0], entries[4]), entries[8])
        rows = [[O.render(x) for x in entries[3 * r:3 * r + 3]] for r in range(3)]
        argv = ["--json", "invariants", _document(rows)]
        items.append(_cli_item("invariants", "invariants", argv,
                               _invariants_check(det, O.to_float(tr), O.Expect(tr))))
    for i in range(4):
        kind = ("rotation", "rotoreflection", "reflection")[i % 3]
        v, t = _cli_exact_case(rng, i % 4)
        N = _dot(v)
        Pc, Ps, D = _angle_from_t(t)
        entries = [_value(e) for e in O.exact_matrix(kind, v, N, Pc, Ps, D)]
        rows = [[O.render(x) for x in entries[3 * r:3 * r + 3]] for r in range(3)]
        want = O.expected_decomposition(kind, v, N, Pc, Ps, D)["kind"]
        items.append(_cli_item("text", "classify", ["classify", _document(rows)],
                               _text_check(f"kind: {want}")))
    # rejected inputs and their documented exit codes
    for i in range(8):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        argv = (
            ["--mode", "exact", "rotate", f"{a} {b} sqrt({a}", "--cos", "1", "--sin", "0"],
            ["rotate", f"{a} {b}", "--angle-deg", "30"],
            ["--mode", "exact", "reflect", "0 0 0"],
            ["--mode", "exact", "rotate", f"sqrt(-{a}) 1 {b}", "--cos", "1", "--sin", "0"],
            ["classify", "{not json"],
            ["frobnicate", f"{a}"],
            ["--mode", "exact", "rotate", f"{a}/0 1 1", "--cos", "1", "--sin", "0"],
            ["classify", _document([[1, 0], [0, 1]], mode="float")],
        )[i]
        items.append(_cli_item("rejected", "error_2", argv, None, code=2))
    for i in range(6):
        a = rng.randint(1, 9)
        argv = (
            ["--mode", "exact", "rotate", f"1 2 {a}", "--cos", "1", "--sin", "1"],
            ["--mode", "exact", "rotate", f"1 {a} 2", "--angle-deg", "30"],
            ["rotate", f"{a} 1 2"],
        )[i % 3]
        items.append(_cli_item("rejected", "error_3", argv, None, code=3))
    for i in range(6):
        a = rng.randint(2, 9)
        if i % 2:
            doc = _document([["1", "0", "0"], ["0", str(a), "0"], ["0", "0", "1"]])
        else:
            doc = _document([[1.0, 0.0, 0.0], [0.0, float(a), 0.0], [0.0, 0.0, 1.0]], mode="float")
        items.append(_cli_item("rejected", "error_4", ["classify", doc], None, code=4))
    return items


_BUILDERS = {
    "float_mix": _float_mix,
    "exact_rational": _exact_rational,
    "exact_deep": _exact_deep,
    "cli_docs": _cli_docs,
}
