"""Per-layer tracing of ortho3, applied from outside the package.

``Tracer.install`` wraps every public function and method of the six layer
modules and rebinds each place a caller resolves them: the defining module,
every module that imported the name (``cli.classify``, ``expr.sqrt``,
``tower.sqrt_interval``, ``isometry.outer``, ``ortho3.tower_sqrt``, ...), and
class-body aliases (``Mat3.__matmul__``, ``TowerElem.__rmul__``, ...), which
share one wrapper with the method they alias.  ``uninstall`` puts every
original back.  No source file changes.

Each wrapped call is a span.  Spans nest on one stack, so a span's self time
is its duration minus the durations of the spans it called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = {
    "interval": "ortho3.qfield.interval",
    "tower": "ortho3.qfield.tower",
    "expr": "ortho3.qfield.expr",
    "linalg3": "ortho3.linalg3",
    "isometry": "ortho3.isometry",
    "cli": "ortho3.cli",
}

_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__eq__", "__matmul__", "__float__",
}

# bindings that callers resolve outside the defining module or class body;
# a wrapper missing from any of these would undercount without an error
ALIASES = (
    ("ortho3.cli", "classify"), ("ortho3.cli", "invariant_report"),
    ("ortho3.cli", "rotation_matrix"), ("ortho3.cli", "reflection_matrix"),
    ("ortho3.cli", "rotoreflection_matrix"), ("ortho3.cli", "parse_scalar"),
    ("ortho3.qfield.expr", "sqrt"), ("ortho3.qfield.tower", "sqrt_interval"),
    ("ortho3.isometry", "outer"), ("ortho3.isometry", "infer_backend"),
    ("ortho3", "tower_sqrt"), ("ortho3", "classify"), ("ortho3.qfield", "parse_scalar"),
)
CLASS_ALIASES = (
    ("ortho3.linalg3", "Mat3", "__matmul__"), ("ortho3.qfield.tower", "TowerElem", "__rmul__"),
    ("ortho3.qfield.tower", "TowerElem", "__radd__"), ("ortho3.qfield.tower", "TowerElem", "__float__"),
)

MUL = "tower.TowerElem.__mul__"
EVAL = "tower.TowerElem.eval"
SIGN = "tower.TowerElem.sign"
SQRT = "tower.sqrt"
EXTEND = "tower.TowerField.extend"
SQRT_INTERVAL = "interval.sqrt_interval"


class Tracer:
    """Call counts and self times per wrapped function, plus the few
    tower-specific figures the per-layer metrics need."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.by_parent: Counter = Counter()  # (name, parent name) -> calls
        self.mul_calls: Counter = Counter()  # operand depth -> calls
        self.mul_s: Counter = Counter()  # operand depth -> self seconds
        self.eval_max_bits = 0
        self.sqrt_extending = 0
        self.extends = 0
        self.extends_rational = 0
        self.item_depth = 0
        self._stack: list = []
        self._patches: list = []
        self._wrappers: dict = {}  # id(original) -> (original, wrapper)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(name) for layer, name in LAYERS.items()}
        tower = modules["tower"]
        self._elem_type = tower.TowerElem
        self._radicand = tower.TowerField.radicand
        self._is_rational = tower.TowerElem.is_rational
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    self._wrapper_for(obj, layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, obj in list(namespace.items()):
                entry = self._wrappers.get(id(obj)) if inspect.isfunction(obj) else None
                if entry is not None and entry[0] is obj:
                    self._set(mod, attr, entry[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Bindings from ALIASES / CLASS_ALIASES that are not wrapped."""
        missing = []
        for mod, attr in ALIASES:
            if not hasattr(getattr(sys.modules[mod], attr), "__wrapped__"):
                missing.append(f"{mod}.{attr}")
        for mod, cls, attr in CLASS_ALIASES:
            if not hasattr(vars(getattr(sys.modules[mod], cls))[attr], "__wrapped__"):
                missing.append(f"{mod}.{cls}.{attr}")
        return missing

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrapper_for(obj.__func__, layer)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrapper_for(obj, layer))

    def _wrapper_for(self, fn, layer: str):
        entry = self._wrappers.get(id(fn))
        if entry is not None:
            return entry[1]
        name = f"{layer}.{fn.__qualname__}"
        wrapper = self._make_wrapper(fn, name, layer == "tower")
        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    def _make_wrapper(self, fn, name: str, tower: bool):
        stack, calls, self_s, by_parent = self._stack, self.calls, self.self_s, self.by_parent
        clock = time.perf_counter
        after = {MUL: self._after_mul, EVAL: self._after_eval, EXTEND: self._after_extend,
                 SQRT: self._after_sqrt}.get(name)
        elem_type = self._elem_type

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, name, False]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[0]
                calls[name] += 1
                self_s[name] += own
                by_parent[(name, parent)] += 1
                if stack:
                    stack[-1][0] += dt
                if tower and args and type(args[0]) is elem_type:
                    d = args[0]._field.depth
                    if d > self.item_depth:
                        self.item_depth = d
                if after is not None:
                    after(args, kwargs, frame, own, result)

        return wrapper

    # -- tower-specific figures ---------------------------------------------

    def _after_mul(self, args, kwargs, frame, own, result) -> None:
        a, b = args[0], args[1] if len(args) > 1 else None
        depth = a._field.depth
        if type(b) is self._elem_type:
            depth = max(depth, b._field.depth)
        self.mul_calls[depth] += 1
        self.mul_s[depth] += own

    def _after_eval(self, args, kwargs, frame, own, result) -> None:
        bits = args[1] if len(args) > 1 else kwargs.get("bits", 128)
        self.eval_max_bits = max(self.eval_max_bits, bits)

    def _after_extend(self, args, kwargs, frame, own, result) -> None:
        if result is None:
            return
        self.extends += 1
        self.extends_rational += self._is_rational(self._radicand(result, result.depth - 1))
        for outer in reversed(self._stack):
            if outer[1] == SQRT:
                outer[2] = True
                break

    def _after_sqrt(self, args, kwargs, frame, own, result) -> None:
        self.sqrt_extending += frame[2]

    # -- metrics --------------------------------------------------------------

    def layer_self_ms(self, prefix: str) -> float:
        return 1e3 * sum(s for n, s in self.self_s.items() if n.startswith(prefix))

    def metrics(self, items: int, depths: list[int]) -> dict:
        """Per-layer metrics for ``items`` traced items."""
        c, s = self.calls, self.self_s

        def per_item(x: float) -> float:
            return x / items

        def calls_of(*names) -> int:
            return sum(c[n] for n in names)

        def ms_of(*names) -> float:
            return 1e3 * sum(s[n] for n in names)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m = {
            "interval.ops_per_item": per_item(sum(v for n, v in c.items() if n.startswith("interval.Interval."))),
            "interval.sqrt_interval.calls_per_item": per_item(c[SQRT_INTERVAL]),
            "interval.self_ms_per_item": per_item(self.layer_self_ms("interval.")),
            "tower.self_ms_per_item": per_item(self.layer_self_ms("tower.")),
            "tower.mul.calls_per_item": per_item(c[MUL]),
            "tower.mul.self_ms_per_item": per_item(ms_of(MUL)),
        }
        for d in range(6):
            m[f"tower.mul.mean_us.d{d}"] = 1e6 * ratio(self.mul_s[d], self.mul_calls[d])
        addsub = ("tower.TowerElem.__add__", "tower.TowerElem.__sub__",
                  "tower.TowerElem.__rsub__", "tower.TowerElem.__neg__")
        m.update({
            "tower.inverse.calls_per_item": per_item(c["tower.TowerElem.inverse"]),
            "tower.inverse.self_ms_per_item": per_item(ms_of("tower.TowerElem.inverse")),
            "tower.addsub.self_ms_per_item": per_item(ms_of(*addsub)),
            "tower.sign.calls_per_item": per_item(c[SIGN]),
            "tower.sign.self_ms_per_item": per_item(ms_of(SIGN)),
            "tower.sign.evals_per_sign": ratio(self.by_parent[(EVAL, SIGN)], c[SIGN]),
            "tower.eval.calls_per_item": per_item(c[EVAL]),
            "tower.eval.max_bits": float(self.eval_max_bits),
            "tower.eval.gen_sqrt_per_eval": ratio(self.by_parent[(SQRT_INTERVAL, EVAL)], c[EVAL]),
            "tower.to_float.calls_per_item": per_item(c["tower.TowerElem.to_float"]),
            "tower.sqrt.calls_per_item": per_item(c[SQRT]),
            "tower.sqrt.self_ms_per_item": per_item(ms_of(SQRT)),
            "tower.sqrt.extend_frac": ratio(self.sqrt_extending, c[SQRT]),
            "tower.render.self_ms_per_item": per_item(ms_of("tower.TowerElem.render")),
            "tower.depth_mean": sum(depths) / len(depths) if depths else 0.0,
            "tower.rational_radicand_frac": ratio(self.extends_rational, self.extends),
            "linalg3.matmul.calls_per_item": per_item(c["linalg3.Mat3.matmul"]),
            "linalg3.backend_eq.calls_per_item": per_item(
                calls_of("linalg3.FloatBackend.eq", "linalg3.ExactBackend.eq")),
            "linalg3.self_ms_per_item": per_item(self.layer_self_ms("linalg3.")),
            "isometry.classify.self_ms_per_item": per_item(ms_of("isometry.classify")),
            "isometry.build.self_ms_per_item": per_item(ms_of(
                "isometry.rotation_matrix", "isometry.reflection_matrix",
                "isometry.rotoreflection_matrix", "isometry.cross_matrix",
                "isometry.projection_matrix")),
            "isometry.normalize.self_ms_per_item": per_item(ms_of("isometry.UnitAxis.normalize")),
            "isometry.self_ms_per_item": per_item(self.layer_self_ms("isometry.")),
            "expr.parse_scalar.calls_per_item": per_item(c["expr.parse_scalar"]),
            "expr.parse_scalar.self_ms_per_item": per_item(ms_of("expr.parse_scalar")),
            "cli.main.self_ms_per_item": per_item(ms_of("cli.main")),
            "cli.build_parser.self_ms_per_item": per_item(ms_of("cli.build_parser")),
        })
        return m

    def layer_calls(self) -> dict:
        """Total wrapped calls per layer."""
        out: Counter = Counter()
        for name, n in self.calls.items():
            out[name.split(".", 1)[0]] += n
        return dict(out)

    def counts(self) -> dict:
        """Every count the tracer keeps (no times): equal inputs give equal
        counts."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "by_parent": sorted((k[0], str(k[1]), v) for k, v in self.by_parent.items()),
            "mul_calls": dict(sorted(self.mul_calls.items())),
            "eval_max_bits": self.eval_max_bits,
            "sqrt_extending": self.sqrt_extending,
            "extends": self.extends,
            "extends_rational": self.extends_rational,
        }
