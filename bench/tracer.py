"""Layer tracing of `psicalc` from outside the package.

`Tracer.install()` replaces every public function of each layer module,
in every module namespace that holds it (`expansions` imports some
operators by name, the package re-exports everything), plus the public
methods and arithmetic dunders of the classes those modules define, with
a wrapper that records a span.  `Polynomial.__radd__` and `__rmul__` are
class attributes fixed when the class was made, so they are patched on
their own.  The GHW pair factories return pairs whose `lower` and
`raiser` lambdas are wrapped too.  `uninstall()` puts every original
back.

Spans are kept in memory as (name, start, end, parent, op id) in flat
arrays and written out by `write()`.  Self time is a span's duration
minus the time its child spans cover, including the tracer's own work
around each child, so bookkeeping is not billed to the parent layer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter
from fractions import Fraction
from types import FunctionType

LAYERS = ("poly", "sequences", "operators", "expansions", "discrete", "hahn", "parsing", "cli")

ALIASES = {
    "__init__": "init", "__eq__": "eq", "__add__": "add", "__radd__": "add",
    "__neg__": "neg", "__sub__": "sub", "__rsub__": "rsub", "__mul__": "mul",
    "__rmul__": "mul", "__truediv__": "truediv", "__pow__": "pow",
    "__divmod__": "divmod", "__call__": "eval", "__str__": "str",
    "bernoulli_identity_sweep": "bernoulli_sweep",
    "verify_commutator": "commutator",
    "jackson_integral_numeric": "jackson_numeric",
}
PAIR_FACTORIES = ("derivative_pair", "delta_pair", "psi_pair")
MUL_BUCKETS = ((16, "le16"), (32, "le32"), (64, "le64"))
COUNTS = (
    "poly.mul.term_products", "poly.out_coeff_bits", "hahn.jackson_numeric.terms",
    *(f"poly.mul.self_s.{label}" for label in ("le16", "le32", "le64", "gt64")),
)


def _bits(value) -> int:
    """Numerator plus denominator bit lengths of a polynomial or rational result."""
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs)
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, tuple):
        return sum(_bits(v) for v in value)
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[list] = []  # [span index, covered child time]
        self._patches: list[tuple] = []
        self._wrapped: dict[int, FunctionType] = {}
        self._owners: dict[str, int] = {}

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """A callable that runs fn inside a span called `name`."""
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        self_s, calls, tracer = self.self_s, self.calls, self

        def traced(*args, **kwargs):
            enter = clock()
            index = len(names)
            names.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.op_id)
            frame = [index, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
                own = end - start - frame[1]
                self_s[name] += own
                calls[name] += 1
                if ok and hook is not None:
                    result = hook(tracer, args, result, own)
                if stack:
                    stack[-1][1] += clock() - enter
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap_pair(self, pair):
        """The same GHW pair with its lower/raiser callables traced."""
        if getattr(pair.lower, "__wrapped__", None) is not None:
            return pair
        return type(pair)(
            pair.name,
            self.wrap("operators.pair_lower", pair.lower),
            self.wrap("operators.pair_raiser", pair.raiser),
        )

    # -- patching ----------------------------------------------------------------

    def _hook_for(self, name: str):
        if name == "poly.mul":
            return _mul_hook
        if name.startswith("poly."):
            return _bits_hook
        if name == "hahn.jackson_numeric":
            return _jackson_hook
        if name.split(".", 1)[1] in PAIR_FACTORIES:
            return _pair_hook
        return None

    def _wrapper(self, layer: str, attr: str, fn):
        key = id(fn)
        if key not in self._wrapped:
            name = f"{layer}.{ALIASES.get(attr, attr)}"
            owner = self._owners.setdefault(name, key)
            if owner != key:
                raise RuntimeError(f"two functions would share the span name {name}")
            self._wrapped[key] = self.wrap(name, fn, self._hook_for(name))
        return self._wrapped[key]

    def _patch(self, obj, attr: str, value):
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self):
        package = importlib.import_module("psicalc")
        modules = {layer: importlib.import_module(f"psicalc.{layer}") for layer in LAYERS}
        layer_of = {m.__name__: layer for layer, m in modules.items()}
        namespaces = [package, *modules.values()]
        for name in ("operators.pair_lower", "operators.pair_raiser"):
            self._name_id(name)

        for layer, module in modules.items():
            for cls in vars(module).values():
                if (
                    inspect.isclass(cls)
                    and cls.__module__ == module.__name__
                    and not cls.__name__.startswith("_")
                ):
                    self._patch_class(layer, cls)

        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if (
                    isinstance(value, FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ in layer_of
                ):
                    self._patch(namespace, attr, self._wrapper(layer_of[value.__module__], attr, value))

    def _patch_class(self, layer: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (attr in ALIASES and cls.__name__ == "Polynomial"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrapper(layer, attr, raw.__func__))
            elif isinstance(raw, FunctionType) and raw.__qualname__.startswith(cls.__name__ + "."):
                wrapped = self._wrapper(layer, attr, raw)
            else:
                continue
            self._patch(cls, attr, wrapped)

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- output --------------------------------------------------------------------

    def metric(self, name: str) -> float:
        """A per-layer metric by name: `<layer>.self_s`, `<span>.calls`,
        `<span>.self_s` or one of COUNTS.  Unknown span names raise, so a
        misspelt metric cannot read as zero."""
        if name in COUNTS:
            return self.counts[name]
        span, _, kind = name.rpartition(".")
        if kind == "self_s" and span in LAYERS:
            return self.layer_self_s(span)
        if span not in self._ids or kind not in ("calls", "self_s"):
            raise KeyError(f"no per-layer metric {name!r}")
        return self.calls[span] if kind == "calls" else self.self_s[span]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def write(self, path) -> int:
        """Write the spans as gzipped TSV: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\top\n")
            names = self.names
            for i, (n, s, e, p, o) in enumerate(zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
            )):
                out.write(f"{i}\t{names[n]}\t{s:.9f}\t{e:.9f}\t{p}\t{o}\n")
        return len(self.span_name)


def _bits_hook(tracer, args, result, own):
    tracer.counts["poly.out_coeff_bits"] += _bits(result)
    return result


def _mul_hook(tracer, args, result, own):
    a, b = args
    la = len(a.coeffs)
    lb = len(b.coeffs) if hasattr(b, "coeffs") else 1
    tracer.counts["poly.mul.term_products"] += la * lb
    degree = max(la, lb) - 1
    bucket = next((label for top, label in MUL_BUCKETS if degree <= top), "gt64")
    tracer.counts["poly.mul.self_s." + bucket] += own
    return _bits_hook(tracer, args, result, own)


def _jackson_hook(tracer, args, result, own):
    tracer.counts["hahn.jackson_numeric.terms"] += result.terms_used
    return result


def _pair_hook(tracer, args, result, own):
    return tracer.wrap_pair(result)
