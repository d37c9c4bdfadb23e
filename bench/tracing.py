"""Spans around the public functions of each circleconj layer.

``Tracer.install`` rebinds every traced function in each ``circleconj``
module that holds it (the defining module, the modules that imported it and
the package namespace), so calls between layers go through the wrapper
too.  Each call becomes a span ``(id, parent, name, start, end, tag,
raised)`` kept in memory; the benchmark writes them out when it ends.
``Surd`` constructions are counted by wrapping ``Surd.__post_init__``.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
from time import perf_counter

import circleconj
from circleconj import homeo
from circleconj.exactnum import Surd

TRACED = {
    "exactnum": ("equivalent", "stabilizer_generator", "cf_expand", "mobius_apply"),
    "intmat": ("solve_congruence",),
    "conjugacy": ("decide", "check_witness", "witness_to_homeo", "verify_conjugation"),
    "homeo": ("eval_circle", "staircase"),
    "circlegroup": ("element_expr", "orbit_sample"),
    "lineargroup": ("element_to_expr", "normalizer_expr"),
    "cli": ("main",),
}
OP = "bench.op"
MAX_WRAP = 3


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".calls", ".count")):
        return "1/op"
    if name.endswith(".self_s"):
        return "s/op"
    if ".p50_us." in name:
        return "us"
    return "ratio"


def wrap_depth(e) -> int:
    """Deepest nesting of HbarWrap nodes in an expression tree."""
    if not isinstance(e, homeo.HomeoExpr):
        return 0
    inner = 0
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        children = value if isinstance(value, tuple) else (value,)
        for child in children:
            inner = max(inner, wrap_depth(child))
    return inner + isinstance(e, homeo.HbarWrap)


def _surd_cache():
    """The evaluator's surd-value cache, when the program still has one."""
    return getattr(homeo, "_surd_mpf_cached", None)


def surd_cache_clear() -> None:
    cache = _surd_cache()
    if cache is not None:
        cache.cache_clear()


class Tracer:
    def __init__(self) -> None:
        self.spans = []
        self.surd_new = 0
        self._next = 0
        self._parent = None
        self._undo = []
        self._depths = {}

    # -- recording ------------------------------------------------------------

    def _span(self, name: str, fn, tag_of=None):
        def traced(*args, **kwargs):
            tag = tag_of(args[0]) if tag_of else None
            sid, parent = self._next, self._parent
            self._next += 1
            self._parent = sid
            raised = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc)
                raise
            finally:
                end = perf_counter()
                self._parent = parent
                self.spans.append((sid, parent, name, start, end, tag, raised))

        return traced

    def op(self, fn, i: int):
        """Run one benchmark operation as the root span of its request."""
        return self._span(OP, fn)(i)

    def _eval_depth(self, e) -> int:
        # verify evaluates the same two trees on every grid point; orbit
        # builds a fresh tree per draw, so keep only a handful
        key = id(e)
        hit = self._depths.get(key)
        if hit is None or hit[0] is not e:
            if len(self._depths) > 64:
                self._depths.clear()
            hit = self._depths[key] = (e, min(wrap_depth(e), MAX_WRAP))
        return hit[1]

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "circleconj"]
        for mod_name, names in TRACED.items():
            module = sys.modules[f"circleconj.{mod_name}"]
            for fname in names:
                orig = getattr(module, fname)
                tag_of = self._eval_depth if orig is homeo.eval_circle else None
                traced = self._span(f"{mod_name}.{fname}", orig, tag_of)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, traced)
                            self._undo.append((m, attr, orig))

        post_init = Surd.__post_init__

        def counted(surd):
            self.surd_new += 1
            post_init(surd)

        Surd.__post_init__ = counted
        self._undo.append((Surd, "__post_init__", post_init))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self, ops: int, cache_hits: int, cache_calls: int) -> dict:
        """Per-layer values for the spans recorded so far, per benchmark op."""
        covered = {}
        for sid, parent, name, start, end, tag, raised in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        calls, self_s = {}, {}
        eval_us = {d: [] for d in range(MAX_WRAP + 1)}
        guard_hits = 0
        for sid, parent, name, start, end, tag, raised in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered.get(sid, 0.0)
            if name == "homeo.eval_circle":
                eval_us[tag].append((end - start) * 1e6)
                guard_hits += raised is not None and issubclass(raised, circleconj.EvalError)
        out = {"exactnum.surd_new.count": self.surd_new / ops}
        for mod_name, names in TRACED.items():
            for fname in names:
                name = f"{mod_name}.{fname}"
                out[f"{name}.calls"] = calls.get(name, 0) / ops
                out[f"{name}.self_s"] = self_s.get(name, 0.0) / ops
        for d, values in eval_us.items():
            out[f"homeo.eval_circle.p50_us.wrap{d}"] = statistics.median(values) if values else 0.0
        eval_calls = calls.get("homeo.eval_circle", 0)
        out["homeo.eval_circle.guard_ratio"] = guard_hits / eval_calls if eval_calls else 0.0
        out["homeo.surd_value_cache.hit_ratio"] = cache_hits / cache_calls if cache_calls else 0.0
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: id, parent, name, start, end, tag, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, tag, raised in self.spans:
                row = [sid, parent, name, start, end, tag, raised.__name__ if raised else None]
                fh.write(json.dumps(row) + "\n")


def surd_cache_counts() -> tuple:
    """(hits, hits + misses) of the surd-value cache since it was cleared."""
    cache = _surd_cache()
    if cache is None:
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.hits + info.misses
