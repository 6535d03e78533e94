"""Spans and counters recorded around calls into the package's modules.

``install`` replaces public functions and methods of the already-imported
``antikahler`` modules with wrappers defined here; the package itself is not
changed.  Every wrapped call records a span (name, start, end, parent).
Spans are kept in memory, up to ``SPAN_CAP`` of them, and written out by
``Tracer.dump``.  Self time is a span's duration minus the time its child
spans cover.  Counters (memo hits, curvature builds, operand sizes, suite
checks, generator draws) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute); "Class.method" names patch the class
SPANS = {
    "textio.parse_structure": ("antikahler.cli.textio", "parse_structure"),
    "scalars.inverse": ("antikahler.scalars", "Matrix.inverse"),
    "scalars.det": ("antikahler.scalars", "Matrix.det"),
    "scalars.rank": ("antikahler.scalars", "Matrix.rank"),
    "scalars.nullspace": ("antikahler.scalars", "Matrix.nullspace"),
    "scalars.signature": ("antikahler.scalars", "signature"),
    "scalars.matmul": ("antikahler.scalars", "Matrix.__mul__"),
    "liealg.from_brackets": ("antikahler.liealg", "LieAlgebra.from_brackets"),
    "liealg.nijenhuis": ("antikahler.liealg", "nijenhuis"),
    "liealg.killing_form": ("antikahler.liealg", "LieAlgebra.killing_form"),
    "geometry.structure_init": ("antikahler.geometry", "AntiHermitianStructure.__init__"),
    "geometry.levi_civita": ("antikahler.geometry", "levi_civita"),
    "geometry.curvature": ("antikahler.geometry", "curvature"),
    "geometry.ricci": ("antikahler.geometry", "ricci"),
    "geometry.curvature_is_pure": ("antikahler.geometry", "curvature_is_pure"),
    "theta.connection_form": ("antikahler.theta", "theta_connection_form"),
    "theta.bracket_form": ("antikahler.theta", "theta_bracket_form"),
    "classify4.classify": ("antikahler.classify4", "classify"),
    "classify4.normalize_basis": ("antikahler.classify4", "normalize_basis"),
    "classify4.verify_isomorphism": ("antikahler.classify4", "verify_isomorphism"),
    "verifier.run_suite": ("antikahler.verifier", "run_suite"),
    "verifier.random_invertible_matrix": ("antikahler.verifier", "random_invertible_matrix"),
    "catalog.get": ("antikahler.catalog", "get"),
}

HOOKS = "trace.hooks"
SPAN_CAP = 200_000


def den_bits(rows) -> int:
    """Largest denominator, in bits, over an iterable of rational rows."""
    return max((getattr(x, "denominator", 1).bit_length() for row in rows for x in row),
               default=0)


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id, name, start ns, end ns)
        self.dropped = 0
        self._stack = []         # [id, name, start ns, child ns]
        self._next_id = 0
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.suite_wall_ns = defaultdict(list)
        self.command = None      # CLI command of the op being traced

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def exit(self) -> int:
        end = time.perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        if name != HOOKS:
            self.calls[name] += 1
            self.self_ns[name] += duration - child
        if len(self.spans) < SPAN_CAP:
            parent = self._stack[-1][0] if self._stack else 0
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1
        return duration

    def begin_command(self, command: str) -> None:
        """Open the span of one CLI call (``antikahler.cli.main.main``)."""
        self.command = command
        self.counts[f"cli.commands.{command}"] += 1
        self.enter("cli.main")

    def end_command(self) -> None:
        self.exit()
        self.command = None

    def current(self):
        return self._stack[-1][1] if self._stack else None

    def aggregate(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "suite_wall_ns": dict(self.suite_wall_ns)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "dropped": self.dropped,
                       "aggregate": self.aggregate()}, handle)


def merge(total: dict, part: dict) -> None:
    """Add one aggregate (e.g. from a child process) into another."""
    for key in ("calls", "self_ns", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    maxima = total.setdefault("maxima", {})
    for name, value in part["maxima"].items():
        maxima[name] = max(maxima.get(name, 0), value)
    walls = total.setdefault("suite_wall_ns", {})
    for name, values in part["suite_wall_ns"].items():
        walls.setdefault(name, []).extend(values)


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None, on_error=None):
    """Span around fn; hook time is charged to a hidden child span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ctx = None
        if before is not None:
            tracer.enter(HOOKS)
            ctx = before(args, kwargs)
            tracer.exit()
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.exit()
            if on_error is not None:
                on_error()
            raise
        duration = tracer.exit()
        if after is not None:
            tracer.enter(HOOKS)
            after(args, kwargs, result, ctx, duration)
            tracer.exit()
        return result

    return wrapper


def _memo_state(structure, key: str) -> bool:
    """True when the structure's memo already holds ``key``."""
    cache = getattr(structure, "_cache", None)
    return cache is not None and key in cache


def install(tracer: Tracer):
    """Wrap the package's functions; returns a callable that undoes it."""
    for module_name, _ in SPANS.values():
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass  # a layer the package no longer has is not traced
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "antikahler" or name.startswith("antikahler."))]
    undo = []

    def replace_everywhere(orig, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    undo.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    hooks = _hooks(tracer)
    for span_name, (module_name, attr) in SPANS.items():
        module = sys.modules.get(module_name)
        if module is None:
            continue
        before, after, on_error = hooks.get(span_name, (None, None, None))
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            orig = cls.__dict__.get(method) if cls is not None else None
            if orig is None:
                continue
            if isinstance(orig, classmethod):
                wrapped = classmethod(_wrap(tracer, span_name, orig.__func__,
                                            before, after, on_error))
            elif span_name == "scalars.matmul":
                wrapped = _matmul_wrapper(tracer, cls, orig)
            else:
                wrapped = _wrap(tracer, span_name, orig, before, after, on_error)
            undo.append((cls, method, orig))
            setattr(cls, method, wrapped)
        else:
            orig = getattr(module, attr, None)
            if orig is not None:
                replace_everywhere(orig, _wrap(tracer, span_name, orig,
                                               before, after, on_error))

    geometry = sys.modules.get("antikahler.geometry")
    structure_cls = getattr(geometry, "AntiHermitianStructure", None)
    memo = structure_cls.__dict__.get("_memo") if structure_cls is not None else None
    if memo is not None:
        def counted_memo(self, key, builder):
            tracer.counts["geometry.memo.hits" if _memo_state(self, key)
                          else "geometry.memo.misses"] += 1
            return memo(self, key, builder)
        undo.append((structure_cls, "_memo", memo))
        structure_cls._memo = counted_memo

    verifier = sys.modules.get("antikahler.verifier")
    draw = getattr(verifier, "random_rational", None)
    if draw is not None:
        def counted_draw(*args, **kwargs):
            if tracer.current() == "verifier.random_invertible_matrix":
                tracer.counts["verifier.rim.draws"] += 1
            return draw(*args, **kwargs)
        replace_everywhere(draw, counted_draw)

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def _matmul_wrapper(tracer: Tracer, matrix_cls, orig):
    @functools.wraps(orig)
    def wrapper(self, other):
        if not isinstance(other, matrix_cls):
            return orig(self, other)
        tracer.enter("scalars.matmul")
        try:
            return orig(self, other)
        finally:
            tracer.exit()

    return wrapper


def _hooks(tracer: Tracer) -> dict:
    """Counters recorded around specific spans: name -> (before, after, on_error)."""
    counts, maxima = tracer.counts, tracer.maxima

    def structure_after(args, kwargs, result, ctx, duration):
        g = args[2] if len(args) > 2 else kwargs.get("g")
        maxima["geometry.g_den_bits"] = max(maxima["geometry.g_den_bits"],
                                            den_bits(getattr(g, "rows", ())))

    def levi_before(args, kwargs):
        return not _memo_state(args[0], "levi_civita")

    def levi_after(args, kwargs, result, built, duration):
        if built:
            counts["geometry.levi_civita.builds"] += 1
            bits = max((den_bits(m.rows) for m in getattr(result, "operators", ())),
                       default=0)
            maxima["geometry.gamma_den_bits"] = max(maxima["geometry.gamma_den_bits"], bits)

    def curvature_before(args, kwargs):
        conn = args[1] if len(args) > 1 else kwargs.get("conn")
        return conn is not None or not _memo_state(args[0], "curvature")

    def curvature_after(args, kwargs, result, built, duration):
        if not built:
            return
        counts["geometry.curvature.builds"] += 1
        if tracer.command == "curvature":
            counts["geometry.curvature.builds_in_curvature_cmd"] += 1
        ops = getattr(result, "_ops", None)
        if ops is not None:
            bits = max((den_bits(m.rows) for m in ops.values()), default=0)
            maxima["geometry.riemann_den_bits"] = max(
                maxima["geometry.riemann_den_bits"], bits)

    def suite_after(args, kwargs, result, ctx, duration):
        name = args[0] if args else kwargs.get("name")
        tracer.suite_wall_ns[name].append(duration)
        counts["verifier.checks"] += getattr(result, "checks", 0)

    def rim_before(args, kwargs):
        n = args[1] if len(args) > 1 else kwargs.get("n")
        counts["verifier.rim.cells"] += n * n

    def normalize_failed():
        counts["classify4.normalize_basis.failures"] += 1

    return {
        "geometry.structure_init": (None, structure_after, None),
        "geometry.levi_civita": (levi_before, levi_after, None),
        "geometry.curvature": (curvature_before, curvature_after, None),
        "verifier.run_suite": (None, suite_after, None),
        "verifier.random_invertible_matrix": (rim_before, None, None),
        "classify4.normalize_basis": (None, None, normalize_failed),
    }
