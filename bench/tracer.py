"""Spans and counts around the public functions of each ``hgptsym`` module.

The tracer changes no program file.  ``install`` replaces each traced
function, in its own module and under every name another module imported it
as (``invariants.rational_rref``, ``hgpt.real_basis``, ...), with a wrapper
that records a span: name, start, end, parent span and query id.  Spans stay
in memory until ``write_spans``.  A traced function the program no longer
has is skipped and reports 0 calls.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from time import perf_counter

MODULES = ("cli", "symgroups", "harmonics", "polyalg", "invariants", "hgpt")

TRACED = (
    "cli.main",
    "symgroups.build_group", "symgroups.verify_group",
    "harmonics.real_basis", "harmonics.basis_change",
    "polyalg.Polynomial.compose_linear", "polyalg.rational_rref", "polyalg.rational_solve",
    "invariants.harmonic_space", "invariants.symmetric_product_space",
    "invariants.action_matrix", "invariants.averaging_projector",
    "invariants.invariant_subspace", "invariants.coefficient_pattern",
    "invariants.molien_series", "invariants.invariant_harmonics",
    "hgpt.rotation_matrix", "hgpt.rotate", "hgpt.forward_voltage",
    "hgpt.apply_pattern", "hgpt.hgpt_from_cgpt", "hgpt.cgpt_from_hgpt",
)

# Pure builders: the share of their calls whose arguments repeat is what a
# memo would skip.
REUSE = ("harmonics.real_basis", "harmonics.basis_change", "invariants.harmonic_space",
         "invariants.symmetric_product_space", "symgroups.build_group")

# Work counters: metric name -> (traced function, amount for one call).
COUNTERS = {
    "invariants.action_matrix.entries": ("invariants.action_matrix",
                                         lambda args, result: args[0].dim ** 2),
    "symgroups.elements": ("symgroups.build_group", lambda args, result: result.order),
}


class _Stats:
    __slots__ = ("calls", "self_s", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.keys = set()


def metric_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in TRACED:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in REUSE:
        units[name + ".reuse_frac"] = "1"
    for name in COUNTERS:
        units[name] = "count"
    for mod in MODULES:
        units[mod + ".errors"] = "count"
    units["trace.overhead_frac"] = "1"
    return units


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id or -1, query id)
        self.query_id = 0
        self.stats = {name: _Stats() for name in TRACED}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.errors = dict.fromkeys(MODULES, 0)
        self._stack = []         # [span id, time covered by children]
        self._next_id = 0
        self._last_error = None
        self._replaced = []      # (owner, attribute, original) for uninstall

    # -- installation -----------------------------------------------------

    def install(self):
        mods = [importlib.import_module("hgptsym")]
        mods += [importlib.import_module("hgptsym." + m) for m in MODULES]
        for name in TRACED:
            module, _, attr = name.partition(".")
            owner = importlib.import_module("hgptsym." + module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, module, original)
            targets = [owner] if path else []
            targets += [m for m in mods if any(v is original for v in vars(m).values())]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._replaced.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._replaced):
            setattr(target, key, original)
        self._replaced = []

    def _wrap(self, name, module, fn):
        stats = self.stats[name]
        counters = [(metric, amount) for metric, (target, amount) in COUNTERS.items()
                    if target == name]
        signature = inspect.signature(fn) if name in REUSE else None
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.errors[module] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                stats.calls += 1
                stats.self_s += (t1 - t0) - frame[1]
                tracer.spans.append((sid, name, t0, t1, parent, tracer.query_id))
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                stats.keys.add(repr(tuple(bound.arguments.items())))
            for metric, amount in counters:
                tracer.counters[metric] += amount(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything recorded so far (no overhead entry)."""
        out = {}
        for name, s in self.stats.items():
            out[name + ".calls"] = s.calls
            out[name + ".self_s"] = s.self_s
        for name in REUSE:
            s = self.stats[name]
            out[name + ".reuse_frac"] = 1.0 - len(s.keys) / s.calls if s.calls else 0.0
        out.update(self.counters)
        for mod, n in self.errors.items():
            out[mod + ".errors"] = n
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "query"],
                       "spans": self.spans}, f)
