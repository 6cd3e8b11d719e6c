"""Spans and per-layer counters recorded around leftex's public functions.

Wrapping happens from the outside: every wrapped function is replaced in
its own module and under every other name that is bound to the same object
in a leftex module (for example ``rules.map_windows`` is also bound as
``properties.map_windows``).  Nothing in the package itself is edited.

Self time is measured online with a stack: a span's self time is its
duration minus the durations of the spans it directly encloses.  Spans are
kept in memory and written out when the run ends; past ``SPAN_CAP`` detailed
spans, further ones are rolled up by (op, parent name, name), which keeps
memory bounded on decider runs with millions of calls.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

SPAN_CAP = 20_000
NUMPY_CUTOFF = 2048  # rules._NUMPY_CUTOFF at the seed commit


def _words(args, result, before):
    w = args[0]
    # cyclic_slice(w, offset, count) produces `count` symbols
    return {"symbols": args[2] if len(args) == 3 else len(w)}


def _canonical(args, result, before):
    return {"absorbed": len(args[2]) - len(result[2])}


def _window(args, result, before):
    return {"symbols": len(result)}


def _config_size(x):
    return len(x.left_period) + len(x.head) + len(x.right_period)


def _apply(args, result, before):
    return {"symbols": _config_size(args[1]), "max_head": len(result.head)}


def _map_windows(args, result, before):
    return {"symbols": len(result), "short": int(len(result) < NUMPY_CUTOFF)}


def _to_config(args, result, before):
    return {"digits": len(result.head) + len(result.right_period)}


def _from_config(args, result, before):
    return {"digits": len(args[0].head) + len(args[0].right_period)}


def _stream_pos(args):
    tell = getattr(args[0], "tell", None)
    return tell() if tell else 0


def _render(args, result, before):
    return {"bytes": _stream_pos(args) - before}


def _expansive(args, result, before):
    return {"seeds": result.seeds_checked, "unknown": int(result.status.value == "Unknown")}


#: (module, attribute, layer key, work counter) for every wrapped function;
#: a counter maps (args, result, value of PRE_HOOKS before the call) to counts
TARGETS = (
    ("words", "primitive_root", "words", _words),
    ("words", "cyclic_slice", "words", _words),
    ("words", "first_mismatch", "words", _words),
    ("configuration", "_canonical_parts", "configuration.canonicalize", _canonical),
    ("configuration", "Configuration.window", "configuration.window", _window),
    ("rules", "apply", "rules.apply", _apply),
    ("rules", "map_windows", "rules.map_windows", _map_windows),
    ("rules", "compose", "rules.compose", None),
    ("numeric", "rational_to_config", "numeric.rational_to_config", _to_config),
    ("numeric", "config_to_rational", "numeric.config_to_rational", _from_config),
    ("numeric", "verify_mul", "numeric.verify_mul", None),
    ("properties", "is_left_expansive", "properties.is_left_expansive", _expansive),
    ("properties", "find_left_expansive_dims", "properties.find_left_expansive_dims", None),
    ("properties", "classify_rapid", "properties.classify_rapid", None),
    ("properties", "estimate_spreading_speed", "properties.estimate_spreading_speed", None),
    ("properties", "left_spreading_witnesses", "properties.left_spreading_witnesses", None),
    ("dynamics", "aperiodicity_scan", "dynamics.aperiodicity_scan", None),
    ("dynamics", "limit_point_census", "dynamics.limit_point_census", None),
    ("dynamics", "recurrence_scan", "dynamics.recurrence_scan", None),
    ("dynamics", "detect_eventual_period", "dynamics.detect_eventual_period", None),
    ("render", "render_to", "render.render_to", _render),
    ("cli", "main", "cli.main", None),
)

PRE_HOOKS = {"render.render_to": _stream_pos}


class Tracer:
    """Collects spans and per-layer totals for one benchmark run."""

    def __init__(self):
        self.op = None
        self.stack = []  # [name, span id, start, child time]
        self.next_id = 0
        self.spans = []
        self.rollup = {}
        self.totals = {}  # layer key -> {"calls", "self_s", "incl_s", counters...}
        self.seen_queries = set()
        self.queries = 0
        self.repeats = 0

    def reset_pass(self):
        """Per-pass state: each pass models one fresh process."""
        self.seen_queries = set()

    def _record(self, key, start, end, child, counts):
        stack = self.stack
        dur = end - start
        if stack:
            stack[-1][3] += dur
        tot = self.totals.get(key)
        if tot is None:
            tot = self.totals[key] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
        tot["calls"] += 1
        tot["self_s"] += dur - child
        tot["incl_s"] += dur
        if counts:
            for k, v in counts.items():
                if k == "max_head":
                    tot[k] = max(tot.get(k, 0), v)
                else:
                    tot[k] = tot.get(k, 0) + v

    def wrap(self, key, name, fn, counter):
        stack = self.stack
        tracer = self
        pre = PRE_HOOKS.get(key)

        def wrapper(*args, **kwargs):
            before = pre(args) if pre else None
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1] if stack else None
            frame = [name, span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            tracer._span(frame, parent, end)
            if key == "properties.is_left_expansive":
                tracer._query(args)
            tracer._record(key, frame[2], end, frame[3],
                           counter(args, result, before) if counter else None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _span(self, frame, parent, end):
        name, span_id, start, child = frame
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op, span_id, parent[1] if parent else None, name,
                               start, end - start, end - start - child))
            return
        rkey = (self.op, parent[0] if parent else None, name)
        agg = self.rollup.get(rkey)
        if agg is None:
            agg = self.rollup[rkey] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - child

    def _query(self, args):
        automaton, dims = args[0], args[1]
        rule = automaton.rule
        qkey = (rule.table, rule.memory, rule.anticipation, dims.h, dims.d, dims.w)
        self.queries += 1
        if qkey in self.seen_queries:
            self.repeats += 1
        else:
            self.seen_queries.add(qkey)

    def write_to(self, out):
        """Spans as JSON lines, detailed ones first, then the roll-ups."""
        for op, sid, parent, name, start, dur, self_s in self.spans:
            out.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                  "start": start, "dur": dur, "self": self_s}) + "\n")
        for (op, parent, name), (calls, dur, self_s) in self.rollup.items():
            out.write(json.dumps({"op": op, "parent_name": parent, "name": name,
                                  "rolled_up": calls, "dur": dur, "self": self_s}) + "\n")


def install(lx, tracer):
    """Replace every target in the freshly imported modules with a wrapper."""
    modules = [m for name, m in sys.modules.items()
               if name == "leftex" or name.startswith("leftex.")]
    for modname, attr, key, counter in TARGETS:
        owner = getattr(lx, modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = vars(cls).get(meth)
            if orig is not None:
                setattr(cls, meth, tracer.wrap(key, attr, orig, counter))
            continue
        orig = getattr(owner, attr, None)
        if orig is None:
            continue
        wrapped = tracer.wrap(key, f"{modname}.{attr}", orig, counter)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
