"""Timing and tracing from outside the program, by rebinding its public names.

``VerifyHooks`` rebinds ``verify._run_item`` and ``verify._execute`` so that
every verify work item is timed where it runs, in this process or in a pool
worker, and comes back with its result.  ``Tracer`` adds spans and counts:
it rebinds each traced function in every rankweight module that holds it
(``from .ranksupport import restriction`` leaves copies in ``weights``,
``verify`` and ``cli``), the entries of ``verify._CHECKS``, the ``Subspace``
methods and, in a separate counting pass, the ``FieldElement`` operators;
``Tracer.restore`` undoes all of it.  The verify hooks stay for the life of
the process.  No file of the program is touched.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import defaultdict

perf_counter = time.perf_counter

# one instance per process, reachable from functions a pool worker unpickles
ACTIVE = None


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "rankweight" or name.startswith("rankweight.")]


class Patches:
    """Attribute replacements with their undo list."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                          else getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement):
        """Replace ``original`` under every name and _CHECKS entry that holds it."""
        from rankweight import verify

        for mod in _program_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
        for key, value in list(verify._CHECKS.items()):
            if value is original:
                self.undo.append((verify._CHECKS, key, value))
                verify._CHECKS[key] = replacement

    def restore(self):
        for owner, attr, value in reversed(self.undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self.undo.clear()


class VerifyHooks:
    """Per-item latency for run_verify, in-process and across a worker pool."""

    def __init__(self, probe=None):
        from rankweight import verify

        self.main_pid = os.getpid()
        self.latencies = []  # (start, seconds) per item
        self.tracer = None
        self.probe = probe
        self.orig_run_item = verify._run_item
        self.orig_execute = verify._execute
        verify._run_item = run_item
        verify._execute = execute


def run_item(item):
    """Replacement for verify._run_item: the result, its timing, trace delta and probes."""
    hooks = ACTIVE
    tracer = hooks.tracer
    in_worker = os.getpid() != hooks.main_pid
    if in_worker:  # drop what the worker inherited at fork
        if tracer is not None:
            tracer.keep_spans = False
            tracer.take_delta()
        if hooks.probe is not None:
            hooks.probe.take()
    t0 = perf_counter()
    result = hooks.orig_run_item(item)
    dt = perf_counter() - t0
    delta = None
    if tracer is not None:
        tracer.counters["verify.items"] += 1
        if in_worker:
            delta = tracer.take_delta()
    probes = None
    if hooks.probe is not None:
        hooks.probe.maybe()
        if in_worker:
            probes = hooks.probe.take()
    return result, t0, dt, delta, probes, os.getpid()


def execute(items, workers):
    """Replacement for verify._execute: unwraps run_item's extras."""
    hooks = ACTIVE
    t0 = perf_counter()
    out = hooks.orig_execute(items, workers)
    wall = perf_counter() - t0
    results = []
    busy = 0.0
    pooled = False
    for result, start, dt, delta, probes, pid in out:
        results.append(result)
        hooks.latencies.append((start, dt))
        busy += dt
        pooled = pooled or pid != hooks.main_pid
        if delta is not None:
            hooks.tracer.merge_delta(delta)
        if probes:
            hooks.probe.samples.extend(probes)
    if pooled and hooks.tracer is not None:
        hooks.tracer.counters["verify.pool.starts"] += 1
        hooks.tracer.seconds["verify.pool.overhead"] += wall - busy / workers
    return results


class Tracer:
    """Spans (name, start, end, parent, root) kept in arrays; calls and self time per name."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_root = array("i")
        self.keep_spans = True
        self.stack = []  # frames [span index, root index, child seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.seconds = defaultdict(float)
        self.last_path = None
        self.witness_depth = 0
        self.patches = Patches()

    # -- span recording ---------------------------------------------------

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, nid, t0):
        stack = self.stack
        idx = -1
        root = stack[-1][1] if stack else -1
        if self.keep_spans:
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_start.append(t0)
            self.span_end.append(0.0)
            self.span_parent.append(stack[-1][0] if stack else -1)
            if root < 0:
                root = idx
            self.span_root.append(root)
        frame = [idx, root, 0.0]
        stack.append(frame)
        return frame

    def _close(self, name, frame, t0, t1):
        self.stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if frame[0] >= 0:
            self.span_end[frame[0]] = t1

    def span(self, name, fn, rows=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if rows is not None:
                tracer.counters[name + ".rows"] += rows(args)
            t0 = perf_counter()
            frame = tracer._open(nid, t0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, t0, perf_counter())

        return traced

    def span_generator(self, name, fn):
        """Each resumption of the generator is one span; yields are counted."""
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                frame = tracer._open(nid, t0)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(name, frame, t0, perf_counter())
                tracer.counters[name + ".yielded"] += 1
                yield item

        return traced

    # -- installation -----------------------------------------------------

    def install_spans(self):
        from rankweight import cli, documents, fields, linalg, polys, ranksupport, verify, weights

        p = self.patches
        p.rebind(fields.make_tower, self.span("fields.make_tower", fields.make_tower))
        for attr, value in list(vars(polys).items()):
            if callable(value) and getattr(value, "__module__", None) == polys.__name__:
                p.rebind(value, self.span("polys", value))

        from_vectors = linalg.Subspace.__dict__["from_vectors"].__func__
        p.set(linalg.Subspace, "from_vectors", classmethod(
            self.span("linalg.reduce", from_vectors, rows=lambda a: len(a[3]))))
        p.rebind(linalg.rref_canonical, self.span(
            "linalg.reduce", linalg.rref_canonical, rows=lambda a: len(a[0].rows)))
        p.rebind(linalg.subspace_sum, self.span(
            "linalg.reduce", linalg.subspace_sum, rows=lambda a: a[0].dim + a[1].dim))
        p.rebind(linalg.kernel, self.span("linalg.kernel", linalg.kernel))
        p.rebind(linalg.subspace_intersection,
                 self.span("linalg.intersection", linalg.subspace_intersection))
        p.rebind(linalg.contains, self.span("linalg.contains", linalg.contains))
        p.rebind(linalg.enumerate_subspaces,
                 self.span_generator("linalg.enumerate", linalg.enumerate_subspaces))

        for name in RANKSUPPORT_FUNCTIONS:
            fn = getattr(ranksupport, name)
            p.rebind(fn, self.span("ranksupport." + name, fn))

        for name in WEIGHT_FUNCTIONS:
            fn = getattr(weights, name)
            if name == "find_witness":
                wrapped = self._track_witness(self.span("weights.find_witness", fn))
            elif name == "verify_witness":
                wrapped = self._track_accept(self.span("weights.verify_witness", fn))
            else:
                wrapped = self.span("weights." + name, fn)
            p.rebind(fn, wrapped)
        for path in WITNESS_PATHS:
            attr = "_witness_" + path
            p.set(weights, attr, self._mark_path(path, getattr(weights, attr)))

        p.rebind(documents.parse_code_file, self.span("documents.parse", documents.parse_code_file))
        for name in ("render_code_document", "document_to_json", "document_from_code", "tower_to_json"):
            fn = getattr(documents, name)
            p.rebind(fn, self.span("documents.render", fn))

        for name, fn in list(verify._CHECKS.items()):
            p.rebind(fn, self.span("verify.check." + name, fn))
        for fn in (verify.exhaustive_codes, verify.random_codes):
            p.rebind(fn, self.span("verify.population", fn))
        p.rebind(cli.main, self.span("cli.main", cli.main))

    def install_counters(self):
        """Count FieldElement operators; a pass of its own, without spans."""
        from rankweight.fields import FieldElement

        for attr, key in FIELD_OPERATORS.items():
            fn = FieldElement.__dict__[attr]
            self.patches.set(FieldElement, attr, self._count(key, fn))

    def restore(self):
        self.patches.restore()

    def _count(self, key, fn):
        counters = self.counters

        def counted(*args):
            counters[key] += 1
            return fn(*args)

        return counted

    def _mark_path(self, path, fn):
        tracer = self

        def marked(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out is not None:
                tracer.last_path = path
            return out

        return marked

    def _track_witness(self, fn):
        """Count the path that produced each outermost find_witness answer."""
        tracer = self

        def tracked(*args, **kwargs):
            tracer.witness_depth += 1
            if tracer.witness_depth == 1:
                tracer.last_path = None
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.witness_depth -= 1
            if tracer.witness_depth == 0:
                # the zero code gets its (empty-sum) witness before any path runs
                path = "none" if out is None else (tracer.last_path or "extended")
                tracer.counters["weights.witness_path." + path] += 1
            return out

        return tracked

    def _track_accept(self, fn):
        tracer = self

        def tracked(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out:
                tracer.counters["weights.verify_witness.accepted"] += 1
            return out

        return tracked

    # -- pool workers -----------------------------------------------------

    def take_delta(self):
        delta = (dict(self.calls), dict(self.self_s), dict(self.counters), dict(self.seconds))
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
        self.seconds.clear()
        return delta

    def merge_delta(self, delta):
        for target, source in zip((self.calls, self.self_s, self.counters, self.seconds), delta):
            for key, value in source.items():
                target[key] += value

    # -- output -----------------------------------------------------------

    def write_spans(self, path_stem):
        """Spans as five binary arrays plus a JSON index naming them."""
        arrays = [("name", self.span_name), ("start", self.span_start), ("end", self.span_end),
                  ("parent", self.span_parent), ("root", self.span_root)]
        with open(path_stem + ".bin", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        index = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [{"field": f, "typecode": a.typecode, "itemsize": a.itemsize} for f, a in arrays],
            "note": "arrays are stored one after another; parent and root are span indices, -1 for none",
        }
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(index, fh)


RANKSUPPORT_FUNCTIONS = ("rank_support_vec", "rank_support_code", "restriction", "dual", "closure",
                         "closure_oracle", "trace_image", "is_extended", "is_rank_degenerate")
WEIGHT_FUNCTIONS = ("weight_dRr", "weight_Mr", "weight_OSr", "weight_Dr", "maxwt", "rank_distance",
                    "find_witness", "verify_witness")
WITNESS_PATHS = ("extended", "split", "exhaustive", "random")
FIELD_OPERATORS = {
    "__add__": "fields.add.calls", "__radd__": "fields.add.calls", "__sub__": "fields.add.calls",
    "__neg__": "fields.add.calls", "__mul__": "fields.mul.calls", "__rmul__": "fields.mul.calls",
    "inverse": "fields.inv.calls", "__truediv__": "fields.inv.calls",
}
