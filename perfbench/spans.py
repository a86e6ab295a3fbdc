"""Span recorder for the traced run.

Spans are recorded from the benchmark's own side: `install` replaces the
public functions and methods of each milnor module with wrappers for the
duration of the traced phase and `uninstall` puts the originals back.
Nothing under src/ changes. A wrapper opens a span only when the call
crosses into its layer from another layer (or from the benchmark), so
calls a layer makes to itself add no spans and its self time stays whole.

Each span keeps its name, start, end, parent span and operation id in
flat arrays; `write` saves them when the run ends, `reduce` sums them
per span name and `layer_table` per layer.
"""

import gzip
import inspect
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    """Spans in flat arrays, one entry per span, plus the wrappers that
    record them while installed."""

    def __init__(self):
        self.names = []
        self._name_layer = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.elems = array("q")
        self.notes = Counter()
        self._stack = []
        self._layers = []
        self._op = -1
        self._undo = []

    def _name_id(self, layer, name):
        key = layer + "." + name
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
            self._name_layer.append(layer)
        return nid

    def _open(self, nid, layer, elems):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.elems.append(elems)
        self.end.append(0.0)
        self._stack.append(idx)
        self._layers.append(layer)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._layers.pop()

    # -- operations ---------------------------------------------------------

    def begin_op(self, kind):
        """Open the root span of one benchmark operation."""
        self._op += 1
        return self._open(self._name_id("bench", kind), "bench", 0)

    def end_op(self, idx):
        self._close(idx)

    def add_child_spans(self, spans):
        """Attach spans measured in a child process under the open span.
        Each is (layer, name, start, end) on this process's perf_counter
        clock; a span nests under the last one that contains it."""
        stack = [self._stack[-1]]
        for layer, name, t0, t1 in sorted(spans, key=lambda s: (s[2], -s[3])):
            while len(stack) > 1 and self.end[stack[-1]] < t1:
                stack.pop()
            idx = len(self.start)
            self.name.append(self._name_id(layer, name))
            self.parent.append(stack[-1])
            self.op.append(self._op)
            self.elems.append(0)
            self.start.append(t0)
            self.end.append(t1)
            stack.append(idx)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, layer, name, fn, elems=None, note=None):
        nid = self._name_id(layer, name)
        layers = self._layers
        opened = self._open
        closed = self._close

        def traced(*args, **kwargs):
            if layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = opened(nid, layer, elems(args) if elems else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if note is not None:
                note(self, args, kwargs, result, self.end[idx] - self.start[idx])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules, elems=None, notes=None, extra=(), skip=()):
        """Wrap the public functions and methods of each module in
        `modules` ({layer: module}), then rebind every reference to an
        original that any module holds, so cross-module calls such as
        glue -> deform.scan_min_sectional are traced too. `extra` lists
        (layer, module, attribute) bindings of outside code to wrap;
        `skip` names ("layer.qualname") to leave alone."""
        elems = elems or {}
        notes = notes or {}
        swap = {}

        def wrapped(layer, qual, fn):
            if layer + "." + qual in skip:
                return fn
            key = layer + "." + qual
            w = self.wrap(layer, qual, fn, elems.get(layer), notes.get(key))
            swap[id(fn)] = w
            return w

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._set(mod, attr, wrapped(layer, attr, obj))
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        qual = obj.__name__ + "." + mname
                        if isinstance(meth, (classmethod, staticmethod)):
                            new = type(meth)(wrapped(layer, qual, meth.__func__))
                        elif inspect.isfunction(meth):
                            new = wrapped(layer, qual, meth)
                        else:
                            continue
                        self._set(obj, mname, new)
        for layer, mod, attr in extra:
            self._set(mod, attr, wrapped(layer, attr, getattr(mod, attr)))
        for mod in list(modules.values()) + [m for _, m, _ in extra]:
            for attr, obj in list(vars(mod).items()):
                w = swap.get(id(obj))
                if w is not None and obj is not w:
                    self._set(mod, attr, w)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reduction ----------------------------------------------------------

    def reduce(self):
        """Per span-name totals: calls, inclusive seconds, self seconds and
        elements; self time is the span minus the spans directly under it."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            row[3] += self.elems[i]
        return dict(out)

    def descendant_time(self, root_name, layers):
        """Seconds spent in spans of `layers` directly below spans named
        `root_name` (children only, which is where cross-layer calls sit)."""
        root = self._ids.get(root_name)
        total = 0.0
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and self.name[p] == root and \
                    self._name_layer[self.name[i]] in layers:
                total += self.end[i] - self.start[i]
        return total

    def layer_table(self, reduced):
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for key, (calls, incl, own, _) in reduced.items():
            row = rows[key.split(".", 1)[0]]
            row[0] += calls
            row[1] += incl
            row[2] += own
        return dict(rows)

    def write(self, path):
        """One line per span: op, span id, parent id, name, start, end (s)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write("{}\t{}\t{}\t{}\t{:.9f}\t{:.9f}\n".format(
                    self.op[i], i, self.parent[i], self.names[self.name[i]],
                    self.start[i] - t0, self.end[i] - t0))
