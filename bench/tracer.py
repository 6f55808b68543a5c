"""In-process tracing of harmonia's public functions.

The tracer replaces each public function of the traced modules with a
wrapper at every harmonia namespace that holds a reference to it, so
calls made inside the package are seen too (``rigid_fit`` as imported by
``central_config``, ``moment_of_inertia`` as imported by ``saari`` and
``cli``, ...). The package source is never modified: ``install`` patches
module attributes and ``uninstall`` puts the originals back.

Each call becomes one span: name, start, end, parent span and the id of
the benchmark operation that caused it. Spans live in flat in-memory
arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("core", "dynamics", "central_config", "saari", "cli", "sampling")

# Private kernels the integrator calls directly; without them the
# Newtonian pair work would show up only as integrate self time.
EXTRA_FUNCTIONS = {"core": ("_gradient_rows",)}


class _CountingSink:
    """Text sink proxy that counts the rows and bytes written through it."""

    def __init__(self, sink, counters):
        self._sink = sink
        self._counters = counters

    def write(self, text):
        self._counters["cli.csv_rows"] += text.count("\n")
        self._counters["cli.csv_bytes"] += len(text.encode("utf-8"))
        return self._sink.write(text)


def _integrate_steps(args, kwargs):
    spec = kwargs.get("integrator", args[1] if len(args) > 1 else None)
    return max(1, int(round(spec.t_end / spec.dt)))


class Tracer:
    """Records one span per call of every wrapped harmonia function."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_error = array("b")
        self.counters = {"dynamics.steps": 0, "dynamics.samples": 0,
                         "cli.csv_rows": 0, "cli.csv_bytes": 0}
        self.op_id = -1
        self.is_paused = False
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own output checks)."""
        self.is_paused = True
        try:
            yield
        finally:
            self.is_paused = False

    def begin_operation(self) -> int:
        """Start a new benchmark operation; later spans carry its id."""
        self.op_id += 1
        return self.op_id

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end, span_error = self.span_start, self.span_end, self.span_error
        counters = self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.is_paused:
                return fn(*args, **kwargs)
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(tracer.op_id)
            span_start.append(0.0)
            span_end.append(0.0)
            span_error.append(0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span_error[index] = 1
                raise
            finally:
                span_end[index] = clock()
                span_start[index] = start
                stack.pop()

        if name == "dynamics.integrate":
            def integrate(*args, **kwargs):
                traj = wrapper(*args, **kwargs)
                counters["dynamics.steps"] += _integrate_steps(args, kwargs)
                counters["dynamics.samples"] += len(traj)
                return traj
            return integrate
        if name == "cli.write_trajectory_csv":
            def write_trajectory_csv(traj, sink):
                return wrapper(traj, _CountingSink(sink, counters))
            return write_trajectory_csv
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules, everywhere it is bound."""
        package = sys.modules["harmonia"]
        namespaces = [package] + [sys.modules[f"harmonia.{m}"] for m in TRACED_MODULES]
        for short in TRACED_MODULES:
            module = sys.modules[f"harmonia.{short}"]
            names = [n for n, obj in vars(module).items()
                     if inspect.isfunction(obj) and obj.__module__ == module.__name__
                     and not n.startswith("_")]
            names.extend(EXTRA_FUNCTIONS.get(short, ()))
            for fname in sorted(names):
                original = getattr(module, fname)
                wrapped = self._wrap(f"{short}.{fname}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapped)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def mark(self) -> tuple:
        """Position in the span log and counters, to aggregate what follows."""
        return len(self.span_name), dict(self.counters)

    def calls_by_operation(self, since: tuple) -> dict:
        """Calls per function for each operation id recorded after ``since``."""
        out = {}
        for i in range(since[0], len(self.span_name)):
            calls = out.setdefault(self.span_op[i], {})
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
        return out

    def truncate(self, since: tuple) -> None:
        """Drop the spans recorded after ``since``; counters are kept."""
        first = since[0]
        for column in (self.span_name, self.span_parent, self.span_op,
                       self.span_start, self.span_end, self.span_error):
            del column[first:]

    def summary(self, since: tuple) -> dict:
        """Per-function calls, inclusive ms and self ms for spans after ``since``.

        Self time is a span's duration minus the durations of its direct
        child spans. Inclusive time skips spans nested inside a span of the
        same function, so recursion is not counted twice.
        """
        first, counters0 = since
        stats = {}
        child_time = {}
        names, parent = self.span_name, self.span_parent
        start, end, error = self.span_start, self.span_end, self.span_error
        for i in range(len(names) - 1, first - 1, -1):
            duration = end[i] - start[i]
            p = parent[i]
            if p >= first:
                child_time[p] = child_time.get(p, 0.0) + duration
            entry = stats.setdefault(self.names[names[i]],
                                     {"calls": 0, "errors": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["errors"] += error[i]
            entry["self_s"] += duration - child_time.pop(i, 0.0)
            nested = False
            while p >= first:
                if names[p] == names[i]:
                    nested = True
                    break
                p = parent[p]
            if not nested:
                entry["s"] += duration
        counters = {k: v - counters0[k] for k, v in self.counters.items()}
        return {"functions": stats, "counters": counters,
                "spans": len(names) - first}

    def write(self, path, origin: float) -> None:
        """Write every recorded span to a compressed ``.npz`` file.

        Columns: ``name`` (index into ``names``), ``parent`` (span index or
        -1), ``op`` (operation id), ``start_us`` and ``end_us`` (microseconds
        from ``origin``) and ``error`` (1 when the call raised).
        """
        def micros(column):
            return (np.frombuffer(column, dtype=np.float64) - origin) * 1e6

        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start_us=micros(self.span_start), end_us=micros(self.span_end),
            error=np.frombuffer(self.span_error, dtype=np.int8))
