"""Span tracer that wraps the public functions of the towergen modules.

The benchmark never edits the package.  ``Tracer.install`` replaces every
public module-level function of each towergen module with a timing wrapper,
wherever the function is bound: in its own module, in every module that
imported it with ``from .x import f``, and in module-level dicts and lists of
tuples (``cli.RUNNERS``, ``cli.ALL_SEGMENTS``).  ``uninstall`` puts the
originals back.

A span records name, start, end, parent span, op id and self time (its
duration minus the time its child calls cover).  Hot kernels -- everything in
``linalg`` plus ``microstates.point_distance`` and the recursive
``report.sanitize`` -- are too frequent for one span per call: they are
counted and timed per parent span instead.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter, defaultdict

HOT_MODULES = frozenset({"linalg"})
HOT_FUNCTIONS = frozenset({"microstates.point_distance", "report.sanitize"})


def _op_norm_gflop(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) != 2 or shape == (1, 1) or 0 in shape:
        return {}
    m, n = shape
    # A*A costs 8 m n^2 real flops; the Hermitian eigensolve about 16 n^3 / 3.
    return {"linalg.op_norm.gflop": (8.0 * m * n * n + 16.0 * n**3 / 3.0) / 1e9}


def _round_trip_squarings(args, kwargs, result):
    recovered, _ = result
    total = sum(
        step.iterations
        for level in recovered.levels
        for step in level.trace.steps
        if step.name.startswith("extract")
    )
    return {"recovery.squarings": total}


def _closure_rows(args, kwargs, result):
    return {"closure.basis_rows": result.size}


# Counters read from arguments or return values, keyed by the wrapped name.
HOOKS = {
    "linalg.op_norm": _op_norm_gflop,
    "recovery.round_trip": _round_trip_squarings,
    "closure.subalgebra_closure": _closure_rows,
}


class Tracer:
    def __init__(self):
        self.spans = []  # finished span records, in end order
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.errors = Counter()  # module -> exceptions escaping its functions
        self.counters = Counter()  # hook counters, e.g. recovery.squarings
        self.op_id = None
        self._next_id = 0
        self._frames = []  # open calls: [child_s, span record or None]
        self._span_frames = []  # open span records only
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name, hot):
        if hot:
            frame = [0.0, None]
        else:
            parent = self._span_frames[-1] if self._span_frames else None
            record = {
                "id": self._next_id,
                "name": name,
                "parent": None if parent is None else parent["id"],
                "op": self.op_id,
                "hot": {},
            }
            self._next_id += 1
            frame = [0.0, record]
            self._span_frames.append(record)
        self._frames.append(frame)
        return frame

    def _exit(self, name, frame, start, end):
        self._frames.pop()
        duration = end - start
        self_s = duration - frame[0]
        if self._frames:
            self._frames[-1][0] += duration
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += self_s
        record = frame[1]
        if record is None:
            if self._span_frames:
                hot = self._span_frames[-1]["hot"].setdefault(name, [0, 0.0, 0.0])
                hot[0] += 1
                hot[1] += duration
                hot[2] += self_s
            return
        self._span_frames.pop()
        record.update(start=start, end=end, self_s=self_s)
        self.spans.append(record)

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code, such as one op or one serialization."""
        frame = self._enter(name, hot=False)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, time.perf_counter())

    def _wrap(self, name, module, fn, hot):
        hook = HOOKS.get(name)
        enter, leave, errors, counters = self._enter, self._exit, self.errors, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, hot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                leave(name, frame, start, clock())
            if hook is not None:
                counters.update(hook(args, kwargs, result))
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, modules):
        """Wrap each public function of ``modules`` wherever those modules bind it."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    hot = short in HOT_MODULES or name in HOT_FUNCTIONS
                    wrappers[value] = self._wrap(name, short, value, hot)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._set(value, key, wrappers[item])
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if isinstance(item, tuple) and any(
                            inspect.isfunction(x) and x in wrappers for x in item
                        ):
                            swapped = tuple(
                                wrappers.get(x, x) if inspect.isfunction(x) else x for x in item
                            )
                            self._set(value, i, swapped)

    def _set(self, target, key, new):
        if isinstance(target, (dict, list)):
            self._patched.append((target, key, target[key]))
            target[key] = new
        else:
            self._patched.append((target, key, getattr(target, key)))
            setattr(target, key, new)

    def uninstall(self):
        for target, key, old in reversed(self._patched):
            if isinstance(target, (dict, list)):
                target[key] = old
            else:
                setattr(target, key, old)
        self._patched.clear()
