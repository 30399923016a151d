"""Spans and counters recorded around calls into the program's public functions.

The program carries no tracing of its own, so the benchmark wraps the
public functions it names and rebinds every module-level reference to
them inside the ``poseonly`` package while a traced scene runs. That
catches calls the program makes internally (``cli`` calling
``problem_io.read_problem``, ``evaluate`` calling ``assemble_system``)
as well as the benchmark's own calls. Untraced scenes run with nothing
installed.

A span records its inclusive time and its self time (inclusive minus
the spans nested in it); spans that have no enclosing span add up to
``top_level_s``, the part of a scene some layer covers.
"""

import contextlib
import sys
import time
from collections import defaultdict

# Every time the benchmark reports, except the wall time of a scene, is CPU
# time (user + system) of its own single-threaded process. On a virtual
# machine whose host takes the vCPU away now and then (steal time in
# /proc/stat), wall time counts those pauses and CPU time does not; the
# pipeline never waits on anything else, so its CPU time is the wall time
# it takes on a core of its own.
clock = time.process_time


class Tracer:
    def __init__(self):
        self._stack = []
        self.reset()

    def reset(self) -> None:
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.gauges = {}
        self.top_level_s = 0.0

    def span(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            nested = [0.0]
            self._stack.append(nested)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._stack.pop()
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - nested[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
            if on_result is not None:
                on_result(self.gauges, result)
            return result
        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted


@contextlib.contextmanager
def installed(wrappers: dict):
    """Rebind every reference to each original function in ``wrappers``
    (original -> wrapper) inside the ``poseonly`` modules; undo on exit."""
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "poseonly" or name.startswith("poseonly.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(value) if callable(value) else None
            if wrapper is not None:
                setattr(module, attr, wrapper)
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
