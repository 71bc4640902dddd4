"""Run one ``qtpme`` CLI command in this process and record spans.

Usage::

    python perfbench/child.py SPANS_OUT WRAP -- <qtpme arguments>

With ``WRAP`` = 0 only ``cli.main`` is timed, which is the untraced
reference for the tracing overhead.  With ``WRAP`` = 1 the public functions
of ``core``, ``pme``, ``qt``, ``integrate``, ``monotonicity`` and ``yd`` are
wrapped from outside, together with the names ``qtpme.cli`` bound at import
and its ``_emit`` writer, so every call becomes a span.  Nothing in the
package is edited.  Spans stay in memory and are written once, as JSON
lines ``{id, name, parent, thread, start, duration, attrs, error}``, after
the command has finished.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

T0 = time.perf_counter()

TRACED_MODULES = ("core", "pme", "qt", "integrate", "monotonicity", "yd")


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name, fn, *args, attrs=None, **kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self.spans.append({
                "id": span_id, "name": name, "parent": parent,
                "thread": "main" if threading.get_ident() == self._main else "worker",
                "start": start - T0, "duration": duration,
                "attrs": attrs or {}, "error": error,
            })

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


_SIZE_ARGS = ("steps", "method", "resolution", "jobs")


def _call_attrs(signature, args, kwargs):
    """Work sizes of a call: ``n`` of its first argument that has one, plus
    the step, method, grid and job arguments where the function takes them."""
    attrs = {}
    for value in itertools.chain(args, kwargs.values()):
        n = getattr(value, "n", None)
        if isinstance(n, int):
            attrs["n"] = n
            break
    if any(name in signature.parameters for name in _SIZE_ARGS):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        for name in _SIZE_ARGS:
            if name in bound.arguments:
                value = bound.arguments[name]
                attrs[name] = getattr(value, "value", value)
    res = attrs.pop("resolution", None)
    if res is not None:
        attrs["cells"] = res * res if isinstance(res, int) else int(res[0]) * int(res[1])
    return attrs


def install(tracer, cli, recorded_calls):
    """Wrap the package's public functions in every traced module namespace
    and in ``qtpme.cli``; returns the original functions by span name."""
    wrappers = {}
    originals = {}

    def wrapper_for(fn):
        if id(fn) in wrappers:
            return wrappers[id(fn)]
        name = f"{fn.__module__.removeprefix('qtpme.')}.{fn.__name__}"
        originals[name] = fn
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = _call_attrs(signature, args, kwargs)
            if name == "monotonicity.sweep":
                recorded_calls.append((args, kwargs))
            return tracer.run(name, fn, *args, attrs=attrs, **kwargs)

        wrappers[id(fn)] = traced
        return traced

    # qtpme.integrate is the function re-exported by the package, so the
    # module is reached through sys.modules.
    modules = [sys.modules[f"qtpme.{name}"] for name in TRACED_MODULES]
    for module in modules + [cli]:
        for attr, value in list(vars(module).items()):
            if (inspect.isfunction(value) and value.__module__.startswith("qtpme.")
                    and value.__module__ != "qtpme.cli" and not attr.startswith("_")):
                setattr(module, attr, wrapper_for(value))
    emit = cli._emit

    def traced_emit(text, out_path):
        return tracer.run("cli._emit", emit, text, out_path, attrs={"chars": len(text)})

    cli._emit = traced_emit
    return originals


def main(argv):
    spans_out, wrap, sep, *qtpme_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py SPANS_OUT WRAP -- <qtpme arguments>")
    tracer = Tracer()
    cli = tracer.run("import", lambda: __import__("qtpme.cli", fromlist=["main"]))
    recorded = []
    originals = install(tracer, cli, recorded) if wrap == "1" else {}
    code = tracer.run("cli.main", cli.main, qtpme_args)
    if code == 0 and recorded:
        # Same sweep outside main, single-threaded: does the pool pay?
        args, kwargs = recorded[0]
        kwargs = dict(kwargs, jobs=1)
        tracer.run("monotonicity.sweep.jobs1", originals["monotonicity.sweep"], *args, **kwargs)
    tracer.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
