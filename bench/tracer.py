"""Run the wteleport CLI with a span around every call into its public functions.

Usage: python3 bench/tracer.py SPANS.npz INVOCATION_ID CLI_ARGS...

The package is imported from ``src/`` (put it on PYTHONPATH) and left
unedited.  Every public module-level function of ``states``, ``protocol``,
``concurrence``, ``analysis`` and ``cli``, plus the ``StateVector`` and
``DensityMatrix`` constructors (``__post_init__``), is wrapped, and every
name in the package that refers to one of those functions is rebound to the
wrapper, so calls made through ``from .states import measure`` are traced
as well.

A span is (name, parent span, start, end, repeat flag); the invocation id
is stored once per file.  Spans stay in memory and are written out with
``numpy.savez`` when the CLI returns.  The repeat flag is kept for the
functions in ``REPEAT_TRACKED`` and marks a call whose arguments already
appeared earlier in the same invocation, which is what a cache would hit.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("states", "protocol", "concurrence", "analysis", "cli")
CONSTRUCTORS = ("StateVector", "DensityMatrix")
REPEAT_TRACKED = frozenset(
    {"states.bell_basis", "states.computational_basis", "protocol.branch_map", "protocol.w_state"}
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.repeats = array("b")
        self.stack: list[int] = []
        self.rows = 0

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        seen = set() if name in REPEAT_TRACKED else None
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        repeats, stack, clock = self.repeats, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            repeat = 0
            if seen is not None:
                key = (args, tuple(kwargs.items()))
                repeat = key in seen
                seen.add(key)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            repeats.append(repeat)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self, package: str) -> None:
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
        states = sys.modules[f"{package}.states"]
        for cls_name in CONSTRUCTORS:
            cls = getattr(states, cls_name)
            cls.__post_init__ = self.wrap(f"states.{cls_name}.__post_init__", cls.__post_init__)

        sweep = sys.modules[f"{package}.analysis"].sweep
        traced_sweep = wrappers[sweep]

        def counted_sweep(*args, **kwargs):
            rows = traced_sweep(*args, **kwargs)
            self.rows += len(rows)
            return rows

        wrappers[sweep] = counted_sweep
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def dump(self, path: str, meta: dict) -> None:
        import numpy as np

        meta = dict(meta, names=self.names, rows=self.rows)
        np.savez(
            path,
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            repeat=np.frombuffer(self.repeats, dtype=np.int8),
            meta=np.array(json.dumps(meta)),
        )


def main() -> int:
    spans_path, invocation, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import wteleport.cli

    t2 = time.perf_counter()
    tracer = Tracer()
    tracer.install("wteleport")
    code = None
    try:
        code = wteleport.cli.main(argv)
    finally:
        tracer.dump(
            spans_path,
            {
                "invocation": invocation,
                "import_numpy_s": t1 - t0,
                "import_wteleport_s": t2 - t1,
                "exit_code": code,
            },
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
