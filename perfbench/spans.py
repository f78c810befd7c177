"""Spans around calls into the program's public functions.

The benchmark records spans from its own files: it replaces a module's
reference to a public function with a wrapper that times each call. The
program itself is not changed. Only the traced run installs the wrappers,
so the end-to-end run measures the program as users call it.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    """In-memory span recorder.

    A span is [name, start_s, end_s, parent_index, attrs]. Spans opened while
    another is open are its children; self time is a span's duration minus
    the time its children cover. ``phase`` tags every span opened while it is
    set, so workload operations and the extra probe calls can be told apart.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "ops"
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> int:
        attrs["phase"] = self.phase
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4].update(attrs)
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Time every call of module.attr, if it exists, through whichever
        fahp module's reference the caller uses.

        Every reference to the function object in a loaded fahp module is
        replaced, so a caller that imported the name is traced too.
        describe(args, kwargs, result, error) returns extra span attributes.
        """
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                extra = describe(args, kwargs, result, error) if describe else {}
                if error is not None:
                    extra["error"] = type(error).__name__
                self.close(index, **extra)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "fahp":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._installed.append((mod, key, original))
                    setattr(mod, key, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def install_program_spans(tracer: Tracer, fahp) -> None:
    """Wrap the public functions each layer is entered through: the solver,
    the simplex (as the solver calls it), composition, documents, the
    deviation report and the grid oracle."""

    def block_attrs(args, kwargs, result, error):
        out = {"n": len(args[0].items)}
        if result is not None:
            out["probes"] = result.iterations
        return out

    def lp_attrs(args, kwargs, result, error):
        a_ub = args[1] if len(args) > 1 else kwargs.get("a_ub")
        a_eq = args[3] if len(args) > 3 else kwargs.get("a_eq")
        rows = sum(0 if a is None else len(a) for a in (a_ub, a_eq))
        return {"rows": rows, "status": getattr(result, "status", "raised")}

    def oracle_attrs(args, kwargs, result, error):
        return {"points": result.iterations if result is not None else 0}

    tracer.wrap(fahp.solver, "solve_fpp", "solver.solve_fpp", block_attrs)
    tracer.wrap(fahp.simplex, "solve_lp", "simplex.solve_lp", lp_attrs)
    tracer.wrap(fahp.solver, "oracle_solve", "solver.oracle_solve", oracle_attrs)
    tracer.wrap(fahp.composition, "compose_global", "composition.compose_global")
    tracer.wrap(fahp.documents, "load_study", "documents.load_study")
    tracer.wrap(fahp.documents, "serialize_results", "documents.serialize_results")
    tracer.wrap(fahp.reproduce, "build_report", "reproduce.build_report")
    tracer.wrap(fahp.reproduce, "format_report", "reproduce.format_report")
