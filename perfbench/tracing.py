"""In-memory span tracer for the traced benchmark run.

`install` wraps functions of the nlpf modules without editing them: it
patches every module-level name that refers to a traced function (so
`nlpf.stepper.assemble_diffusion` and `nlpf.diagnostics.assemble_diffusion`
both record) and the class attribute of each traced method (such as
`NonlocalCoupling.b_field`). A target that no longer exists is skipped, so
the tracer keeps working when a later change renames or removes one; the
matching metrics then read 0.

A span is `[name, start, end, parent]`, with `parent` the index of the
enclosing span or -1. Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# span name -> (module, function); every nlpf module global bound to that
# function object is patched.
FUNCTIONS = {
    "config.load_config": ("nlpf.config", "load_config"),
    "config.build_components": ("nlpf.config", "build_components"),
    "longrange.build_coupling": ("nlpf.longrange", "build_coupling"),
    "stepper.run": ("nlpf.stepper", "run"),
    "stepper.rhs_ell": ("nlpf.stepper", "rhs_ell"),
    "stepper.step_chi": ("nlpf.stepper", "step_chi"),
    "stepper.step_theta": ("nlpf.stepper", "step_theta"),
    "geometry.assemble_diffusion": ("nlpf.geometry", "assemble_diffusion"),
    "snapshots.write_trajectory": ("nlpf.snapshots", "write_trajectory"),
    "snapshots.read_trajectory": ("nlpf.snapshots", "read_trajectory"),
    "diagnostics.calibrate_rho": ("nlpf.diagnostics", "calibrate_rho"),
}

# span name -> (module, method); the method is patched on every class of the
# module that defines it.
METHODS = {
    "longrange.b_field": ("nlpf.longrange", "b_field"),
    "longrange.B_field": ("nlpf.longrange", "B_field"),
    "longrange.pairing_residual": ("nlpf.longrange", "pairing_residual"),
    "thermo.e_ext": ("nlpf.thermo", "e_ext"),
    "thermo.cv_ext": ("nlpf.thermo", "cv_ext"),
    "convex.prox": ("nlpf.convex", "prox"),
}

# The stepper's linear solve is whichever of these scipy solvers
# `nlpf.stepper` imports, so a change of solver is still traced.
LINEAR_SOLVE = "stepper.linear_solve"
LINEAR_SOLVERS = (
    ("scipy.sparse.linalg", ("spsolve", "splu", "factorized", "cg", "minres",
                             "spsolve_triangular")),
    ("scipy.linalg", ("solve", "solveh_banded", "solve_banded", "cho_solve",
                      "cho_factor", "lu_solve", "lu_factor")),
)


class Tracer:
    """Records spans of one phase; `root` is the phase's own span."""

    def __init__(self, root: str):
        self.spans = []
        self._stack = []
        self._root = root

    def __enter__(self):
        self._open(self._root)
        return self

    def __exit__(self, *exc):
        self._close()
        return False

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced


class NullTracer:
    """Stand-in for untraced runs: same interface, records nothing."""

    _null = contextlib.nullcontext()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def span(self, name):
        return self._null


def _nlpf_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "nlpf" or key.startswith("nlpf."))]


def _patch_globals(tracer, name, fn, patches, modules=None):
    for module in modules if modules is not None else _nlpf_modules():
        if module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                patches.append((module, attr, value))
                setattr(module, attr, tracer.wrap(name, fn))


def install(tracer):
    """Patch every traced target to record into ``tracer``.

    Returns the list of patches for `uninstall` and the span names that
    found no target.
    """
    patches, missing = [], []
    for name, (modname, attr) in FUNCTIONS.items():
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is None:
            missing.append(name)
            continue
        _patch_globals(tracer, name, fn, patches)
    for name, (modname, attr) in METHODS.items():
        module = sys.modules.get(modname)
        owners = [cls for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == modname
                  and attr in vars(cls)] if module else []
        if not owners:
            missing.append(name)
        for cls in owners:
            method = vars(cls)[attr]
            patches.append((cls, attr, method))
            setattr(cls, attr, tracer.wrap(name, method))
    solvers = [getattr(sys.modules[mod], fn) for mod, names in LINEAR_SOLVERS
               if mod in sys.modules
               for fn in names if hasattr(sys.modules[mod], fn)]
    before = len(patches)
    for fn in solvers:
        _patch_globals(tracer, LINEAR_SOLVE, fn, patches,
                       modules=[sys.modules.get("nlpf.stepper")])
    if len(patches) == before:
        missing.append(LINEAR_SOLVE)
    return patches, missing


def uninstall(patches):
    for owner, attr, value in reversed(patches):
        setattr(owner, attr, value)


def summarize(spans):
    """Per span name: {"calls", "total_s", "self_s"}."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[i]
    return out


def write_spans(path, spans):
    """Write spans as CSV: index, name, start, end, parent."""
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
