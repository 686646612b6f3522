"""Span tracing from outside the program, for the per-layer metrics.

A traced pass replaces each public ``sgfem1d`` name where its caller looks
it up (``sgfem1d.sweep.assemble`` on the command-line path,
``sgfem1d.assemble`` on the library path) by a wrapper that records a span
(name, start, end, parent) and the counters of that call.  Self time is a
span's duration minus the time its child spans cover.

``quadrature`` and ``basis.eval_solution`` are only called from inside
``assembly`` and ``errors``; their time is counted in those callers and they
stay unmeasured until the program traces itself.
"""

import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

from workloads import eigen_checks

BLOCK_ACCESSORS = (("sgfem1d.assembly", "BlockSystem.K", "assembly.BlockSystem"),
                   ("sgfem1d.assembly", "BlockSystem.M", "assembly.BlockSystem"),
                   ("sgfem1d.assembly", "BlockSystem.F", "assembly.BlockSystem"))


def _library(*names):
    return tuple(("sgfem1d", attr, span) for span, attr in names)


# Call sites wrapped in each workload: (module, attribute, span).  Every span
# named here must be hit by a traced pass of that workload.
SITES = {
    "source_ladder": (
        ("sgfem1d.cli", "main", "cli.main"),
        ("sgfem1d.sweep", "run_source_sweep", "sweep.run_source_sweep"),
        ("sgfem1d.cli", "emit_report", "sweep.emit_report"),
        ("sgfem1d.sweep", "build_uniform_mesh", "mesh.build_uniform_mesh"),
        ("sgfem1d.sweep", "build_space", "basis.build_space"),
        ("sgfem1d.sweep", "assemble", "assembly.assemble"),
        ("sgfem1d.sweep", "solve_spd", "densela.solve_spd"),
        ("sgfem1d.sweep", "h1_semi_error", "errors.h1_semi_error"),
        ("sgfem1d.sweep", "l2_error", "errors.l2_error"),
        ("sgfem1d.sweep", "fit_rate", "errors.fit_rate"),
    ) + BLOCK_ACCESSORS,
    "eigen_ladder": _library(
        ("mesh.build_uniform_mesh", "build_uniform_mesh"),
        ("basis.build_space", "build_space"),
        ("assembly.assemble", "assemble"),
        ("densela.generalized_eigs", "generalized_eigs"),
        ("errors.h1_semi_error", "h1_semi_error"),
        ("errors.l2_error", "l2_error"),
        ("errors.align_eigenfunction", "align_eigenfunction"),
        ("errors.fit_rate", "fit_rate"),
        ("analytic.solve_matching_system", "solve_matching_system"),
        ("analytic.exact_eigenfunction", "exact_eigenfunction"),
    ) + BLOCK_ACCESSORS[:2],
    "large_cell": _library(
        ("mesh.build_uniform_mesh", "build_uniform_mesh"),
        ("basis.build_space", "build_space"),
        ("assembly.assemble", "assemble"),
        ("densela.solve_spd", "solve_spd"),
        ("densela.generalized_eigs", "generalized_eigs"),
        ("densela.scaled_condition_number", "scaled_condition_number"),
        ("errors.h1_semi_error", "h1_semi_error"),
        ("analytic.solve_matching_system", "solve_matching_system"),
    ) + BLOCK_ACCESSORS,
}

UNMEASURED_LAYERS = ("quadrature", "basis.eval_solution")

SELF_TIMED = ("cli.main", "sweep.run_source_sweep", "sweep.emit_report",
              "mesh.build_uniform_mesh", "basis.build_space",
              "assembly.assemble", "assembly.BlockSystem",
              "densela.solve_spd", "densela.generalized_eigs",
              "densela.scaled_condition_number",
              "errors.h1_semi_error", "errors.l2_error",
              "errors.align_eigenfunction", "errors.fit_rate",
              "analytic.solve_matching_system", "analytic.exact_eigenfunction")

NORMS = ("errors.h1_semi_error", "errors.l2_error", "errors.align_eigenfunction")

# (metric, unit, better, spans it is derived from)
PER_LAYER = tuple((f"{s}.self_s", "s", "lower", (s,)) for s in SELF_TIMED) + (
    ("assembly.ndof_total", "count", "lower", ("assembly.assemble",)),
    ("assembly.half_bandwidth_max", "count", "lower", ("assembly.assemble",)),
    ("assembly.dense_bytes_computed", "bytes", "lower", ("assembly.assemble",)),
    ("densela.solve_spd.flops_computed", "flop", "lower", ("densela.solve_spd",)),
    ("densela.generalized_eigs.flops_computed", "flop", "lower",
     ("densela.generalized_eigs",)),
    ("densela.scaled_condition_number.flops_computed", "flop", "lower",
     ("densela.scaled_condition_number",)),
    ("densela.generalized_eigs.useful_ratio", "ratio", "higher",
     ("densela.generalized_eigs",)),
    ("densela.scaled_condition_number.useful_ratio", "ratio", "higher",
     ("densela.scaled_condition_number",)),
    ("densela.solve_spd.rel_residual_max", "ratio", "lower", ("densela.solve_spd",)),
    ("densela.generalized_eigs.residual_max", "ratio", "lower",
     ("densela.generalized_eigs",)),
    ("densela.generalized_eigs.m_orth_defect_max", "ratio", "lower",
     ("densela.generalized_eigs",)),
    ("errors.align_eigenfunction.failed", "count", "lower",
     ("errors.align_eigenfunction",)),
    ("errors.quad_points_computed", "count", "lower", NORMS),
    ("analytic.solve_matching_system.roots", "count", "lower",
     ("analytic.solve_matching_system",)),
    ("trace.overhead_s", "s", "lower", ()),
)


def _half_bandwidth(system):
    """Largest |i - j| over the nonzeros of K with FEM rows first and
    enrichment rows after, as the library orders them."""
    nf = system.K_FF.shape[0]
    i, j = np.nonzero(system.K_FF)
    hb = int(np.abs(i - j).max()) if i.size else 0
    i, e = np.nonzero(system.K_FE)
    if i.size:
        hb = max(hb, int((nf + e - i).max()))
    return hb


def _norm_points(space):
    mesh = space.mesh
    return (mesh.N + (0 if mesh.fitting else 1)) * (space.p + 4)


def _count(tracer, span, args, result):
    """Counters of one completed call, computed after its span closed."""
    c = tracer.counters
    if span == "assembly.assemble":
        n = result.K_FF.shape[0] + result.K_EE.shape[0]
        c["assembly.ndof_total"] += n
        c["assembly.dense_bytes_computed"] += 2 * 8 * n * n  # dense K and M
        tracer.maximum("assembly.half_bandwidth_max", _half_bandwidth(result))
    elif span == "densela.solve_spd":
        K, F = args[0], args[1]
        n = len(F)
        c["densela.solve_spd.flops_computed"] += n ** 3 / 3 + 2 * n ** 2
        tracer.maximum("densela.solve_spd.rel_residual_max",
                       float(np.linalg.norm(K @ result - F) / np.linalg.norm(F)))
    elif span == "densela.generalized_eigs":
        K, M, k = args[0], args[1], args[2]
        n = K.shape[0]
        # Cholesky n^3/3, reduction by two triangular solves 2 n^3,
        # tridiagonal reduction 4 n^3 / 3 and back-transformation of all n
        # eigenvectors 2 n^3 (scipy's default MRRR driver), back-substitution
        # and M-normalisation of k vectors 3 k n^2
        c["densela.generalized_eigs.flops_computed"] += (
            (1 / 3 + 2 + 4 / 3 + 2) * n ** 3 + 3 * k * n ** 2)
        tracer.sums["eigs.k"] += k
        tracer.sums["eigs.n"] += n
        resid, orth = eigen_checks(K, M, result)
        tracer.maximum("densela.generalized_eigs.residual_max", float(resid.max()))
        tracer.maximum("densela.generalized_eigs.m_orth_defect_max", orth)
    elif span == "densela.scaled_condition_number":
        n = args[0].shape[0]
        # scaling n^2, eigenvalues only 4 n^3 / 3; two of n eigenvalues used
        c["densela.scaled_condition_number.flops_computed"] += n ** 2 + 4 * n ** 3 / 3
        tracer.sums["cond.used"] += 2
        tracer.sums["cond.n"] += n
    elif span == "analytic.solve_matching_system":
        c["analytic.solve_matching_system.roots"] += len(result)


class Tracer:
    """Spans and counters of the traced passes of one workload."""

    def __init__(self, workload):
        self.sites = SITES[workload]
        self.spans = []   # [name, start, end, parent index or -1]
        self.counters = self.sums = self.maxima = None
        self._stack = []
        self._installed = []
        self.missing = sorted({f"{m}.{a}" for m, a, _ in self.sites
                               if _lookup(m, a) is None})
        self.passes = []  # per-pass metric dicts
        self.hit = set()  # spans recorded in any pass
        self.uncounted = set()  # spans whose counters could not be computed

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0.0), value)

    def _wrap(self, span, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([span, time.perf_counter(), None, parent])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
                tracer._after(span, args, None, failed=True)
                raise
            tracer.spans[idx][2] = time.perf_counter()
            tracer._stack.pop()
            tracer._after(span, args, result, failed=False)
            return result

        return traced

    def _after(self, span, args, result, failed):
        try:
            if span in NORMS:
                self.counters["errors.quad_points_computed"] += _norm_points(args[1])
                if failed and span == "errors.align_eigenfunction":
                    self.counters["errors.align_eigenfunction.failed"] += 1
            if not failed:
                _count(self, span, args, result)
        except Exception:  # arguments or results changed shape: the counters
            self.uncounted.add(span)  # read unmeasured, the call goes on

    def install(self):
        """Wrap every call site that exists; start a new pass."""
        self.spans, self._stack = [], []
        self.counters, self.sums = defaultdict(int), defaultdict(int)
        self.maxima = {}
        for module, attr, span in self.sites:
            found = _lookup(module, attr)
            if found is None:
                continue
            owner, name, original = found
            if isinstance(original, property):
                wrapped = property(self._wrap(span, original.fget))
            else:
                wrapped = self._wrap(span, original)
            setattr(owner, name, wrapped)
            self._installed.append((owner, name, original))

    def uninstall(self):
        """Restore the original names and keep this pass's metrics."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)
        self.passes.append(self._pass_metrics())

    def _pass_metrics(self):
        self_s = dict.fromkeys(SELF_TIMED, 0.0)
        for name, start, end, parent in self.spans:
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        self.hit.update(name for name, *_ in self.spans)
        out = {f"{s}.self_s": v for s, v in self_s.items()}
        out.update(self.counters)
        out.update(self.maxima)
        s = self.sums
        out["densela.generalized_eigs.useful_ratio"] = (
            s["eigs.k"] / s["eigs.n"] if s["eigs.n"] else 0.0)
        out["densela.scaled_condition_number.useful_ratio"] = (
            s["cond.used"] / s["cond.n"] if s["cond.n"] else 0.0)
        return out

    def metrics(self, overhead_s):
        """Per-layer metrics over the traced passes: medians of per-pass
        values.  A metric is None (unmeasured) when a span it derives from
        has a missing call site or was never hit, and a counter also when its
        span's arguments or result no longer fit the counter."""
        wrapped = {span for m, a, span in self.sites
                   if f"{m}.{a}" not in self.missing}
        expected = {span for _, _, span in self.sites}
        unmeasured = {s for s in expected if s not in wrapped or s not in self.hit}
        out = {}
        for name, unit, _, spans in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead_s
            elif unmeasured.intersection(spans) or (
                    not name.endswith(".self_s")
                    and self.uncounted.intersection(spans)):
                value = None
            else:
                value = statistics.median(p.get(name, 0.0) for p in self.passes)
            out[name] = {"value": value, "unit": unit}
        return out, sorted(unmeasured) + [f"{s} counters"
                                          for s in sorted(self.uncounted)]


def _lookup(module, attr):
    """(owner, name, original) for ``module.attr`` (attr may be
    ``Class.member``), or None if the name no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(name)
    else:
        original = getattr(owner, name, None)
    if original is None:
        return None
    return owner, name, original
