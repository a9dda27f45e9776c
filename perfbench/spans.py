"""Spans recorded from outside the library, and the per-layer metrics
derived from them.

The tracer wraps public names where the modules that call them look them
up (for example ``craftkit.nmf.solve_nnls`` and ``craftkit.pipeline.solve_nnls``
are wrapped separately), plus the methods of ``ToyBackbone`` and
``ConceptJacobian.vjp``. Nothing under ``src/`` is edited: ``install``
swaps the attributes in and ``uninstall`` puts the originals back, so an
untraced iteration runs exactly the code a user runs.

Spans live in memory as (name, start, end, parent, iteration, thread,
attrs) and are written out once, at the end of a run. Parents are tracked
per thread; a span opened on a worker thread with nothing open on that
thread gets the innermost open span of the main thread as its parent,
which is the command that submitted the work (``cmd_explain`` runs its
heatmap jobs in a ``ThreadPoolExecutor``). Self time is a span's duration
minus the part of its interval that its children cover, so overlapping
children on several threads are not subtracted twice.
"""

import functools
import json
import os
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

# Per-layer metric names, in the order they are reported, with their units.
# Times, counts and bytes are per traced iteration; maxima and ratios are
# taken over all traced iterations.
PER_LAYER = (
    ("nnls.solve_nnls.s", "s/iter"),
    ("nnls.solve_nnls.calls", "count/iter"),
    ("nnls.solve_nnls.rows", "count/iter"),
    ("nnls.admm_iters", "count/iter"),
    ("nnls.unconverged", "count/iter"),
    ("nnls.kkt_max", "ratio"),
    ("nmf.fit_nmf.s", "s/iter"),
    ("nmf.fit_nmf.self_s", "s/iter"),
    ("nmf.fit_nmf.calls", "count/iter"),
    ("nmf.outer_iters", "count/iter"),
    ("nmf.kkt_residual", "ratio"),
    ("nmf.converged", "ratio"),
    ("nmf.transform.s", "s/iter"),
    ("implicit.jacobian.s", "s/iter"),
    ("implicit.jacobian.calls", "count/iter"),
    ("implicit.vjp.s", "s/iter"),
    ("implicit.dense_materialized", "count/iter"),
    ("implicit.degenerate", "count/iter"),
    ("sobol.concept_importance.s", "s/iter"),
    ("sobol.sobol_sequence.s", "s/iter"),
    ("sobol.mask_evals", "count/iter"),
    ("sobol.head_rows", "count/iter"),
    ("sobol.peak_mb", "MB"),
    ("sobol.tcav_importance.s", "s/iter"),
    ("toy.features.s", "s/iter"),
    ("toy.features.calls", "count/iter"),
    ("toy.features.images", "count/iter"),
    ("toy.vjp_features.s", "s/iter"),
    ("toy.vjp_features.calls", "count/iter"),
    ("toy.head.rows", "count/iter"),
    ("toy.make_synthetic_dataset.s", "s/iter"),
    ("toy.two_layer_backbone.s", "s/iter"),
    ("pipeline.extract_crops.s", "s/iter"),
    ("pipeline.extract_crops.crops", "count/iter"),
    ("pipeline.attribution.gradient.s", "s/iter"),
    ("pipeline.attribution.smoothgrad.s", "s/iter"),
    ("pipeline.attribution.occlusion.s", "s/iter"),
    ("pipeline.attribution.localized_frac", "ratio"),
    ("pipeline.fidelity_curves.s", "s/iter"),
    ("pipeline.recursive_decompose.s", "s/iter"),
    ("pipeline.save_bank.s", "s/iter"),
    ("pipeline.load_bank.s", "s/iter"),
    ("npyio.save_npy.s", "s/iter"),
    ("npyio.save_npy.bytes", "B/iter"),
    ("npyio.load_npy.s", "s/iter"),
    ("npyio.load_npy.bytes", "B/iter"),
    ("cli.fit.s", "s/iter"),
    ("cli.importance.s", "s/iter"),
    ("cli.fidelity.s", "s/iter"),
    ("cli.explain.s", "s/iter"),
    ("cli.recurse.s", "s/iter"),
    ("unattributed.s", "s/iter"),
    ("trace_overhead", "s"),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.iteration = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        """Record one span; yields its attribute dict for counters."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        attrs = {}
        record = [name, time.perf_counter(), None, parent, self.iteration,
                  threading.get_ident(), attrs]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name, annotate=None):
        """fn with a span around every call; name may be a callable of the
        call's arguments, and annotate(attrs, args, kwargs, result) adds
        counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as attrs:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(attrs, args, kwargs, result)
                return result
        return traced

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, iteration, thread, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "iteration": iteration,
                                     "thread": thread, **attrs}) + "\n")


def _arg(args, kwargs, position, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[position] if len(args) > position else default


def _nnls_counts(attrs, args, kwargs, sol):
    attrs["rows"] = len(args[0])
    attrs["iterations"] = sol.iterations
    attrs["converged"] = sol.converged
    attrs["kkt"] = sol.kkt_residual


def _nmf_counts(attrs, args, kwargs, state):
    attrs["outer_iters"] = len(state.objective_trace) - 1
    attrs["converged"] = state.converged
    attrs["kkt"] = state.kkt_residual


def _sobol_counts(attrs, args, kwargs, estimate):
    U = args[0]
    n = _arg(args, kwargs, 3, "n")
    r = U.shape[1]
    masks = 2 * n if estimate.degenerate else n * (r + 2)
    attrs["mask_evals"] = masks
    attrs["head_rows"] = masks * U.shape[0]


def _traced_importance(tracer, fn):
    """concept_importance with its heap peak taken by tracemalloc, switched
    on only for the duration of the call."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span("sobol.concept_importance") as attrs:
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            _sobol_counts(attrs, args, kwargs, result)
            return result
    return traced


def _attribution_name(args, kwargs):
    return "pipeline.attribution." + _arg(args, kwargs, 4, "method", "gradient")


def _npy_bytes(path_position):
    def annotate(attrs, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(args[path_position])
    return annotate


def _targets():
    """(owner, attribute, span name, annotate) for every wrapped name."""
    from craftkit import cli, implicit, nmf, npyio, pipeline, sobol, toy

    def rows(attrs, args, kwargs, result):
        attrs["rows"] = len(args[1])

    def images(attrs, args, kwargs, result):
        attrs["images"] = len(args[1])

    def jacobian(attrs, args, kwargs, jac):
        attrs["dense"] = jac.dense_form is not None

    def crops(attrs, args, kwargs, result):
        attrs["crops"] = len(result[1])

    table = []
    for module in (nmf, pipeline):
        table.append((module, "solve_nnls", "nnls.solve_nnls", _nnls_counts))
    for module in (npyio, cli, pipeline):
        table += [
            (module, "save_npy", "npyio.save_npy", _npy_bytes(1)),
            (module, "load_npy", "npyio.load_npy", _npy_bytes(0)),
        ]
    for module in (cli, pipeline):
        table += [
            (module, "fit_nmf", "nmf.fit_nmf", _nmf_counts),
            (module, "extract_crops", "pipeline.extract_crops", crops),
            (module, "concept_attribution_map", _attribution_name, None),
            (module, "fidelity_curves", "pipeline.fidelity_curves", None),
        ]
    table += [
        (nmf, "transform", "nmf.transform", None),
        (pipeline, "jacobian_u_wrt_a", "implicit.jacobian", jacobian),
        (implicit.ConceptJacobian, "vjp", "implicit.vjp", None),
        (sobol, "sobol_sequence", "sobol.sobol_sequence", None),
        (cli, "tcav_importance", "sobol.tcav_importance", None),
        (toy.ToyBackbone, "features", "toy.features", images),
        (toy.ToyBackbone, "vjp_features", "toy.vjp_features", None),
        (toy.ToyBackbone, "head", "toy.head", rows),
        (cli, "make_synthetic_dataset", "toy.make_synthetic_dataset", None),
        (cli, "two_layer_backbone", "toy.two_layer_backbone", None),
        (cli, "recursive_decompose", "pipeline.recursive_decompose", None),
        (cli, "save_bank", "pipeline.save_bank", None),
        (cli, "load_bank", "pipeline.load_bank", None),
    ]
    return table


def install(tracer):
    """Swap traced wrappers in; returns what uninstall needs."""
    from craftkit import cli, sobol

    saved = []
    for owner, attr, name, annotate in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, annotate))
    for module in (cli, sobol):
        original = module.concept_importance
        saved.append((module, "concept_importance", original))
        module.concept_importance = _traced_importance(tracer, original)
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def per_layer_metrics(tracer, windows, traced_p50, untraced_p50, localized_frac):
    """Aggregate spans of the traced iterations into PER_LAYER values.

    windows maps each traced iteration id to its (start, end) wall interval.
    """
    n_iter = max(len(windows), 1)
    children = {}
    for span in tracer.spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append(span)

    total = Counter()      # seconds per span name
    count = Counter()      # calls per span name
    sums = Counter()       # (name, attr) -> sum; booleans count the True ones
    peaks = Counter()      # (name, attr) -> max
    self_fit = 0.0
    top = {}
    for index, (name, start, end, parent, iteration, _, attrs) in enumerate(tracer.spans):
        if iteration not in windows or end is None:
            continue
        total[name] += end - start
        count[name] += 1
        for key, value in attrs.items():
            if key == "error":
                sums[name, "error:" + value] += 1
            else:
                sums[name, key] += value
                peaks[name, key] = max(peaks[name, key], value)
        if name == "nmf.fit_nmf":
            self_fit += (end - start) - _covered(
                [(max(c[1], start), min(c[2], end)) for c in children.get(index, [])
                 if c[2] is not None])
        if parent is None:
            top.setdefault(iteration, []).append((start, end))
    unattributed = sum((end - start) - _covered(top.get(i, []))
                       for i, (start, end) in windows.items())

    fits = count["nmf.fit_nmf"]
    values = {
        "nnls.solve_nnls.rows": sums["nnls.solve_nnls", "rows"] / n_iter,
        "nnls.admm_iters": sums["nnls.solve_nnls", "iterations"] / n_iter,
        "nnls.unconverged": (count["nnls.solve_nnls"]
                             - sums["nnls.solve_nnls", "converged"]) / n_iter,
        "nnls.kkt_max": peaks["nnls.solve_nnls", "kkt"],
        "nmf.fit_nmf.self_s": self_fit / n_iter,
        "nmf.outer_iters": sums["nmf.fit_nmf", "outer_iters"] / n_iter,
        "nmf.kkt_residual": peaks["nmf.fit_nmf", "kkt"],
        "nmf.converged": sums["nmf.fit_nmf", "converged"] / fits if fits else 0.0,
        "implicit.dense_materialized": sums["implicit.jacobian", "dense"] / n_iter,
        "implicit.degenerate": sums["implicit.jacobian", "error:DegeneracyError"] / n_iter,
        "sobol.mask_evals": sums["sobol.concept_importance", "mask_evals"] / n_iter,
        "sobol.head_rows": sums["sobol.concept_importance", "head_rows"] / n_iter,
        "sobol.peak_mb": peaks["sobol.concept_importance", "peak_bytes"] / 2**20,
        "toy.features.images": sums["toy.features", "images"] / n_iter,
        "toy.head.rows": sums["toy.head", "rows"] / n_iter,
        "pipeline.extract_crops.crops": sums["pipeline.extract_crops", "crops"] / n_iter,
        "pipeline.attribution.localized_frac": localized_frac,
        "npyio.save_npy.bytes": sums["npyio.save_npy", "bytes"] / n_iter,
        "npyio.load_npy.bytes": sums["npyio.load_npy", "bytes"] / n_iter,
        "unattributed.s": unattributed / n_iter,
        "trace_overhead": traced_p50 - untraced_p50,
    }
    for name, _ in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = count[name[:-len(".calls")]] / n_iter
        elif name.endswith(".s") and name not in values:
            values[name] = total[name[:-len(".s")]] / n_iter
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
