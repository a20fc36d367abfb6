"""Traced runs: in-memory spans around the program's public calls.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
module attributes through which ``unmating.cli`` and
``unmating.pipeline.run_pipeline`` reach each layer, with wrappers that record
a span (name, start, end, parent, operation id) and a few counts taken from
the call's arguments and result.  Nothing in the program changes; the spans
stay in memory until ``per_layer()`` turns them into the per-layer metrics.

Only calls made directly from the CLI or the pipeline get a span: a wrapped
function called from inside another layer (``validate`` calling ``faces``)
runs unrecorded and counts as its caller's self time.  Layer spans therefore
never overlap, and per operation the layer self times plus ``cli.overhead_s``
(the root span's self time) add up to the traced operation time.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter_ns

NAME, START, END, PARENT, OP, ATTRS = range(6)
ROOT = "cli.main"

# layer span name -> seconds-per-operation metric
LAYER_TIMES = {
    "mapspec.parse": "mapspec.parse_s",
    "mapspec.validate": "mapspec.validate_s",
    "mapspec.faces": "mapspec.faces_s",
    "spectral.certify": "spectral.certify_s",
    "parameterize.solve": "parameterize.solve_s",
    "portraits.extract": "portraits.extract_s",
    "portraits.certify": "portraits.certify_s",
    "laminations.depth1": "laminations.depth1_s",
    "laminations.pullback": "laminations.pullback_s",
    "laminations.join": "laminations.join_s",
    "laminations.moore": "laminations.moore_s",
    "pipeline.to_json": "pipeline.to_json_s",
    "cli.emit": "cli.emit_s",
    "svg.render": "svg.render_s",
}


# every per-layer metric and its unit
PER_LAYER_UNITS = {
    **{metric: "s" for metric in LAYER_TIMES.values()},
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "mapspec.rejected_ratio": "ratio",
    "spectral.matrix_size": "count",
    "laminations.pullback_growth": "ratio",
    "laminations.classes": "count",
    "laminations.planar_pairs": "count",
    "laminations.join_classes": "count",
    "laminations.moore_pairs": "count",
    "laminations.moore_crossings": "count",
    "laminations.moore_hit_ratio": "ratio",
    "cli.stdout_bytes": "bytes",
    "svg.bytes": "bytes",
}


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _patch_points():
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    from unmating import cli, laminations, mapspec, parameterize, pipeline, portraits, spectral, svg

    return [
        (mapspec, "parse_file", "mapspec.parse", None),
        (mapspec, "validate_or_raise", "mapspec.validate", None),
        (mapspec, "faces", "mapspec.faces", None),
        (mapspec, "critical_vertices", "mapspec.faces", None),
        (spectral, "transition_matrix", "spectral.certify", lambda a, r: {"matrix_size": r.size}),
        (spectral, "certify_perron", "spectral.certify", None),
        (parameterize, "solve_for_spec", "parameterize.solve", None),
        (parameterize, "pullback_parameters", "parameterize.solve", None),
        (portraits, "extract_portraits", "portraits.extract", None),
        (portraits, "certify_portrait", "portraits.certify", None),
        (laminations, "depth1", "laminations.depth1", None),
        (laminations, "pullback_step", "laminations.pullback",
         lambda a, r: {"depth": r.depth, "classes": len(r.classes)}),
        (laminations, "join", "laminations.join",
         lambda a, r: {"classes": len(a[0].classes) + len(a[1].classes), "joined": len(r.classes)}),
        (laminations, "moore_check", "laminations.moore",
         lambda a, r: {"crossings": len(r["violations"]) + len(r["informational"])}),
        (pipeline.PipelineResult, "to_json", "pipeline.to_json", None),
        (cli, "_emit", "cli.emit", None),
        (cli, "write_svg", "svg.render", lambda a, r: {"bytes": r}),
        (svg.SvgScene, "from_classes", "svg.render", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if len(stack) != 1:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[0], self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[ATTRS] = {"error": type(e).__name__}
                raise
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[ATTRS] = counter(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point of ``_patch_points`` until the block exits."""
        saved = []
        try:
            for owner, attr, name, counter in _patch_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name, counter))
                else:
                    wrapped = self._wrap(original, name, counter)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; its attributes take ``stdout_bytes``."""
        root = [ROOT, 0, 0, None, op_id, {}]
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(root)
        root[START] = perf_counter_ns()
        try:
            yield root[ATTRS]
        finally:
            root[END] = perf_counter_ns()
            self._stack.pop()


def per_layer(spans: list[list], scales: dict[int, float], untraced_op_s: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    Times are self times summed per operation, multiplied by the operation's
    speed scale (``scales``, 1 for raw wall time) and averaged over
    operations, so the layer times plus ``cli.overhead_s`` equal the mean
    traced operation time; ``trace.overhead_s`` is that mean minus the mean
    of ``untraced_op_s``, taken in the same run and scaled the same way.
    Counts are medians over operations; pair counts are computed as
    n(n-1)/2, not counted.
    """
    children_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            children_ns[span[PARENT]] += span[END] - span[START]
    ops: dict[int, dict] = {}
    for i, span in enumerate(spans):
        self_s = (span[END] - span[START] - children_ns[i]) / 1e9 * scales[span[OP]]
        op = ops.setdefault(span[OP], {"times": {}, "spans": []})
        op["times"][span[NAME]] = op["times"].get(span[NAME], 0.0) + self_s
        op["spans"].append(span)
    n = len(ops)

    metrics = {}
    for name, metric in LAYER_TIMES.items():
        metrics[metric] = sum(op["times"].get(name, 0.0) for op in ops.values()) / n
    metrics["cli.overhead_s"] = sum(op["times"][ROOT] for op in ops.values()) / n
    traced_mean = sum(
        (s[END] - s[START]) / 1e9 * scales[s[OP]] for s in spans if s[NAME] == ROOT
    ) / n
    metrics["trace.overhead_s"] = traced_mean - statistics.fmean(untraced_op_s)

    rejected, sizes, classes, joined, planar, growth = 0, [], [], [], [], []
    crossings, stdout_bytes, svg_bytes = [], [], []
    for op in ops.values():
        step_s: dict[int, float] = {}
        op_planar = op_svg = 0
        for s in op["spans"]:
            name, attrs = s[NAME], s[ATTRS] or {}
            if name == "mapspec.validate" and "error" in attrs:
                rejected += 1
            elif name == "spectral.certify" and "matrix_size" in attrs:
                sizes.append(attrs["matrix_size"])
            elif name == "laminations.pullback":
                d = attrs["depth"]
                step_s[d] = step_s.get(d, 0.0) + (s[END] - s[START]) / 1e9
                op_planar += _pairs(attrs["classes"])
            elif name == "laminations.join":
                classes.append(attrs["classes"])
                joined.append(attrs["joined"])
            elif name == "laminations.moore":
                crossings.append(attrs["crossings"])
            elif name == "svg.render" and "bytes" in attrs:
                op_svg += attrs["bytes"]
            elif name == ROOT:
                stdout_bytes.append(attrs["stdout_bytes"])
        if len(step_s) >= 2:
            last = max(step_s)
            growth.append(step_s[last] / step_s[last - 1])
        planar.append(op_planar)
        svg_bytes.append(op_svg)

    def median(values):
        return statistics.median(values) if values else 0

    moore_pairs = [_pairs(m) for m in joined]
    metrics.update({
        "mapspec.rejected_ratio": rejected / n,
        "spectral.matrix_size": median(sizes),
        "laminations.pullback_growth": median(growth),
        "laminations.classes": median(classes),
        "laminations.planar_pairs": median(planar),
        "laminations.join_classes": median(joined),
        "laminations.moore_pairs": median(moore_pairs),
        "laminations.moore_crossings": median(crossings),
        "laminations.moore_hit_ratio": sum(crossings) / sum(moore_pairs) if sum(moore_pairs) else 0,
        "cli.stdout_bytes": median(stdout_bytes),
        "svg.bytes": median(svg_bytes),
    })
    return metrics
