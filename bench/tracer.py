"""Per-layer spans for the benchmark's traced run.

The tracer wraps public functions of sympinv from the outside: every wrapper
is bound at each name a sympinv module looks the original up under, so the
package itself is unchanged.  ``install`` returns two switchable sets of
bindings, so that one process can run the same request plain, with spans and
with counters, one after the other.

A span records its layer, its call and its duration.  A layer's self time is
the span duration minus the spans opened inside it and minus the wrappers'
own cost: ``calibrate`` measures what a wrapper adds inside and outside the
duration it records, and every span takes that cost off the layers it lands
in.  The self times of all layers, the benchmark loop's ``other`` included,
therefore estimate the untraced time, and the traced run checks them against
an untraced execution of the same requests.

Layers and the names they wrap:

==============  ==========================================================
kernels         ``mul_table``, ``mul1`` (as looked up in ``sympinv.jets``)
pushforward     ``geometry.pushforward``
invert          ``jets.invert_series``
compose         ``jets.compose``, ``jets.compose_multi``
frame           the ``signature.generator_map`` evaluator
frame.<module>  public functions of curves, functions, extended,
                hypersurfaces, surfaces, contact, jetlinalg
words           ``geometry.apply_word``
build           ``JetPoint.from_exprs``, ``parametric_curve_point``,
                ``exprs.evaluate``
compare         ``signature.hausdorff_distance``
group           ``random_group_element``, ``random_contact_lift``,
                ``algebra_basis``, ``contact_algebra_basis``
cli             ``cli.main``
jobs.parse      ``JobSpec.from_text``
json            ``signature.cloud_to_json``, ``signature.cloud_from_json``
==============  ==========================================================

The event counters (``kernels.madds``, ``jets.created``, ``compare.dists``
and the degenerate samples) come from a binding set of their own whose
wrappers do not time anything, so counting adds no time to any layer.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import Counter

FRAME_MODULES = ("curves", "functions", "extended", "hypersurfaces", "surfaces",
                 "contact", "jetlinalg")

# Exception classes that end a frame evaluation on a degenerate sample; any
# other class is counted under ``frame.degenerate.other``.
FRAME_DEGENERACIES = ("DegenerateJet", "NormalizationSingular", "StepDegenerate",
                      "LagrangianTangent", "DegenerateQ1", "SigmaDegenerate",
                      "FrameDegeneracy", "WeightNormalizationSingular",
                      "OnZeroLevelSet", "DivisionByZeroJet", "DomainError",
                      "ZeroDivisionError")

CALIBRATION_CALLS = 2000


class Tracer:
    """Self times and call counts per layer, plus exact event counters.

    ``cost`` holds what ``calibrate`` returns: the seconds a span wrapper adds
    inside and outside the duration it measures.  The machine's speed drifts,
    so the traced run calibrates again before every traced request.
    """

    def __init__(self):
        self.cost = [0.0, 0.0]
        self.layers = {}  # layer -> [calls, self seconds]
        self.counts = Counter()
        # One entry per open span (the first belongs to no span): the time of
        # the spans and their wrappers inside it.
        self._child = [0.0]
        self.wall_s = 0.0

    def span(self, layer, fn):
        """fn with a span of `layer` around each call."""
        rec = self.layers.setdefault(layer, [0, 0.0])
        cost = self.cost
        child = self._child
        push, pop = child.append, child.pop
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            push(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt - pop() - cost[0]
                child[-1] += dt + cost[1]

        return traced

    def run_root(self, fn):
        """Call fn() as a root span; its self time adds to ``other``."""
        if len(self._child) != 1:
            raise RuntimeError("the root span must be the outermost span")
        rec = self.layers.setdefault("other", [0, 0.0])
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            self.wall_s += dt
            rec[0] += 1
            rec[1] += dt - self._child.pop()

    def self_total(self):
        """Sum of every layer's self time: the traced time less the wrappers' cost."""
        return sum(rec[1] for rec in self.layers.values())


def calibrate():
    """(inside, outside): seconds a span adds to the layers it lands in.

    `inside` is the wrapper's cost within the duration it measures, charged to
    its own layer; `outside` is the rest of its cost, charged to the caller.
    Each is the median of several timed loops of a wrapped no-op called with
    positional arguments, as sympinv calls the wrapped functions.
    """

    def noop(a, b, c):
        return None

    n = CALIBRATION_CALLS
    x = 1.0
    clock = time.perf_counter
    inside, outside = [], []
    for _ in range(3):
        tr = Tracer()
        wrapped = tr.span("cal", noop)
        t0 = clock()
        for _ in range(n):
            pass
        t1 = clock()
        for _ in range(n):
            noop(x, x, x)
        t2 = clock()

        def calls():
            for _ in range(n):
                wrapped(x, x, x)

        tr.run_root(calls)
        empty_s, plain_s = (t1 - t0) / n, (t2 - t1) / n
        within = tr.layers["cal"][1] / n - (plain_s - empty_s)
        inside.append(within)
        outside.append(tr.wall_s / n - plain_s - within)
    return statistics.median(inside), statistics.median(outside)


def counted(fn, on_call=None, on_error=None):
    """fn with hooks on each call and on each exception, and no timing."""

    @functools.wraps(fn)
    def counting(*args, **kwargs):
        if on_call is not None:
            on_call(*args)
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            if on_error is not None:
                on_error(err)
            raise

    return counting


class Bindings:
    """Names that can be switched between the originals and replacements."""

    def __init__(self):
        self._items = []  # (owner, name, original, replacement)

    def bind(self, owner, name, original, replacement):
        self._items.append((owner, name, original, replacement))

    def rebind(self, modules, original, replacement):
        """Bind `replacement` wherever a module of `modules` holds `original`."""
        found = [(mod, name) for mod in modules for name, value in vars(mod).items()
                 if value is original]
        if not found:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere in sympinv")
        for mod, name in found:
            self.bind(mod, name, original, replacement)

    def switch(self, on):
        for owner, name, original, replacement in self._items:
            setattr(owner, name, replacement if on else original)


def _sympinv_modules():
    return [m for name, m in list(sys.modules.items())
            if (name == "sympinv" or name.startswith("sympinv.")) and m is not None]


def install(tracer):
    """(spans, counters): the binding sets of the timed layers and of the counters.

    Both start switched off.
    """
    from sympinv import cli, exprs, geometry, jets, jobs, kernels, signature, symplectic
    from sympinv.errors import GeometryError, JetError

    modules = _sympinv_modules()
    spans = Bindings()

    def span_all(layer, *fns):
        for fn in fns:
            spans.rebind(modules, fn, tracer.span(layer, fn))

    def span_classmethod(layer, cls, name):
        method = cls.__dict__[name]
        spans.bind(cls, name, method, classmethod(tracer.span(layer, method.__func__)))

    span_all("kernels", kernels.mul_table, kernels.mul1)
    span_all("pushforward", geometry.pushforward)
    span_all("invert", jets.invert_series)
    span_all("compose", jets.compose, jets.compose_multi)
    generator_map = signature.generator_map

    @functools.wraps(generator_map)
    def spanned_generator_map(*args, **kwargs):
        return tracer.span("frame", generator_map(*args, **kwargs))

    spans.rebind(modules, generator_map, spanned_generator_map)
    for short in FRAME_MODULES:
        mod = sys.modules[f"sympinv.{short}"]
        for name, obj in list(vars(mod).items()):
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                span_all(f"frame.{short}", obj)
    span_all("words", geometry.apply_word)
    span_all("build", geometry.parametric_curve_point, exprs.evaluate)
    span_classmethod("build", geometry.JetPoint, "from_exprs")
    span_all("compare", signature.hausdorff_distance)
    span_all("group", symplectic.random_group_element, symplectic.random_contact_lift,
             symplectic.algebra_basis, symplectic.contact_algebra_basis)
    span_all("cli", cli.main)
    span_classmethod("jobs.parse", jobs.JobSpec, "from_text")
    span_all("json", signature.cloud_to_json, signature.cloud_from_json)

    counters = Bindings()
    counts = tracer.counts

    def kernel_table(a, b, pi, pj, pr, n_out):
        counts["kernels.madds"] += len(pi)

    def kernel_conv(a, b, n_out):
        counts["kernels.madds"] += len(a) * len(b)

    def pushforward_failed(err):
        if isinstance(err, (GeometryError, JetError, ZeroDivisionError)):
            counts["pushforward.degenerate"] += 1

    def frame_failed(err):
        name = type(err).__name__
        if name not in FRAME_DEGENERACIES:
            name = "other"
        counts[f"frame.degenerate.{name}"] += 1

    @functools.wraps(generator_map)
    def counted_generator_map(*args, **kwargs):
        return counted(generator_map(*args, **kwargs), on_error=frame_failed)

    def compare_size(a, b):
        counts["compare.dists"] += len(a.points) * len(b.points)

    for fn, hooks in ((kernels.mul_table, {"on_call": kernel_table}),
                      (kernels.mul1, {"on_call": kernel_conv}),
                      (geometry.pushforward, {"on_error": pushforward_failed}),
                      (signature.hausdorff_distance, {"on_call": compare_size})):
        counters.rebind(modules, fn, counted(fn, **hooks))
    counters.rebind(modules, generator_map, counted_generator_map)
    for cls in (jets.TaylorJet, jets.MultiJet):
        init = cls.__init__

        def counted_init(self, *args, _init=init, **kwargs):
            counts["jets.created"] += 1
            _init(self, *args, **kwargs)

        counters.bind(cls, "__init__", init, counted_init)
    return spans, counters


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass (times in seconds)."""
    layers = tracer.layers
    k = tracer.counts

    def calls(name):
        return layers.get(name, (0, 0.0))[0]

    def s(name):
        return layers.get(name, (0, 0.0))[1]

    frame_parts = {f"frame.{m}.s": s(f"frame.{m}") for m in FRAME_MODULES}
    return {
        "kernels.calls": calls("kernels"),
        "kernels.madds": k["kernels.madds"],
        "kernels.s": s("kernels"),
        "jets.created": k["jets.created"],
        "pushforward.calls": calls("pushforward"),
        "pushforward.s": s("pushforward"),
        "pushforward.degenerate": k["pushforward.degenerate"],
        "invert.calls": calls("invert"),
        "invert.s": s("invert"),
        "compose.calls": calls("compose"),
        "compose.s": s("compose"),
        "frame.calls": calls("frame"),
        "frame.s": s("frame") + sum(frame_parts.values()),
        **frame_parts,
        **{f"frame.degenerate.{name}": k[f"frame.degenerate.{name}"]
           for name in FRAME_DEGENERACIES + ("other",)},
        "words.calls": calls("words"),
        "words.s": s("words"),
        "build.calls": calls("build"),
        "build.s": s("build"),
        "compare.calls": calls("compare"),
        "compare.s": s("compare"),
        "compare.dists": k["compare.dists"],
        "group.calls": calls("group"),
        "group.s": s("group"),
        "cli.s": s("cli"),
        "jobs.parse.s": s("jobs.parse"),
        "json.s": s("json"),
        "other.s": s("other"),
    }
