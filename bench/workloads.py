"""The four benchmark workloads.

Each workload is built from a seed (``build``) and then runs in rounds.  A
round is a fixed list of requests, so a run of whole rounds has the same mix
whatever its length.  A request is a callable that returns ``Op``: its kind
(every round runs the same kinds the same number of times), the work items it
completes, whether it failed, an output record that goes into the run's
digest (a request run plain and traced must give the same record) and a key
that names its inputs.  Requests repeat after ``cycle`` rounds: a request of
round r + cycle has the same key, and so must give the same output, as the
one of round r.  The
caller times the requests.  Requests look every sympinv function up when
they run, so that the traced run's spans see them.

* battery - every criterion-2 target at its minimal battery order: a random
  generic jet pushed through a pre-built group element, the generators
  evaluated on the image and compared with their values on the jet.
* deep    - the same pairs at the command line's default orders.
* clouds  - ``sympinv signature`` on one standard job per geometry, plus two
  ``sympinv equivalence`` verdicts on large planar-curve clouds.
* exact   - infinitesimal-invariance certificates over ``Fraction``/``Dual``:
  an exact jet pushed through ``id + eps X`` for one algebra basis field X.

Every random stream is derived from the workload seed and a crc32 of a label,
so inputs never depend on the interpreter's string hashing.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

import sympinv  # noqa: F401  (run.py checks where it was imported from)
from sympinv import _tables, cli, geometry, signature, symplectic
from sympinv.errors import GeometryError, JetError
from sympinv.rational import Dual

DEGENERATE = (GeometryError, JetError, ZeroDivisionError)
PAIR_TOL = 1e-8
# Relative tolerance of the stored signature reference (see reference.py).
REFERENCE_RTOL = 1e-9

# The 18 criterion-2 targets, in the order of the acceptance battery.
TARGETS = (
    ("function", "sp", 1), ("function", "sp", 2),
    ("function", "csp", 1), ("function", "asp", 1), ("function", "acsp", 1),
    ("curve", "sp", 1), ("curve", "sp", 2), ("curve", "sp", 3),
    ("curve", "csp", 1), ("curve", "asp", 1), ("curve", "acsp", 1),
    ("hypersurface", "sp", 2), ("hypersurface", "sp", 3),
    ("surface", "sp", 2),
    ("contact-curve", "contact", 1), ("contact-curve", "contact-csp", 1),
    ("contact-surface", "contact-csp", 1), ("contact-function", "contact-csp", 1),
)


def battery_order(geometry_name, flavor, n):
    """Smallest jet order that determines the exported generator values."""
    if geometry_name == "curve":
        return {"sp": 2 * n, "csp": 3, "asp": 4, "acsp": 5}[flavor]
    if geometry_name == "function":
        return 3 if flavor == "acsp" else 2
    return 2


def default_order(geometry_name, n):
    """The order ``sympinv check invariance`` and ``signature`` use."""
    if geometry_name in ("curve", "contact-curve"):
        return 2 * n + 4
    return 6


def stream(seed, *labels):
    """Random generator for one labelled input stream of a workload seed."""
    key = "/".join(str(x) for x in labels).encode()
    return np.random.default_rng([seed, zlib.crc32(key)])


def target_label(target):
    return "{}/{}/{}".format(*target)


def plain(x):
    """Constant term of a jet (or the scalar) as a float."""
    v = x.value() if hasattr(x, "value") else x
    return float(getattr(v, "re", v))


@dataclass
class Op:
    kind: str
    items: int
    failed: bool
    output: object
    key: tuple


class Workload:
    cycle = 1

    def requests(self, r):
        """The requests of round r."""
        raise NotImplementedError

    def close(self):
        """Remove whatever the workload wrote."""


def generic_jets(label, chart, order, ev, rng, count, exact=False):
    """`count` random jets on which the generators evaluate, with their values."""
    out = []
    for _ in range(200 * count):
        point = geometry.JetPoint.random(chart, order, rng, exact=exact, spread=(0.6, 1.4))
        try:
            gens, _ = ev(point)
        except DEGENERATE:
            continue
        out.append((point, {k: v.value() if exact else plain(v) for k, v in gens.items()}))
        if len(out) == count:
            return out
    raise RuntimeError(f"{label}: too few generic jets")


# --- battery and deep ------------------------------------------------------------

class _Target:
    """One target's generic jets (with their generator values) and elements."""

    def __init__(self, target, order, seed, workload, n_points, n_elements):
        geometry_name, flavor, n = target
        label = target_label(target)
        self.target = target
        self.label = label
        self.chart = geometry.CHARTS[geometry_name](n)
        seeds = stream(seed, workload, label, "elements").integers(0, 2**31, size=n_elements)
        if geometry_name.startswith("contact"):
            self.elements = [symplectic.random_contact_lift(self.chart.space, flavor, int(s))
                             for s in seeds]
        else:
            self.elements = [symplectic.random_group_element(self.chart.space, flavor, int(s))
                             for s in seeds]
        self.points = generic_jets(label, self.chart, order,
                                   signature.generator_map(*target),
                                   stream(seed, workload, label, "jets"), n_points)

    def pair(self, r):
        key = (self.label, r % len(self.points), r % len(self.elements))
        point, base = self.points[key[1]]
        element = self.elements[key[2]]
        try:
            moved = geometry.pushforward(point, element)
            gens, _ = signature.generator_map(*self.target)(moved)
            vals = {k: plain(gens[k]) for k in base}
        except DEGENERATE as err:
            return Op(self.label, 1, True, (self.label, type(err).__name__), key)
        mismatch = max(abs(vals[k] - v) / max(abs(v), abs(vals[k]), 1.0)
                       for k, v in base.items())
        return Op(self.label, 1, mismatch > PAIR_TOL,
                  (self.label, tuple(vals[k].hex() for k in sorted(vals))), key)


def warm_tables(nvars, order):
    """Fill the product and derivative tables a jet of this shape uses."""
    for k in range(order + 1):
        _tables.product_table(nvars, k)
        if k:
            for d in range(nvars):
                _tables.partial_table(nvars, k, d)


class Pairs(Workload):
    """Criterion-2 pairs: pushforward, generator evaluation, 1e-8 check.

    Round r pairs each target's jet r mod 8 with its element r mod 16, so a
    cycle of 16 rounds runs 16 distinct pairs per target.
    """

    cycle = 16

    def __init__(self, seed, deep):
        name = "deep" if deep else "battery"
        self.targets = []
        for target in TARGETS:
            g, flavor, n = target
            order = default_order(g, n) if deep else battery_order(g, flavor, n)
            warm_tables(geometry.CHARTS[g](n).n_independent, order)
            self.targets.append(_Target(target, order, seed, name, n_points=8, n_elements=16))

    def requests(self, r):
        return [functools.partial(t.pair, r) for t in self.targets]


# --- clouds -------------------------------------------------------------------------

# One standard job per (geometry, flavor, n); the expressions are in the
# chart's independent coordinates (README, "Coordinate conventions").  A round
# runs each job CLOUD_REPEATS times on different sampling seeds, so the median
# request (the curve/sp/2 job) is measured several times in every run.
CLOUD_JOBS = (
    ("curve", "sp", 1, {"y": "exp(x/2) + x^3/3"}),
    ("curve", "sp", 2, {"x": "t^2/2 + t", "y": "sin(t) + t^3/6", "z": "exp(t/3)"}),
    ("curve", "csp", 1, {"y": "x^3/3 + log(x + 2)"}),
    ("function", "sp", 1, {"u": "x^2*y + sin(y) + x^3/5"}),
    ("function", "sp", 2, {"u": "x1^2*y2 + x2*y1^2 + exp(x1/3) + y2^3/4"}),
    ("hypersurface", "sp", 2, {"u": "x^2 + y*z + z^3/3 + exp(x*y/4)"}),
    ("surface", "sp", 2, {"x": "t^2 + s^3/3 + t*s", "y": "s^2 - t^3/4 + exp(t/2)"}),
    ("contact-curve", "contact", 1, {"y": "x^3/3 + x", "z": "exp(x/2) + x^2"}),
    ("contact-surface", "contact-csp", 1, {"z": "x^2*y + y^3/3 + exp(x/3)"}),
    ("contact-function", "contact-csp", 1, {"u": "x^2 + y*z + z^3/3 + x*y^2"}),
)
CLOUD_SAMPLES = 16
CLOUD_REPEATS = 4
CLOUD_DEPTH = 2
VERDICT_SAMPLES = 2048
WINDOW = (0.5, 1.5)


def job_text(geometry_name, flavor, n, exprs, samples, depth, seed):
    lines = [f"geometry = {geometry_name}", f"flavor = {flavor}", f"n = {n}",
             f"window = {WINDOW[0]}:{WINDOW[1]}", f"samples = {samples}",
             f"depth = {depth}", f"seed = {seed}", "format = csv", "exprs:"]
    lines += [f"  {name} = {text}" for name, text in exprs.items()]
    return "\n".join(lines) + "\n"


def job_label(job):
    return "{}/{}/{}".format(*job[:3])


def run_cli(argv):
    """(exit code, stdout) of ``sympinv`` with argv, in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def sp_image_element(seed):
    """An Sp(2) element whose image of (t, t^2) stays a graph over x on WINDOW.

    The image's first coordinate is a t + b t^2; elements whose speed
    a + 2 b t comes near 0 on the window are skipped, so no sample of the
    image is degenerate.
    """
    space = symplectic.SymplecticSpace(1, ("x", "y"), ((0, 1),))
    rng = stream(seed, "clouds", "image")
    while True:
        g = symplectic.random_group_element(space, "sp", int(rng.integers(0, 2**31)))
        a, b = g.matrix[0]
        lo, hi = (a + 2 * b * t for t in WINDOW)
        if lo * hi > 0 and min(abs(lo), abs(hi)) > 0.2:
            return g


class Clouds(Workload):
    """``sympinv signature`` jobs and ``sympinv equivalence`` verdicts."""

    def __init__(self, seed, workdir):
        self.dir = tempfile.mkdtemp(prefix="clouds-", dir=workdir)
        rng = stream(seed, "clouds", "job-seeds")
        self.jobs = []
        for job in CLOUD_JOBS:
            g, flavor, n, exprs = job
            path = os.path.join(self.dir, job_label(job).replace("/", "_") + ".job")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(job_text(g, flavor, n, exprs, CLOUD_SAMPLES, CLOUD_DEPTH, 0))
            labels = tuple(signature.component_labels(g, flavor, n, CLOUD_DEPTH))
            self.jobs.append((job_label(job), path, labels, int(rng.integers(0, 2**31))))
            warm_tables(geometry.CHARTS[g](n).n_independent, default_order(g, n))
        g = sp_image_element(seed)
        (a, b), (c, d) = g.matrix
        curves = {
            "parabola": {"y": "x^2"},
            "image": {"x": f"({a:.17f})*t + ({b:.17f})*t^2",
                      "y": f"({c:.17f})*t + ({d:.17f})*t^2"},
            "cubic": {"y": "x^3"},
        }
        self.curve_jobs = {}
        for name, exprs in curves.items():
            path = os.path.join(self.dir, f"{name}.job")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(job_text("curve", "sp", 1, exprs, VERDICT_SAMPLES, 1, 0))
            self.curve_jobs[name] = path
        signature.component_labels("curve", "sp", 1, 1)
        warm_tables(1, default_order("curve", 1))
        self.verdict_seed = int(rng.integers(0, 2**31))

    def _signature(self, label, path, labels, seed):
        code, out = run_cli(["signature", "--job", path, "--seed", str(seed)])
        cloud = signature.cloud_from_json(out) if code == 0 else None
        ok = (cloud is not None and cloud.generators == labels
              and cloud.sample_count == CLOUD_SAMPLES
              and len(cloud.points) + cloud.degenerate_count == CLOUD_SAMPLES
              and all(math.isfinite(v) for p in cloud.points for v in p))
        return Op(label, CLOUD_SAMPLES, not ok, (label, code, out), (label, seed))

    def _verdict(self, other, expected, seed):
        code, out = run_cli(["equivalence", "--job", self.curve_jobs["parabola"],
                             "--job2", self.curve_jobs[other], "--seed", str(seed)])
        return Op(other, 2 * VERDICT_SAMPLES, code != expected,
                  (other, code, out), (other, seed))

    def requests(self, r):
        out = [functools.partial(self._signature, label, path, labels,
                                 seed + CLOUD_REPEATS * r + j)
               for label, path, labels, seed in self.jobs for j in range(CLOUD_REPEATS)]
        out.append(functools.partial(self._verdict, "image", 0, self.verdict_seed + r))
        out.append(functools.partial(self._verdict, "cubic", 4, self.verdict_seed + r))
        return out

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# --- exact ------------------------------------------------------------------------

# (target, jets per round).  The cheap targets take two jets a round, which
# puts the median certificate inside the curve/sp/2 cluster of latencies
# instead of at its edge.
EXACT_TARGETS = (
    (("curve", "sp", 1), 2), (("curve", "sp", 2), 1),
    (("function", "sp", 1), 2), (("function", "csp", 1), 2),
    (("hypersurface", "sp", 2), 1), (("surface", "sp", 2), 1),
    (("contact-curve", "contact", 1), 2), (("contact-function", "contact-csp", 1), 1),
)


class Exact(Workload):
    """Infinitesimal-invariance certificates on exact jets.

    A certificate pushes an exact jet through ``p -> p + eps X(p)`` for one
    algebra basis field X (eps a dual unit) and evaluates the generators.  It
    holds when every eps-part is exactly 0 and every real part equals the
    generator value on the jet itself.
    """

    n_points = 2
    cycle = n_points

    def __init__(self, seed):
        self.targets = []
        for target, per_round in EXACT_TARGETS:
            g, flavor, n = target
            label = target_label(target)
            chart = geometry.CHARTS[g](n)
            order = battery_order(g, flavor, n)
            warm_tables(chart.n_independent, order)
            if g.startswith("contact"):
                fields = symplectic.contact_algebra_basis(chart.space, flavor)
            else:
                fields = symplectic.algebra_basis(chart.space, flavor)
            points = generic_jets(label, chart, order, signature.generator_map(*target),
                                  stream(seed, "exact", label, "jets"), self.n_points, exact=True)
            self.targets.append((target, fields, points, per_round))

    def requests(self, r):
        return [functools.partial(self._certificate, target, i, field,
                                  (r + j) % len(points), points[(r + j) % len(points)])
                for target, fields, points, per_round in self.targets
                for j in range(per_round) for i, field in enumerate(fields)]

    @staticmethod
    def _certificate(target, i, field, which, jet):
        label = target_label(target)
        point, base = jet
        key = (label, i, which)
        try:
            moved = geometry.pushforward(
                point, symplectic.infinitesimal_point_map(field, Dual(0, 1)))
            gens, _ = signature.generator_map(*target)(moved)
            vals = {k: gens[k].value() for k in base}
        except DEGENERATE as err:
            return Op(f"{label}#{i}", 1, True,
                      (label, i, type(err).__name__), key)
        holds = all(getattr(v, "eps", 0) == 0 and getattr(v, "re", v) == base[k]
                    for k, v in vals.items())
        return Op(f"{label}#{i}", 1, not holds,
                  (label, i, tuple(str(getattr(vals[k], "re", vals[k])) for k in sorted(vals))),
                  key)


def build(name, seed, workdir):
    """Set up workload `name` for `seed`; workdir holds any files it writes."""
    if name in ("battery", "deep"):
        return Pairs(seed, deep=name == "deep")
    if name == "clouds":
        return Clouds(seed, workdir)
    if name == "exact":
        return Exact(seed)
    raise ValueError(f"unknown workload {name!r}")
