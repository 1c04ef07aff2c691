"""Plain-text job files describing an invariant-evaluation task.

Format: `key = value` lines followed by an `exprs:` block, one
`name = expression` per line.  Trivially diffable; round-trips through
JobSpec.to_text / JobSpec.from_text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _tables
from .errors import ExprError, JobError
from .exprs import parse as parse_expr
from .exprs import to_text as expr_text
from .geometry import CHARTS, default_order, n_independent
from .signature import RECIPES

# Largest product table (``_tables.pair_count`` at the default order) a job
# may need.  The table is built before any sample runs: hypersurface n = 4
# needs 38760 pairs, function n = 4 74613 and function n = 10 over 9 million,
# whose three int64 arrays alone take 225 MB.
MAX_PRODUCT_PAIRS = 50_000

# Most samples a job may draw.  The sampler draws every point at once and
# keeps one row per sample, about 0.2 KB each before any evaluation, so a
# million samples stay within a few hundred MB.
MAX_SAMPLES = 1_000_000

# Header keys a job may set; geometry and flavor have no default.
HEADER_KEYS = ("geometry", "flavor", "n", "window", "samples", "depth", "seed", "format")

_DEFAULTS = {
    "n": 1,
    "window": (0.5, 1.5),
    "samples": 64,
    "depth": 1,
    "seed": 0,
    "format": "csv",
}


@dataclass(frozen=True)
class JobSpec:
    geometry: str
    flavor: str
    n: int
    window: tuple
    samples: int
    depth: int
    seed: int
    format: str
    exprs: dict  # dependent (or full-coordinate) name -> ExprAst
    parametric: bool = False

    @classmethod
    def from_text(cls, text):
        keys = dict(_DEFAULTS)
        exprs = {}
        in_exprs = False
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "exprs:":
                in_exprs = True
                continue
            if "=" not in line:
                raise JobError(f"line {lineno}: expected 'key = value'", field="syntax")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if in_exprs:
                try:
                    exprs[key] = parse_expr(value)
                except ExprError as err:
                    raise JobError(f"bad expression for {key!r}: {err}", field=key) from None
            else:
                keys[key] = value
        return cls._validate(keys, exprs)

    @classmethod
    def _validate(cls, keys, exprs):
        """Check header values (strings from a job file, or typed values) and
        expressions; return the JobSpec or raise JobError."""
        unknown = sorted(set(keys) - set(HEADER_KEYS))
        if unknown:
            raise JobError(f"unknown key {unknown[0]!r} (allowed: {', '.join(HEADER_KEYS)})",
                           field=unknown[0])
        geometry = keys.get("geometry")
        if geometry not in CHARTS:
            raise JobError(f"unknown geometry {geometry!r}", field="geometry")
        flavor = keys.get("flavor")
        flavors = [f for g, f in RECIPES if g == geometry]
        if flavor not in flavors:
            raise JobError(
                f"flavor {flavor!r} not valid for geometry {geometry!r} "
                f"(allowed: {', '.join(flavors)})", field="flavor")
        try:
            n = int(keys["n"])
        except (TypeError, ValueError):
            raise JobError("n must be an integer", field="n") from None
        if n < 1:
            raise JobError("n must be >= 1", field="n")
        fixed_n = RECIPES[geometry, flavor].n
        if fixed_n is not None and n != fixed_n:
            raise JobError(f"{geometry}/{flavor} is implemented for n = {fixed_n} only",
                           field="n")
        p, order = n_independent(geometry, n), default_order(geometry, n)
        pairs = _tables.pair_count(p, order)
        if pairs > MAX_PRODUCT_PAIRS:
            raise JobError(
                f"n = {n} is too large for geometry {geometry!r}: order-{order} jets in {p}"
                f" variables need a {pairs}-pair product table (limit {MAX_PRODUCT_PAIRS})",
                field="n")
        window = keys["window"]
        if isinstance(window, str):
            try:
                lo, _, hi = window.partition(":")
                window = (float(lo), float(hi))
            except ValueError:
                raise JobError(f"bad window {window!r}, expected A:B", field="window") from None
        # hi - lo must be finite too: the sampler draws from [lo, hi)
        if not (window[0] < window[1] and math.isfinite(window[1] - window[0])):
            raise JobError("window must be finite and satisfy A < B", field="window")
        try:
            samples = int(keys["samples"])
            depth = int(keys["depth"])
            seed = int(keys["seed"])
        except (TypeError, ValueError):
            raise JobError("samples/depth/seed must be integers", field="samples") from None
        if samples < 1:
            raise JobError("samples must be positive", field="samples")
        if samples > MAX_SAMPLES:
            raise JobError(f"samples must be at most {MAX_SAMPLES} (got {samples})",
                           field="samples")
        if depth < 0:
            raise JobError("depth must be >= 0", field="depth")
        reach = order - RECIPES[geometry, flavor].order(n)  # a derivation costs one order
        if depth > reach:
            raise JobError(f"depth {depth} needs jet order {order - reach + depth}, above "
                           f"{geometry}/{flavor}'s order {order} (depth <= {reach})",
                           field="depth")
        if seed < 0:
            raise JobError("seed must be >= 0", field="seed")
        fmt = keys["format"]
        if fmt not in ("csv", "json"):
            raise JobError(f"unknown format {fmt!r}", field="format")

        chart = CHARTS[geometry](n)
        dependent = set(chart.dependent)
        given = set(exprs)
        parametric = False
        if geometry == "curve" and given == set(chart.space.names):
            parametric = True
            param = "t" if "t" not in chart.space.names else "s"
            for name, ast in exprs.items():
                extra = set(ast.free_vars) - {param}
                if extra:
                    raise JobError(
                        f"parametric expression for {name!r} must use only {param!r},"
                        f" found {sorted(extra)}", field=name)
        elif given == dependent:
            indep = set(chart.independent_names())
            for name, ast in exprs.items():
                extra = set(ast.free_vars) - indep
                if extra:
                    raise JobError(
                        f"expression for {name!r} uses unknown variables {sorted(extra)}",
                        field=name)
        else:
            raise JobError(
                f"geometry {geometry!r} needs expressions for {sorted(dependent)}"
                + (" (or all coordinates for a parametric curve)" if geometry == "curve" else "")
                + f", got {sorted(given)}", field="exprs")
        return cls(geometry, flavor, n, tuple(window), samples, depth, seed, fmt,
                   dict(exprs), parametric)

    def to_text(self):
        lines = [
            f"geometry = {self.geometry}",
            f"flavor = {self.flavor}",
            f"n = {self.n}",
            f"window = {self.window[0]!r}:{self.window[1]!r}",
            f"samples = {self.samples}",
            f"depth = {self.depth}",
            f"seed = {self.seed}",
            f"format = {self.format}",
            "exprs:",
        ]
        for name in self._expr_order():
            lines.append(f"  {name} = {expr_text(self.exprs[name])}")
        return "\n".join(lines) + "\n"

    def _expr_order(self):
        chart = CHARTS[self.geometry](self.n)
        names = chart.space.names if self.parametric else chart.dependent
        return [nm for nm in names if nm in self.exprs]

    def parameter_names(self):
        chart = CHARTS[self.geometry](self.n)
        if self.parametric:
            return ("t" if "t" not in chart.space.names else "s",)
        return chart.independent_names()
