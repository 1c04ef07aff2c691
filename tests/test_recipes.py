"""The recipe table and the one sampler behind `invariants` and `signature`."""

import contextlib
import io
import json

import numpy as np
import pytest

from helpers import bench_module
from test_acceptance import _BATTERY

from sympinv import _tables
from sympinv.cli import main
from sympinv.errors import GeometryError, JetError, JobError
from sympinv.geometry import CHARTS, JetPoint, default_order, n_independent
from sympinv.jobs import MAX_PRODUCT_PAIRS, JobSpec
from sympinv.signature import (RECIPES, component_labels, generator_map, invariance_targets,
                               psi_values)


def probe(geometry, flavor, n):
    """(generator keys, derivation count) the evaluator returns on a generic
    random jet: how the labels were learnt before the table held them."""
    ev = generator_map(geometry, flavor, n)
    rng = np.random.default_rng(12345)
    for _ in range(20):
        point = JetPoint.random(CHARTS[geometry](n), default_order(geometry, n), rng)
        try:
            gens, ders = ev(point)
        except (GeometryError, JetError):
            continue
        return tuple(gens.keys()), len(ders), point
    raise AssertionError(f"no generic jet for {geometry}/{flavor}/{n}")


def within_product_limit(geometry, n):
    pairs = _tables.pair_count(n_independent(geometry, n), default_order(geometry, n))
    return pairs <= MAX_PRODUCT_PAIRS


def probed_cases():
    for (geometry, flavor), recipe in RECIPES.items():
        ns = [recipe.n] if recipe.n else range(1, 4 if geometry == "curve" else 5)
        for n in ns:
            if within_product_limit(geometry, n):
                yield geometry, flavor, n


@pytest.mark.parametrize("geometry,flavor,n", list(probed_cases()))
def test_labels_and_derivation_count_match_the_evaluator(geometry, flavor, n):
    recipe = RECIPES[geometry, flavor]
    keys, n_ders, point = probe(geometry, flavor, n)
    assert keys == recipe.labels(n)
    assert n_ders == recipe.derivations(n)
    raw, _ = recipe.evaluate(point, n)
    assert [k for k in raw if k in keys] == list(keys)
    values = psi_values(point, geometry, flavor, n, 1)
    assert len(values) == len(component_labels(geometry, flavor, n, 1))


def test_invariance_targets_are_the_acceptance_battery():
    assert invariance_targets() == _BATTERY
    assert tuple(invariance_targets()) == bench_module("workloads").TARGETS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


PARAMETRIC_CURVE = ("curve", "sp", 2, {"t": "s", "x": "s^2/2 + s", "y": "sin(s) + s^3/6",
                                       "z": "exp(s/3)"})


@pytest.mark.parametrize("job", [*bench_module("workloads").CLOUD_JOBS, PARAMETRIC_CURVE],
                         ids=lambda job: "{}/{}/{}".format(*job[:3]))
def test_invariants_rows_are_the_signature_points(tmp_path, job):
    workloads = bench_module("workloads")
    path = tmp_path / "standard.job"
    path.write_text(workloads.job_text(*job, samples=16, depth=2, seed=3))
    code, out, _ = run(["invariants", "--job", str(path), "--format", "json"])
    assert code == 0
    table = strict_json(out)
    code, out, _ = run(["signature", "--job", str(path)])
    assert code == 0
    cloud = strict_json(out)
    assert table["labels"] == cloud["generators"]
    values = [row["values"] for row in table["rows"] if row["values"] is not None]
    assert values == cloud["points"]
    assert len(table["rows"]) - len(values) == cloud["degenerate_count"]
    assert len(values) > 0


# --- job validation ----------------------------------------------------------------

_FLAVORS_BEFORE = {  # the flavor table JobSpec kept before the recipes held it
    "curve": ("sp", "csp", "asp", "acsp"),
    "function": ("sp", "csp", "asp", "acsp"),
    "hypersurface": ("sp",),
    "surface": ("sp",),
    "contact-curve": ("contact", "contact-csp"),
    "contact-surface": ("contact-csp",),
    "contact-function": ("contact-csp",),
}
_ALL_FLAVORS = ("sp", "csp", "asp", "acsp", "contact", "contact-csp")


def accepted_before(geometry, flavor, n):
    """JobSpec's rules for (geometry, flavor, n) before the recipe table."""
    if flavor not in _FLAVORS_BEFORE[geometry] or n < 1:
        return False
    if geometry in ("surface", "contact-curve", "contact-surface", "contact-function"):
        if n != (2 if geometry == "surface" else 1):
            return False
    if flavor in ("csp", "asp", "acsp") and n != 1:
        return False
    return within_product_limit(geometry, n)


def accepts(geometry, flavor, n):
    body = "\n".join(f"  {name} = 1" for name in CHARTS[geometry](max(n, 1)).dependent)
    try:
        JobSpec.from_text(f"geometry = {geometry}\nflavor = {flavor}\nn = {n}\nexprs:\n{body}\n")
    except JobError:
        return False
    return True


@pytest.mark.parametrize("geometry", sorted(_FLAVORS_BEFORE))
def test_jobs_accept_what_they_accepted_before(geometry):
    for flavor in _ALL_FLAVORS:
        for n in range(7):
            assert accepts(geometry, flavor, n) == accepted_before(geometry, flavor, n), \
                (geometry, flavor, n)
    flavor = _FLAVORS_BEFORE[geometry][0]
    largest = max(n for n in range(1, 200) if accepted_before(geometry, flavor, n))
    assert accepts(geometry, flavor, largest)
    assert not accepts(geometry, flavor, largest + 1)
    assert not accepted_before(geometry, flavor, largest + 1)


# --- non-finite samples ---------------------------------------------------------------

NON_FINITE = """\
geometry = curve
flavor = sp
window = 0:738
samples = 2
seed = 1
exprs:
  y = sin(exp(x))
"""


@pytest.mark.parametrize("command", ["invariants", "signature"])
def test_non_finite_samples_are_degenerate(tmp_path, command):
    path = tmp_path / "nan.job"
    path.write_text(NON_FINITE)
    code, out, err = run([command, "--job", str(path)])
    assert (code, out) == (3, "")
    assert err.startswith("error: all")


def test_non_finite_is_a_named_degeneracy(tmp_path):
    path = tmp_path / "nan.job"
    path.write_text(NON_FINITE)
    argv = ["--job", str(path), "--samples", "12", "--depth", "0"]
    code, out, _ = run(["invariants", *argv])
    assert code == 0
    flags = [line.split(",")[-1] for line in out.splitlines()[1:]]
    assert set(flags) == {"", "NonFinite"}
    code, out, _ = run(["signature", *argv])
    assert code == 0
    cloud = strict_json(out)
    assert cloud["degenerate_count"] == flags.count("NonFinite")
    assert len(cloud["points"]) == flags.count("")
