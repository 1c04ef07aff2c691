"""The recipe table and the one sampler behind `invariants` and `signature`."""

import contextlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from helpers import bench_module

from sympinv import _tables
from sympinv.cli import main
from sympinv.errors import GeometryError, JetError, JobError
from sympinv.geometry import (CHARTS, Derivation, JetPoint, default_order, n_independent,
                              relation_residual, relation_values)
from sympinv.jets import MultiJet
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
    """Criterion 2 iterates the registry; the bench keeps its own copies of the
    targets and of their orders, which must not drift from it."""
    workloads = bench_module("workloads")
    assert tuple(invariance_targets()) == workloads.TARGETS
    assert ([RECIPES[g, f].order(n) for g, f, n in workloads.TARGETS]
            == [workloads.battery_order(g, f, n) for g, f, n in workloads.TARGETS])


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


@pytest.mark.parametrize("geometry,flavor,n", invariance_targets())
def test_jobs_accept_exactly_the_depths_their_order_reaches(geometry, flavor, n):
    order = default_order(geometry, n)
    reach = order - RECIPES[geometry, flavor].order(n)
    body = "\n".join(f"  {name} = 1" for name in CHARTS[geometry](n).dependent)
    text = f"geometry = {geometry}\nflavor = {flavor}\nn = {n}\ndepth = {{}}\nexprs:\n{body}\n"
    assert JobSpec.from_text(text.format(reach)).depth == reach
    with pytest.raises(JobError, match=f"depth {reach + 1} needs jet order {order + 1},"):
        JobSpec.from_text(text.format(reach + 1))


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


def test_overflow_warnings_stay_off_stderr(tmp_path):
    path = tmp_path / "nan.job"
    path.write_text(NON_FINITE)
    proc = subprocess.run([sys.executable, "-m", "sympinv.cli", "invariants", "--job", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == "error: all samples degenerate\n"


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


# --- relations ----------------------------------------------------------------------

SYZYGY_FAMILIES = [key for key, recipe in RECIPES.items() if recipe.syzygies is not None]


def test_syzygy_families_are_the_five_documented_ones():
    assert SYZYGY_FAMILIES == [("function", "sp"), ("function", "csp"), ("function", "asp"),
                               ("contact-surface", "contact-csp"),
                               ("contact-function", "contact-csp")]


def generic_relations(geometry, flavor, exact, rng):
    order, relations = RECIPES[geometry, flavor].syzygies
    for _ in range(20):
        point = JetPoint.random(CHARTS[geometry](1), order, rng, exact=exact)
        try:
            return relations(point)
        except (GeometryError, JetError, ZeroDivisionError):
            continue
    raise AssertionError(f"no generic jet for {geometry}/{flavor}")


def first_term_scaled(terms, factor):
    first = terms[0].scale(factor) if isinstance(terms[0], Derivation) else terms[0] * factor
    return [first, *terms[1:]]


@pytest.mark.parametrize("geometry, flavor", SYZYGY_FAMILIES)
def test_one_relation_list_feeds_both_checks(geometry, flavor):
    # a relation that is off by a factor 1 + 1e-3 in one term fails the float
    # check and the exact check alike, for every relation of the family
    rng = np.random.default_rng(23)
    relations = generic_relations(geometry, flavor, False, rng)
    for name, terms in relations.items():
        assert relation_residual(terms) <= 1e-7, name
        assert relation_residual(first_term_scaled(terms, 1 + 1e-3)) > 1e-7, name
    relations = generic_relations(geometry, flavor, True, rng)
    for name, terms in relations.items():
        assert all(v == 0 for v in relation_values(terms)), name
        off = first_term_scaled(terms, Fraction(1001, 1000))
        assert any(v != 0 for v in relation_values(off)), name


def test_relation_residual_and_values():
    def const(v):
        return MultiJet.constant(v, 2, 1, (0.5, 0.5))

    a, eps = 3.0, 1e-9
    assert relation_residual([const(a), -a + eps]) == pytest.approx(eps / a, rel=1e-6)
    assert relation_residual([const(2.0), -2]) == 0.0
    assert relation_values([Fraction(1, 3), -Fraction(1, 3)]) == [0]
    d = Derivation((const(1.0), const(-4.0)))
    e = Derivation((const(-1.0), const(4.0 - 1e-6)))
    assert relation_residual([d, e]) == pytest.approx(1e-6 / 4.0, rel=1e-6)
    assert relation_values([d, e]) == [0.0, pytest.approx(-1e-6)]
    assert math.isnan(relation_residual([const(1.0), float("nan")]))
    assert math.isnan(relation_residual([d, Derivation((const(float("nan")), const(4.0)))]))
