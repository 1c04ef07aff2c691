"""Job files and the command-line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympinv import _tables
from sympinv.cli import main
from sympinv.errors import JobError
from sympinv.geometry import CHARTS, default_order, n_independent
from sympinv.jobs import MAX_PRODUCT_PAIRS, JobSpec

PARABOLA = """\
geometry = curve
flavor = sp
n = 1
window = 1:2
samples = 4
depth = 1
seed = 0
format = csv
exprs:
  y = x^2
"""

CUBIC = PARABOLA.replace("y = x^2", "y = x^3")

SHEARED = PARABOLA.replace("y = x^2", "y = x^2 + 0.5*x")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestJobSpec:
    def test_round_trip(self):
        job = JobSpec.from_text(PARABOLA)
        assert job.geometry == "curve"
        assert job.window == (1.0, 2.0)
        again = JobSpec.from_text(job.to_text())
        assert again == job

    def test_geometry_flavor_mismatch(self):
        bad = PARABOLA.replace("flavor = sp", "flavor = contact-csp")
        with pytest.raises(JobError):
            JobSpec.from_text(bad)

    def test_wrong_definitions_for_geometry(self):
        bad = PARABOLA.replace("geometry = curve", "geometry = surface")
        with pytest.raises(JobError):
            JobSpec.from_text(bad)

    def test_parametric_curve_detected(self):
        text = PARABOLA.replace("  y = x^2", "  x = t + t^2\n  y = t^3")
        job = JobSpec.from_text(text)
        assert job.parametric
        assert job.parameter_names() == ("t",)

    def test_bad_window(self):
        with pytest.raises(JobError):
            JobSpec.from_text(PARABOLA.replace("window = 1:2", "window = 2:1"))

    @pytest.mark.parametrize("old,new", [
        ("window = 1:2", "window = 0:inf"),
        ("window = 1:2", "window = nan:1"),
        ("window = 1:2", "window = -1e308:1e308"),
        ("n = 1", "n = 0"),
        ("n = 1", "n = -1"),
        ("seed = 0", "seed = -1"),
        ("seed = 0", "seed = 0\nbogus = 1"),
    ])
    def test_invalid_header(self, old, new):
        with pytest.raises(JobError):
            JobSpec.from_text(PARABOLA.replace(old, new))

    @pytest.mark.parametrize("geometry,n,body", [
        ("function", 4, "u = x1"), ("function", 10, "u = x1"),
        ("hypersurface", 5, "u = x1"), ("curve", 156, "y = x"),
    ])
    def test_n_beyond_the_product_table_limit(self, geometry, n, body):
        text = f"geometry = {geometry}\nflavor = sp\nn = {n}\nexprs:\n  {body}\n"
        with pytest.raises(JobError, match="too large"):
            JobSpec.from_text(text)

    @pytest.mark.parametrize("geometry,n", [("function", 3), ("hypersurface", 4), ("curve", 155)])
    def test_largest_n_within_the_limit_is_accepted(self, geometry, n):
        chart = CHARTS[geometry](n)
        body = "\n".join(f"  {name} = 1" for name in chart.dependent)
        job = JobSpec.from_text(f"geometry = {geometry}\nflavor = sp\nn = {n}\nexprs:\n{body}\n")
        order = default_order(geometry, n)
        pairs = _tables.pair_count(chart.n_independent, order)
        assert job.n == n and pairs <= MAX_PRODUCT_PAIRS

    def test_n_independent_matches_the_charts(self):
        for geometry, chart_of in CHARTS.items():
            for n in range(1, 5):
                assert n_independent(geometry, n) == chart_of(n).n_independent

    def test_window_round_trips_exactly(self):
        job = JobSpec.from_text(PARABOLA.replace("window = 1:2", "window = 0.1234567:1.1"))
        again = JobSpec.from_text(job.to_text())
        assert again.window == (0.1234567, 1.1)
        assert again == job


_WINDOW_BOUNDS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_JOBS = {  # geometry -> (flavor, expression block)
    "curve": ("sp", "y = x^2 + 0.1234567*x"),
    "function": ("csp", "u = x^2*y + exp(y)/3"),
    "contact-curve": ("contact-csp", "y = x^3\n  z = sin(x)"),
}


_WINDOWS = st.tuples(_WINDOW_BOUNDS, _WINDOW_BOUNDS).filter(lambda w: w[0] < w[1])


def job_text(geometry, bounds, samples, depth, seed, fmt):
    flavor, body = _JOBS[geometry]
    return (f"geometry = {geometry}\nflavor = {flavor}\nwindow = {bounds[0]!r}:{bounds[1]!r}\n"
            f"samples = {samples}\ndepth = {depth}\nseed = {seed}\nformat = {fmt}\n"
            f"exprs:\n  {body}\n")


@settings(max_examples=60, deadline=None)
@given(geometry=st.sampled_from(sorted(_JOBS)), bounds=_WINDOWS,
       samples=st.integers(1, 10**6), depth=st.integers(0, 5),
       seed=st.integers(0, 2**63), fmt=st.sampled_from(["csv", "json"]))
def test_job_text_round_trip(geometry, bounds, samples, depth, seed, fmt):
    job = JobSpec.from_text(job_text(geometry, bounds, samples, depth, seed, fmt))
    assert job.window == bounds
    assert JobSpec.from_text(job.to_text()) == job


_VALUES = st.one_of(st.text(max_size=12), st.sampled_from(
    ["curve", "function", "surface", "sp", "csp", "contact", "2", "1", "0", "-1", "1.5",
     "1:2", "2:1", "0:inf", "nan:1", "-1e308:1e308", "json"]))


@settings(max_examples=300, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(
           ["geometry", "flavor", "n", "window", "samples", "depth", "seed", "format", "bogus"]),
           _VALUES, max_size=3),
       expr=st.one_of(st.text(max_size=30), st.sampled_from(
           ["x^2", "x^(1/0)", "x^(1/5)", "1\u00b2", "(" * 300 + "x" + ")" * 300, "t + x"])),
       junk=st.text(max_size=40))
def test_any_job_text_parses_or_raises_job_error(changes, expr, junk):
    header = dict(line.split(" = ") for line in PARABOLA.split("exprs:")[0].splitlines())
    header.update(changes)
    text = "".join(f"{k} = {v}\n" for k, v in header.items()) + f"exprs:\n  y = {expr}\n{junk}"
    for candidate in (text, junk):
        try:
            assert isinstance(JobSpec.from_text(candidate), JobSpec)
        except JobError:
            pass


# small jobs, so that a command runs in milliseconds
_SMALL_JOBS = st.builds(job_text, st.sampled_from(sorted(_JOBS)), _WINDOWS,
                        st.integers(1, 3), st.integers(0, 2), st.integers(0, 2**63),
                        st.sampled_from(["csv", "json"]))
_PATHS = ["@job", "@job2", "@missing", "@dir", "@dir/missing/out.json", "@dir/out.json"]
_OVERRIDES = {"--samples": ["1", "2", "0", "-1"], "--depth": ["0", "2", "-1"],
              "--window": ["0.5:0.75", "2:1", "0:inf", "1e100:1e101", "700:738"],
              "--seed": ["0", "7", "-1"]}
_COMMAND_OPTIONS = {  # option -> values it is likely to get
    "invariants": {"--job": _PATHS, "--format": ["csv", "json", "xml"], **_OVERRIDES},
    "signature": {"--job": _PATHS, "--out": _PATHS[2:], **_OVERRIDES},
    "equivalence": {"--job": _PATHS, "--job2": _PATHS, "--tol": ["1e-6", "0", "nan", "-1"],
                    **_OVERRIDES},
    "check": {"--geometry": ["curve", "function", "contact-curve", "x"],
              "--flavor": ["sp", "csp", "contact-csp", "x"], "--n": ["0", "1", "2", "-1"],
              "--trials": ["0", "1"], "--jets": ["0", "1"], "--seed": ["0", "3", "-1"]},
}
_ANY_OPTION = sorted({o for opts in _COMMAND_OPTIONS.values() for o in opts} | {"--help"})
# no '-' in free text: an abbreviated option such as --sa would take any value
_STRAY = st.one_of(st.sampled_from(["0", "-1", "nan", "1:2", "", "sp"] + _PATHS),
                   st.text(st.characters(blacklist_characters="-"), max_size=6))


@st.composite
def argvs(draw):
    """A subcommand, mostly its own options with values, and stray tokens."""
    command = draw(st.sampled_from([*_COMMAND_OPTIONS, "bogus"]))
    options = _COMMAND_OPTIONS.get(command, {})
    argv = [command]
    if command == "check":
        argv.append(draw(st.one_of(st.sampled_from(["invariance", "syzygy", "counting"]),
                                   _STRAY)))
    elif draw(st.booleans()):
        argv += ["--job", "@job"] + (["--job2", "@job2"] if command == "equivalence" else [])
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 9))
        if kind < 8 and options:
            option = draw(st.sampled_from(sorted(options)))
            argv += [option, draw(st.sampled_from(options[option]) if kind < 6 else _STRAY)]
        else:
            argv.append(draw(st.sampled_from(_ANY_OPTION) if kind == 8 else _STRAY))
    if command == "check":  # the last --trials/--jets win and keep the suites small
        trials, jets = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
        argv += ["--trials", str(trials), "--jets", str(jets)]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs(), texts=st.tuples(_SMALL_JOBS, _SMALL_JOBS))
@example(argv=["signature", "--job", "@job", "--out", "stray.json"],
         texts=(job_text("curve", (1.0, 2.0), 2, 1, 0, "json"),) * 2)
@example(argv=["invariants", "--job", "\x00"],
         texts=(job_text("curve", (1.0, 2.0), 1, 0, 0, "csv"),) * 2)
@example(argv=["signature", "--job", "@job", "--out", "a\x00b"],
         texts=(job_text("curve", (1.0, 2.0), 1, 0, 0, "json"),) * 2)
def test_any_argv_exits_with_a_documented_code(argv, texts):
    """Every argv ends in exit code 0-5 (argparse exits 0 or 2), never a traceback.

    Each example runs in its own temporary directory, so a stray token taken
    as a relative output path writes nothing where the tests run.
    """
    start = os.getcwd()
    listing = sorted(os.listdir(start))
    with tempfile.TemporaryDirectory() as tmp:
        paths = dict(zip(_PATHS, [f"{tmp}/a.job", f"{tmp}/b.job", f"{tmp}/none.job", tmp,
                                  f"{tmp}/missing/out.json", f"{tmp}/out.json"]))
        for key, text in zip(("@job", "@job2"), texts):
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([paths.get(a, a) for a in argv])
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(start)
    assert code in range(6), (argv, err.getvalue())
    assert sorted(os.listdir(start)) == listing


class TestInvariantsCommand:
    def test_job_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "binary.job"
        path.write_bytes(b"geometry = curve\n\xff\xfe\n")
        assert main(["invariants", "--job", str(path)]) == 2
        assert "cannot read job file" in capsys.readouterr().err

    def test_csv_rows_and_formula(self, tmp_path, capsys):
        path = write(tmp_path, "parabola.job", PARABOLA)
        code = main(["invariants", "--job", path])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        header = out[0].split(",")
        assert header[:2] == ["sample", "x"]
        assert "I2" in header
        idx = header.index("I2")
        assert len(out) == 5
        for line in out[1:]:
            cells = line.split(",")
            x = float(cells[1])
            i2 = float(cells[idx])
            assert i2 == pytest.approx(2.0 / x**6, rel=1e-10)

    def test_geometry_flavor_mismatch_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.job",
                     PARABOLA.replace("geometry = curve", "geometry = surface"))
        code = main(["invariants", "--job", path])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("n = 1", "n = 0"),
        ("seed = 0", "seed = 0\nbogus = 1"),
    ])
    def test_invalid_job_file_exits_2(self, tmp_path, capsys, old, new):
        path = write(tmp_path, "bad.job", PARABOLA.replace(old, new))
        assert main(["invariants", "--job", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_large_n_exits_2_without_building_a_table(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"table built for {args}")

        for name in ("monomials", "index_of", "count", "product_table", "partial_table"):
            monkeypatch.setattr(_tables, name, refuse)
        text = PARABOLA.replace("geometry = curve", "geometry = function").replace(
            "n = 1", "n = 10").replace("y = x^2", "u = x1")
        path = write(tmp_path, "big.job", text)
        assert main(["invariants", "--job", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too large" in err

    @pytest.mark.parametrize("expr,window", [
        ("x^2 + 2^2000", "1:2"), ("exp(x)", "1e100:1e101"), ("log(exp(x))", "710:738"),
        ("sin(x^4)", "1e100:1e101"), ("x^2 + sin(10^300*10^300)", "1:2"),
    ])
    def test_values_beyond_the_float_range_are_degenerate(self, tmp_path, capsys, expr, window):
        text = PARABOLA.replace("y = x^2", f"y = {expr}").replace("1:2", window)
        assert main(["invariants", "--job", write(tmp_path, "big.job", text)]) == 3
        assert capsys.readouterr().err == "error: all samples degenerate\n"

    def test_all_degenerate_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "line.job", PARABOLA.replace("y = x^2", "y = x"))
        code = main(["invariants", "--job", path])
        assert code == 3

    def test_json_matches_csv(self, tmp_path, capsys):
        path = write(tmp_path, "parabola.job", PARABOLA)
        main(["invariants", "--job", path, "--format", "csv"])
        csv_out = capsys.readouterr().out.strip().splitlines()
        main(["invariants", "--job", path, "--format", "json"])
        json_out = json.loads(capsys.readouterr().out)
        header = csv_out[0].split(",")
        labels = json_out["labels"]
        assert header[2:-1] == labels
        for line, row in zip(csv_out[1:], json_out["rows"]):
            cells = line.split(",")
            for k, v in enumerate(row["values"]):
                assert float(cells[2 + k]) == pytest.approx(v, rel=1e-15)

    def test_determinism(self, tmp_path, capsys):
        path = write(tmp_path, "parabola.job", PARABOLA)
        main(["invariants", "--job", path])
        first = capsys.readouterr().out
        main(["invariants", "--job", path])
        second = capsys.readouterr().out
        assert first == second


class TestOverrides:
    @pytest.mark.parametrize("flags", [
        ["--samples", "0"],
        ["--depth", "-1"],
        ["--seed", "-1"],
        ["--window", "0:inf"],
        ["--window=-1e308:1e308"],
        ["--window", "2:1"],
        ["--window", "1"],
    ])
    @pytest.mark.parametrize("command", ["invariants", "signature"])
    def test_invalid_override_exits_2(self, tmp_path, capsys, command, flags):
        path = write(tmp_path, "parabola.job", PARABOLA)
        assert main([command, "--job", path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_valid_overrides_apply(self, tmp_path, capsys):
        path = write(tmp_path, "parabola.job", PARABOLA)
        code = main(["signature", "--job", path, "--samples", "3", "--window", "0.25:0.75",
                     "--depth", "0", "--seed", "5"])
        cloud = json.loads(capsys.readouterr().out)
        assert code == 0
        assert cloud["window"] == [0.25, 0.75]
        assert cloud["depth"] == 0
        assert len(cloud["points"]) == 3


class TestEquivalenceCommand:
    def test_parabola_vs_shear_equivalent(self, tmp_path, capsys):
        j1 = write(tmp_path, "a.job", PARABOLA)
        j2 = write(tmp_path, "b.job", SHEARED)
        code = main(["equivalence", "--job", j1, "--job2", j2])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_parabola_vs_cubic_distinct(self, tmp_path, capsys):
        j1 = write(tmp_path, "a.job", PARABOLA)
        j2 = write(tmp_path, "b.job", CUBIC)
        code = main(["equivalence", "--job", j1, "--job2", j2])
        assert code == 4
        assert "distinct" in capsys.readouterr().out

    def test_incompatible_jobs_exit_2(self, tmp_path):
        j1 = write(tmp_path, "a.job", PARABOLA)
        j2 = write(tmp_path, "b.job", PARABOLA.replace("depth = 1", "depth = 2"))
        assert main(["equivalence", "--job", j1, "--job2", j2]) == 2


class TestSignatureCommand:
    def test_emits_json_cloud(self, tmp_path, capsys):
        path = write(tmp_path, "parabola.job", PARABOLA)
        code = main(["signature", "--job", path])
        out = capsys.readouterr().out
        assert code == 0
        cloud = json.loads(out)
        assert cloud["geometry"] == "curve"
        assert len(cloud["points"]) == 4

    def test_out_file_written(self, tmp_path, capsys):
        path = write(tmp_path, "parabola.job", PARABOLA)
        out = tmp_path / "cloud.json"
        assert main(["signature", "--job", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["geometry"] == "curve"

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "parabola.job", PARABOLA)
        code = main(["signature", "--job", path, "--out", str(tmp_path / "missing" / "c.json")])
        assert code == 2
        assert "error: cannot write" in capsys.readouterr().err


class TestCheckCommand:
    def test_counting_suite_passes(self, capsys):
        code = main(["check", "counting", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "curves R4 k=3: expected 10, observed 10" in out

    def test_syzygy_suite_passes(self, capsys):
        code = main(["check", "syzygy", "--jets", "4", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out

    def test_invariance_fails_on_a_nan_error(self, capsys, monkeypatch):
        from sympinv import extended

        frame = extended.csp_curve_invariants

        def nan_generators(point):
            gens, ders = frame(point)
            return {k: float("nan") for k in gens}, ders

        monkeypatch.setattr(extended, "csp_curve_invariants", nan_generators)
        code = main(["check", "invariance", "--geometry", "curve", "--flavor", "csp",
                     "--trials", "2", "--jets", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL  invariance curve/csp n=1: max rel err nan")

    def test_syzygy_fails_on_a_nan_residual(self, capsys, monkeypatch):
        from sympinv import functions

        monkeypatch.setattr(functions, "syzygy_residuals_n1", lambda point: {"R1": float("nan")})
        code = main(["check", "syzygy", "--jets", "2", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL  plane functions R1-R3: max residual nan")

    @pytest.mark.parametrize("suite", ["counting", "syzygy", "invariance"])
    def test_negative_seed_exits_2(self, capsys, suite):
        assert main(["check", suite, "--seed", "-1", "--trials", "1", "--jets", "1"]) == 2
        assert capsys.readouterr().err == "error: --seed: must be >= 0\n"

    def test_invariance_suite_small(self, capsys):
        code = main(["check", "invariance", "--geometry", "curve", "--flavor", "sp",
                     "--n", "1", "--trials", "5", "--jets", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "sympinv.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "invariants" in proc.stdout
