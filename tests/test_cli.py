"""CLI commands, configuration validation, report and field round trips."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logchoquard import cli, families, grids, reports, spaces
from logchoquard.config import DEFAULTS, load_config
from logchoquard.errors import InvalidParameterError, ValidationError


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


BASE = """
[nonlinearity]
kind = exp_minus_one
q = 2
"""


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE), "solve")
    assert cfg.domain_radius == 20.0
    assert cfg.solver.resolution == 128
    assert cfg.solver.domain_radius == 16.0


def test_missing_q_is_validation_error(tmp_path):
    path = write_config(tmp_path, "[nonlinearity]\nkind = exp_minus_one\n")
    with pytest.raises(ValidationError):
        load_config(path, "check-assumptions")


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, BASE + "\n[mystery]\nx = 1\n")
    with pytest.raises(ValidationError):
        load_config(path, "solve")


def test_rho_beyond_half_rejected(tmp_path):
    path = write_config(tmp_path, BASE + "\n[moser]\nrho = 0.7\n")
    with pytest.raises(ValidationError):
        load_config(path, "moser-scan")


def test_cli_missing_q_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "[nonlinearity]\nkind = exp_minus_one\n")
    code = cli.main(["check-assumptions", "--config", path])
    assert code == 2


def test_cli_check_assumptions(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    code = cli.main(["check-assumptions", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert '"f4_ok": true' in out
    assert '"script_V"' in out


def test_cli_check_assumptions_csv(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    out_path = tmp_path / "report.csv"
    code = cli.main(["check-assumptions", "--config", path,
                     "--format", "csv", "--output", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("key,value")
    assert "results.f2_ok,true" in text


def test_cli_kernel_bench(tmp_path, capsys):
    path = write_config(tmp_path, BASE + "\n[kernel_bench]\nsizes = 16\npairs = 3\n")
    code = cli.main(["kernel-bench", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert '"all_ok": true' in out


def test_cli_check_assumptions_power_exp(tmp_path, capsys):
    path = write_config(tmp_path,
                        "[nonlinearity]\nkind = power_exp\nq = 2\np = 2\n")
    code = cli.main(["check-assumptions", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert '"f4_ok": true' in out


def test_cli_unknown_nonlinearity_key_rejected(tmp_path):
    path = write_config(tmp_path, BASE + "c_amplitud = 0.5\n")
    code = cli.main(["check-assumptions", "--config", path])
    assert code == 2


@pytest.mark.parametrize("setting", ["path_nodes = 16",
                                     "residual_tolerance = 0",
                                     "descent_step = 0",
                                     "grid_kind = hexagonal",
                                     "resolution = 4",
                                     "domain_radius = -1",
                                     "max_iterations = 0",
                                     "rho_sphere = -0.5",
                                     "witness_radius = 0",
                                     "domain_radius = nan"])
def test_cli_invalid_solver_block_rejected_by_every_command(tmp_path, setting):
    path = write_config(tmp_path, BASE + "\n[solver]\n" + setting + "\n")
    code = cli.main(["check-assumptions", "--config", path])
    assert code == 2


@pytest.mark.parametrize("section, setting", [
    ("grid", "domain_radius = nan"),
    ("potential", "floor = nan"),
    ("potential", "amplitude = nan"),
    ("nonlinearity", "p = nan"),
    ("nonlinearity", "q = nan"),
    ("nonlinearity", "s0 = nan"),
    ("nonlinearity", "c_floor = nan"),
    ("nonlinearity", "c_floor = 0"),
    ("nonlinearity", "c_amplitude = nan"),
    ("scan", "s_max = nan"),
    ("nonlinearity", "q = inf"),
    ("potential", "floor = inf"),
    ("grid", "domain_radius = inf"),
    ("moser", "t_max = nan"),
    ("embedding", "alpha = nan"),
    ("kernel_bench", "bench_radius = nan"),
    ("moser", "ns = 0"),
    ("embedding", "moser_ns = 1"),
    ("embedding", "bound_points = 0"),
    ("kernel_bench", "pairs = 0"),
    ("kernel_bench", "sizes = 4"),
    ("kernel_bench", "bench_radius = -1"),
    ("moser", "ray_samples = 63"),
    ("moser", "t_max = 0"),
    ("embedding", "alpha = 0"),
    ("embedding", "alpha = -1"),
    ("output", "pth = x"),
    ("scan", "points = 99"),
    ("grid", "kind = cartesian"),
    ("grid", "kind = radial"),
    ("nonlinearity", "beta = 1"),
])
def test_cli_non_finite_and_nonpositive_settings_rejected(tmp_path, section, setting):
    if setting.startswith("q ="):
        text = BASE.replace("q = 2", setting)
    elif section == "nonlinearity":   # BASE ends inside [nonlinearity]
        text = BASE + setting + "\n"
    else:
        text = BASE + f"\n[{section}]\n{setting}\n"
    path = write_config(tmp_path, text)
    for command in ("check-assumptions", "verify-embedding"):
        assert cli.main([command, "--config", path,
                         "--output", str(tmp_path / "out.json")]) == 2
        assert not os.path.exists(tmp_path / "out.json")


@pytest.mark.parametrize("text", [
    b"[nonlinearity]\nq = 2\nq = 2\n",
    b"[nonlinearity]\nq = 2\n[nonlinearity]\nq = 3\n",
    b"q = 2\n[nonlinearity]\nq = 2\n",
    b"[nonlinearity]\nq = 2\nkind\n",
    b"[nonlinearity]\nq = 2%\n",
    b"[nonlinearity]\nq = 2\xff\n",
    b"[DEFAULT]\nq = 2\n[nonlinearity]\nq = 2\n",
    b"[DEFAULT]\n[nonlinearity]\nq = 2\n",
], ids=["duplicate-key", "duplicate-section", "key-before-header", "no-equals",
        "percent", "non-utf8-byte", "default-section", "empty-default-section"])
def test_cli_malformed_ini_exits_2(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_bytes(text)
    out = tmp_path / "out.json"
    assert cli.main(["check-assumptions", "--config", str(path),
                     "--output", str(out)]) == 2
    assert not out.exists()


def test_output_path_from_the_file_takes_percent_literally(tmp_path):
    out = tmp_path / "report%1.json"
    path = write_config(tmp_path, BASE + f"\n[output]\npath = {out}\n")
    assert cli.main(["check-assumptions", "--config", path]) == 0
    assert '"f4_ok": true' in out.read_text()


@pytest.mark.parametrize("block", [
    "kind = piecewise\nq = 2\ns0 = 10\n",        # the splice constant underflows
    "q = 1e300\n",                                # [q]! overflows
    "kind = piecewise\nq = 400\np = 0.5\n",       # [q]!/2^([q]-1) overflows
    "kind = piecewise\nq = 2\ns0 = 1e300\n",      # s0^2 overflows
    "kind = piecewise\nq = 1e4\np = 0.5\ns0 = 2\n",  # the splice constant overflows
], ids=["piecewise-s0-10", "q-1e300", "piecewise-q-400", "piecewise-s0-1e300",
        "piecewise-q-1e4"])
def test_cli_check_assumptions_extreme_nonlinearity(tmp_path, block):
    path = write_config(tmp_path, "[nonlinearity]\n" + block)
    out = tmp_path / "out.json"
    assert cli.main(["check-assumptions", "--config", path,
                     "--output", str(out)]) in (0, 3)
    assert out.exists()


@pytest.mark.parametrize("command", ["check-assumptions", "solve"])
def test_cli_unwritable_output_exits_2(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, BASE + "\n[solver]\nmax_iterations = 1\n")
    missing = tmp_path / "missing" / "out.json"
    assert cli.main([command, "--config", path, "--output", str(missing)]) == 2
    assert not (tmp_path / "missing").exists()


def test_cli_report_path_that_is_a_directory_exits_2(tmp_path):
    # the directory exists, so the write itself fails, after the computation
    path = write_config(tmp_path, BASE)
    (tmp_path / "taken.json").mkdir()
    assert cli.main(["check-assumptions", "--config", path,
                     "--output", str(tmp_path / "taken.json")]) == 2


KINDS = ["radial", "cartesian", "exp_minus_one", "power_exp", "piecewise", "custom"]
FUZZ_VALUES = st.one_of(
    st.integers(-10**4, 10**4).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(KINDS + ["", "  ", "nan", "-nan", "inf", "-inf", "1e300", "-1e300",
                             "1e-300", "yes", "8, 16,32", "1,,2", ",", "2%", "%(q)s",
                             "%%", "x.json"]),
    st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=4).map(
        lambda ints: ",".join(map(str, ints))),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
UNKNOWN_SECTIONS = ["DEFAULT", "mystery", "Grid"]
DEFECTS = {"duplicate-key": "q = 2", "duplicate-section": "[nonlinearity]",
           "key-before-header": "q = 2", "no-equals": "kind",
           "continuation": "  8", "byte": "q = 2\udcff"}


@st.composite
def ini_files(draw):
    """INI bytes: keys of the config table with values of their own type
    around the default.  Half the files are otherwise clean; in the rest,
    each value may be wild, and a missing q, an unknown section, an unknown
    key and structural defects each occur in about half of them."""
    clean = draw(st.booleans())

    def rarely(odds=2):
        return not clean and draw(st.integers(0, odds - 1)) == 0

    def value(default):
        if rarely(4):
            return draw(FUZZ_VALUES)
        if isinstance(default, tuple):
            return ",".join(map(str, draw(st.lists(st.integers(2, 64), min_size=1,
                                                   max_size=4))))
        if isinstance(default, str):
            return draw(st.sampled_from([default] + KINDS))
        if isinstance(default, int):
            return str(draw(st.integers(0, min(2 * default, 10**4))))
        low, high = (1.0, 8.0) if default is None else (default / 2, 2 * default or 1.0)
        return repr(draw(st.floats(low, high)))

    others = [section for section in DEFAULTS if section != "nonlinearity"]
    sections = [] if rarely() else ["nonlinearity"]
    sections += draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    if rarely():
        sections.insert(draw(st.integers(0, len(sections))),
                        draw(st.sampled_from(UNKNOWN_SECTIONS)))
    lines = []
    for section in sections:
        lines.append(f"[{section}]")
        rows = dict(DEFAULTS.get(section, {}))
        if section == "nonlinearity" and not rarely():
            lines.append(f"q = {value(rows.pop('q'))}")
        keys = draw(st.lists(st.sampled_from(sorted(rows) or ["x"]), max_size=4,
                             unique=True))
        if rarely():
            keys.append(draw(st.sampled_from(["typo", "Q"])))
        lines += [f"{key} = {value(rows.get(key))}" for key in keys]
    if rarely():
        for defect in draw(st.lists(st.sampled_from(sorted(DEFECTS)), min_size=1,
                                    max_size=2)):
            at = 0 if defect == "key-before-header" else draw(
                st.integers(0, len(lines)))
            lines[at:at] = [DEFECTS[defect]] * (2 if defect == "duplicate-key" else 1)
    return "\n".join(lines).encode("utf-8", "surrogateescape") + b"\n"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=ini_files())
def test_fuzzed_ini_files_exit_with_a_documented_code(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    code = cli.main(["check-assumptions", "--config", str(path),
                     "--output", str(tmp_path / "fuzz.json")])
    assert code in (0, 2, 3, 4)


def test_verify_embedding_reports_the_configured_alpha(tmp_path):
    path = write_config(tmp_path, BASE + "\n[grid]\nresolution = 256\n"
                        "\n[embedding]\nalpha = 3.5\nbound_points = 10\n"
                        "moser_ns = 4,8\n")
    cfg = load_config(path, "verify-embedding")
    results, _, _ = cli.cmd_verify_embedding(cfg)
    assert results["alpha"] == 3.5
    assert "orlicz_q_variant" not in results      # q = 2
    # an unset alpha means 2 pi; any other value is used as given, never
    # replaced (a zero that slipped past load_config must not read as unset)
    cfg.embedding["alpha"] = 0.0
    with pytest.raises(InvalidParameterError):
        cli.cmd_verify_embedding(cfg)


def test_verify_embedding_orlicz_variant_at_q_3(tmp_path):
    path = write_config(tmp_path, BASE.replace("q = 2", "q = 3"))
    out = tmp_path / "out.json"
    assert cli.main(["verify-embedding", "--config", path,
                     "--output", str(out)]) == 0
    variant = json.loads(out.read_text())["results"]["orlicz_q_variant"]
    alpha = 1.0 / math.sqrt(3.0)
    assert variant["alpha"] == alpha and variant["q"] == 3.0
    assert [row["n"] for row in variant["values"]] == [4, 8, 16, 32, 64]
    values = [row["value"] for row in variant["values"]]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))
    # the n = 16 value, evaluated directly on the cap scaled to the unit
    # q-growth sphere
    [(_, cap)] = families.moser_family((16,), rho=0.5)
    nrm = spaces.norm_w0_sq(cap, 3.0)
    scaled = cap.with_values(cap.values / math.sqrt(nrm))
    assert values[2] == spaces.tm_functional(scaled, alpha, q_cap=3.0).value


def test_cli_zero_resolution_grid_rejected(tmp_path):
    path = write_config(tmp_path, BASE + "\n[grid]\nresolution = 0\n")
    code = cli.main(["verify-embedding", "--config", path])
    assert code == 2


def test_cli_solve_geometry_failure_exit_code(tmp_path, capsys, monkeypatch):
    # inert nonlinearities are not constructible from a config file, so
    # force the failure path to check the exit-code mapping
    monkeypatch.chdir(tmp_path)
    from logchoquard import solver
    from logchoquard.errors import GeometryFailureError

    def failing_solve(config):
        raise GeometryFailureError("no negative-energy point")

    monkeypatch.setattr(solver, "solve_mountain_pass", failing_solve)
    monkeypatch.setattr(cli.solver, "solve_mountain_pass", failing_solve)
    path = write_config(tmp_path, BASE)
    code = cli.main(["solve", "--config", path])
    assert code == 3


SMALL_SOLVE = """
[solver]
domain_radius = 6.0
resolution = 48
max_iterations = 2000
residual_tolerance = 2e-4
"""


def test_cli_solve_small_and_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, BASE + SMALL_SOLVE)
    out = tmp_path / "run.json"
    code1 = cli.main(["solve", "--config", path, "--seed", "7", "--output", str(out)])
    bytes1 = out.read_bytes()
    code2 = cli.main(["solve", "--config", path, "--seed", "7", "--output", str(out)])
    bytes2 = out.read_bytes()
    assert code1 == 0 and code2 == 0
    assert bytes1 == bytes2
    assert (tmp_path / "run.json.field").exists()


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_report_json_roundtrip_floats():
    payload = {"a": 1.0 / 3.0, "b": [np.pi, 2**-52], "c": {"d": 1e-300},
               "integral": 2.0, "flag": True, "none": None,
               "nan": float("nan"), "empty_dict": {}, "empty_list": [],
               "text": 'say "hi" \\ then\nstop'}
    text = reports.render_json(reports.build_report("x", {}, payload, {}))
    parsed = json.loads(text, parse_constant=reject_constant)
    assert parsed["results"]["a"] == 1.0 / 3.0
    assert parsed["results"]["b"][0] == np.pi
    assert parsed["results"]["c"]["d"] == 1e-300
    res = parsed["results"]
    assert res["integral"] == 2.0 and isinstance(res["integral"], float)
    assert res["flag"] is True and res["none"] is None
    assert res["nan"] is None
    assert res["empty_dict"] == {} and res["empty_list"] == []
    assert res["text"] == payload["text"]


def test_report_json_writes_non_finite_floats_as_null():
    finite = {"a": [1.0 / 3.0, np.float64(2.5), np.arange(3.0)], "b": {"c": 7}}
    assert reports.render_json(finite) == json.dumps(
        reports._to_jsonable(finite), indent=2) + "\n"
    payload = {"inf": float("inf"), "ninf": np.float64(-np.inf),
               "array": np.array([1.0, np.nan]), "pair": (np.inf, 2.0)}
    parsed = json.loads(reports.render_json(payload),
                        parse_constant=reject_constant)
    assert parsed == {"inf": None, "ninf": None, "array": [1.0, None],
                      "pair": [None, 2.0]}
    # CSV keeps its own spelling of non-finite values
    assert "inf,Infinity" in reports.render_csv(payload)


def test_overflowing_threshold_gives_a_strict_report_and_a_quiet_search(
        tmp_path):
    path = write_config(tmp_path, "[nonlinearity]\nq = 1e300\n")
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["check-assumptions", "--config", path,
                         "--output", str(out)]) == 3
    report = json.loads(out.read_text(), parse_constant=reject_constant)
    assert report["results"]["script_V"] is None
    # scipy's search warned on inf - inf in its parabola; float arithmetic
    # in the port does not
    noisy = [w for w in caught if issubclass(w.category, RuntimeWarning)
             and ("brent" in w.filename or "scipy" in w.filename)]
    assert noisy == []


UNUSED_SCIPY = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")
IMPORT_PROBE = """
import json, sys
from logchoquard import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, [m for m in {modules!r} if m in sys.modules]]))
""".format(modules=UNUSED_SCIPY)


@pytest.mark.parametrize("command, block", [
    (None, ""),
    ("check-assumptions", ""),
    ("kernel-bench", "\n[kernel_bench]\nsizes = 16\n"),
    ("solve", SMALL_SOLVE),
    ("verify-embedding", ""),
], ids=["import", "check-assumptions", "kernel-bench", "solve",
        "verify-embedding"])
def test_commands_import_only_the_scipy_they_use(tmp_path, command, block):
    args = []
    if command is not None:
        args = [command, "--config", write_config(tmp_path, BASE + block),
                "--output", str(tmp_path / "out.json")]
        if command == "solve":
            args += ["--seed", "11"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args],
                         env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True)
    code, present = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    if command == "verify-embedding":
        assert "scipy.interpolate" in present     # PCHIP, loaded on demand
    else:
        assert present == []


def test_field_roundtrip(tmp_path):
    g = grids.build_grid("cartesian", 4.0, 16)
    u = families.gaussian(g, 1.0)
    path = str(tmp_path / "field.dat")
    reports.save_field(u, path)
    back = reports.load_field(path)
    assert back.grid.kind == "cartesian"
    assert back.grid.domain_radius == 4.0
    assert np.array_equal(back.values, u.values)


def test_field_roundtrip_radial(tmp_path):
    g = grids.build_grid("radial", 20.0, 64)
    u = families.gaussian(g, 2.0)
    path = str(tmp_path / "field.dat")
    reports.save_field(u, path)
    back = reports.load_field(path)
    assert np.array_equal(back.values, u.values)
    assert np.array_equal(back.grid.nodes, g.nodes)


@pytest.mark.parametrize("text", [
    "cartesian four 8\n" + "0 " * 64,
    "cartesian 4.0 8\n" + "0 " * 63 + "x",
    "hexagonal 4.0 8\n" + "0 " * 64,
    "cartesian 4.0 8\n",
    "cartesian 4.0 8\n" + "nan " * 64,
], ids=["bad-radius", "bad-value-token", "unknown-kind", "no-values", "all-nan"])
def test_load_field_malformed_raises_validation_error(tmp_path, text):
    path = tmp_path / "bad.field"
    path.write_text(text)
    with pytest.raises(ValidationError):
        reports.load_field(str(path))


def test_load_field_counts_values_before_building_the_grid(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built before the value count was checked")
    monkeypatch.setattr(grids, "build_grid", refuse)
    path = tmp_path / "huge.field"
    path.write_text("cartesian 16 100000000\n" + "0 " * 64)
    with pytest.raises(ValidationError, match="100000000"):
        reports.load_field(str(path))


BAD_VALUE_TOKENS = ["x", "1.2.3", "--1", "0x10", "0,5", "nan", "inf", "-inf", "1e999"]


@st.composite
def malformed_field_texts(draw):
    """A valid field file with exactly one defect; header resolutions stay
    within 1024 so that no example can allocate much."""
    kind = draw(st.sampled_from(["cartesian", "radial"]))
    n = draw(st.integers(grids.MIN_RESOLUTION, 16 if kind == "cartesian" else 64))
    header = [kind, repr(draw(st.floats(0.5, 50.0))), str(n)]
    values = ["0.25"] * (n * n if kind == "cartesian" else n)
    valid = " ".join(header) + "\n" + " ".join(values) + "\n"
    defect = draw(st.sampled_from(["kind", "radius", "resolution", "header",
                                   "count", "value"]))
    if defect == "kind":
        header[0] = draw(st.sampled_from(["hexagonal", "polar", "Cartesian", "radial2"]))
    elif defect == "radius":
        header[1] = draw(st.one_of(
            st.floats(max_value=0.0).map(repr),
            st.sampled_from(["nan", "inf", "-inf", "1e999", "four"])))
    elif defect == "resolution":
        header[2] = draw(st.one_of(
            st.integers(-1024, 1024).filter(lambda m: m != n).map(str),
            st.sampled_from([f"{n}.0", "eight", "1e3"])))
    elif defect == "header":
        if draw(st.booleans()):
            del header[draw(st.integers(0, 2))]
        else:
            header.insert(draw(st.integers(0, 3)), "1")
    elif defect == "count":
        k = draw(st.integers(1, len(values)))
        values = values[k:] if draw(st.booleans()) else values + ["0.25"] * k
    else:
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.sampled_from(BAD_VALUE_TOKENS))
    return valid, " ".join(header) + "\n" + " ".join(values) + "\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=malformed_field_texts())
def test_malformed_field_files_raise_validation_error(tmp_path, texts):
    valid, malformed = texts
    path = tmp_path / "fuzz.field"
    path.write_text(valid)
    reports.load_field(str(path))
    path.write_text(malformed)
    with pytest.raises(ValidationError):
        reports.load_field(str(path))
