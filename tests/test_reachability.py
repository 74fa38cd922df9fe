"""Every function and method of the package is reached by some command, or
is listed in ALLOWED with the reason it is kept."""

import importlib
import inspect
import pkgutil
import sys

import logchoquard
from logchoquard import cli

C12 = """
[nonlinearity]
kind = exp_minus_one
q = 2

[solver]
domain_radius = 6.0
resolution = 48
max_iterations = 2000
residual_tolerance = 2e-4
"""
PERIODIC = C12.replace("q = 2\n", "q = 2\nc_amplitude = 0.5\n") + """
[potential]
amplitude = 0.5
"""
RADIAL = """
[nonlinearity]
q = 2

[solver]
grid_kind = radial
resolution = 256
"""
PIECEWISE = """
[nonlinearity]
kind = piecewise
q = 3
"""

# (command, configuration, report format)
RUNS = [(command, C12, "json") for command in cli.COMMANDS] + [
    ("solve", PERIODIC, "json"),
    ("solve", RADIAL, "csv"),
] + [(command, PIECEWISE, "json")
     for command in ("check-assumptions", "verify-embedding", "moser-scan")]

ALLOWED = {
    "energy.energy_IV": "the near/far breakdown of I_V on cartesian grids; "
                        "test_energy_decomposition_identity checks the split "
                        "identities through it",
    "energy.pair_gradient": "<I_V'(u), phi>; test_gradient_consistency pairs "
                            "gradients with it against finite differences",
    "grids.field_from_radial": "samples radial profiles; "
                               "test_quadrature_exact_for_linear_radial "
                               "integrates one against its closed form",
    "grids.zero_field": "the zero field; test_zero_field_energy and "
                        "test_zero_fields_give_zero_forms evaluate on it",
    "kernel.kernel_split": "the split log(1/r) = log(1+1/r) - log(1+r); "
                           "test_c01_kernel_split_identity compares it with "
                           "log(1/r)",
    "reports.load_field": "reads .field files back; test_field_roundtrip "
                          "compares them with the saved field, and perfbench "
                          "reads them",
    "nonlinearity.ratio_Ffprime_f2": "F f'/f^2 of every kind, exported; "
                                     "check_assumptions reads fixed numbers "
                                     "for exp_minus_one, and "
                                     "test_ratio_within_f2_band samples the "
                                     "ratio inside their band",
    "config._least": "builds the range checks at import, before any command; "
                     "test_cli_non_finite_and_nonpositive_settings_rejected "
                     "checks them",
}


def _defined_functions():
    """{code object: "module.qualname"} for every module-level function and
    class method whose source is in the package.  Methods that NamedTuple
    and dataclass generate have no source there and are skipped.  Memoized
    functions are cleared, since a cache that an earlier test filled would
    answer without entering the function."""
    found = {}
    for info in pkgutil.iter_modules(logchoquard.__path__):
        module = importlib.import_module(f"logchoquard.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                member = getattr(member, "__func__", member)
                member = getattr(member, "fget", member)   # a property
                code = getattr(inspect.unwrap(member), "__code__", None) \
                    if callable(member) else None
                if code is not None and code.co_filename == module.__file__:
                    found[code] = f"{info.name}.{member.__qualname__}"
                    if hasattr(member, "cache_clear"):
                        member.cache_clear()
    return found


def _reached_by_runs(tmp_path):
    """Code objects that a call event entered while the commands of RUNS
    ran.  Call events only: the tracer returns no local tracer."""
    reached = set()

    def tracer(frame, event, arg):
        reached.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for i, (command, text, fmt) in enumerate(RUNS):
            path = tmp_path / f"run{i}.cfg"
            path.write_text(text)
            code = cli.main([command, "--config", str(path), "--format", fmt,
                             "--output", str(tmp_path / f"run{i}.{fmt}")])
            # piecewise q = 3 fails an assumption and still reports
            assert code in (cli.EXIT_OK, cli.EXIT_ADMISSIBILITY), (command, text)
    finally:
        sys.settrace(previous)
    return reached


def test_every_function_is_reached_by_a_command_or_allowed(tmp_path):
    defined = _defined_functions()
    reached = _reached_by_runs(tmp_path)
    unreached = {name for code, name in defined.items() if code not in reached}
    missing = sorted(unreached - set(ALLOWED))
    assert not missing, \
        f"reached by no command (delete, or allow with a reason): {missing}"
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"allowed, but reached by a command or gone: {stale}"
