import gzip
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ionblimp import cli
from ionblimp.cli import main
from ionblimp.harness import CONFIG_HEADER, SCENARIO_SCHEMA, format_summary, format_table, load_scenario
from ionblimp.inner_loop import InnerLoopConfig, gain_report
from ionblimp.thruster import SPACING_MAP_DUAL_RING, THROTTLE_MAP, spacing_to_thrust

ROOT = Path(__file__).resolve().parents[1]

PARAMS_CFG = (
    CONFIG_HEADER
    + """
[params]
mass = 0.2978
lift_slope = 0.2
moment_slope = 0.05

[trim]
speed = 1.0
thrust = 0.05
"""
)


@pytest.fixture
def params_cfg(tmp_path):
    path = tmp_path / "params.cfg"
    path.write_text(PARAMS_CFG, encoding="utf-8")
    return str(path)


def parsed_kv(text):
    out = {}
    for line in text.strip().splitlines():
        if "=" in line and not line.startswith("#"):
            key, val = line.split("=", 1)
            out[key] = val
    return out


def test_thruster_map_output_round_trips(tmp_path, capsys):
    assert main(["thruster-map", "throttle"]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "map.txt"
    path.write_text(out, encoding="utf-8")
    data = np.loadtxt(path, comments="#", ndmin=2)
    assert tuple(data[:, 0].tolist()) == THROTTLE_MAP.inputs
    assert tuple(data[:, 1].tolist()) == THROTTLE_MAP.thrust_grams


def test_thruster_map_query(capsys):
    assert main(["thruster-map", "spacing-dual", "--at", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "thrust_newtons_at_0.05" in out


def test_thruster_map_extrapolation_is_one_warning_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        thrust = float(spacing_to_thrust(SPACING_MAP_DUAL_RING, 0.028))
    # Every call warns, whatever the interpreter's warning filters say.
    for action in ("default", "default", "error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert main(["thruster-map", "spacing-dual", "--at", "0.028"]) == 0
        out, err = capsys.readouterr()
        assert err == ("warning: ExtrapolatedThrustWarning: spacing 0.0280 m below measured range, "
                       "thrust extrapolated\n")
        table = zip(SPACING_MAP_DUAL_RING.inputs, SPACING_MAP_DUAL_RING.thrust_grams)
        assert out == format_table("input  thrust_grams", table) + f"# thrust_newtons_at_0.028={thrust!r}\n"


def test_thruster_map_refuses_a_nan_spacing(capsys):
    # The query is evaluated before the map is written, so a refused one writes nothing to stdout.
    assert main(["thruster-map", "spacing-dual", "--at", "nan"]) == 1
    out, err = capsys.readouterr()
    assert err == "error: ValueError: spacing must be positive and finite, got nan\n"
    assert out == ""


@pytest.mark.parametrize("preset, at, error", [
    ("spacing-dual", "0.02", "PunctureFault: spacing 0.0200 m <= 0.025 m: foil puncture"),
    ("throttle", "1.5", "OutOfRange: throttle 1.5 outside [0.0, 1.0]"),
], ids=["puncture", "throttle-over-one"])
def test_thruster_map_refused_query_writes_no_map(preset, at, error, capsys):
    assert main(["thruster-map", preset, "--at", at]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {error}\n"
    assert out == ""


def test_step_response_output(capsys):
    assert main(["step-response", "0.9828", "--duration", "2.0", "--dt", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,du"
    assert len(lines) == 6
    t_last, y_last = (float(x) for x in lines[-1].split(","))
    assert t_last == pytest.approx(2.0)
    assert y_last == pytest.approx(1.0, abs=1e-2)


@pytest.mark.parametrize("argv, message", [
    (["nan"], "closed-loop pole at k_u=nan, gain=3.358, pole=0.0575 must be finite, got nan"),
    (["1e308"], "closed-loop pole at k_u=1e+308, gain=3.358, pole=0.0575 must be finite, got inf"),
    (["1", "--gain", "nan"], "gain must be finite, got nan"),
    (["1", "--pole", "nan"], "pole must be finite, got nan"),
    (["1", "--duration", "nan"], "duration must be positive and finite, got nan"),
    (["1", "--duration", "inf"], "duration must be positive and finite, got inf"),
    (["1", "--dt", "nan"], "dt must be positive and finite, got nan"),
    (["1", "--dt", "inf"], "dt must be positive and finite, got inf"),
    (["1", "--dt", "0"], "dt must be positive and finite, got 0.0"),
], ids=["k-u-nan", "k-u-overflows-the-pole", "gain-nan", "pole-nan", "duration-nan", "duration-inf", "dt-nan",
        "dt-inf", "dt-zero"])
def test_step_response_refuses_a_nan_input(argv, message, capsys):
    assert main(["step-response", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: ValueError: {message}\n"


def test_linearize_reports_both_surge_poles(params_cfg, capsys):
    assert main(["linearize", params_cfg]) == 0
    kv = parsed_kv(capsys.readouterr().out)
    assert float(kv["b_11"]) == pytest.approx(1 / 0.2978, rel=1e-10)
    assert float(kv["u_pole_model"]) == pytest.approx(0.0287, rel=1e-2)
    assert float(kv["u_pole_reference_plant"]) == 0.0575


def test_certify_gains_single_pair(params_cfg, capsys):
    assert main(["certify-gains", params_cfg, "--k1", "0.0", "--k2", "1.5"]) == 0
    kv = parsed_kv(capsys.readouterr().out)
    assert kv["certificate_valid"] == "true"
    assert float(kv["lyapunov_residual"]) < 1e-10


def test_certify_gains_grid_search(params_cfg, capsys):
    assert main(["certify-gains", params_cfg, "--k1", "0:5:11", "--k2", "0:5:11"]) == 0
    kv = parsed_kv(capsys.readouterr().out)
    assert kv["certificate_valid"] == "true"
    assert float(kv["k1"]) == 0.0
    assert float(kv["k2"]) == 1.5


def test_certify_gains_report_loads_as_the_inner_loop_section(params_cfg, tmp_path, capsys):
    # The first six report lines are the [inner_loop] keys, so a scenario file can fly the design.
    assert main(["certify-gains", params_cfg, "--k1", "0:5:11", "--k2", "0:5:11"]) == 0
    design = capsys.readouterr().out.splitlines(keepends=True)[:6]
    path = tmp_path / "fly.cfg"
    path.write_text(CONFIG_HEADER + "\n[scenario]\ncontroller = inner_loop\n\n[inner_loop]\n" + "".join(design),
                    encoding="utf-8")
    loaded = load_scenario(path).inner_loop
    assert loaded == InnerLoopConfig(**{key: float(value) for key, value in parsed_kv("".join(design)).items()})
    assert format_summary(gain_report(loaded, None)) == "".join(design) + "certificate_valid=false\n"


def test_certify_gains_singular_pair_is_reported_not_certified(tmp_path, capsys):
    # With the default params (no lift or moment slope) this pair's Lyapunov system is singular: no M exists,
    # so the design lines are printed with certificate_valid=false and no lyapunov_* line.
    path = tmp_path / "params.cfg"
    path.write_text(CONFIG_HEADER + "\n", encoding="utf-8")
    assert main(["certify-gains", str(path), "--k1", "0", "--k2", "1.5"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    keys = [line.split("=")[0] for line in out.splitlines()]
    assert keys == ["trim_speed", "trim_thrust", "k_u", "k_w", "k1", "k2", "certificate_valid"]
    assert parsed_kv(out)["certificate_valid"] == "false"


def test_certify_gains_failure_is_machine_parseable(params_cfg, capsys):
    assert main(["certify-gains", params_cfg, "--k1", "50:80:2", "--k2", "50:80:2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "no stabilizing" in err


@pytest.mark.parametrize("option, grid, params", [
    *(pytest.param(option, grid, PARAMS_CFG, id=f"{option}-{grid}") for option, grid in [
        ("--k1", "nan"),  # a non-finite single value
        ("--k2", "inf"),
        ("--k1", "0:inf:3"),  # a non-finite stop
        ("--k2", "-inf:1:3"),  # a non-finite start
        ("--k1", "0:1:0"),  # a count below 1: an empty grid
        ("--k2", "0:1:-2"),
        ("--k1", "0:1:x"),  # a count that is not an int
    ]),
    # A params file of the header alone loads and linearizes at every default; the grid is refused all the same.
    pytest.param("--k1", "0:inf:3", CONFIG_HEADER + "\n", id="--k1-0:inf:3-header-only"),
])
def test_certify_gains_refuses_a_bad_grid_by_its_option(tmp_path, capsys, option, grid, params):
    params_cfg = tmp_path / "params.cfg"
    params_cfg.write_text(params, encoding="utf-8")
    grids = {"--k1": "0:5:11", "--k2": "0:5:11", option: grid}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarning on a nan grid would fail here
        assert main(["certify-gains", str(params_cfg), *(f"{k}={v}" for k, v in grids.items())]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: ValueError: {option} must be a finite value or start:stop:count with finite ends"
                   f" and count >= 1, got {grid!r}\n")


def test_simulate_writes_outputs(tmp_path, capsys):
    scenario = (
        CONFIG_HEADER
        + """
[scenario]
model = planar
controller = open_loop
duration = 0.1
dt = 0.01

[initial]
h = 1.8

[open_loop]
thrust = 0.005
"""
    )
    path = tmp_path / "run.cfg"
    path.write_text(scenario, encoding="utf-8")
    csv_path = tmp_path / "run.csv"
    assert main(["simulate", str(path), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "max_speed=" in out
    assert csv_path.exists()
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("t,u,v,w")


SCRIPT_CFG = CONFIG_HEADER + "\n[scenario]\nduration = 1.0\ndt = 0.01\n[open_loop]\nscript = script.txt\n"
SCRIPT_TABLE = "# t thrust delta_y delta_p\n0.0 0.01 0.0 0.0\n0.5\t+2e-2 -.1 5E-2\n"
# Script tables that format_table never writes, and the error line each fails on. A CR ends a line, even one
# inside a comment, as it does for numpy's reader, so a reader that took the CR into the comment would read one row.
IRREGULAR_TABLES = {
    "nan": ("0.0 0.01 0.0 0.0\n0.5 nan 0.0 0.0\n", "[open_loop] script must be finite, got nan"),
    "underscore": ("0.0 0.01 0.0 0.0\n0.5 1_0 0.0 0.0\n",
                   "[open_loop] script: {script}: line 2: could not convert string to float: '1_0'"),
    "crlf-ragged": ("0.0 0.01 0.0 0.0 # CR\r0.5 0.02 0.0\r\n",
                    "[open_loop] script: {script}: line 2: 3 values, where the rows above have 4"),
}


def _perfbench_inputs(workload, out_dir):
    """The seed-0 input files perfbench generates for a workload."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.generate(workload, 0, out_dir)


def _scenario_file(case, tmp_path):
    """A demo scenario, a seed-0 perfbench input (perfbench_<workload>), or SCRIPT_CFG flying SCRIPT_TABLE
    (script) or one of IRREGULAR_TABLES."""
    if case.startswith("perfbench_"):
        workload = case.removeprefix("perfbench_")
        return _perfbench_inputs(workload, tmp_path)["flight_base" if workload == "inner_loop_csv" else "scenario"]
    if case != "script" and case not in IRREGULAR_TABLES:
        return ROOT / "demos" / "scenarios" / f"{case}.cfg"
    table = SCRIPT_TABLE if case == "script" else IRREGULAR_TABLES[case][0]
    (tmp_path / "script.txt").write_text(table, encoding="utf-8", newline="")
    (tmp_path / "script.cfg").write_text(SCRIPT_CFG, encoding="utf-8")
    return tmp_path / "script.cfg"


# Runs sys.argv[1] in a fresh interpreter, with sys.argv[2:] as its arguments and its exit code in `code`, then
# prints which of the watched modules it loaded. numpy.random is not watched: nothing loads it without numpy.
# ionblimp.constants no longer exists; it is watched so that no module brings it back. dataclasses and the inspect
# it imports cost every run a third of its set-up; the records are dynamics.Record, and only numpy loads inspect.
WATCHED = ("numpy", "ionblimp.smc", "ionblimp.inner_loop", "ionblimp.thruster", "ionblimp.frames",
           "ionblimp.constants", "dataclasses", "inspect")
_COLD_RUN = f"""import sys
code = 0
exec(sys.argv[1])
print("loaded:", *(name.removeprefix("ionblimp.") for name in {WATCHED!r} if name in sys.modules))
sys.exit(code)
"""
_LIFT_BUDGET = ("from ionblimp.buoyancy import EnvelopeGeometry, lift_budget\n"
                "assert lift_budget(EnvelopeGeometry(0.985, 0.255, 0.255)).net_lift_kg > 0.0")
# The one owner of the import rules, for the installed blimpsim entry point too: its wrapper only calls cli.main,
# which each argv row runs here in a fresh interpreter, so CI checks no import log of its own.
# Code, or a blimpsim argv (PARAMS is the params file, a simulate case is a _scenario_file case); its exit code;
# and the watched modules it loads. numpy is loaded only for matrix work or a throttle map, never for a table,
# even one that fails. smc is read only for an [smc] section (harness reads every table), inner_loop for an
# [inner_loop] section, thruster for a thrust map; no run reads the matrix-form frames.
COLD_RUNS = {
    "import-cli": ("import ionblimp.cli", 0, set()),
    "lift-budget": (_LIFT_BUDGET, 0, set()),
    "hover": (["simulate", "hover"], 0, set()),
    "cruise": (["simulate", "cruise"], 0, set()),
    "perfbench-full-6dof": (["simulate", "perfbench_full_6dof"], 0, set()),
    "trim-hold": (["simulate", "trim_hold"], 0, {"inner_loop"}),
    "perfbench-inner-loop-csv": (["simulate", "perfbench_inner_loop_csv"], 0, {"inner_loop"}),
    "heading-step": (["simulate", "heading_step"], 0, {"smc"}),
    "perfbench-smc-tracking": (["simulate", "perfbench_smc_tracking"], 0, {"smc"}),
    "script": (["simulate", "script"], 0, set()),
    "envelope": (["simulate", "envelope"], 0, set()),
    "linearize": (["linearize", "PARAMS"], 0, {"numpy", "inspect", "inner_loop"}),
    "certify-gains": (["certify-gains", "PARAMS", "--k1", "0.0", "--k2", "1.5"], 0, {"numpy", "inspect", "inner_loop"}),
    "step-response": (["step-response", "1.0"], 0, {"numpy", "inspect", "inner_loop"}),
    "thruster-map": (["thruster-map", "throttle", "--at", "0.5"], 0, {"numpy", "inspect", "thruster"}),
    **{f"irregular-{name}": (["simulate", name], 1, set()) for name in IRREGULAR_TABLES},
}


_COLD_DONE = {}


def _cold_run(name, tmp_path_factory):
    """Runs COLD_RUNS[name] once per session in a fresh interpreter; its exit code, stdout and stderr."""
    if name not in _COLD_DONE:
        run, tmp_path = COLD_RUNS[name][0], tmp_path_factory.mktemp(name)
        args = []
        if isinstance(run, list):
            (tmp_path / "params.cfg").write_text(PARAMS_CFG, encoding="utf-8")
            args = [tmp_path / "params.cfg" if arg == "PARAMS" else arg for arg in run]
            if run[0] == "simulate":
                args = ["simulate", _scenario_file(run[1], tmp_path),
                        "--csv", tmp_path / "run.csv", "--summary", tmp_path / "run.txt"]
            run = "from ionblimp.cli import main\ncode = main(sys.argv[2:])"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", _COLD_RUN, run, *map(str, args)],
                              capture_output=True, text=True, env=env)
        _COLD_DONE[name] = (done.returncode, done.stdout, done.stderr)
    return _COLD_DONE[name]


def _cold_loaded(name, tmp_path_factory) -> set:
    """The watched modules COLD_RUNS[name] loaded."""
    _, out, _ = _cold_run(name, tmp_path_factory)
    last = out.splitlines()[-1].split()
    assert last[0] == "loaded:", out
    return set(last[1:])


@pytest.mark.parametrize("name", COLD_RUNS)
def test_a_cold_run_loads_only_the_watched_modules_it_needs(name, tmp_path_factory):
    code, _, err = _cold_run(name, tmp_path_factory)
    assert code == COLD_RUNS[name][1], err
    assert _cold_loaded(name, tmp_path_factory) == COLD_RUNS[name][2]


# The narrower rules COLD_RUNS pins, each read from the same session's runs, so no interpreter is spawned twice.
@pytest.mark.parametrize("name", ["hover", "cruise", "heading_step", "trim_hold"])
def test_simulate_never_imports_numpy_random(name, tmp_path_factory):
    # numpy loads numpy.random (with secrets, hashlib and hmac) on first use, an
    # import that costs a cold run more than its draws; trim_hold's gimbal noise
    # comes from ionblimp.pcg64 instead. numpy.random cannot load without numpy.
    assert "numpy" not in _cold_loaded(name.replace("_", "-"), tmp_path_factory)


def test_import_cli_never_imports_numpy(tmp_path_factory):
    assert "numpy" not in _cold_loaded("import-cli", tmp_path_factory)


@pytest.mark.parametrize("name", ["hover", "cruise", "trim_hold"])
def test_table_free_demo_simulate_never_imports_numpy(name, tmp_path_factory):
    assert "numpy" not in _cold_loaded(name.replace("_", "-"), tmp_path_factory)


@pytest.mark.parametrize("workload", [pytest.param("full_6dof", id="full_6dof-scenario"),
                                      pytest.param("inner_loop_csv", id="inner_loop_csv-flight_base")])
def test_table_free_perfbench_simulate_never_imports_numpy(workload, tmp_path_factory):
    assert "numpy" not in _cold_loaded(f"perfbench-{workload.replace('_', '-')}", tmp_path_factory)


@pytest.mark.parametrize("case", ["heading_step", "perfbench_smc_tracking", "script"])
def test_table_simulate_never_imports_numpy(case, tmp_path_factory):
    # A reference or script table is read in Python, and a diagonal M is inverted there.
    assert "numpy" not in _cold_loaded(case.replace("_", "-"), tmp_path_factory)


@pytest.mark.parametrize("case, modules", [
    ("import", set()), ("hover", set()), ("cruise", set()), ("perfbench_full_6dof", set()),
    ("trim_hold", {"inner_loop"}), ("perfbench_inner_loop_csv", {"inner_loop"}),
    ("heading_step", {"smc"}), ("perfbench_smc_tracking", {"smc"}), ("script", set()),
])
def test_a_run_imports_smc_and_inner_loop_only_for_what_it_flies(case, modules, tmp_path_factory):
    # smc is read only for an [smc] section, inner_loop for an [inner_loop] section; no run
    # reads the matrix-form frames, or a constants module.
    name = "import-cli" if case == "import" else case.replace("_", "-")
    assert _cold_loaded(name, tmp_path_factory) & {"smc", "inner_loop", "frames", "constants"} == modules


@pytest.mark.parametrize("case", IRREGULAR_TABLES)
def test_an_irregular_table_fails_on_one_error_line(case, tmp_path, capsys):
    # The line names the key, the file and the line in it (COLD_RUNS checks that these runs load no numpy).
    cfg = _scenario_file(case, tmp_path)
    assert main(["simulate", str(cfg)]) == 1
    line = IRREGULAR_TABLES[case][1].format(script=tmp_path / "script.txt")
    assert capsys.readouterr().err == f"error: ValueError: {cfg}: {line}\n"


def test_a_yaw_jump_that_overflows_fails_on_one_stderr_line(tmp_path):
    # psi from 1e308 to -1e308: the jump overflows to -inf, and the unwrap adds no warning lines before the error.
    ref, cfg = tmp_path / "ref.txt", tmp_path / "smc.cfg"
    ref.write_text("0.0 0 0 1e308\n1.0 0 0 -1e308\n", encoding="utf-8")
    cfg.write_text(CONFIG_HEADER + "\n" + SMC_SECTION, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", "import sys\nfrom ionblimp.cli import main\nsys.exit(main(sys.argv[1:]))",
                          "simulate", str(cfg)], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (f"error: ValueError: {cfg}: [smc] reference: {ref}: pose slope from t=0.0 to t=1.0 "
                          "is not finite\n")


def test_a_crlf_script_flies_as_its_lf_copy(tmp_path, capsys):
    # CRLF line ends read as LF: envelope's script, rewritten with them, writes the demo's stdout, CSV and summary.
    scenarios, written = ROOT / "demos" / "scenarios", {}
    for name, end in (("lf", b"\n"), ("crlf", b"\r\n")):
        (tmp_path / name).mkdir()
        script = (scenarios / "envelope_script.txt").read_bytes()
        assert b"\r" not in script
        (tmp_path / name / "envelope_script.txt").write_bytes(script.replace(b"\n", end))
        (tmp_path / name / "envelope.cfg").write_bytes((scenarios / "envelope.cfg").read_bytes())
        outputs = [tmp_path / name / "run.csv", tmp_path / name / "run.txt"]
        assert main(["simulate", str(tmp_path / name / "envelope.cfg"),
                     "--csv", str(outputs[0]), "--summary", str(outputs[1])]) == 0
        written[name] = [capsys.readouterr().out.encode(), *(path.read_bytes() for path in outputs)]
    assert written["crlf"] == written["lf"]


def _heading_step_with_c2(c2, tmp_path):
    scenarios = ROOT / "demos" / "scenarios"
    (tmp_path / "heading_step_ref.txt").write_bytes((scenarios / "heading_step_ref.txt").read_bytes())
    cfg = (scenarios / "heading_step.cfg").read_text(encoding="utf-8").replace("c2 = 1.0", f"c2 = {c2}")
    (tmp_path / "run.cfg").write_text(cfg, encoding="utf-8")
    return tmp_path / "run.cfg"


@pytest.mark.parametrize("c2, where", [("1e-300", "step 1 (t=0.001000 s)")])
def test_a_controller_failure_carries_its_step(c2, where, tmp_path, capsys):
    # A tiny c2 blows up the SMC's demand until it is not finite: the controller, not the
    # integrator, fails, and its error goes through the run loop's one failure path.
    assert main(["simulate", str(_heading_step_with_c2(c2, tmp_path))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: ScenarioError: {where}: force demand (F_x, F_y, N_z) must be finite, got (nan, nan, -inf)\n"


def test_a_blown_up_step_names_the_demand_it_held(tmp_path, capsys):
    # 1 / 1e-308 is finite, so c2 loads; the N_z it demands overflows psi_dot in the RK4 step. The one error
    # line names that component, the SMC demand (F_x, F_y, N_z) held over the step and the pose state before it.
    assert main(["simulate", str(_heading_step_with_c2("1e-308", tmp_path))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ScenarioError: step 0 (t=0.000000 s): non-finite state component(s): psi_dot; "
                   "input held over the step: (0.0, 0.0, 3.410000000000001e+306); "
                   "last finite state: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)\n")


def test_a_huge_initial_surge_names_the_state_it_started_from(tmp_path, capsys):
    # hover with [initial] u = 1e200: the drag overflows in the first RK4 stage, so every component fails. The
    # line names the zero wrench held over the step and the loaded state, the only finite one the run had.
    cfg = tmp_path / "hover.cfg"
    text = (ROOT / "demos" / "scenarios" / "hover.cfg").read_text(encoding="utf-8")
    cfg.write_text(text.replace("h = 1.8\n", "h = 1.8\nu = 1e200\n"), encoding="utf-8")
    assert main(["simulate", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ScenarioError: step 0 (t=0.000000 s): non-finite state component(s): u, v, w, p, q, r, "
                   "x, y, h, phi, theta, psi; input held over the step: (0.0, 0.0, -0.0, -0.0, 0.0, 0.0); "
                   "last finite state: (1e+200, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.8, 0.0, 0.0, 0.0)\n")


def _fails_at_load(verb, path, named, capsys, flags=()):
    """blimpsim VERB PATH [FLAGS] exits 1 with nothing on stdout and one stderr line, which starts `error: ` and
    holds NAMED; that line is returned. A simulate file must fail in load_scenario, given the same --csv and
    --summary flags, with the same line, so before step 0."""
    extra = ["--k1", "0.0", "--k2", "1.5"] if verb == "certify-gains" else []
    assert main([verb, str(path), *extra, *flags]) == 1
    out, err = capsys.readouterr()
    assert (out, len(err.splitlines())) == ("", 1), err
    line = err.splitlines()[0]
    assert line.startswith("error: ") and named in line, line
    if verb == "simulate":
        with pytest.raises(ValueError) as raised:
            load_scenario(path, **{flag[2:]: value for flag, value in zip(flags[::2], flags[1::2])})
        assert line == f"error: {type(raised.value).__name__}: {raised.value}"
    return line


def test_non_finite_param_error_names_the_key(tmp_path, capsys):
    path = tmp_path / "nan_drag.cfg"
    path.write_text(CONFIG_HEADER + "\n[params]\ndrag_coeff = nan\n\n"
                    "[scenario]\nmodel = full\nduration = 0.1\ndt = 0.01\n", encoding="utf-8")
    _fails_at_load("simulate", path, "drag_coeff", capsys)


# Every number a config file may hold, with the verb that reads it, and the other
# sections it needs to load: a minimal valid [inner_loop] or [smc] for their keys.
NUMERIC_KEYS = [("simulate", section, key) for section, keys in SCENARIO_SCHEMA.items()
                for key, convert in keys.items() if isinstance(convert("1"), (int, float))]
NUMERIC_KEYS += [("linearize", "trim", "speed"), ("linearize", "trim", "thrust")]
NUMERIC_BASES = {
    "inner_loop": {"scenario": {"controller": "inner_loop"},
                   "inner_loop": {"trim_speed": "0.3", "trim_thrust": "0.01", "k_u": "0.5"}},
    "smc": {"scenario": {"controller": "smc"},
            "smc": {"c1": "1.0", "c2": "1.0", "epsilon": "0.05", "k": "1.0", "reference": "ref.txt"}},
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("verb, section, key", NUMERIC_KEYS, ids=[f"{s}-{k}" for _, s, k in NUMERIC_KEYS])
def test_a_non_finite_number_fails_at_load_naming_its_key(verb, section, key, bad, tmp_path, capsys):
    # One owner per rule: each number is refused at load by the section it builds, naming the file and the key.
    sections = {"scenario": {"duration": "0.01", "dt": "0.01"}} if verb == "simulate" else {}
    for name, values in NUMERIC_BASES.get(section, {}).items():
        sections.setdefault(name, {}).update(values)
    sections.setdefault(section, {})[key] = bad
    (tmp_path / "ref.txt").write_text(REF_TABLE, encoding="utf-8")
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG_HEADER + "\n" + "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
                                                  for name, values in sections.items()), encoding="utf-8")
    _fails_at_load(verb, path, f"{path}: [{section}] {key}", capsys)


def test_a_percent_sign_in_a_path_is_literal(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_HEADER + "\n[scenario]\nduration = 0.01\ndt = 0.01\n[output]\ncsv = run%1.csv\n",
                    encoding="utf-8")
    assert main(["simulate", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "run%1.csv").read_text(encoding="utf-8").startswith("t,u,")


@pytest.mark.parametrize("flag, other", [("--csv", "--summary"), ("--summary", "--csv")])
def test_an_output_flag_in_a_missing_directory_fails_before_step_0(flag, other, tmp_path, capsys):
    # The other output's path is good, and it is not written: the run fails before it starts. So does a flag
    # naming a directory, which the run would otherwise fail to open after its last step.
    good = tmp_path / "run.out"
    for bad, error in [(tmp_path / "nodir" / "run.out", f"no such directory: {tmp_path / 'nodir'}"),
                       (tmp_path, f"is a directory: {tmp_path}")]:
        assert main(["simulate", str(CRUISE_CFG), flag, str(bad), other, str(good)]) == 1
        assert capsys.readouterr() == ("", f"error: ValueError: {flag}: {error}\n")
        assert not good.exists()


@pytest.mark.parametrize("output, flags, named", [
    ("", ["--csv", "same.out", "--summary", "same.out"], "--csv and --summary"),
    ("csv = same.out\n", ["--summary", "same.out"], "{cfg}: [output] csv and --summary"),
    ("summary = same.out\n", ["--csv", "./same.out"], "--csv and {cfg}: [output] summary"),
    ("csv = same.out\nsummary = other.out\n", ["--summary", "same.out"], "{cfg}: [output] csv and --summary"),
], ids=["both-flags", "key-and-flag", "flag-and-key", "flag-replaces-key"])
def test_csv_and_summary_naming_one_file_fail_before_step_0(output, flags, named, tmp_path, capsys, monkeypatch):
    # The summary would overwrite the CSV: the run fails at load, naming both outputs where they were set.
    monkeypatch.chdir(tmp_path)  # the flags' relative paths name the files beside the config's
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_HEADER + "\n[scenario]\nduration = 0.01\ndt = 0.01\n[output]\n" + output, encoding="utf-8")
    assert main(["simulate", str(cfg), *flags]) == 1
    named, same = named.format(cfg=cfg), (tmp_path / "same.out").resolve()
    assert capsys.readouterr() == ("", f"error: ValueError: {named} name one file: {same}\n")
    assert not (tmp_path / "same.out").exists()


def test_a_flag_that_replaces_the_clashing_key_runs(tmp_path, capsys):
    # Both keys name one file, but --csv replaces one of them, so the run writes two files.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_HEADER + "\n[scenario]\nduration = 0.01\ndt = 0.01\n[output]\ncsv = same.out\n"
                   "summary = same.out\n", encoding="utf-8")
    assert main(["simulate", str(cfg), "--csv", str(tmp_path / "run.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "run.csv").read_text(encoding="utf-8").startswith("t,u,")
    assert (tmp_path / "same.out").read_text(encoding="utf-8").startswith("model=")


def test_missing_file_error(capsys):
    assert main(["linearize", "/nonexistent/params.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


SMC_SECTION = """[scenario]
controller = smc

[smc]
c1 = 1.0
c2 = 1.0
epsilon = 0.05
k = 1.0
reference = ref.txt
"""
REF_TABLE = "0.0 0 0 0.5\n1.0 0 0 0.5\n"
CRUISE_CFG = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "cruise.cfg"
SMC_NAN_K = SMC_SECTION.replace("k = 1.0\n", "k = nan\n")
SMC_NO_K = SMC_SECTION.replace("k = 1.0\n", "")
INNER_LOOP_NO_KU = """[scenario]
controller = inner_loop

[inner_loop]
trim_speed = 0.3
trim_thrust = 0.01
"""
# The (p, r) inertia determinant Ixx Izz - Ixz^2 rounds to 0, and to a tiny negative number.
SINGULAR_INERTIA = """[params]
inertia_x = 0.011791525553737695
inertia_z = 0.000732886982583319
inertia_xz = -0.0029397033154951063
"""
NEGATIVE_DETERMINANT = """[params]
inertia_y = 1.0
inertia_x = 0.00040220716137835504
inertia_z = 0.004607612277157131
inertia_xz = -0.001361328268540484
"""
INNER_LOOP_FEEDFORWARD = INNER_LOOP_NO_KU + "k_u = 0.5\nthrust_feedforward = 0.01\n"
OPEN_LOOP_VALUES = {"thrust": "0.05", "throttle": "0.0", "script": "script.txt", "delta_y": "0.3"}
SCRIPT_SECTION = "[open_loop]\nscript = script.txt\n"
STEPS_MESSAGE = "bad.cfg: [scenario] duration / dt must be at most 10000000 steps, got "

# id: (verb, config, the text its error line holds[, (name, text) of a table file the config names]). A config
# string is written after the header to bad.cfg; a Path is read as it is, relative to the test's directory. A
# table file's text is written as UTF-8, its bytes as they are, and one whose text is None is not written. A
# verb may be a tuple of the verb and its --csv/--summary flags.
# In the text and the flags, {dir} is the test's directory and {table} the table file's path.
LOAD_ERRORS = {
    "misspelt-key": ("simulate", "[scenario]\nmodle = full\n", "[scenario] modle"),
    "misspelt-open-loop-key": ("simulate", "[open_loop]\nthurst = 0.05\n", "[open_loop] thurst"),
    "misspelt-section": ("simulate", "[scenaro]\nduration = 1.0\n", "[scenaro]"),
    "default-section": ("simulate", "[DEFAULT]\nmodle = full\n", "[DEFAULT]"),
    "removed-feedforward": ("simulate", INNER_LOOP_FEEDFORWARD, "[inner_loop] thrust_feedforward"),
    "linearize-scenario-file": ("linearize", CRUISE_CFG, "[scenario]"),
    "misspelt-trim-key": ("certify-gains", "[trim]\nsped = 1.0\n", "[trim] sped"),
    "nan-smc-gain": ("simulate", SMC_NAN_K, "[smc] k"),
    "nan-initial": ("simulate", "[initial]\nh = nan\n", "[initial] h"),
    "nan-thrust": ("simulate", "[open_loop]\nthrust = nan\n", "[open_loop] thrust"),
    "nan-gimbal-noise": ("simulate", "[scenario]\ngimbal_noise = nan\n", "[scenario] gimbal_noise"),
    "inf-dt": ("simulate", "[scenario]\ndt = inf\n", "[scenario] dt"),
    "inf-trim-speed": ("linearize", "[trim]\nspeed = -inf\n", "[trim] speed"),
    "negative-trim-speed": ("linearize", "[trim]\nspeed = -1\n",
                            "bad.cfg: [trim] speed must be positive and finite, got -1.0"),
    "zero-trim-thrust": ("certify-gains", "[trim]\nthrust = 0\n",
                         "bad.cfg: [trim] thrust must be positive and finite, got 0.0"),
    "empty-path": ("simulate", "[output]\ncsv =\n", "[output] csv"),
    "csv-in-missing-directory": ("simulate", "[output]\ncsv = nodir/run.csv\n",
                                 "bad.cfg: [output] csv: no such directory: {dir}/nodir"),
    "summary-in-missing-directory": ("simulate", "[output]\ncsv = run.csv\nsummary = nodir/run.txt\n",
                                     "bad.cfg: [output] summary: no such directory: {dir}/nodir"),
    "csv-is-a-directory": ("simulate", "[output]\ncsv = .\n", "bad.cfg: [output] csv: is a directory: {dir}"),
    "summary-is-a-directory": ("simulate", "[output]\ncsv = run.csv\nsummary = .\n",
                               "bad.cfg: [output] summary: is a directory: {dir}"),
    "csv-and-summary-one-file": ("simulate", "[output]\ncsv = run.out\nsummary = ./run.out\n",
                                 "bad.cfg: [output] csv and {dir}/bad.cfg: [output] summary name one file: "),
    "csv-flag-names-the-scenario": (("simulate", "--csv", "{dir}/bad.cfg"), "[scenario]\nduration = 0.01\n",
                                    "the scenario file {dir}/bad.cfg and --csv name one file: {dir}/bad.cfg"),
    "summary-flag-names-the-smc-reference": (("simulate", "--summary", "{table}"), SMC_SECTION,
                                             "bad.cfg: [smc] reference and --summary name one file: {table}",
                                             ("ref.txt", REF_TABLE)),
    "output-csv-names-the-script": ("simulate", SCRIPT_SECTION + "[output]\ncsv = ./script.txt\n",
                                    "bad.cfg: [open_loop] script and {dir}/bad.cfg: [output] csv name one file: "
                                    "{table}", ("script.txt", "0 0.01 0 0\n")),
    "output-summary-names-the-scenario": ("simulate", "[output]\ncsv = run.csv\nsummary = bad.cfg\n",
                                          "the scenario file {dir}/bad.cfg and {dir}/bad.cfg: [output] summary name "
                                          "one file: {dir}/bad.cfg"),
    "negative-mass": ("simulate", "[params]\nmass = -1\n", "bad.cfg: [params] mass"),
    "linearize-negative-mass": ("linearize", "[params]\nmass = -1\n", "bad.cfg: [params] mass must be positive"),
    "certify-gains-negative-mass": ("certify-gains", "[params]\nmass = -1\n",
                                    "bad.cfg: [params] mass must be positive"),
    "negative-inertia-y": ("simulate", "[params]\ninertia_y = -1\n", "bad.cfg: [params] inertia_y"),
    "linearize-negative-inertia-y": ("linearize", "[params]\ninertia_y = -1\n", "bad.cfg: [params] inertia_y"),
    "certify-gains-negative-inertia-y": ("certify-gains", "[params]\ninertia_y = -1\n", "bad.cfg: [params] inertia_y"),
    "huge-gimbal-noise": ("simulate", "[scenario]\ngimbal_noise = 1e308\n", "bad.cfg: [scenario] gimbal_noise"),
    "negative-dt": ("simulate", "[scenario]\ndt = -1\n", "bad.cfg: [scenario] dt"),
    "negative-thrust": ("simulate", "[open_loop]\nthrust = -0.1\n", "bad.cfg: [open_loop] thrust"),
    "delta-y-beyond-gimbal": ("simulate", "[open_loop]\ndelta_y = 2.0\n", "bad.cfg: [open_loop] |delta_y|"),
    "delta-p-beyond-gimbal": ("simulate", "[open_loop]\ndelta_p = -2.0\n", "bad.cfg: [open_loop] |delta_p|"),
    "delta-p-2-ulp-past-gimbal": ("simulate", "[open_loop]\ndelta_p = 1.570796326794897\n",
                                  "bad.cfg: [open_loop] |delta_p|"),
    "zero-inertia-determinant": ("simulate", "[scenario]\nmodel = full\n" + SINGULAR_INERTIA,
                                 "bad.cfg: [params] inertia tensor"),
    "negative-inertia-determinant": ("simulate", "[scenario]\nmodel = full\n" + NEGATIVE_DETERMINANT,
                                     "bad.cfg: [params] inertia tensor"),
    "planar-initial-theta": ("simulate", "[initial]\ntheta = 0.1\n",
                             "bad.cfg: [scenario] initial.theta: must be 0.0 with the planar model, got 0.1"),
    "throttle-above-one": ("simulate", "[open_loop]\nthrottle = 1.5\n", "bad.cfg: [open_loop] throttle"),
    "missing-smc-k": ("simulate", SMC_NO_K, "bad.cfg: [smc] k: required"),
    "missing-inner-loop-k-u": ("simulate", INNER_LOOP_NO_KU, "bad.cfg: [inner_loop] k_u: required"),
    "open-loop-section-under-smc": ("simulate", SMC_NO_K + "[open_loop]\nthrust = 0.01\n",
                                    "bad.cfg: [open_loop]: not read by the smc"),
    "smc-section-under-open-loop": ("simulate", "[smc]\nreference = missing.txt\n",
                                    "bad.cfg: [smc]: not read by the open_loop"),
    "open-loop-section-under-inner-loop": ("simulate", INNER_LOOP_NO_KU + "[open_loop]\n",
                                           "bad.cfg: [open_loop]: not read by the inner_loop"),
    "model-under-smc": ("simulate", "[scenario]\ncontroller = smc\nmodel = full\n",
                        "bad.cfg: [scenario] model: not read"),
    "gimbal-noise-under-smc": ("simulate", "[scenario]\ncontroller = smc\ngimbal_noise = 0.3\n",
                               "bad.cfg: [scenario] gimbal_noise"),
    "initial-w-under-smc": ("simulate", "[scenario]\ncontroller = smc\n[initial]\nw = 0.1\n",
                            "bad.cfg: [initial] w: not read"),
    "initial-theta-under-smc": ("simulate", "[scenario]\ncontroller = smc\n[initial]\ntheta = 0.1\n",
                                "bad.cfg: [initial] theta"),
    "unknown-controller-beside-section": ("simulate", "[scenario]\ncontroller = pid\n[open_loop]\n",
                                          "unknown controller 'pid'"),
    "negative-seed": ("simulate", "[scenario]\nseed = -1\n", "bad.cfg: [scenario] seed must be non-negative"),
    "key-before-any-section": ("simulate", "mass = 0.3\n", "no section headers. file: '{dir}/bad.cfg', line: 2"),
    "line-without-equals": ("simulate", "[params]\nmass\n", "parsing errors: '{dir}/bad.cfg' [line 3]: 'mass"),
    "duplicate-key": ("simulate", "[params]\nmass = 0.3\nmass = 0.4\n",
                      "'{dir}/bad.cfg' [line 4]: option 'mass' in section 'params' already exists"),
    "duplicate-section": ("simulate", "[params]\nmass = 0.3\n[params]\n",
                          "'{dir}/bad.cfg' [line 4]: section 'params' already exists"),
    "huge-duration": ("simulate", "[scenario]\nduration = 1e300\ndt = 0.01\n",
                      STEPS_MESSAGE + "duration=1e+300, dt=0.01"),
    "tiny-dt": ("simulate", "[scenario]\nduration = 1.0\ndt = 1e-300\n", STEPS_MESSAGE + "duration=1.0, dt=1e-300"),
    "subnormal-dt": ("simulate", "[scenario]\nduration = 1.0\ndt = 1e-320\n",
                     STEPS_MESSAGE + "duration=1.0, dt=1e-320"),
    "step-count-overflows": ("simulate", "[scenario]\nduration = 1e300\ndt = 1e-10\n",
                             STEPS_MESSAGE + "duration=1e+300, dt=1e-10"),
    # A positive duration and the whole-step rule leave no run of zero steps.
    "zero-duration": ("simulate", "[scenario]\nduration = 0\ndt = 0.001\n",
                      "bad.cfg: [scenario] duration must be positive and finite, got 0.0"),
    "negative-duration": ("simulate", "[scenario]\nduration = -1\ndt = 0.001\n",
                          "bad.cfg: [scenario] duration must be positive and finite, got -1.0"),
    "part-of-one-step": ("simulate", "[scenario]\nduration = 0.0004\ndt = 0.001\n",
                         "bad.cfg: [scenario] duration 0.0004 s is not a whole number of dt=0.001 s steps"),
    "certify-gains-k-w-overflows": ("certify-gains", "[params]\nlift_slope = 0.1\n[trim]\nthrust = 1e-320\n",
                                    "k_w bound at trim_speed=1.0, trim_thrust=1e-320 must be finite, got inf"),
    "not-utf8": ("simulate", Path("latin1.cfg"), "{table}: line 2: not UTF-8",
                 ("latin1.cfg", (CONFIG_HEADER + "\n# caf\xe9\n").encode("latin-1"))),
    "linearize-not-utf8": ("linearize", Path("latin1.cfg"), "{table}: line 3: not UTF-8",
                           ("latin1.cfg", (CONFIG_HEADER + "\n[params]\n# caf\xe9\n").encode("latin-1"))),
    "scenario-is-a-directory": ("simulate", Path("."), "error: ValueError: {dir}: is a directory"),
    "linearize-directory": ("linearize", Path("."), "error: ValueError: {dir}: is a directory"),
    "missing-scenario": ("simulate", Path("missing.cfg"), "error: ValueError: {dir}/missing.cfg: no such file"),
    "no-header": ("simulate", Path("broken.cfg"), "{table}: first line must be '# blimpsim-config v1', got '[scenario]'",
                  ("broken.cfg", "[scenario]\n")),
    "percent-reference": ("simulate", "[open_loop]\ndelta_y = 0.1\nthrust = %(delta_y)s\n",
                          "bad.cfg: [open_loop] thrust: could not convert string to float: '%(delta_y)s'"),
    **{f"conflicting-{a}-{b}".replace("_", "-"): (
        "simulate", f"[open_loop]\n{a} = {OPEN_LOOP_VALUES[a]}\n{b} = {OPEN_LOOP_VALUES[b]}\n",
        f"bad.cfg: [open_loop] {a} and {b} cannot both be set")
       for a, b in [("thrust", "throttle"), ("script", "thrust"), ("script", "throttle"), ("script", "delta_y")]},
    # 1 / 1e-310 is inf: the run would fail at step 0 on a nan thrust naming neither c2 nor the cause.
    "c2-reciprocal-overflows": ("simulate", SMC_SECTION.replace("c2 = 1.0", "c2 = 1e-310"),
                                "bad.cfg: [smc] c2 must have a finite reciprocal 1 / c2, got 1e-310",
                                ("ref.txt", REF_TABLE)),
    "negative-t-max": ("simulate", SMC_SECTION + "t_max = -0.01\n",
                       "bad.cfg: [smc] t_max must be positive and finite, got -0.01", ("ref.txt", REF_TABLE)),
    "reference-underscore": ("simulate", SMC_SECTION, "bad.cfg: [smc] reference: {table}: line 2: could not convert "
                             "string to float: '1_0'", ("ref.txt", "0.0 0 0 0.5\n1.0 1_0 0 0.5\n")),
    "reference-ragged-after-cr": ("simulate", SMC_SECTION, "bad.cfg: [smc] reference: {table}: line 3: 3 values, "
                                  "where the rows above have 4", ("ref.txt", b"0.0 0 0 0.5\r# t x y\r1.0 0 0\r")),
    "reference-gzip": ("simulate", SMC_SECTION, "bad.cfg: [smc] reference: {table}: line 1: not UTF-8",
                       ("ref.txt", gzip.compress(REF_TABLE.encode("ascii")))),
    "nan-reference": ("simulate", SMC_SECTION, "bad.cfg: [smc] reference: {table}: poses must be finite, got nan",
                      ("ref.txt", "0.0 0 0 0.5\n1.0 0 0 nan\n")),
    "empty-reference": ("simulate", SMC_SECTION, "bad.cfg: [smc] reference: {table}: no data rows",
                        ("ref.txt", "# t x y psi\n")),
    # A table of other than four columns, or fewer than two increasing times, is refused by ReferenceTrajectory.
    "reference-three-columns": ("simulate", SMC_SECTION, "bad.cfg: [smc] reference: {table}: need times (n,) and "
                                "poses (n, 3) of x, y, psi, got (2,) and (2, 2)", ("ref.txt", "0.0 0 0\n1.0 0 0\n")),
    "reference-five-columns": ("simulate", SMC_SECTION, "bad.cfg: [smc] reference: {table}: need times (n,) and "
                               "poses (n, 3) of x, y, psi, got (2,) and (2, 4)",
                               ("ref.txt", "0.0 0 0 0.5 1\n1.0 0 0 0.5 1\n")),
    "reference-one-row": ("simulate", SMC_SECTION, "bad.cfg: [smc] reference: {table}: need at least two strictly "
                          "increasing sample times", ("ref.txt", "0.0 0 0 0.5\n")),
    "reference-repeated-time": ("simulate", SMC_SECTION, "bad.cfg: [smc] reference: {table}: need at least two "
                                "strictly increasing sample times", ("ref.txt", "0.0 0 0 0.5\n0.0 1 0 0.5\n")),
    "subnormal-knot-spacing": ("simulate", SMC_SECTION,
                               "bad.cfg: [smc] reference: {table}: pose slope from t=0.0 to t=1e-320 is not finite",
                               ("ref.txt", "0.0 0 0 0.5\n1e-320 1 0 0.5\n")),
    "far-apart-knots": ("simulate", SMC_SECTION,
                        "bad.cfg: [smc] reference: {table}: knot spacing from t=-1e+308 to t=1e+308 is not finite",
                        ("ref.txt", "-1e308 0 0 0\n1e308 1 0 0\n")),
    "missing-smc-reference": ("simulate", SMC_SECTION.replace("ref.txt", "missing.txt"),
                              "bad.cfg: [smc] reference: {table}: no such file or directory", ("missing.txt", None)),
    "script-out-of-range-row": ("simulate", SCRIPT_SECTION, "bad.cfg: [open_loop] script row at t=0.005: |delta_y|",
                                ("script.txt", "0.0 0.01 0.0 0\n0.005 0.01 2.0 0\n")),
    "script-delta-p-2-ulp-past-gimbal": ("simulate", SCRIPT_SECTION,
                                         "bad.cfg: [open_loop] script row at t=0.0: |delta_p|",
                                         ("script.txt", "0.0 0.01 0.0 1.570796326794897\n")),
    "script-three-columns": ("simulate", SCRIPT_SECTION, "bad.cfg: [open_loop] script needs rows",
                             ("script.txt", "0.0 0.01 0.0\n")),
    "script-time-goes-back": ("simulate", SCRIPT_SECTION,
                              "bad.cfg: [open_loop] script row at t=1.0: times must be strictly",
                              ("script.txt", "0 0.01 0 0\n2.0 0.03 0 0\n1.0 0.02 0 0\n")),
    "script-starts-after-zero": ("simulate", SCRIPT_SECTION,
                                 "bad.cfg: [open_loop] script row at t=1.0: the first row must be at t = 0",
                                 ("script.txt", "1.0 0.01 0 0\n")),
    "script-unparsable": ("simulate", SCRIPT_SECTION, "bad.cfg: [open_loop] script: {table}: line 2: could not "
                          "convert string to float: 'abc'", ("script.txt", "# t thrust delta_y delta_p\n0 abc 0 0\n")),
    "script-underscore": ("simulate", SCRIPT_SECTION, "bad.cfg: [open_loop] script: {table}: line 1: could not "
                          "convert string to float: '1_0'", ("script.txt", "0 1_0 0 0\n")),
    "script-ragged-after-cr": ("simulate", SCRIPT_SECTION, "bad.cfg: [open_loop] script: {table}: line 2: 3 values, "
                               "where the rows above have 4", ("script.txt", b"0 0.01 0 0 # CR\r0.5 0.02 0\r\n")),
    "script-bom": ("simulate", SCRIPT_SECTION, "bad.cfg: [open_loop] script: {table}: line 1: could not convert "
                   "string to float: '\\ufeff0'", ("script.txt", "\ufeff0 0.01 0 0\n")),
    "script-gzip": ("simulate", SCRIPT_SECTION, "bad.cfg: [open_loop] script: {table}: line 1: not UTF-8",
                    ("script.txt", gzip.compress(b"0 0.01 0 0\n"))),
    "script-empty": ("simulate", SCRIPT_SECTION, "bad.cfg: [open_loop] script: {table}: no data rows",
                     ("script.txt", "")),
    "script-comments-only": ("simulate", SCRIPT_SECTION, "bad.cfg: [open_loop] script: {table}: no data rows",
                             ("script.txt", "# t thrust delta_y delta_p\r\n\r\n# end\r\n")),
    "script-row-after-the-end": ("simulate", SCRIPT_SECTION,
                                 "bad.cfg: [scenario] open_loop: script row at t=20.0: after the end, duration=10.0",
                                 ("script.txt", "0 0.01 0 0\n20.0 0.02 0 0\n")),
    "missing-script": ("simulate", "[open_loop]\nscript = missing.txt\n",
                       "bad.cfg: [open_loop] script: {table}: no such file or directory", ("missing.txt", None)),
}


@pytest.mark.filterwarnings("error")  # numpy's empty-input warning would be a second stderr line
@pytest.mark.parametrize("row", LOAD_ERRORS.values(), ids=LOAD_ERRORS)
def test_bad_input_fails_at_load_naming_it(row, tmp_path, capsys):
    verb, config, named, *table = row
    verb, *flags = (verb,) if isinstance(verb, str) else verb
    if isinstance(config, str):
        (tmp_path / "bad.cfg").write_text(CONFIG_HEADER + "\n" + config, encoding="utf-8")
        config = Path("bad.cfg")
    table_path = None
    for name, text in table:
        table_path = tmp_path / name
        if text is not None:
            table_path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    named = named.format(dir=tmp_path, table=table_path)
    flags = [flag.format(dir=tmp_path, table=table_path) for flag in flags]
    before = {file: file.read_bytes() for file in tmp_path.iterdir()}
    line = _fails_at_load(verb, tmp_path / config, named, capsys, flags)
    assert {file: file.read_bytes() for file in tmp_path.iterdir()} == before  # no input overwritten, no output made
    if table_path:  # a table file is named as often as the row's text names it: once, or not at all
        assert line.count(str(table_path)) == named.count(str(table_path)), line


# --- argument parsing ----------------------------------------------------------

# blimpsim's stdout, stderr and exit code on usage errors and help, captured when main built every verb's
# subparser on each call. argparse wraps to COLUMNS, and its wording is that of the Python version recorded.
USAGE = json.loads((ROOT / "tests" / "cli_usage.json").read_text(encoding="utf-8"))
PARSED = [["simulate", "x.cfg"], ["simulate", "x.cfg", "--csv", "a.csv", "--summ", "s.txt"], ["linearize", "c.cfg"],
          ["certify-gains", "p.cfg", "--k1", "0:1:3", "--k2", "2", "--k-w", "3"],
          ["thruster-map", "throttle", "--at", "0.5"], ["step-response", "1.0", "--dt", "0.1", "--pole", "2"],
          ["simulate", "--", "x.cfg"]]


def _argv_id(argv):
    return " ".join(argv) or "no-arguments"


@pytest.mark.skipif(list(platform.python_version_tuple()[:2]) != USAGE["python"],
                    reason="the captured text is the recorded Python version's argparse output")
@pytest.mark.parametrize("case", USAGE["cases"], ids=lambda case: _argv_id(case["argv"]))
def test_usage_help_and_errors_are_byte_for_byte_as_captured(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", str(USAGE["columns"]))
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (out, err, code) == (case["stdout"], case["stderr"], case["exit"])


@pytest.mark.parametrize("argv", [case["argv"] for case in USAGE["cases"]] + PARSED, ids=_argv_id)
def test_parse_args_matches_the_full_parser(argv, monkeypatch, capsys):
    # The called verb's parser alone against all five verbs' parser, in this interpreter.
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    assert outcome(cli.parse_args) == outcome(cli.build_parser().parse_args)


@pytest.mark.parametrize("argv, built", [
    (["simulate", "x.cfg"], ["simulate"]),
    (["step-response", "1.0", "--dt", "0.1"], ["step-response"]),
    (["simulate", "x.cfg", "--bogus"], ["simulate", *cli.VERBS]),  # the leftover goes through the full parser
    (["bogus"], [*cli.VERBS]),
])
def test_a_verb_builds_only_its_own_subparser(argv, built, monkeypatch, capsys):
    calls = []
    for name, (help_text, add_arguments, command) in list(cli.VERBS.items()):
        def counted(p, name=name, add_arguments=add_arguments):
            calls.append(name)
            add_arguments(p)
        monkeypatch.setitem(cli.VERBS, name, (help_text, counted, command))
    try:
        cli.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
    assert calls == built
