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
from ionblimp.harness import CONFIG_HEADER, SCENARIO_SCHEMA, load_scenario
from ionblimp.inner_loop import InnerLoopConfig, gain_report
from ionblimp.thruster import SPACING_MAP_DUAL_RING, THROTTLE_MAP, dump_thrust_map, spacing_to_thrust

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
        assert out == dump_thrust_map(SPACING_MAP_DUAL_RING) + f"# thrust_newtons_at_0.028={thrust!r}\n"


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
    (["nan"], "pole must be finite, got nan"),
    (["1", "--gain", "nan"], "gain must be finite, got nan"),
    (["1", "--pole", "nan"], "pole must be finite, got nan"),
    (["1", "--duration", "nan"], "duration must be positive and finite, got nan"),
    (["1", "--duration", "inf"], "duration must be positive and finite, got inf"),
    (["1", "--dt", "nan"], "dt must be positive and finite, got nan"),
    (["1", "--dt", "inf"], "dt must be positive and finite, got inf"),
    (["1", "--dt", "0"], "dt must be positive and finite, got 0.0"),
], ids=["k-u-nan", "gain-nan", "pole-nan", "duration-nan", "duration-inf", "dt-nan", "dt-inf", "dt-zero"])
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
    assert gain_report(loaded, None) == "".join(design)


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


@pytest.mark.parametrize("option, grid", [
    ("--k1", "nan"),  # a non-finite single value
    ("--k2", "inf"),
    ("--k1", "0:inf:3"),  # a non-finite stop
    ("--k2", "-inf:1:3"),  # a non-finite start
    ("--k1", "0:1:0"),  # a count below 1: an empty grid
    ("--k2", "0:1:-2"),
])
def test_certify_gains_refuses_a_bad_grid_by_its_option(params_cfg, capsys, option, grid):
    grids = {"--k1": "0:5:11", "--k2": "0:5:11", option: grid}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarning on a nan grid would fail here
        assert main(["certify-gains", params_cfg, *(f"{k}={v}" for k, v in grids.items())]) == 1
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


# Runs blimpsim simulate in a fresh interpreter, then prints whether numpy.random was imported.
_COLD_SIMULATE = """import sys
from ionblimp.cli import main
code = main(["simulate", sys.argv[1]])
print("numpy.random" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("name", ["hover", "cruise", "heading_step", "trim_hold"])
def test_simulate_never_imports_numpy_random(name):
    # numpy loads numpy.random (with secrets, hashlib and hmac) on first use, an
    # import that costs a cold run more than its draws; trim_hold's gimbal noise
    # comes from ionblimp.pcg64 instead.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", _COLD_SIMULATE, str(ROOT / "demos" / "scenarios" / f"{name}.cfg")],
                         capture_output=True, text=True, env=env, check=True)
    assert run.stdout.splitlines()[-1] == "False"


# Runs code with sys.argv[2:] as its arguments in a fresh interpreter, then prints whether numpy was imported.
_COLD_NUMPY = """import sys
exec(sys.argv[1])
print("numpy imported:", "numpy" in sys.modules)
"""
_SIMULATE = "from ionblimp.cli import main\nassert main(['simulate', *sys.argv[2:]]) == 0"


def _imports_numpy(code, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", _COLD_NUMPY, code, *map(str, args)],
                         capture_output=True, text=True, env=env, check=True)
    last = run.stdout.splitlines()[-1]
    assert last in ("numpy imported: True", "numpy imported: False"), run.stdout
    return last.endswith("True")


def _perfbench_inputs(workload, out_dir):
    """The seed-0 input files perfbench generates for a workload."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.generate(workload, 0, out_dir)


def test_import_cli_never_imports_numpy():
    assert not _imports_numpy("import ionblimp.cli")


@pytest.mark.parametrize("name", ["hover", "cruise", "trim_hold"])
def test_table_free_demo_simulate_never_imports_numpy(name, tmp_path):
    cfg = ROOT / "demos" / "scenarios" / f"{name}.cfg"
    assert not _imports_numpy(_SIMULATE, cfg, "--csv", tmp_path / "run.csv", "--summary", tmp_path / "run.txt")


@pytest.mark.parametrize("workload, plan_key", [("full_6dof", "scenario"), ("inner_loop_csv", "flight_base")])
def test_table_free_perfbench_simulate_never_imports_numpy(workload, plan_key, tmp_path):
    assert not _imports_numpy(_SIMULATE, _perfbench_inputs(workload, tmp_path)[plan_key])


def test_lift_budget_never_imports_numpy():
    assert not _imports_numpy("from ionblimp.buoyancy import EnvelopeGeometry, lift_budget\n"
                              "assert lift_budget(EnvelopeGeometry(0.985, 0.255, 0.255)).net_lift_kg > 0.0")


def test_smc_simulate_imports_numpy(tmp_path):
    # The SMC plant and its reference table are numpy code: the documented boundary.
    cfg = ROOT / "demos" / "scenarios" / "heading_step.cfg"
    assert _imports_numpy(_SIMULATE, cfg, "--csv", tmp_path / "run.csv", "--summary", tmp_path / "run.txt")


def test_bad_config_gives_error_line_and_nonzero_exit(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("[scenario]\n", encoding="utf-8")
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_a_c2_whose_reciprocal_overflows_fails_at_load(tmp_path, capsys):
    # 1 / 1e-310 is inf: the run would fail at step 0 on a nan thrust naming neither c2 nor the cause.
    path = _heading_step_with_c2("1e-310", tmp_path)
    assert main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: ValueError: {path}: [smc] c2 must have a finite reciprocal 1 / c2, got 1e-310\n"


def test_non_finite_param_error_names_the_key(tmp_path, capsys):
    path = tmp_path / "nan_drag.cfg"
    path.write_text(
        CONFIG_HEADER + "\n[params]\ndrag_coeff = nan\n\n"
        "[scenario]\nmodel = full\nduration = 0.1\ndt = 0.01\n",
        encoding="utf-8",
    )
    assert main(["simulate", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "drag_coeff" in lines[0]


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
    (tmp_path / "ref.txt").write_text("0.0 0 0 0.5\n1.0 0 0 0.5\n", encoding="utf-8")
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG_HEADER + "\n" + "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
                                                  for name, values in sections.items()), encoding="utf-8")
    assert main([verb, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and f"{path}: [{section}] {key}" in lines[0]


def test_a_percent_reference_is_not_expanded(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG_HEADER + "\n[open_loop]\ndelta_y = 0.1\nthrust = %(delta_y)s\n", encoding="utf-8")
    assert main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and f"{path}: [open_loop] thrust: " in lines[0]


def test_a_percent_sign_in_a_path_is_literal(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_HEADER + "\n[scenario]\nduration = 0.01\ndt = 0.01\n[output]\ncsv = run%1.csv\n",
                    encoding="utf-8")
    assert main(["simulate", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "run%1.csv").read_text(encoding="utf-8").startswith("t,u,")


@pytest.mark.parametrize("keys", [("thrust", "throttle"), ("script", "thrust"), ("script", "throttle"),
                                  ("script", "delta_y")],
                         ids=["thrust-throttle", "script-thrust", "script-throttle", "script-delta-y"])
def test_conflicting_open_loop_keys_fail_at_load(keys, tmp_path, capsys):
    values = {"thrust": "0.05", "throttle": "0.0", "script": "script.txt", "delta_y": "0.3"}
    path = tmp_path / "conflict.cfg"
    path.write_text(
        CONFIG_HEADER + "\n[open_loop]\n" + "".join(f"{key} = {values[key]}\n" for key in keys),
        encoding="utf-8",
    )
    assert main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "[open_loop]" in lines[0]
    assert all(key in lines[0] for key in keys)


SMC_SECTION = """[scenario]
controller = smc

[smc]
c1 = 1.0
c2 = 1.0
epsilon = 0.05
k = 1.0
reference = ref.txt
"""


@pytest.mark.filterwarnings("error")  # numpy's empty-input warning would be a second stderr line
@pytest.mark.parametrize("extra, ref, named", [
    ("t_max = -0.01\n", "0.0 0 0 0.5\n1.0 0 0 0.5\n", "smc.cfg: [smc] t_max"),
    ("", "0.0 0 0 0.5\n1.0 0 0 nan\n", "ref.txt"),
    ("", "# t x y psi\n", "ref.txt: no data rows"),
    ("", "0.0 0 0 0.5\n1e-320 1 0 0.5\n", "ref.txt: pose slope from t=0.0 to t=1e-320 is not finite"),
    ("", "-1e308 0 0 0\n1e308 1 0 0\n", "ref.txt: knot spacing from t=-1e+308 to t=1e+308 is not finite"),
], ids=["negative-t-max", "nan-reference", "empty-reference", "subnormal-knot-spacing", "far-apart-knots"])
def test_bad_smc_input_fails_at_load(extra, ref, named, tmp_path, capsys):
    (tmp_path / "ref.txt").write_text(ref, encoding="utf-8")
    path = tmp_path / "smc.cfg"
    path.write_text(CONFIG_HEADER + "\n" + SMC_SECTION + extra, encoding="utf-8")
    assert main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and named in lines[0]
    assert "smc.cfg: [smc] " in lines[0]
    assert "step 0" not in lines[0]
    with pytest.raises(ValueError, match=re.escape(named)):  # at load, before any step runs
        load_scenario(path)


@pytest.mark.filterwarnings("error")  # numpy's empty-input warning would be a second stderr line
@pytest.mark.parametrize("script, named", [
    ("0.0 0.01 0.0 0\n0.005 0.01 2.0 0\n", "[open_loop] script row at t=0.005: |delta_y|"),
    ("0.0 0.01 0.0 1.570796326794897\n", "[open_loop] script row at t=0.0: |delta_p|"),
    ("0.0 0.01 0.0\n", "[open_loop] script needs rows"),
    ("0 0.01 0 0\n2.0 0.03 0 0\n1.0 0.02 0 0\n", "[open_loop] script row at t=1.0: times must be strictly"),
    ("1.0 0.01 0 0\n", "[open_loop] script row at t=1.0: the first row must be at t = 0"),
    ("0 abc 0 0\n", "[open_loop] {script}: could not convert string 'abc'"),
    ("", "[open_loop] {script}: no data rows"),
    ("0 0.01 0 0\n20.0 0.02 0 0\n", "[scenario] open_loop: script row at t=20.0: after the end, duration=10.0"),
], ids=["out-of-range-row", "delta-p-2-ulp-past-gimbal", "three-columns", "time-goes-back", "starts-after-zero", "unparsable", "empty",
        "row-after-the-end"])
def test_bad_open_loop_script_fails_at_load(script, named, tmp_path, capsys):
    named = named.format(script=tmp_path / "script.txt")
    (tmp_path / "script.txt").write_text(script, encoding="utf-8")
    path = tmp_path / "open_loop.cfg"
    path.write_text(CONFIG_HEADER + "\n[open_loop]\nscript = script.txt\n", encoding="utf-8")
    assert main(["simulate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and f"{path}: {named}" in lines[0]


@pytest.mark.parametrize("section, config", [
    ("open_loop", "[open_loop]\nscript = missing.txt\n"),
    ("smc", SMC_SECTION.replace("ref.txt", "missing.txt")),
], ids=["open-loop-script", "smc-reference"])
def test_missing_table_file_is_named_once(section, config, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_HEADER + "\n" + config, encoding="utf-8")
    assert main(["simulate", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].endswith(f"run.cfg: [{section}] {tmp_path / 'missing.txt'}: not found")
    assert lines[0].count("missing.txt") == 1


def test_missing_file_error(capsys):
    assert main(["linearize", "/nonexistent/params.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


CRUISE_CFG = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "cruise.cfg"
SMC_NAN_K = """[scenario]
controller = smc

[smc]
c1 = 1.0
c2 = 1.0
epsilon = 0.05
k = nan
reference = ref.txt
"""
SMC_NO_K = SMC_NAN_K.replace("k = nan\n", "")
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
INNER_LOOP_FEEDFORWARD = """[scenario]
controller = inner_loop

[inner_loop]
trim_speed = 0.3
trim_thrust = 0.01
k_u = 0.5
thrust_feedforward = 0.01
"""


@pytest.mark.parametrize("verb, config, named", [
    ("simulate", "[scenario]\nmodle = full\n", "[scenario] modle"),
    ("simulate", "[open_loop]\nthurst = 0.05\n", "[open_loop] thurst"),
    ("simulate", "[scenaro]\nduration = 1.0\n", "[scenaro]"),
    ("simulate", "[DEFAULT]\nmodle = full\n", "[DEFAULT]"),
    ("simulate", INNER_LOOP_FEEDFORWARD, "[inner_loop] thrust_feedforward"),
    ("linearize", CRUISE_CFG, "[scenario]"),
    ("certify-gains", "[trim]\nsped = 1.0\n", "[trim] sped"),
    ("simulate", SMC_NAN_K, "[smc] k"),
    ("simulate", "[initial]\nh = nan\n", "[initial] h"),
    ("simulate", "[open_loop]\nthrust = nan\n", "[open_loop] thrust"),
    ("simulate", "[scenario]\ngimbal_noise = nan\n", "[scenario] gimbal_noise"),
    ("simulate", "[scenario]\ndt = inf\n", "[scenario] dt"),
    ("linearize", "[trim]\nspeed = -inf\n", "[trim] speed"),
    ("linearize", "[trim]\nspeed = -1\n", "bad.cfg: [trim] speed must be positive and finite, got -1.0"),
    ("certify-gains", "[trim]\nthrust = 0\n", "bad.cfg: [trim] thrust must be positive and finite, got 0.0"),
    ("simulate", "[output]\ncsv =\n", "[output] csv"),
    ("simulate", "[params]\nmass = -1\n", "bad.cfg: [params] mass"),
    ("linearize", "[params]\nmass = -1\n", "bad.cfg: [params] mass must be positive"),
    ("certify-gains", "[params]\nmass = -1\n", "bad.cfg: [params] mass must be positive"),
    ("simulate", "[params]\ninertia_y = -1\n", "bad.cfg: [params] inertia_y"),
    ("linearize", "[params]\ninertia_y = -1\n", "bad.cfg: [params] inertia_y"),
    ("certify-gains", "[params]\ninertia_y = -1\n", "bad.cfg: [params] inertia_y"),
    ("simulate", "[scenario]\ngimbal_noise = 1e308\n", "bad.cfg: [scenario] gimbal_noise"),
    ("simulate", "[scenario]\ndt = -1\n", "bad.cfg: [scenario] dt"),
    ("simulate", "[open_loop]\nthrust = -0.1\n", "bad.cfg: [open_loop] thrust"),
    ("simulate", "[open_loop]\ndelta_y = 2.0\n", "bad.cfg: [open_loop] |delta_y|"),
    ("simulate", "[open_loop]\ndelta_p = -2.0\n", "bad.cfg: [open_loop] |delta_p|"),
    ("simulate", "[open_loop]\ndelta_p = 1.570796326794897\n", "bad.cfg: [open_loop] |delta_p|"),
    ("simulate", "[scenario]\nmodel = full\n" + SINGULAR_INERTIA, "bad.cfg: [params] inertia tensor"),
    ("simulate", "[scenario]\nmodel = full\n" + NEGATIVE_DETERMINANT, "bad.cfg: [params] inertia tensor"),
    ("simulate", "[initial]\ntheta = 0.1\n",
     "bad.cfg: [scenario] initial.theta: must be 0.0 with the planar model, got 0.1"),
    ("simulate", "[open_loop]\nthrottle = 1.5\n", "bad.cfg: [open_loop] throttle"),
    ("simulate", SMC_NO_K, "bad.cfg: [smc] k: required"),
    ("simulate", INNER_LOOP_NO_KU, "bad.cfg: [inner_loop] k_u: required"),
    ("simulate", SMC_NO_K + "[open_loop]\nthrust = 0.01\n", "bad.cfg: [open_loop]: not read by the smc"),
    ("simulate", "[smc]\nreference = missing.txt\n", "bad.cfg: [smc]: not read by the open_loop"),
    ("simulate", INNER_LOOP_NO_KU + "[open_loop]\n", "bad.cfg: [open_loop]: not read by the inner_loop"),
    ("simulate", "[scenario]\ncontroller = smc\nmodel = full\n", "bad.cfg: [scenario] model: not read"),
    ("simulate", "[scenario]\ncontroller = smc\ngimbal_noise = 0.3\n", "bad.cfg: [scenario] gimbal_noise"),
    ("simulate", "[scenario]\ncontroller = smc\n[initial]\nw = 0.1\n", "bad.cfg: [initial] w: not read"),
    ("simulate", "[scenario]\ncontroller = smc\n[initial]\ntheta = 0.1\n", "bad.cfg: [initial] theta"),
    ("simulate", "[scenario]\ncontroller = pid\n[open_loop]\n", "unknown controller 'pid'"),
    ("simulate", "[scenario]\nseed = -1\n", "bad.cfg: [scenario] seed must be non-negative"),
    ("simulate", "mass = 0.3\n", "no section headers. file: '{dir}/bad.cfg', line: 2"),
    ("simulate", "[params]\nmass\n", "parsing errors: '{dir}/bad.cfg' [line 3]: 'mass"),
    ("simulate", "[params]\nmass = 0.3\nmass = 0.4\n",
     "'{dir}/bad.cfg' [line 4]: option 'mass' in section 'params' already exists"),
    ("simulate", "[params]\nmass = 0.3\n[params]\n", "'{dir}/bad.cfg' [line 4]: section 'params' already exists"),
    ("simulate", "[scenario]\nduration = 1e300\ndt = 0.01\n",
     "bad.cfg: [scenario] duration / dt must be at most 10000000 steps, got duration=1e+300, dt=0.01"),
    ("simulate", "[scenario]\nduration = 1.0\ndt = 1e-300\n",
     "bad.cfg: [scenario] duration / dt must be at most 10000000 steps, got duration=1.0, dt=1e-300"),
    ("simulate", "[scenario]\nduration = 1.0\ndt = 1e-320\n",
     "bad.cfg: [scenario] duration / dt must be at most 10000000 steps, got duration=1.0, dt=1e-320"),
    ("simulate", "[scenario]\nduration = 1e300\ndt = 1e-10\n",
     "bad.cfg: [scenario] duration / dt must be at most 10000000 steps, got duration=1e+300, dt=1e-10"),
    ("certify-gains", "[params]\nlift_slope = 0.1\n[trim]\nthrust = 1e-320\n",
     "k_w bound at trim_speed=1.0, trim_thrust=1e-320 must be finite, got inf"),
], ids=["misspelt-key", "misspelt-open-loop-key", "misspelt-section", "default-section",
        "removed-feedforward", "linearize-scenario-file", "misspelt-trim-key", "nan-smc-gain",
        "nan-initial", "nan-thrust", "nan-gimbal-noise", "inf-dt", "inf-trim-speed", "negative-trim-speed",
        "zero-trim-thrust", "empty-path",
        "negative-mass", "linearize-negative-mass", "certify-gains-negative-mass", "negative-inertia-y",
        "linearize-negative-inertia-y", "certify-gains-negative-inertia-y", "huge-gimbal-noise", "negative-dt",
        "negative-thrust", "delta-y-beyond-gimbal",
        "delta-p-beyond-gimbal", "delta-p-2-ulp-past-gimbal", "zero-inertia-determinant",
        "negative-inertia-determinant", "planar-initial-theta", "throttle-above-one", "missing-smc-k", "missing-inner-loop-k-u",
        "open-loop-section-under-smc", "smc-section-under-open-loop", "open-loop-section-under-inner-loop",
        "model-under-smc", "gimbal-noise-under-smc", "initial-w-under-smc", "initial-theta-under-smc",
        "unknown-controller-beside-section", "negative-seed", "key-before-any-section", "line-without-equals",
        "duplicate-key", "duplicate-section", "huge-duration", "tiny-dt", "subnormal-dt", "step-count-overflows",
        "certify-gains-k-w-overflows"])
def test_bad_input_fails_at_load_naming_it(verb, config, named, tmp_path, capsys):
    path, named = config, named.format(dir=tmp_path)
    if isinstance(config, str):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_HEADER + "\n" + config, encoding="utf-8")
    extra = ["--k1", "0.0", "--k2", "1.5"] if verb == "certify-gains" else []
    assert main([verb, str(path), *extra]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and named in lines[0]


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
