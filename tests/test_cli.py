import re
from pathlib import Path

import numpy as np
import pytest

from ionblimp.cli import main
from ionblimp.harness import CONFIG_HEADER, load_scenario
from ionblimp.thruster import THROTTLE_MAP

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


def test_step_response_output(capsys):
    assert main(["step-response", "0.9828", "--duration", "2.0", "--dt", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,du"
    assert len(lines) == 6
    t_last, y_last = (float(x) for x in lines[-1].split(","))
    assert t_last == pytest.approx(2.0)
    assert y_last == pytest.approx(1.0, abs=1e-2)


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


def test_certify_gains_failure_is_machine_parseable(params_cfg, capsys):
    assert main(["certify-gains", params_cfg, "--k1", "50:80:2", "--k2", "50:80:2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "no stabilizing" in err


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


def test_bad_config_gives_error_line_and_nonzero_exit(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("[scenario]\n", encoding="utf-8")
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")



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
], ids=["negative-t-max", "nan-reference", "empty-reference"])
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
    ("0.0 0.01 0.0\n", "[open_loop] script needs rows"),
    ("0 abc 0 0\n", "[open_loop] {script}: could not convert string 'abc'"),
    ("", "[open_loop] {script}: no data rows"),
], ids=["out-of-range-row", "three-columns", "unparsable", "empty"])
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
    ("simulate", "[output]\ncsv =\n", "[output] csv"),
    ("simulate", "[params]\nmass = -1\n", "bad.cfg: [params] mass"),
    ("simulate", "[scenario]\ndt = -1\n", "bad.cfg: [scenario] dt"),
    ("simulate", "[open_loop]\nthrust = -0.1\n", "bad.cfg: [open_loop] thrust"),
    ("simulate", "[open_loop]\ndelta_y = 2.0\n", "bad.cfg: [open_loop] |delta_y|"),
    ("simulate", "[open_loop]\ndelta_p = -2.0\n", "bad.cfg: [open_loop] |delta_p|"),
    ("simulate", "[open_loop]\nthrottle = 1.5\n", "bad.cfg: [open_loop] throttle"),
    ("simulate", SMC_NO_K, "bad.cfg: [smc] k: required"),
    ("simulate", INNER_LOOP_NO_KU, "bad.cfg: [inner_loop] k_u: required"),
], ids=["misspelt-key", "misspelt-open-loop-key", "misspelt-section", "default-section",
        "removed-feedforward", "linearize-scenario-file", "misspelt-trim-key", "nan-smc-gain",
        "nan-initial", "nan-thrust", "nan-gimbal-noise", "inf-dt", "inf-trim-speed", "empty-path",
        "negative-mass", "negative-dt", "negative-thrust", "delta-y-beyond-gimbal",
        "delta-p-beyond-gimbal", "throttle-above-one", "missing-smc-k", "missing-inner-loop-k-u"])
def test_bad_input_fails_at_load_naming_it(verb, config, named, tmp_path, capsys):
    path = config
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
