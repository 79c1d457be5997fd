from pathlib import Path

import numpy as np
import pytest

from ionblimp.cli import main
from ionblimp.harness import CONFIG_HEADER
from ionblimp.thruster import THROTTLE_MAP, load_thrust_map

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
    loaded = load_thrust_map(path)
    assert loaded.inputs == THROTTLE_MAP.inputs
    assert loaded.thrust_grams == THROTTLE_MAP.thrust_grams


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
], ids=["misspelt-key", "misspelt-open-loop-key", "misspelt-section", "default-section",
        "removed-feedforward", "linearize-scenario-file", "misspelt-trim-key", "nan-smc-gain",
        "nan-initial", "nan-thrust", "nan-gimbal-noise", "inf-dt", "inf-trim-speed", "empty-path"])
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
