"""One benchmark run in a fresh interpreter: ``python3 worker.py '<job json>'``.

The job names a mode and a workload. Every mode but ``smoke`` first times set-up
(``import ionblimp`` plus loading the generated inputs), then:

* ``setup`` stops there;
* ``run`` executes the workload through ``ionblimp.cli.main`` (or the
  ``thruster`` API for the oracle) with tracing off and checks its outputs;
* ``trace`` does the same with the span tracer installed and derives the
  per-layer metrics from the spans;
* ``smoke`` runs one committed demo scenario and checks it.

The last line of standard output is one JSON object with the timings,
``ru_maxrss`` and the list of failed checks.
"""

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402  (stdlib only, so set-up timing is not disturbed)


def _load_oracle(path):
    import configparser

    from ionblimp import thruster

    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    points = []
    for name in parser.sections():
        sec = parser[name]
        gas = thruster.GasIonParams(**{key: sec.getfloat(key) for key in gen.ORACLE_FIELDS})
        slip = [float(v) for v in sec["slip"].split()]
        points.append((name, gas, slip, sec.getint("seed"), sec.getint("n_samples")))
    return points


def _setup(workload: str, plan: dict):
    """Time a cold import of the program plus loading this workload's inputs."""
    start = time.perf_counter()
    import ionblimp.cli  # noqa: F401  (the entry point every run goes through)
    from ionblimp import harness

    if workload == "collision_oracle":
        inputs = _load_oracle(plan["oracle"])
    elif workload == "inner_loop_csv":
        inputs = harness.load_scenario(plan["flight_base"])
    else:
        inputs = harness.load_scenario(plan["scenario"])
    return time.perf_counter() - start, inputs


class _Capture:
    """Keeps each (scenario, SimResult) that harness.run_scenario returns to the CLI."""

    def __init__(self, harness):
        self.runs = []
        inner = harness.run_scenario

        def run_scenario(scenario):
            result = inner(scenario)
            self.runs.append((scenario, result))
            return result

        harness.run_scenario = run_scenario


def _cli(argv):
    from ionblimp import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"blimpsim {argv[0]} exited {code}")
    return out.getvalue()


def _flight_checks(capture, summary_text):
    from check import finite_states, parse_kv, step_count

    scenario, result = capture.runs[-1]
    summary = parse_kv(summary_text)
    return summary, finite_states(result) + step_count(scenario, result, summary)


def _exec_flight(workload, plan, capture, core):
    from ionblimp.smc import reaching_time_bound

    from check import smc_reaching

    start = time.perf_counter()
    summary_text = _cli(["simulate", plan["scenario"]])
    wall = time.perf_counter() - start
    slowdown = core.interval()
    summary, failures = _flight_checks(capture, summary_text)
    if workload == "smc_tracking":
        scenario, result = capture.runs[-1]
        failures += smc_reaching(scenario, result, plan["t_const"], reaching_time_bound)
    steps = int(summary["steps"])
    return {"samples": [[steps, wall, slowdown]], "exec_s": wall, "steps": steps,
            "outputs": {"summary": summary}, "failures": failures}


def _exec_inner_loop(plan, capture, core):
    from check import CSV_STRIDE, csv_rows, parse_kv

    start = time.perf_counter()
    report = parse_kv(_cli(["certify-gains", plan["params"], f"--k1={plan['k1']}", f"--k2={plan['k2']}"]))
    base = Path(plan["flight_base"]).read_text(encoding="utf-8")
    flight = base[: base.index("[inner_loop]")] + gen.inner_loop_section(report)
    Path(plan["flight"]).write_text(flight, encoding="utf-8")
    summary_text = _cli(["simulate", plan["flight"], "--csv", plan["csv"], "--summary", plan["summary"]])
    wall = time.perf_counter() - start
    slowdown = core.interval()

    summary, failures = _flight_checks(capture, summary_text)
    if report.get("certificate_valid") != "true":
        failures.append(f"certify-gains found no valid certificate: {report}")
    rows = csv_rows(plan["csv"])
    steps = int(summary["steps"])
    if len(rows) != steps + 2:  # header plus steps + 1 samples
        failures.append(f"CSV has {len(rows) - 1} data rows, expected {steps + 1}")
    if Path(plan["summary"]).read_text(encoding="utf-8") != summary_text:
        failures.append("summary file differs from the summary printed on stdout")
    outputs = {"report": report, "summary": summary, "csv_rows": rows[:1] + rows[1::CSV_STRIDE]}
    return {"samples": [[steps, wall, slowdown]], "exec_s": wall, "steps": steps,
            "outputs": outputs, "failures": failures}


def _exec_oracle(points, core):
    """The three oracle points, calibrating the core between them (outside exec_s)."""
    from ionblimp import thruster

    from check import ORACLE_TOL, oracle_error

    samples, outputs, failures, exec_s = [], {}, [], 0.0
    for name, gas, slip, seed, n_samples in points:
        start = time.perf_counter()
        mc = thruster.collision_force_density_mc(gas, slip, n_samples=n_samples, seed=seed)
        mc_s = time.perf_counter() - start
        closed = thruster.collision_force_density(gas, slip)
        exec_s += time.perf_counter() - start
        samples.append([n_samples, mc_s, core.interval()])
        error = oracle_error(mc, closed)
        if not error < ORACLE_TOL:
            failures.append(f"{name}: Monte-Carlo off the closed form by {error:.4%}")
        outputs.update({f"{name}.closed_{axis}": repr(float(v)) for axis, v in zip("xyz", closed)})
        outputs[f"{name}.n_samples"] = str(n_samples)
    return {"samples": samples, "exec_s": exec_s, "steps": 0,
            "outputs": {"closed_form": outputs}, "failures": failures}


def _smoke(path):
    """Committed demo scenarios: hover stays put, heading_step reaches in time."""
    from ionblimp import harness

    from check import REACH_LEVEL, REACH_SLACK, parse_kv

    capture = _Capture(harness)
    summary = parse_kv(_cli(["simulate", path]))
    scenario, result = capture.runs[-1]
    failures = []
    if Path(path).name == "hover.cfg":
        if not (result.states()[-1] == scenario.initial.as_array()).all():
            failures.append("hover did not end exactly at its initial state")
        if any(rec.flags for rec in result.records):
            failures.append("hover raised flags")
    else:
        reach, bound = float(summary["reaching_time"]), float(summary["reaching_bound"])
        if not reach <= REACH_SLACK * bound:
            failures.append(f"reaching_time {reach} exceeds {REACH_SLACK} x bound {bound}")
        if not float(summary["s_final_max"]) < REACH_LEVEL:
            failures.append(f"s_final_max {summary['s_final_max']} not below {REACH_LEVEL}")
    return {"failures": failures}


def run_job(job: dict) -> dict:
    workload, plan = job["workload"], job.get("plan", {})
    if job["mode"] == "smoke":
        return _smoke(job["scenario"])
    setup_s, inputs = _setup(workload, plan)
    import calibrate  # after set-up: it imports numpy, which set-up must time

    out = {"setup_s": setup_s, "setup_slowdown": calibrate.slowdown("scalar"), "failures": []}
    if job["mode"] == "setup":
        return out

    from ionblimp import harness

    kind = "array" if workload == "collision_oracle" else "scalar"
    core = calibrate.CoreSpeed(kind, out["setup_slowdown"] if kind == "scalar" else None)
    tracer = None
    if job["mode"] == "trace":
        import spans

        tracer = spans.Tracer(job["run_id"])
        tracer.install()
    capture = _Capture(harness)
    if workload == "collision_oracle":
        out.update(_exec_oracle(inputs, core))
    elif workload == "inner_loop_csv":
        out.update(_exec_inner_loop(plan, capture, core))
    else:
        out.update(_exec_flight(workload, plan, capture, core))

    if job.get("check_golden", True) and job["seed"] == 0:
        from check import compare_golden

        out["failures"] += compare_golden(workload, out["outputs"])
    if tracer is not None:
        tracer.write(job["spans"])
        totals = spans.span_totals(tracer.arrays())
        out["root_s"] = totals["root_ns"] / 1e9
        out["layers"] = spans.layer_metrics(totals, out["steps"])
        out["split"] = {name: [calls, self_ns / 1e9] for name, calls, self_ns
                        in zip(totals["names"], totals["calls"], totals["self_ns"]) if calls}
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        out = run_job(job)
    except Exception:  # report the failed run to run.py instead of dying silently
        out = {"failures": [traceback.format_exc(limit=4)]}
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.pop("outputs", None)
    print(json.dumps(out))
    return 0 if not out["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
