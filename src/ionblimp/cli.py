"""Command-line surface: blimpsim <verb> ...

Verbs:

* ``simulate <scenario.cfg>``   run a scenario, print its summary
* ``linearize <config.cfg>``    linear model about the configured trim
* ``certify-gains <config.cfg>`` evaluate or grid-search (k1, k2)
* ``thruster-map <preset>``     emit a measured thrust map as text
* ``step-response <k_u>``       surge-channel closed-loop step samples

Every verb exits 0 on success; failures print one machine-parseable
``error: ...`` line on stderr and exit 1 (argparse usage errors exit 2).
``thruster-map --at`` reports each warning (an extrapolated thrust) as one
``warning: <category>: <message>`` line on stderr. Importing this module
imports no numpy, ``thruster``, ``smc`` or ``inner_loop``: ``linearize``,
``certify-gains`` and ``step-response`` import ``inner_loop`` when called.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

from . import harness

# Each preset's map and the function that reads thrust off it, by their names in ``thruster``.
_MAP_PRESETS = {
    "throttle": ("THROTTLE_MAP", "throttle_to_thrust"),
    "spacing-dual": ("SPACING_MAP_DUAL_RING", "spacing_to_thrust"),
}


def _grid(option: str, text: str) -> np.ndarray:
    """Parse 'start:stop:count' into a grid, or a single float into [value]: finite ends, count >= 1."""
    parts = text.split(":")
    try:
        ends = [float(v) for v in parts[:2]]
        count = 1 if len(parts) == 1 else int(parts[2]) if len(parts) == 3 else 0
    except ValueError:
        count = 0
    if count < 1 or not all(map(math.isfinite, ends)):
        raise ValueError(f"{option} must be a finite value or start:stop:count with finite ends and count >= 1,"
                         f" got {text!r}")
    import numpy as np
    return np.linspace(*ends, count) if len(parts) == 3 else np.array(ends)


def _cmd_simulate(args) -> int:
    scenario = harness.load_scenario(args.scenario, args.csv, args.summary)
    result = harness.run_scenario(scenario)
    sys.stdout.write(harness.format_summary(result.summary))
    return 0


def _cmd_linearize(args) -> int:
    from . import inner_loop
    params, speed, thrust = harness.load_params(args.config)
    model = inner_loop.linearize(params, speed, thrust)
    # Two surge poles are reported on purpose: the drag entry of the model
    # above, and the fitted reference-plant pole used by step-response.
    report = {"trim_speed": speed, "trim_thrust": thrust,
              **{f"a_{i + 1}{j + 1}": float(model.a[i, j]) for i in range(4) for j in range(4)},
              **{f"b_{i + 1}{j + 1}": float(model.b[i, j]) for i in range(4) for j in range(3)},
              "u_pole_model": float(-model.a[0, 0]), "u_pole_reference_plant": inner_loop.U_CHANNEL_POLE,
              "u_gain_reference_plant": inner_loop.U_CHANNEL_GAIN}
    sys.stdout.write(harness.format_summary(report))
    return 0


def _cmd_certify_gains(args) -> int:
    from . import inner_loop
    params, speed, thrust = harness.load_params(args.config)
    model = inner_loop.linearize(params, speed, thrust)
    k1_grid, k2_grid = _grid("--k1", args.k1), _grid("--k2", args.k2)
    if k1_grid.size == 1 and k2_grid.size == 1:
        k1, k2 = float(k1_grid[0]), float(k2_grid[0])
        try:
            cert = inner_loop.lyapunov_certify(inner_loop.closed_loop_vr(model, k1, k2))
        except inner_loop.SingularLyapunov:  # no M exists: the pair is reported, not certified
            cert = None
    else:
        found = inner_loop.search_stabilizing_gains(model, k1_grid, k2_grid)
        if found is None:
            raise RuntimeError(
                f"no stabilizing (k1, k2) on the {k1_grid.size}x{k2_grid.size} grid"
            )
        k1, k2, cert = found
    k_u = inner_loop.design_ku_unity_dc(inner_loop.U_CHANNEL_GAIN, inner_loop.U_CHANNEL_POLE)
    k_w = args.k_w if args.k_w is not None else inner_loop.kw_lower_bound(params, speed, thrust)
    design = inner_loop.InnerLoopConfig(trim_speed=speed, trim_thrust=thrust, k_u=k_u, k_w=k_w, k1=k1, k2=k2)
    sys.stdout.write(harness.format_summary(inner_loop.gain_report(design, cert)))
    return 0


def _cmd_thruster_map(args) -> int:
    from . import thruster
    tmap, to_thrust = (getattr(thruster, name) for name in _MAP_PRESETS[args.preset])
    text = harness.format_table("input  thrust_grams", zip(tmap.inputs, tmap.thrust_grams))
    if args.at is not None:  # evaluated before anything is written, so a refused query writes no map
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            thrust = float(to_thrust(tmap, args.at))
        for w in caught:  # one line each, without the source location
            print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
        text += "# " + harness.format_summary({f"thrust_newtons_at_{args.at!r}": thrust})
    sys.stdout.write(text)
    return 0


def _cmd_step_response(args) -> int:
    from . import inner_loop
    tf = inner_loop.close_u_loop(args.k_u, gain=args.gain, pole=args.pole)
    t, y = inner_loop.step_response(tf, args.duration, args.dt)
    print("t,du")
    for ti, yi in zip(t, y):
        print(f"{float(ti)!r},{float(yi)!r}")
    return 0


def _simulate_args(p) -> None:
    p.add_argument("scenario")
    p.add_argument("--csv", help="override the CSV output path")
    p.add_argument("--summary", help="override the summary output path")


def _linearize_args(p) -> None:
    p.add_argument("config", help="config file with [params] and optional [trim]")


def _certify_gains_args(p) -> None:
    p.add_argument("config")
    p.add_argument("--k1", required=True, help="single value or start:stop:count grid")
    p.add_argument("--k2", required=True, help="single value or start:stop:count grid")
    p.add_argument("--k-w", type=float, default=None, dest="k_w",
                   help="heave gain to report (default: its stability lower bound)")


def _thruster_map_args(p) -> None:
    p.add_argument("preset", choices=sorted(_MAP_PRESETS))
    p.add_argument("--at", type=float, default=None,
                   help="also interpolate the thrust (N) at this input")


def _step_response_args(p) -> None:
    from . import inner_loop
    p.add_argument("k_u", type=float)
    p.add_argument("--duration", type=float, default=3.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--gain", type=float, default=inner_loop.U_CHANNEL_GAIN)
    p.add_argument("--pole", type=float, default=inner_loop.U_CHANNEL_POLE)


# Each verb, in usage order: its help line, the function adding its arguments and its command.
VERBS = {
    "simulate": ("run a scenario config file", _simulate_args, _cmd_simulate),
    "linearize": ("linear model about a trim", _linearize_args, _cmd_linearize),
    "certify-gains": ("Lyapunov-certify sway/yaw gains", _certify_gains_args, _cmd_certify_gains),
    "thruster-map": ("print a measured thrust map", _thruster_map_args, _cmd_thruster_map),
    "step-response": ("closed-loop surge step response", _step_response_args, _cmd_step_response),
}


def build_parser(verbs=VERBS) -> argparse.ArgumentParser:
    """The blimpsim parser with a subparser for each of the named verbs (default: all of them)."""
    parser = argparse.ArgumentParser(prog="blimpsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    for name in verbs:
        help_text, add_arguments, command = VERBS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=command)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse argv with only the called verb's subparser when argv[0] names one.

    An argv that does not start with a verb, or that leaves an argument over,
    goes through the full parser, whose usage and error lines list every verb.
    """
    if argv and argv[0] in VERBS:
        args, rest = build_parser(argv[:1]).parse_known_args(argv)
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except Exception as exc:  # one greppable line per failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
