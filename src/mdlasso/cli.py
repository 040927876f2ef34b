"""Command-line front end: flat key=value configs, subcommands, CSV emission.

Subcommands
-----------
simulate    --config <path> --out <csv>   run an experiment, write trial CSV;
                                          name each non-converged trial on stderr
prob-curve  --n --p --tau --beta --eps-min --eps-max --steps --out <csv>
bounds      --config <path>               print one trial's regret certificate
verify                                    run the library's invariant suite

``bounds`` reads its config exactly as ``simulate`` does and prints trial 0
of that experiment: the same draw, solve and certificate as CSV row 0.

Config documents are one ``key = value`` per line with ``#`` comments. The
document is ``ExperimentConfig``'s init fields, ``lam`` read as ``lambda``:
their names are the closed key set ``CONFIG_KEYS``, their annotations the
value types (``Optional[T]`` read as ``T``), and the fields without a
default the required keys. Syntax errors, unknown or duplicate keys and
values that do not parse as their type are rejected with the offending line
number. Range rules live in the config objects (``ExperimentConfig``,
``DivergenceOrder``, ``BoundConfig``, ``default_theta_star``), which check
the whole config; their message names the key and the value but no line.
Command-line ``--set key=value`` overrides take precedence over file values,
the seed's as any other's.

Exit codes: 0 success; 1 invariant/acceptance failure, numerical error
(``error: …``) or i/o error (``i/o error: …``); 2 usage/config error, which
includes an unreadable config file and a size too large to allocate.
"""

import argparse
import dataclasses
import sys
from typing import Optional, Sequence, get_args

import numpy as np

from .bounds import ProbCurvePoint, probability_floor
from .errors import ConfigError, MdlassoError, require_count
from .sim import ExperimentConfig, TrialRecord, run_experiment, run_trial


# document key -> the ExperimentConfig init field it sets
CONFIG_KEYS = {("lambda" if f.name == "lam" else f.name): f
               for f in dataclasses.fields(ExperimentConfig) if f.init}

TRIAL_CSV_HEADER = "trial,snr,sigma2,d_bhatta,two_hellinger_sq,regret_bound,typical,dominated"
PROB_CURVE_CSV_HEADER = "epsilon,floor_exact,floor_linear,floor_simplified,floor_minus_tau_term"


def _parse_kv_line(where: str, raw: str, values: dict) -> None:
    line = raw.split("#", 1)[0].strip()
    if not line:
        return
    if "=" not in line:
        raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
    key, _, value = line.partition("=")
    key = key.strip()
    value = value.strip()
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown key '{key}'")
    if key in values:
        raise ConfigError(f"{where}: duplicate key '{key}'")
    field = CONFIG_KEYS[key]  # its annotation is the type, Optional[T] read as T
    kind = next((t for t in get_args(field.type) if t is not type(None)),
                field.type)
    try:
        values[key] = kind(value)
    except ValueError:
        raise ConfigError(
            f"{where}: {key}: expected {kind.__name__}, got {value!r}") from None


def _build_config(values: dict) -> ExperimentConfig:
    for key, field in CONFIG_KEYS.items():
        if field.default is dataclasses.MISSING and key not in values:
            raise ConfigError(f"missing required key '{key}'")
    try:
        return ExperimentConfig(**{CONFIG_KEYS[key].name: value
                                   for key, value in values.items()})
    except (ValueError, MdlassoError) as exc:
        raise ConfigError(str(exc)) from None


def _parse_lines(text: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        _parse_kv_line(f"line {lineno}", raw, values)
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document and build its ``ExperimentConfig``."""
    return _build_config(_parse_lines(text))


def _load_config(args) -> ExperimentConfig:
    try:
        # utf-8-sig: a byte-order mark (Windows Notepad writes one) is dropped
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    values = _parse_lines(text)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        values.pop(item.partition("=")[0].strip(), None)  # override replaces
        _parse_kv_line(f"override '{item}'", item, values)
    return _build_config(values)


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _fmt_residual(x: float) -> str:
    """A KKT residual to 3 digits: near the tolerance it is a difference of
    terms of order 1, whose 10th digit moves with the BLAS kernel."""
    return format(float(x), ".3g")


def _write_csv(path: str, header: str, rows: list) -> None:
    """Write ``header`` and one comma-joined line per row, with LF endings."""
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def emit_csv(records: Sequence[TrialRecord], path: str) -> None:
    """Write trial records as CSV: 10 significant digits, LF endings, ordered by trial."""
    _write_csv(path, TRIAL_CSV_HEADER, [
        [str(r.trial_index), _fmt(r.snr), _fmt(r.sigma2), _fmt(r.d_bhatta),
         _fmt(r.two_hellinger_sq), _fmt(r.regret_bound),
         str(r.typical).lower(), str(r.dominated).lower()]
        for r in sorted(records, key=lambda r: r.trial_index)])


def emit_prob_curve_csv(points: Sequence[ProbCurvePoint], path: str) -> None:
    _write_csv(path, PROB_CURVE_CSV_HEADER, [
        [_fmt(pt.eps), _fmt(pt.chain.exact_product), _fmt(pt.chain.linearized),
         _fmt(pt.chain.simplified), _fmt(pt.floor)]
        for pt in points])


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    records, summary = run_experiment(cfg)
    emit_csv(records, args.out)
    for r in records:
        if not r.converged:
            print(f"trial {r.trial_index} did not converge: "
                  f"{r.report.iterations} iterations, "
                  f"kkt_residual {_fmt_residual(r.report.kkt_residual)}",
                  file=sys.stderr)
    print(f"trials={summary.num_trials} converged={summary.num_converged} "
          f"dominated={summary.num_dominated} "
          f"dominance_fraction={_fmt(summary.dominance_fraction)} "
          f"mean_bound_ratio={_fmt(summary.mean_bound_ratio)} "
          f"typical_fraction={_fmt(summary.typical_fraction)}")
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def _cmd_prob_curve(args) -> int:
    if not 0.0 < args.eps_min < args.eps_max < 1.0:
        raise ConfigError(f"need 0 < --eps-min < --eps-max < 1, got "
                          f"--eps-min {args.eps_min}, --eps-max {args.eps_max}")
    try:
        grid = np.linspace(args.eps_min, args.eps_max,
                           require_count("--steps", args.steps, 2))
        points = [probability_floor(args.n, args.p, float(eps), args.tau,
                                    args.beta) for eps in grid]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    emit_prob_curve_csv(points, args.out)
    print(f"wrote {len(points)} rows to {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    rec = run_trial(cfg, 0)
    report, cert = rec.report, rec.certificate
    bc, coeffs = cert.config, cert.minimums
    floor = probability_floor(cfg.n, cfg.p, bc.eps, bc.tau, bc.beta)
    items = [
        ("n", cfg.n), ("p", cfg.p),
        ("lambda", bc.order.lam), ("beta", bc.beta),
        ("eps", bc.eps), ("tau", bc.tau),
        ("snr", rec.snr), ("sigma2", rec.sigma2),
        ("mu1", coeffs.mu1), ("mu2", coeffs.mu2),
        ("main_term", cert.main_term), ("regret_bound", cert.bound),
        ("probability_floor", floor.floor),
        ("simplified_floor", floor.simplified_floor),
        ("kappa", floor.kappa),
        ("vacuous", str(floor.vacuous).lower()),
        ("typical", str(rec.typical).lower()),
        ("solver_converged", str(report.converged).lower()),
        ("solver_iterations", report.iterations),
        ("kkt_residual", _fmt_residual(report.kkt_residual)),
    ]
    for key, val in items:
        print(f"{key} = {_fmt(val) if isinstance(val, float) else val}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verification
    failures = run_verification()
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlasso",
        description="Lasso risk/regret bound calculator and simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the config-reading flags of every subcommand that calls _load_config
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    config.add_argument("--set", action="append", metavar="KEY=VALUE")

    sim = sub.add_parser("simulate", parents=[config],
                         help="run seeded trials, write a CSV")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    curve = sub.add_parser("prob-curve", help="probability floor over an eps grid")
    curve.add_argument("--n", type=int, required=True)
    curve.add_argument("--p", type=int, required=True)
    curve.add_argument("--tau", type=float, required=True)
    curve.add_argument("--beta", type=float, required=True)
    curve.add_argument("--eps-min", type=float, required=True)
    curve.add_argument("--eps-max", type=float, required=True)
    curve.add_argument("--steps", type=int, required=True)
    curve.add_argument("--out", required=True)
    curve.set_defaults(func=_cmd_prob_curve)

    bnd = sub.add_parser("bounds", parents=[config],
                         help="print one trial's regret certificate")
    bnd.set_defaults(func=_cmd_bounds)

    ver = sub.add_parser("verify", help="run the library invariant suite")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, MemoryError) as exc:  # sizes come from the inputs
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MdlassoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
