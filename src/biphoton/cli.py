"""Command-line interface.

Every subcommand but ``validate``, which prints text lines, prints one
JSON envelope {command, parameters, results, schema_version} with
numbers rounded to 9 significant digits; tables and event sets can be
exported as CSV instead.  Angles are read as radians unless --degrees
is given.  ``parameters`` echoes every parsed argument except --degrees,
with angles in radians.  Exit codes: 0 success, 1 failed validation or
runtime failure, 2 usage errors (bad flags, out-of-range parameters).
A reader that closes stdout early, as ``| head`` does, ends the command
with exit 1 and nothing on stderr.
"""

import argparse
import functools
import json
import math
import os
import re
import sys

from .bell import (
    ChshSettings,
    PsiAngles,
    chsh,
    chsh_combination,
    correlation_closed_form,
    correlation_via_table,
    hom_port_probabilities,
)
from .detection import (
    DetectorModel,
    JointProbabilityTable,
    apply_alpha_confusion,
    closed_form_lossy_table,
    joint_table,
)
from .montecarlo import SamplerConfig, chsh_from_correlations, correlation_from_counts, sample_events
from .optimize import critical_efficiency, maximize_chsh
from .selftest import run_all

SCHEMA_VERSION = 2

#: published thresholds shipped for comparison in critical-eta output
REFERENCE_THRESHOLDS = ((1.0, 0.91), (0.875, 0.91), (0.75, 0.92), (0.5, 0.92), (0.0, 0.926))

#: destinations of every angle argument; --degrees converts them in main
ANGLES = ("theta1", "theta2", "psi1", "psi1_prime", "psi2", "psi2_prime", "start", "stop")


def _sig9(x: float) -> float:
    return float(f"{x:.9g}")


def _clean(obj):
    """Round every float to 9 significant digits, recursively."""
    if isinstance(obj, float):
        return _sig9(obj)
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _emit(args, results: dict) -> None:
    parameters = {k: v for k, v in vars(args).items()
                  if k not in ("command", "func", "degrees")}
    envelope = {
        "command": args.command,
        "parameters": _clean(parameters),
        "results": _clean(results),
        "schema_version": SCHEMA_VERSION,
    }
    print(json.dumps(envelope, indent=2, allow_nan=False))


def _doublable(**angles: float) -> None:
    """Reject angles whose double overflows: the closed forms take the sine
    of 2 theta or of psi1 + psi2, and an infinite argument has none."""
    for name, value in angles.items():
        if not math.isfinite(2.0 * value):
            raise ValueError(f"{name} = {value!r} is too large: twice it overflows")


def _finite(text: str) -> float:
    """argparse type of every float argument: NaN and infinities exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reads '-' or '-.' and a digit, and what follows, as a value: some
    Pythons' argparse takes a number like -1e-3 for an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _print_csv(rows) -> None:
    """One header line of the first row's keys, then each row's values."""
    print(",".join(rows[0]))
    for row in rows:
        print(",".join(f"{v:.9g}" for v in row.values()))


def cmd_probs(args) -> int:
    model = DetectorModel(alpha=args.alpha, eta=args.eta)
    theta1, theta2 = args.theta1, args.theta2
    _doublable(theta1=theta1, theta2=theta2)
    table = apply_alpha_confusion(joint_table(theta1, theta2, model.eta), model.alpha)
    formula = closed_form_lossy_table(theta1, theta2, model.eta)
    formula_table = apply_alpha_confusion(
        JointProbabilityTable(formula, theta1, theta2, model.eta, 1.0), model.alpha
    )
    records = table.records()
    if args.format == "csv":
        _print_csv(records)
        return 0
    for r, f in zip(records, formula_table.records()):
        r["p_formula"] = f["p"]
    _emit(args, {
        "records": records,
        "total": table.total,
        "max_formula_deviation": float(abs(table.probs - formula_table.probs).max()),
    })
    return 0


def cmd_correlation(args) -> int:
    model = DetectorModel(alpha=args.alpha, eta=args.eta)
    psi = PsiAngles(args.psi1, args.psi2)
    _doublable(psi1=psi.psi1, psi2=psi.psi2)
    closed = correlation_closed_form(psi, model)
    tabled = correlation_via_table(psi, model)
    _emit(args, {
        "correlation": closed,
        "correlation_from_table": tabled,
        "difference": abs(closed - tabled),
    })
    return 0


def _parse_settings(args) -> ChshSettings:
    return ChshSettings(args.psi1, args.psi1_prime, args.psi2, args.psi2_prime)


def _settings_dict(s: ChshSettings) -> dict:
    """The four angles by field name, in field order."""
    return {"psi1": s.psi1, "psi1_prime": s.psi1_prime,
            "psi2": s.psi2, "psi2_prime": s.psi2_prime}


def cmd_chsh(args) -> int:
    model = DetectorModel(alpha=args.alpha, eta=args.eta)
    settings = _parse_settings(args)
    _doublable(**_settings_dict(settings))
    closed = chsh(settings, model)
    tabled = chsh_combination(
        {label: correlation_via_table(psi, model) for label, psi in settings.pairs()})
    _emit(args, {
        "s": closed,
        "s_from_table": tabled,
        "margin": closed - 2.0,
        "difference": abs(closed - tabled),
    })
    return 0


def cmd_optimize(args) -> int:
    model = DetectorModel(alpha=args.alpha, eta=args.eta)
    result = maximize_chsh(model, starts=args.starts)
    _emit(args, {
        "best_value": result.best_value,
        "settings": _settings_dict(result.settings),
        "starts_used": result.starts_used,
        "converged": result.converged,
    })
    return 0


def cmd_critical_eta(args) -> int:
    if args.starts < 1:
        raise ValueError("starts must be at least 1")
    result = critical_efficiency(args.alpha, tol=args.tol)
    reference = None
    for known_alpha, eta in REFERENCE_THRESHOLDS:
        if abs(known_alpha - args.alpha) < 1e-9:
            reference = eta
            break
    _emit(args, {
        "eta_critical": result.eta_critical,
        "bracket_width": result.bracket_width,
        "settings_at_threshold": _settings_dict(result.settings_at_threshold),
        "reference": reference,
    })
    return 0


def cmd_hom_scan(args) -> int:
    if args.points < 2:
        raise ValueError("points must be at least 2")
    start, stop, theta2 = args.start, args.stop, args.theta2
    step = (stop - start) / (args.points - 1)
    if not math.isfinite(step):
        raise ValueError(f"hom-scan range from {start!r} to {stop!r} is too wide: "
                         "the step between points overflows")
    _doublable(theta2=theta2)
    rows = []
    for k in range(args.points):
        theta1 = start + k * step
        _doublable(theta1=theta1)
        probs = hom_port_probabilities(theta1, theta2)
        rows.append(dict({"theta1": theta1, "theta2": theta2}, **probs.as_dict()))
    if args.format == "csv":
        _print_csv(rows)
        return 0
    _emit(args, {"grid": rows})
    return 0


def cmd_sample(args) -> int:
    model = DetectorModel(alpha=args.alpha, eta=args.eta)
    cfg = SamplerConfig(
        seed=args.seed,
        n_per_setting=args.n,
        model=model,
        settings=_parse_settings(args),
    )
    # fail on an unwritable --out before the draw, leaving no new file for
    # to_csv to truncate: ext4 writes a truncated file to disk at close
    try:
        open(args.out, "x").close()
        os.remove(args.out)
    except FileExistsError:
        open(args.out, "a").close()
    events = sample_events(cfg)
    events.to_csv(args.out)
    counts = dict(zip(events.labels, events.counts()))
    correlations = {label: correlation_from_counts(c) for label, c in counts.items()}
    per_setting = {label: {"e": e, "stderr": err, "n": int(counts[label].sum())}
                   for label, (e, err) in correlations.items()}
    s, s_err = chsh_from_correlations(correlations)
    _emit(args, {
        "out": args.out,
        "n_events": len(events),
        "per_setting": per_setting,
        "s_estimate": s,
        "s_stderr": s_err,
    })
    return 0


def cmd_validate(args) -> int:
    failures = run_all()
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="biphoton",
        description="Two-photon interferometer statistics, CHSH analysis and sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_degrees(p):
        p.add_argument("--degrees", action="store_true",
                       help="read angle arguments as degrees")

    def add_model(p):
        p.add_argument("--eta", type=_finite, default=1.0,
                       help="detector efficiency in (0, 1]")
        p.add_argument("--alpha", type=_finite, default=1.0,
                       help="double-click recognition probability in [0, 1]")

    p = sub.add_parser("probs", help="6x6 joint outcome table")
    p.add_argument("theta1", type=_finite)
    p.add_argument("theta2", type=_finite)
    add_model(p)
    add_degrees(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("correlation", help="E(psi1, psi2) by both routes")
    p.add_argument("psi1", type=_finite)
    p.add_argument("psi2", type=_finite)
    add_model(p)
    add_degrees(p)
    p.set_defaults(func=cmd_correlation)

    def add_settings(p):
        p.add_argument("psi1", type=_finite)
        p.add_argument("psi1_prime", type=_finite)
        p.add_argument("psi2", type=_finite)
        p.add_argument("psi2_prime", type=_finite)

    p = sub.add_parser("chsh", help="S and the margin over 2")
    add_settings(p)
    add_model(p)
    add_degrees(p)
    p.set_defaults(func=cmd_chsh)

    def add_starts(p):
        p.add_argument("--starts", type=int, default=1,
                       help="accepted for compatibility; the maximum is closed-form")

    p = sub.add_parser("optimize", help="maximize S over the four angles")
    add_model(p)
    add_starts(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("critical-eta", help="efficiency threshold for violation")
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--tol", type=_finite, default=1e-4,
                   help="width of the verified bracket around the threshold")
    add_starts(p)
    p.set_defaults(func=cmd_critical_eta)

    p = sub.add_parser("hom-scan", help="single-station pair statistics vs theta1")
    p.add_argument("--start", type=_finite, default=0.0)
    p.add_argument("--stop", type=_finite, default=math.pi / 2.0)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--theta2", type=_finite, default=0.0)
    add_degrees(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_hom_scan)

    p = sub.add_parser("sample", help="draw seeded events and export CSV")
    add_settings(p)
    add_model(p)
    add_degrees(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=10000,
                   help="events per setting")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("validate", help="run the library's invariant checks")
    p.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every main call in this process, built on the first:
    building it costs far more than most commands.  Its handlers look up
    the functions they call at call time, so rebinding those still works.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "degrees", False):
        for name in ANGLES:
            if hasattr(args, name):
                setattr(args, name, math.radians(getattr(args, name)))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: stop quietly, and
        # point stdout at /dev/null so that the flush at exit cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
