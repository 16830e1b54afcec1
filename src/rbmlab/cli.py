"""Command line front end.

    rbm <experiment> --dim D --size L --band W --psi NAME --energy E \
        --eta X[,X2,...] --trials N --seed S --flow-time T --out DIR \
        --format csv|json [--config FILE] [--workers K]
    rbm rerun --manifest PATH [--out DIR] [--workers K]

Exit codes: 0 success, 2 validation error, 3 capacity error, 4 numeric
failure.  --config points at a flat key=value file; explicit flags win.
"""

import argparse
import dataclasses
import sys
import typing

from .errors import CapacityError, NumericError, ParameterError, ValidationError
from .harness import EXPERIMENTS, ExperimentConfig, parse_config_file, rerun, run

# config fields whose flag has another name; every other field except
# `experiment` has a flag of its own name
_FLAG_OF = {"d": "dim", "L": "size", "W": "band", "E": "energy", "fmt": "format"}


def _parse_eta(text) -> tuple:
    try:
        values = tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"bad eta list {text!r}") from None
    if not values:
        raise ValidationError(f"bad eta list {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rbm", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["rerun"])
    p.add_argument("--dim", type=int, help="lattice dimension d")
    p.add_argument("--size", type=int, help="lattice side length L")
    p.add_argument("--band", type=float, help="band width W")
    p.add_argument("--psi", help="shape function name (or 'mean-field')")
    p.add_argument("--energy", type=float, help="spectral parameter E")
    p.add_argument("--eta", help="comma-separated eta grid")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--flow-time", dest="flow_time", type=float)
    p.add_argument("--out", help="output directory for manifest and metrics")
    p.add_argument("--format", choices=["csv", "json"], help="metrics format")
    p.add_argument("--config", help="key=value config file (flags override)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--manifest", help="manifest.json to rerun")
    return p


def _cast_of(field_type):
    # the type itself, or the non-None member of an optional type
    return next((t for t in typing.get_args(field_type) if t is not type(None)), field_type)


# config field -> cast from text, taken from the ExperimentConfig field types
_CASTS = {f.name: _cast_of(f.type) for f in dataclasses.fields(ExperimentConfig)}
_CASTS["eta"] = _parse_eta


def _cast(key, val):
    if key not in _CASTS:
        raise ValidationError(f"unknown config key {key!r}")
    try:
        return _CASTS[key](val)
    except ValueError:
        raise ValidationError(f"bad value {val!r} for config key {key!r}") from None


def _config_from_args(args) -> ExperimentConfig:
    values = {"experiment": args.experiment}
    if args.config:
        for key, val in parse_config_file(args.config).items():
            values[key] = _cast(key, val)
    for name in _CASTS.keys() - {"experiment"}:
        val = getattr(args, _FLAG_OF.get(name, name))
        if val is not None:
            values[name] = _cast(name, val)
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.experiment == "rerun":
            if not args.manifest:
                raise ValidationError("rerun requires --manifest")
            record = rerun(args.manifest, out=args.out, workers=args.workers)
        else:
            record = run(_config_from_args(args), workers=args.workers)
    except (ValidationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4

    report = record.report
    print(f"{report.name}: {len(report.metrics)} metrics in {record.wall_time:.2f}s")
    for name in sorted(report.metrics):
        m = report.metrics[name]
        extra = f" +- {m.stderr:.3g}" if m.stderr is not None else ""
        print(f"  {name} = {m.value:.9g}{extra}")
    if record.config.out:
        print(f"wrote {record.config.out}/manifest.json and metrics.{record.config.fmt}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
