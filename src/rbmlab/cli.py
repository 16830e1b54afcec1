r"""Command line front end.

    rbm <experiment> --dim D --size L --band W --psi NAME --energy E \
        --eta X[,X2,...] --trials N --seed S --flow-time T --out DIR \
        --format csv|json [--config FILE] [--workers K]
    rbm rerun --manifest PATH [--out DIR] [--workers K]

Exit codes: 0 success, 2 bad input (an invalid config, a parameter out of
range, a kernel that is not positive, a bulk window too small for the gap
ratio), 3 capacity error, 4 numeric failure; a stdout closed early
(rbm ... | head -1) still exits 0, as the run and its files are complete.
--config points at a flat key=value file; the experiment and explicit
flags win.  All values are cast by harness.cast_config.
"""

import argparse
import dataclasses
import os
import sys

from .errors import CapacityError, NumericError, ParameterError, ValidationError
from .errors import ProfilePositivityError, WindowError
from .harness import EXPERIMENTS, ExperimentConfig, cast_config, parse_config_file, rerun, run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rbm", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    # every config flag's dest is its ExperimentConfig field name
    p.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["rerun"])
    p.add_argument("--dim", dest="d", help="lattice dimension d")
    p.add_argument("--size", dest="L", help="lattice side length L")
    p.add_argument("--band", dest="W", help="band width W")
    p.add_argument("--psi", help="shape function name (or 'mean-field')")
    p.add_argument("--energy", dest="E", help="spectral parameter E")
    p.add_argument("--eta", help="comma-separated eta grid")
    p.add_argument("--trials")
    p.add_argument("--seed", help="master seed")
    p.add_argument("--flow-time", dest="flow_time")
    p.add_argument("--out", help="output directory for manifest and metrics")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], help="metrics format")
    p.add_argument("--config", help="key=value config file (flags override)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--manifest", help="manifest.json to rerun")
    return p


def _config_from_args(args) -> ExperimentConfig:
    # the experiment argument and every given flag win over the config file
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)}
    file_values = parse_config_file(args.config) if args.config else {}
    return cast_config(file_values, {k: v for k, v in flags.items() if v is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.experiment == "rerun":
            if not args.manifest:
                raise ValidationError("rerun requires --manifest")
            record = rerun(args.manifest, out=args.out, workers=args.workers)
        else:
            record = run(_config_from_args(args), workers=args.workers)
    except (ValidationError, ParameterError, ProfilePositivityError, WindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4

    report = record.report
    try:
        print(f"{report.name}: {len(report.metrics)} metrics in {record.wall_time:.2f}s")
        for name in sorted(report.metrics):
            m = report.metrics[name]
            extra = f" +- {m.stderr:.3g}" if m.stderr is not None else ""
            print(f"  {name} = {m.value:.9g}{extra}")
        if record.config.out:
            print(f"wrote {record.config.out}/manifest.json and metrics.{record.config.fmt}")
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:  # keep the interpreter's final flush quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
