"""rbmlab benchmark: time to a verified result, and a per-module trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/rbmlab).
Every pass is a fresh child process (child.py) with workers=1 and BLAS
pinned to one thread.

--trace 0 runs full passes until the next one would end after S seconds
(at least one), and reports the median over passes of each end-to-end
metric:
  wall_s       spawn of the pass until its output has been checked
  cpu_s        user + system time of the pass and its children (wait4)
  setup_s      spawn until the first call into the program
  peak_rss_mb  peak resident memory of the pass and its children (wait4)

--trace 1 alternates untraced and traced passes (at least one untraced and
two traced) and reports the per-layer metrics: per span, its calls and
median self time, plus the extras named in BENCHMARK.json.

Every full pass checks the program's output by the repository's acceptance
rules; failed/attempted is the fail fraction.  The last line of standard
output is the JSON result.  The run record (machine, versions, BLAS
configuration and thread count, load) and the per-pass figures are written
under .bench_build/perfbench/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracer import SPANS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
HARD_LIMIT_S = 165.0  # a run must end well within 180 s
UNTRACED_SHARE_MAX = 0.05  # time outside top-level spans, as a share of wall_s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class PassFailed(Exception):
    pass


class Runner:
    """Spawns the passes of one run and keeps their raw figures."""

    def __init__(self, root, workload, seed, run_dir, deadline):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0", **PINNED)
        self.count = 0
        self.info = []

    def run_pass(self, trace=False):
        self.count += 1
        pdir = os.path.join(self.run_dir, f"p{self.count:03d}")
        os.mkdir(pdir)
        out_dir = os.path.join(pdir, "out")
        result_path = os.path.join(pdir, "result.json")
        cmd = [sys.executable, CHILD, "--workload", self.workload.name, "--seed", str(self.seed),
               "--out", out_dir, "--result", result_path, "--trace", str(int(trace))]
        with open(os.path.join(pdir, "stdout.txt"), "w") as so, \
                open(os.path.join(pdir, "stderr.txt"), "w") as se:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=so, stderr=se)
            killer = threading.Timer(max(1.0, self.deadline - t_spawn), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(os.path.join(pdir, "stderr.txt")) as fh:
                tail = fh.read()[-2000:]
            raise PassFailed(f"pass {self.count} exited with {proc.returncode}:\n{tail}")
        with open(result_path) as fh:
            result = json.load(fh)
        src = os.path.join(self.root, "src") + os.sep
        if not result["info"]["rbmlab_file"].startswith(src):
            raise PassFailed(f"pass imported rbmlab from {result['info']['rbmlab_file']}, not {src}")
        self.info.append(result["info"])
        rec = {"pass": self.count, "traced": trace, "setup_s": result["t_call"] - t_spawn}
        if self.workload.argv:
            with open(os.path.join(out_dir, "metrics.json")) as fh:
                checks = self.workload.check(json.load(fh)["metrics"])
        else:
            checks = self.workload.check(result)
        rec["wall_s"] = time.monotonic() - t_spawn
        rec["cpu_s"] = usage.ru_utime + usage.ru_stime
        rec["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
        rec["program_s"] = result["t_end"] - result["t_call"]
        rec["failed_checks"] = [name for name, ok in checks if not ok]
        rec["checks"] = len(checks)
        if trace:
            rec["trace"] = result["trace"]
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec


def _median(recs, key):
    return statistics.median(r[key] for r in recs)


def end_to_end(runner, seconds, t0):
    full = []
    while True:
        full.append(runner.run_pass())
        end = time.monotonic() - t0 + _median(full, "wall_s")
        if end > seconds or end > HARD_LIMIT_S:
            break
    metrics = {k: _median(full, k) for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    return metrics, full, []


def _counts(trace):
    spans = trace["spans"]
    out = {f"{name}.calls": spans[name]["calls"] for name in spans}
    out["graphs.evaluate.terms"] = spans["graphs.evaluate"].get("terms", 0.0)
    out["spectral.resolvent.gflop"] = spans["spectral.resolvent"].get("gflop", 0.0)
    return out


def traced(runner, seconds, t0):
    plain, spanned = [runner.run_pass()], []
    spanned.append(runner.run_pass(trace=True))
    spanned.append(runner.run_pass(trace=True))
    while True:
        step = _median(plain, "wall_s") + _median(spanned, "wall_s")
        end = time.monotonic() - t0 + step
        if end > seconds or end > HARD_LIMIT_S:
            break
        plain.append(runner.run_pass())
        spanned.append(runner.run_pass(trace=True))

    for rec in spanned:
        rec["untraced_s"] = rec["program_s"] - rec["trace"]["top_level_s"]
    first = _counts(spanned[0]["trace"])
    extra = [(f"exact repeat of counts, pass {r['pass']}", _counts(r["trace"]) == first)
             for r in spanned[1:]]
    extra += [(f"untraced share <= {UNTRACED_SHARE_MAX}, pass {r['pass']}",
               r["untraced_s"] <= UNTRACED_SHARE_MAX * r["wall_s"]) for r in spanned]

    def span_median(name, key):
        return statistics.median(r["trace"]["spans"][name][key] for r in spanned)

    metrics = {}
    for name, *_ in SPANS:
        metrics[f"{name}.calls"] = first[f"{name}.calls"]
        metrics[f"{name}.self_s"] = span_median(name, "self_s")
    gflop = first["spectral.resolvent.gflop"]
    terms = first["graphs.evaluate.terms"]
    res_s = span_median("spectral.resolvent", "total_s")
    eval_s = span_median("graphs.evaluate", "total_s")
    metrics["spectral.resolvent.gflop"] = gflop
    metrics["spectral.resolvent.gflop_per_s"] = gflop / res_s if res_s > 0 else 0.0
    metrics["graphs.evaluate.terms"] = terms
    metrics["graphs.evaluate.mterms_per_s"] = terms / 1e6 / eval_s if eval_s > 0 else 0.0
    metrics["harness.persist.bytes"] = spanned[0]["trace"]["spans"]["harness.persist"].get("bytes", 0.0)
    metrics["trace.overhead_frac"] = _median(spanned, "wall_s") / _median(plain, "wall_s") - 1.0
    metrics["trace.untraced_s"] = _median(spanned, "untraced_s")
    return metrics, sorted(plain + spanned, key=lambda r: r["pass"]), extra


def _source_digest(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "rbmlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rbmlab", "__init__.py")):
        print(f"error: no rbmlab sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    loadavg_start = _loadavg()
    t0 = time.monotonic()
    run_dir = os.path.join(root, ".bench_build", "perfbench",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(root, WORKLOADS[args.workload], args.seed, run_dir, t0 + HARD_LIMIT_S)
    measure = traced if args.trace else end_to_end
    try:
        values, passes, extra_checks = measure(runner, args.seconds, t0)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    failed = [f"pass {r['pass']}: {name}" for r in passes for name in r.get("failed_checks", ())]
    failed += [name for name, ok in extra_checks if not ok]
    attempted = sum(r.get("checks", 0) for r in passes) + len(extra_checks)

    threads = sorted({i["blas_threads"] for i in runner.info}, key=str)
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg_start,
        "loadavg_end": _loadavg(),
        "workers": 1,
        "env": {k: runner.env[k] for k in sorted(PINNED) + ["PYTHONHASHSEED"]},
        "blas_threads_in_effect": threads,
        "python": runner.info[0]["python"],
        "numpy": runner.info[0]["numpy"],
        "blas": runner.info[0]["blas"],
    }
    with open(os.path.join(run_dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    with open(os.path.join(run_dir, "results.json"), "w") as fh:
        json.dump({"metrics": values, "failed": failed, "attempted": attempted, "passes": passes},
                  fh, indent=2)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"BLAS threads {threads}, load {loadavg_start}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(f"  fail_frac = {len(failed) / attempted!r} ({len(failed)}/{attempted} checks)")
    for name in failed:
        print(f"  FAILED {name}")
    print(f"run record: {os.path.relpath(run_dir, root)}/run.json")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
