"""Benchmark of `cyclex run`: seeded experiment configs, one at a time.

    python3 perfbench/run.py --workload sweep|product|witness --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  cyclex is imported from ``src/`` of the
same tree.  One client, one process and one thread (BLAS threads pinned
to 1) run experiments in a closed loop: each goes in-process through
``cyclex.cli.main(["run", "--config", FILE, "--out-dir", DIR])``, so its
time is the user's time to solution (config read, validation, solve,
certification, artifact writes).  Outputs are checked against
independent oracles outside the timed interval.

The seed fixes a set of at least 100 experiments (workloads.SET_SIZE).
``--trace 0`` measures the end-to-end metrics: passes over the set
repeat until ``--seconds`` have passed, and every time is scaled to a
reference machine speed by a kernel timed around each experiment
(reference.py).  ``--trace 1`` runs the set once untraced and once with
span wrappers installed, and reports the per-layer metrics of the traced
pass.
The last line of standard output is one JSON object with the result.
Spans and a result record go to ``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy  # noqa: E402  (after pinning the BLAS threads)

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / ".perfbench"

SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "exp_per_s": "1/s",
    "exp_p50_ms": "ms",
    "exp_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def import_cli():
    """cyclex.cli from ``src/`` of this tree, never an installed copy."""
    package = ROOT / "src" / "cyclex"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: cyclex sources not found at {package}")
    sys.path.insert(0, str(package.parent))
    import cyclex.cli

    if Path(cyclex.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported cyclex from {cyclex.__file__}, not {package}")
    return cyclex.cli


def set_up(args, config_dir):
    """Import cyclex, generate the workload's experiment configs and write
    them.  Returns the cli module and a list of (path, config)."""
    cli = import_cli()
    config_dir.mkdir(parents=True)
    experiments = []
    for i, cfg in enumerate(workloads.generate(args.workload, args.seed, args.experiments)):
        path = config_dir / f"{i:03d}-{cfg['kind']}.json"
        path.write_text(json.dumps(cfg))
        experiments.append((str(path), cfg))
    return cli, experiments


def _seconds_to_ready(command):
    """Wall seconds from spawning ``command`` to its first line, "ready"."""
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: {command[1:]} exited with {child.returncode}")
    return elapsed


def setup_seconds(args, work):
    """Set-up time, scaled, and the wall medians it comes from.

    Fresh interpreters are timed from spawn to "configs written", each
    followed by the reference start (reference.START_COMMAND).  The host's
    slow spells stretch process start and imports, which the reference
    kernel does not track, by up to 1.7x; the reference start follows
    part of that.  Returns median(set-up) * REFERENCE_START_S / median(start),
    median(set-up) and median(start)."""
    setups, starts = [], []
    for i in range(SETUP_REPEATS):
        probe_dir = work / f"probe{i}"
        setups.append(_seconds_to_ready(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--experiments", str(args.experiments),
             "--probe", str(probe_dir)]))
        shutil.rmtree(probe_dir)
        starts.append(_seconds_to_ready([sys.executable, *reference.START_COMMAND]))
    setup, start = statistics.median(setups), statistics.median(starts)
    return setup * reference.REFERENCE_START_S / start, setup, start


class Runner:
    """Runs one experiment at a time, timing the reference kernel right
    before each, and checks what it wrote."""

    def __init__(self, cli, out_dir):
        self.cli = cli
        self.out_dir = out_dir
        out_dir.mkdir(parents=True)
        self.reset()

    def reset(self):
        self.times = []
        self.kernel_times = []
        self.problems = []
        self.artifact_bytes = 0
        self.digest = hashlib.sha256()

    def run(self, path, cfg):
        argv = ["run", "--config", path, "--out-dir", str(self.out_dir)]
        self.kernel_times.append(reference.time_kernel())
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = repr(exc)
        self.times.append(time.perf_counter() - start)

        artifacts = {}
        for artifact in sorted(self.out_dir.iterdir()):
            artifacts[artifact.name] = artifact.read_bytes()
            artifact.unlink()
        self.digest.update(Path(path).name.encode())
        for name, data in artifacts.items():
            self.digest.update(name.encode() + b"\0" + data)
            self.artifact_bytes += len(data)
        problem = checks.check(cfg, code, artifacts)
        if problem is not None:
            self.problems.append(f"{Path(path).name}: {problem}")

    def warm_up(self, experiments):
        """One run of each kind, so lazy imports and caches are not timed."""
        seen = set()
        for path, cfg in experiments:
            if cfg["kind"] not in seen:
                seen.add(cfg["kind"])
                self.run(path, cfg)
        for _ in range(20):
            reference.kernel()
        self.reset()

    def scaled_times(self):
        """Each run's time scaled by the mean of the reference kernel timed
        right before and right after it.  Call once, right after the last
        run: it times the kernel that closes the series."""
        self.kernel_times.append(reference.time_kernel())
        kernels = self.kernel_times
        return [2.0 * t * reference.REFERENCE_S / (before + after)
                for t, before, after in zip(self.times, kernels, kernels[1:])]

    def run_all(self, experiments, tracer=None):
        for i, (path, cfg) in enumerate(experiments):
            if tracer is not None:
                tracer.experiment = i
            self.run(path, cfg)


def end_to_end(args, work):
    setup_s, setup_wall_s, start_s = setup_seconds(args, work)
    cli, experiments = set_up(args, work / "configs")
    runner = Runner(cli, work / "out")
    runner.warm_up(experiments)
    # Whole passes over the same experiments until the time is up.  The
    # machine's speed drifts by up to 2x, within seconds and between
    # minutes, so each run is scaled by the reference kernel timed around
    # it, and each experiment's time is its median over the passes.
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        runner.run_all(experiments)
        passes += 1
    scaled = runner.scaled_times()
    n = len(experiments)
    times = [statistics.median(scaled[i::n]) for i in range(n)]
    attempted = len(runner.times)
    failed = len(runner.problems)
    metrics = {
        "setup_s": setup_s,
        "exp_per_s": n / sum(times),
        "exp_p50_ms": 1e3 * statistics.median(times),
        "exp_p90_ms": 1e3 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    info = {
        "experiments": n,
        "passes": passes,
        "beyond_p90": sum(1e3 * t > metrics["exp_p90_ms"] for t in times),
        "wall_setup_s": setup_wall_s,
        "reference_start_s": start_s,
        "wall_exp_per_s": attempted / sum(runner.times),
        "kernel_ms_median": 1e3 * statistics.median(runner.kernel_times),
        "pass_exp_per_s": [n / sum(scaled[p * n:(p + 1) * n]) for p in range(passes)],
        "artifact_sha256": runner.digest.hexdigest(),
    }
    record = {"experiment_ms": [1e3 * t for t in times],
              "wall_ms": [1e3 * t for t in runner.times],
              "kernel_ms": [1e3 * t for t in runner.kernel_times]}
    return metrics, END_TO_END_UNITS, attempted, runner.problems, info, record


def traced(args, work):
    cli, experiments = set_up(args, work / "configs")
    runner = Runner(cli, work / "out")
    runner.warm_up(experiments)
    runner.run_all(experiments)
    plain_s = sum(runner.scaled_times())
    plain_digest, problems = runner.digest.hexdigest(), list(runner.problems)
    runner.reset()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        runner.run_all(experiments, tracer)
    traced_s = sum(runner.scaled_times())
    problems += runner.problems
    digest = runner.digest.hexdigest()
    if digest != plain_digest:
        problems.append("artifacts of the traced pass differ from the untraced pass")
    OUTPUT.mkdir(exist_ok=True)
    tracer.save(OUTPUT / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics, units = layers.metrics(tracer, runner.artifact_bytes, (traced_s - plain_s) / plain_s)
    info = {"experiments": len(experiments), "artifact_sha256": digest,
            "kernel_ms_median": 1e3 * statistics.median(runner.kernel_times),
            "self_time_share": layers.self_time_shares(tracer)}
    return metrics, units, 2 * len(experiments), problems, info, {}


def machine_facts():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--experiments", type=int, default=None,
                        help="least number of experiments in the set (default: the "
                        "workload's SET_SIZE); below 100 fewer than 10 lie beyond the "
                        "p90, which is for smoke tests only")
    parser.add_argument("--probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.experiments is None:
        args.experiments = workloads.SET_SIZE[args.workload]

    if args.probe is not None:
        set_up(args, args.probe)
        print("ready", flush=True)
        return 0

    import_cli()  # fail before any output when the tree has no cyclex
    work = OUTPUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        measure = traced if args.trace else end_to_end
        metrics, units, attempted, problems, info, extra = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        **info,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra,
    }
    OUTPUT.mkdir(exist_ok=True)
    (OUTPUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for key in ("workload", "seed", "machine", *info):
        print(f"{key}: {json.dumps(record[key])}")
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
