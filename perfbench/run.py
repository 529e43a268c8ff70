"""gplod benchmark: one study or solve, run the way a researcher runs it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (``src/gplod`` must exist; nothing
needs building).  Each workload is a closed loop with one client: one
``gplod.cli.main`` call in a fresh process, waited for, then the next,
until the timed processes, spawn to exit, have taken ``--seconds``, at
least one call.  In a 15 s run on a two-core machine that is two studies
(7-10 s each), one LOD solve (17-20 s) and one or two fine solves (13-15
s); ``wall_s`` is their median.  Every call
gets fresh temporary output and cache directories under
``.perfbench_runs/``, removed at the end.  The child's environment sets
one BLAS thread.

Workloads (why each was chosen is in BENCHMARK.json):

* ``study-harmonic``: ``study --config harmonic --no-cache
  study.reference_cells=96 study.h_sequence=2 1 0.5`` (reference h =
  2^-3, n = 9025; m up to 529).
* ``solve-lod-cached``: set-up runs ``correctors --config
  checkerboard_reduced study.h_sequence=0.5`` to fill the disk cache; the
  timed call is ``solve --config checkerboard_reduced`` into the same
  ``--out`` (H = 1/2, m = 529).
* ``solve-fine``: ``solve --config harmonic solve.space=fine_fem``.

The seed picks beta from ``goldens.json`` (seed mod the list length; seed
0 is the presets' beta = 100) and passes it as ``study.beta`` or
``solve.beta``.  Every operation is checked against the values recorded
for that beta (see ``checks.py``); failed operations count in ``failed``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median seconds of the run's timed ``main`` calls;
* ``setup_s``: median seconds from spawning a process to its imports
  being done, over every timed process and rounds of six import-only
  probes before, between and after the timed calls, plus, for
  ``solve-lod-cached``, the seconds of the cache-filling ``main`` call,
  which runs once per run;
* ``peak_rss_mb``: median peak resident memory of the timed processes.

``--trace 1`` runs the timed call once untraced and once with spans around
the public calls of every layer (``tracer.py``); the set-up's cache fill is
traced too.  It reports per-layer self times and counts, both walls
(``trace.wall_s``, ``trace.untraced_wall_s``) and the tracing overhead
``trace.overhead_s``, the time spent inside the span wrappers as they
measure it around each call.  The overhead is measured there, not taken
as the difference of the two walls, because one call's wall wanders by
more than the wrappers cost.  A traced target that is not found, or a
root ``cli.main`` span whose self time is over 5% of the traced wall
(a sign that calls below it went unwrapped), fails the run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from tracer import summarize

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
GOLDENS = HERE / "goldens.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"
RUNS_DIR = ".perfbench_runs"
PROBES_PER_ROUND = 6
# One BLAS thread, so a run keeps to one core of the two-core machine it
# was written on.  Measured there, the cache fill took 16.0 s against
# 18.3 s with two threads, and the LOD solve 15.2-18.0 s against 14.0-15.7 s.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170
# cli.self_s is a few milliseconds of a traced call; a larger share means a
# layer's calls are no longer wrapped
CLI_SELF_SHARE_MAX = 0.05

WORKLOADS = {
    "study-harmonic": {
        "setup": None,
        "command": [
            "study", "--config", "harmonic", "--no-cache", "--out", "{out}",
            "study.reference_cells=96", "study.h_sequence=2 1 0.5", "study.beta={beta}",
        ],
    },
    "solve-lod-cached": {
        "setup": [
            "correctors", "--config", "checkerboard_reduced", "--out", "{out}",
            "study.h_sequence=0.5",
        ],
        "command": ["solve", "--config", "checkerboard_reduced", "--out", "{out}", "solve.beta={beta}"],
    },
    "solve-fine": {
        "setup": None,
        "command": [
            "solve", "--config", "harmonic", "--out", "{out}", "solve.space=fine_fem",
            "solve.beta={beta}",
        ],
    },
}


class RunError(RuntimeError):
    """A child process died or the set-up failed; the run reports nothing."""


def child_env():
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    return env


def environment_record():
    """Versions and thread settings the numbers were measured with."""
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def spawn(run_dir, argv, run_id, trace=False):
    """Run one child process and return its result, with ``startup_s``:
    seconds from spawning it to its imports being done."""
    result_path = Path(tempfile.mkstemp(suffix=".json", dir=run_dir)[1])
    cmd = [sys.executable, str(CHILD), str(result_path), run_id, "1" if trace else "0", *argv]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or result_path.stat().st_size == 0:
        raise RunError(f"child process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["startup_s"] = result["ready"] - spawned
    return result


def remove_run_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        Path(RUNS_DIR).rmdir()
    except OSError:
        pass  # another run still uses it


def render(argv, out, beta):
    return [a.format(out=out, beta=f"{beta:g}") for a in argv]


class Run:
    """One benchmark run: its beta and goldens, its directory, and the
    operations attempted and failed."""

    def __init__(self, workload, seed):
        goldens = json.loads(GOLDENS.read_text())
        betas = goldens["betas"]
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.beta = betas[seed % len(betas)]
        self.golden = goldens["workloads"][workload][f"{self.beta:g}"]
        self.windows = checks.criterion_1_windows(".")
        self.run_id = f"{workload}-s{seed}-{os.getpid()}"
        Path(RUNS_DIR).mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS_DIR))
        self.attempted = 0
        self.failures = []
        self.ops = 0

    def close(self):
        remove_run_dir(self.dir)

    def fresh_out(self):
        return Path(tempfile.mkdtemp(prefix="out-", dir=self.dir))

    def setup(self, trace=False):
        """Fill the workload's cache; returns (out dir, child result)."""
        out = self.fresh_out()
        if self.spec["setup"] is None:
            return out, None
        result = spawn(self.dir, render(self.spec["setup"], out, self.beta), self.run_id, trace)
        if result["exit_code"] != 0 or not list(out.glob("correctors/correctors_*.npz")):
            raise RunError(f"set-up command exited {result['exit_code']} without a cache file")
        return out, result

    def operation(self, out, trace=False):
        """One timed call, checked; returns the child's result."""
        if self.spec["setup"] is None:
            out = self.fresh_out()
        result = spawn(self.dir, render(self.spec["command"], out, self.beta), self.run_id, trace)
        if self.workload == "study-harmonic":
            outcome = checks.check_study(out, result["exit_code"], self.golden, self.windows)
        else:
            outcome = checks.check_solve(
                out, result["exit_code"], self.golden,
                expect_cache_hit=self.spec["setup"] is not None,
            )
        self.attempted += len(outcome)
        self.failures += [f"{name}: {reason}" for name, ok, reason in outcome if not ok]
        self.ops += 1
        return result


def measure(run, seconds):
    """End-to-end metrics of an untraced run."""
    out, fill = run.setup()
    startups, walls, rss = [], [], []

    def probe_round():
        startups.extend(spawn(run.dir, [], run.run_id)["startup_s"] for _ in range(PROBES_PER_ROUND))

    # probe rounds before, between and after the timed calls, so that the
    # start-up samples cover the whole run, as the timed calls do
    probe_round()
    timed = 0.0
    while timed < seconds:
        spawned = time.monotonic()
        result = run.operation(out)
        timed += time.monotonic() - spawned
        walls.append(result["wall_s"])
        rss.append(result["peak_rss_mb"])
        startups.append(result["startup_s"])
        probe_round()
    print("timed calls (s): " + " ".join(f"{w:.3f}" for w in walls))
    setup = statistics.median(startups) + (fill["wall_s"] if fill else 0.0)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(rss),
    }


def measure_traced(run):
    """Per-layer metrics: one untraced and one traced timed call."""
    out, fill = run.setup(trace=True)
    untraced = run.operation(out)
    traced = run.operation(out, trace=True)
    dumps = [r["trace"] for r in (fill, traced) if r is not None]
    # a target that is gone would read 0 and its time would move into its
    # caller's self time, so it fails the run
    missing = sorted({name for dump in dumps for name in dump["missing"]})
    run.attempted += 1
    if missing:
        run.failures.append(f"trace: targets not found: {', '.join(missing)}")
    metrics = summarize(dumps)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = untraced["wall_s"]
    metrics["trace.setup_wall_s"] = fill["wall_s"] if fill else 0.0
    # cli.main is the root span: time no layer below it claims lands in
    # cli.self_s, which holds only config parsing and output writes
    traced_wall = traced["wall_s"] + metrics["trace.setup_wall_s"]
    run.attempted += 1
    if metrics["cli.self_s"] > CLI_SELF_SHARE_MAX * traced_wall:
        run.failures.append(
            f"trace: cli.self_s {metrics['cli.self_s']:.3f}s is over "
            f"{CLI_SELF_SHARE_MAX:.0%} of the traced wall {traced_wall:.3f}s"
        )
    return metrics


def declared_units(section):
    """Units of the metrics BENCHMARK.json declares in ``section``."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/gplod/cli.py").is_file():
        print("error: run from the root of a gplod source checkout (src/gplod missing)", file=sys.stderr)
        return 2

    units = declared_units("per_layer" if args.trace else "end_to_end")
    run = Run(args.workload, args.seed)
    try:
        values = measure_traced(run) if args.trace else measure(run, args.seconds)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        run.close()
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}", file=sys.stderr)
        return 2

    env = environment_record()
    print(f"workload {args.workload}, seed {args.seed}, beta {run.beta:g}, {run.ops} timed calls")
    print("environment " + json.dumps(env, sort_keys=True))
    for failure in run.failures:
        print(f"FAILED {failure}")
    failed = len(run.failures)
    print(f"failed_ratio = {failed / run.attempted:.6g} ({failed} of {run.attempted} operations)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
