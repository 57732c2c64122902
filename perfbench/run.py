"""mechlink benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every CLI run is a separate
`python3 -m mechlink.cli` process started from the checkout's `src/`;
one runs at a time, with MECHLINK_THREADS and the BLAS threads pinned
to min(2, nproc).

--trace 0 measures the end-to-end metrics: `setup_s` is the median over
three fresh interpreters that import mechlink.cli and parse the
workload's config; then the CLI runs round(--seconds / first run's wall
time) times, at least once, and `wall_s` and `peak_rss_mb` are medians
over those runs.

--trace 1 makes one untraced CLI run and then one traced run, the same
CLI invocation in-process under perfbench/tracer.py, and reports the
per-layer metrics.

Every run's artifacts pass the workload's output check, and every
same-seed run of the same source tree must leave byte-identical
artifacts (digests are kept under .bench_build/perfbench/digests).
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(".bench_build", "perfbench")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPS = 3
DEADLINE_S = 170.0          # the whole invocation ends within 180 s
SETUP_CODE = "import sys, mechlink.cli as cli; cli.parse_config(sys.argv[1])"


class Bench:
    def __init__(self, root, workload, seed, deadline):
        self.root = root
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.threads = str(min(2, len(os.sched_getaffinity(0))))
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        MECHLINK_THREADS=self.threads, OMP_NUM_THREADS=self.threads,
                        OPENBLAS_NUM_THREADS=self.threads,
                        MKL_NUM_THREADS=self.threads)
        self.cfg = self.workload.config_path(root, os.path.join(root, WORK_DIR))
        self.runs = []          # one dict per CLI run
        self._count = 0

    def spawn(self, argv):
        """(exit code, wall seconds, peak RSS in MB) of one child process."""
        log = os.path.join(self.work, "child.log")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=fh, stderr=fh,
                                    stdin=subprocess.DEVNULL)
            timer = threading.Timer(timeout, _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:           # interrupted: take the child along
                _kill(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            with open(log) as fh:
                sys.stderr.write(f"{argv[1:3]} exited {code}:\n{fh.read()[-2000:]}")
        return code, wall, usage.ru_maxrss / 1024.0

    def cli_run(self, traced=False):
        self._count += 1
        out = os.path.join(self.work, f"out{self._count}")
        args = [self.workload.subcommand, "--config", self.cfg, "--out", out,
                "--seed", str(self.seed)]
        spans = os.path.join(self.work, f"spans{self._count}.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans, "--"] + args
        else:
            argv = [sys.executable, "-m", "mechlink.cli"] + args
        code, wall, rss = self.spawn(argv)
        run = {"traced": traced, "code": code, "wall_s": wall, "rss_mb": rss,
               "problems": [], "digest": None}
        if code == 0:
            try:
                run["problems"] = self.workload.check(out, self.cfg, self.seed)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                run["problems"] = [f"unreadable output: {exc!r}"]
            run["digest"] = digest_dir(out)
            if traced:
                with open(spans) as fh:
                    run["trace"] = json.load(fh)
        else:
            run["problems"] = [f"exit code {code}"]
        shutil.rmtree(out, ignore_errors=True)
        for line in run["problems"]:
            print(f"check failed: {self.name} seed {self.seed}: {line}", file=sys.stderr)
        self.runs.append(run)
        return run

    def setup_times(self):
        argv = [sys.executable, "-c", SETUP_CODE, self.cfg]
        times = []
        for _ in range(SETUP_REPS):
            code, wall, _ = self.spawn(argv)
            if code != 0:
                raise SystemExit(f"set-up failed with exit code {code}")
            times.append(wall)
        return times

    def check_determinism(self):
        """Mark runs whose artifacts differ from this seed's reference digest."""
        digests = [r["digest"] for r in self.runs if r["digest"]]
        if not digests:
            return
        store = os.path.join(self.root, WORK_DIR, "digests")
        os.makedirs(store, exist_ok=True)
        key = hashlib.sha256(f"{source_digest(self.root)} {self.name} {self.seed} "
                             f"{file_digest(self.cfg)}".encode()).hexdigest()[:24]
        path = os.path.join(store, key)
        if os.path.exists(path):
            with open(path) as fh:
                reference = fh.read().strip()
        else:
            reference = digests[0]
            with open(path, "w") as fh:
                fh.write(reference + "\n")
        for run in self.runs:
            if run["digest"] and run["digest"] != reference:
                run["problems"].append("artifacts differ from another same-seed run")
                print(f"determinism failed: {self.name} seed {self.seed}",
                      file=sys.stderr)

    def environment(self) -> dict:
        def version(pkg):
            try:
                return metadata.version(pkg)
            except metadata.PackageNotFoundError:
                return None
        return {
            "workload": self.name, "seed": self.seed,
            "nproc": len(os.sched_getaffinity(0)),
            "MECHLINK_THREADS": self.threads, "BLAS_THREADS": self.threads,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "git_commit": git_commit(self.root),
            "src_sha256": source_digest(self.root),
            "src.lines": source_lines(self.root),
        }


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _files(top, suffix=""):
    for dirpath, dirnames, files in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(suffix):
                yield os.path.join(dirpath, name)


def tree_digest(paths, base) -> str:
    """sha256 over the names (relative to `base`) and bytes of `paths`."""
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, base).encode() + b"\0")
        h.update(file_digest(path).encode())
    return h.hexdigest()


def digest_dir(path) -> str:
    return tree_digest(_files(path), path)


def _source_files(root):
    return _files(os.path.join(root, "src"), ".py")


def source_digest(root) -> str:
    return tree_digest(_source_files(root), root)


def source_lines(root) -> int:
    total = 0
    for path in _source_files(root):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Metric name -> value for one invocation."""
    if trace:
        plain = bench.cli_run()
        traced = bench.cli_run(traced=True)
        if "trace" not in traced:
            return {}
        return tracer.layer_metrics(traced["trace"], plain["wall_s"],
                                    traced["wall_s"], source_lines(bench.root))
    setup = bench.setup_times()
    first = bench.cli_run()["wall_s"]
    # as many whole runs as fill --seconds at the first run's pace
    for _ in range(max(1, round(seconds / first)) - 1):
        if time.monotonic() + first > bench.deadline:
            break
        bench.cli_run()
    runs = bench.runs
    return {"wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    needed = [os.path.join("src", "mechlink", "cli.py"),
              WORKLOADS[args.workload].config]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: not a mechlink checkout, missing {missing}", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, deadline)
    try:
        print("env " + json.dumps(bench.environment(), sort_keys=True))
        values = measure(bench, args.seconds, bool(args.trace))
        bench.check_determinism()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    units = tracer.PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for r in bench.runs if r["problems"])
    for r in bench.runs:
        print(f"run traced={int(r['traced'])} wall_s={r['wall_s']:.4f} "
              f"rss_mb={r['rss_mb']:.1f} ok={not r['problems']}")
    print(f"failed_frac {failed / max(1, len(bench.runs))}")
    result = {
        "correct": failed == 0 and set(values) == set(units),
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
