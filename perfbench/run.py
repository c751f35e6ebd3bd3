#!/usr/bin/env python3
"""Benchmark of the `umbilic` CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the program is imported from its `src`.
Every CLI call is a fresh child process and calls never overlap (a closed
loop of one client). `--trace 0` repeats the workload's call until
`--seconds` are used (at least twice, for the rerun check), with a timed
fresh set-up before each call, and reports the end-to-end metrics as
medians, times scaled to the host speed each child samples (child.py).
`--trace 1` makes one untraced and one traced call and reports the
per-layer metrics. Both modes time several fresh set-ups first and check
every call's output. Human-readable lines come first; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 3          # timed fresh set-ups before the first call, after one warm-up
MIN_CALLS = 2             # the rerun byte-identity check needs two calls
CALL_TIMEOUT_S = 150
# BLAS threads in the children; the program is single-threaded numpy, and
# one thread keeps timings steady on a shared host (always <= nproc)
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics that must repeat exactly from run to run
COUNTS = re.compile(r"(\.nodes|_nodes|nodes_o\d|\.calls|repeat_share_\w+|mul_per_batch_o\d)$")
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name == "chi_abs_err":
        return "1"
    if "ns_per_node" in name:
        return "ns/node"
    if "repeat_share" in name:
        return "share"
    return "s" if name.endswith("_s") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def environment() -> dict:
    import numpy

    record = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "unknown",
        "blas_threads": BLAS_THREADS,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return record


class Run:
    """One benchmark run of one workload: its inputs, child processes and checks."""

    def __init__(self, name, seed, size="full"):
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.dir = WORK / f"{name}-seed{seed}-{size}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inputs = workloads.generate(name, seed, self.dir, size)
        self.inputs.write_files()
        self.env = child_env()
        self.calls = []
        self.setups = []       # child results of the timed set-ups, with "setup_s"

    def _child(self, mode, tag, extra=(), **job):
        """Run child.py once; (result dict or None, elapsed seconds)."""
        job_path = self.dir / f"{tag}.job.json"
        result_path = self.dir / f"{tag}.result.json"
        job.update(argv=self.inputs.argv, surface=self.inputs.surface)
        job_path.write_text(json.dumps(job))
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(job_path), str(result_path),
               *extra]
        with open(self.dir / f"{tag}.log", "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT)
            # a blocking wait returns as soon as the child exits; wait(timeout)
            # polls in steps of up to 50 ms, which would quantize set-up times
            watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                returncode = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - t0
        if returncode != 0 or not result_path.exists():
            return None, elapsed
        return json.loads(result_path.read_text()), elapsed

    def setup_probe(self):
        """One timed fresh set-up, appended to `setups`."""
        tag = f"setup{len(self.setups)}"
        res, elapsed = self._child("setup", tag)
        if res is None:
            raise RuntimeError(f"set-up failed; see {self.dir / f'{tag}.log'}")
        # the set-up child samples the reference kernel after loading
        res["setup_s"] = (elapsed - res["ref_spent_s"]) * res["speed"]
        self.setups.append(res)

    def setup(self):
        """One warm-up set-up, then SETUP_PROBES timed ones."""
        self._child("setup", "setup-warmup")
        for _ in range(SETUP_PROBES):
            self.setup_probe()

    def call(self, traced=False):
        """One CLI call in a fresh process, with every output check applied."""
        i = len(self.calls)
        out = self.dir / f"call{i}"
        extra = {"run_id": f"{self.workload.name}-{self.seed}-call{i}",
                 "spans_path": str(self.dir / f"call{i}.spans.jsonl")} if traced else {}
        res, elapsed = self._child("trace" if traced else "run", f"call{i}", (str(out),),
                                   **extra)
        problems, chi_err = [], None
        if res is None:
            problems.append(f"child process failed; see {self.dir / f'call{i}.log'}")
        elif res["rc"] != 0:
            problems.append(f"exit code {res['rc']}")
        report = out / f"{self.workload.command}_report.json"
        if res is not None and report.exists():
            found, chi_err = workloads.check_report(self.workload, json.loads(report.read_text()))
            problems += found
        elif res is not None:
            problems.append(f"no report {report.name}")
        if i > 0 and res is not None:
            problems += _compare_outputs(self.dir / "call0", out)
        self.calls.append({"result": res, "elapsed": elapsed, "problems": problems,
                           "chi_abs_err": chi_err})
        return self.calls[-1]

    @property
    def failed(self):
        return sum(1 for c in self.calls if c["problems"])


def _compare_outputs(ref: Path, out: Path) -> list:
    """Reports of a rerun must be byte-identical, except for the timestamp."""
    names = sorted(p.name for p in ref.iterdir())
    if names != sorted(p.name for p in out.iterdir()):
        return [f"rerun wrote {sorted(p.name for p in out.iterdir())}, first call {names}"]
    return [
        f"rerun differs in {name}"
        for name in names
        if TIMESTAMP.sub(b"", (ref / name).read_bytes())
        != TIMESTAMP.sub(b"", (out / name).read_bytes())
    ]


def measure(name, seed, seconds, trace, size="full"):
    """(summary lines, result dict) for one run of one workload."""
    run = Run(name, seed, size)
    run.setup()
    lines = [f"workload {name} (seed {seed}): umbilic {' '.join(run.inputs.argv)}",
             f"  why: {run.workload.why}"]
    if trace:
        plain = run.call()
        traced = run.call(traced=True)
        metrics = {}
        if plain["result"] and traced["result"]:
            metrics = dict(traced["result"]["metrics"])
            metrics["trace.overhead_s"] = (traced["result"]["wall_s"]
                                           - plain["result"]["wall_s"])
            metrics["setup.import_s"] = statistics.median(r["import_s"] for r in run.setups)
            metrics["context.cpu_s"] = plain["result"]["cpu_s"]
            metrics["chi_abs_err"] = plain["chi_abs_err"] or 0.0
        for key in sorted(metrics):
            lines.append(f"  {key:<52} {metrics[key]:.6g} {unit_of(key)}")
    else:
        t0 = time.perf_counter()
        rounds = []
        while True:
            r0 = time.perf_counter()
            run.setup_probe()
            run.call()
            rounds.append(time.perf_counter() - r0)
            used = time.perf_counter() - t0
            if len(run.calls) >= MIN_CALLS and used + statistics.median(rounds) > seconds:
                break
        ok = [c["result"] for c in run.calls if c["result"]]
        metrics = {}
        if ok:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] * r["speed"] for r in ok),
                "setup_s": statistics.median(r["setup_s"] for r in run.setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            }
            counts = {"wall_s": len(ok), "setup_s": len(run.setups), "peak_rss_mb": len(ok)}
            for key, value in metrics.items():
                lines.append(f"  {key:<12} {value:.4f} {unit_of(key):<3} "
                             f"(median of {counts[key]})")
            raw = statistics.median(r["wall_s"] for r in ok)
            speed = statistics.median(r["speed"] for r in ok)
            lines.append(f"  {'raw wall_s':<12} {raw:.4f} s   (median of {len(ok)}, "
                         f"at host speed {speed:.3f}; context, not gated)")
            cpu = statistics.median(r["cpu_s"] for r in ok)
            lines.append(f"  {'cpu_s':<12} {cpu:.4f} s   "
                         f"(median of {len(ok)}; context, not gated)")
        errs = [c["chi_abs_err"] for c in run.calls if c["chi_abs_err"] is not None]
        if errs and name == "total_curvature":
            lines.append(f"  {'chi_abs_err':<12} {statistics.median(errs):.3e}")
    attempted = len(run.calls)
    lines.append(f"  error_rate   {run.failed}/{attempted} = {run.failed / attempted:.3g}")
    for c in run.calls:
        for problem in c["problems"]:
            lines.append(f"  FAILED: {problem}")
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return lines, result


def self_check() -> int:
    """Tiny-grid pass over every workload and mode; checks the harness itself."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names other workloads than workloads.py")
    for name in workloads.WORKLOADS:
        before = len(problems)
        # trace 0 on seed 1; trace 1 on seeds 1 and 2, so a second seed's
        # inputs are checked too
        for trace, key, seeds in ((0, "end_to_end", (1,)), (1, "per_layer", (1, 2))):
            want = {m["name"] for m in spec[key]}
            results = [measure(name, seed, 0, trace, size="tiny")[1] for seed in seeds]
            for res in results:
                if not res["correct"] or res["failed"]:
                    problems.append(f"{name} trace={trace}: not correct")
                if set(res["metrics"]) != want:
                    problems.append(f"{name} trace={trace}: metrics "
                                    f"{sorted(set(res['metrics']) ^ want)} differ from "
                                    "BENCHMARK.json")
                for m in spec[key]:
                    got = res["metrics"].get(m["name"], {})
                    if got and got["unit"] != m["unit"]:
                        problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
                    if not math.isfinite(got.get("value", 0.0)):
                        problems.append(f"{name}: {m['name']} is not finite")
            if trace:
                # a repeat of seed 1 must give every counter exactly
                again = measure(name, 1, 0, 1, size="tiny")[1]["metrics"]
                for key_name, m in results[0]["metrics"].items():
                    if COUNTS.search(key_name) and again[key_name]["value"] != m["value"]:
                        problems.append(f"{name}: {key_name} does not repeat")
        print(f"self-check {name}: {'ok' if len(problems) == before else 'FAILED'}",
              flush=True)
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "umbilic" / "cli.py").is_file():
        print(f"error: the umbilic sources are not at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    if args.self_check:
        return self_check()
    if args.workload is None:
        p.error("--workload is required")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            lines, result = measure(name, args.seed, args.seconds, args.trace)
        except RuntimeError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    (WORK / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
