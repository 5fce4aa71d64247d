#!/usr/bin/env python3
"""hopfdiff benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``
as it stands, with no build step.

``--trace 0`` runs the workload's commands one after another, each as its
own ``python -m hopfdiff`` process, in whole passes while another still
fits in ``--seconds``, and reports the end-to-end metrics: medians over
passes of wall time, CPU time and peak RSS, and the median set-up time,
with times scaled to a reference core speed (see :mod:`corespeed`).
``--trace 1`` runs the same commands in this process through
``hopfdiff.cli.run``, alternating an untraced pass with a pass traced by
:mod:`tracer`, and reports the per-layer metrics.

Both modes check every output (see :mod:`workloads`) and require every
pass of a run to print byte-identical reports.  The last line of stdout
is the result object; the line before it records the sha256 of each
command's stdout and anything that failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from corespeed import CoreClock
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
# a traced pass whose top-level spans cover less than this share of its
# wall time is missing a wrapper at the command boundary
MIN_ROOT_COVERAGE = 0.8

SETUP_CODE = """\
import sys
import hopfdiff.cli
from hopfdiff import catalog, hopf
for name in sys.argv[1:]:
    obj = catalog.build(name)
    if isinstance(obj, hopf.FinDimHopf) and not hopf.validate_hopf(obj).ok:
        sys.exit(1)
"""


class Result:
    __slots__ = ("rc", "stdout", "stderr", "wall", "cpu", "rss_mb")

    def __init__(self, rc, stdout, stderr, wall, cpu=0.0, rss_mb=0.0):
        self.rc, self.stdout, self.stderr = rc, stdout, stderr
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list, cwd: str, env: dict) -> Result:
    """Run one process to completion; CPU and max-RSS come from wait4."""
    with open(os.path.join(cwd, ".stdout"), "w+b") as out, \
            open(os.path.join(cwd, ".stderr"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, out.read(), err.read(), wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def op_passed(op, res: Result) -> bool:
    if res.rc != op.rc or b"Traceback" in res.stderr:
        return False
    try:
        json.loads(res.stdout)
    except ValueError:
        return False
    return True


def save_payload(op, res: Result, workdir: str):
    try:
        payload = json.loads(res.stdout)["payload"]
    except (ValueError, KeyError):
        return
    with open(os.path.join(workdir, op.save), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def subprocess_pass(ops, workdir, env):
    results = {}
    start = time.perf_counter()
    for op in ops:
        res = spawn([sys.executable, "-m", "hopfdiff", *op.argv], workdir, env)
        results[op.id] = res
        if op.save:
            save_payload(op, res, workdir)
    return results, time.perf_counter() - start


def inprocess_pass(ops, workdir, run):
    """One pass through ``hopfdiff.cli.run``; an exception escaping it is
    recorded as a traceback on stderr, as the process would print."""
    results = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = run(list(op.argv))
                except Exception:
                    err.write(traceback.format_exc())
                    rc = 1
            res = Result(rc, out.getvalue().encode(), err.getvalue().encode(),
                         time.perf_counter() - t0)
            results[op.id] = res
            if op.save:
                save_payload(op, res, workdir)
        return results, time.perf_counter() - start
    finally:
        os.chdir(cwd)


def export_refs(names, workdir, env) -> dict:
    refs = {}
    for name in names:
        res = spawn([sys.executable, "-m", "hopfdiff", "catalog", name], workdir, env)
        if res.rc != 0:
            raise RuntimeError(f"catalog {name} exited {res.rc}: {res.stderr.decode()[-400:]}")
        refs[name] = json.loads(res.stdout)["payload"]
    return refs


def check_passes(wl, ops, refs, passes) -> tuple:
    """Check the first pass's reports and that every pass printed the
    same bytes; returns (problems, failed count, stdout hashes)."""
    problems = []
    failed = 0
    hashes = [{op.id: hashlib.sha256(p[op.id].stdout).hexdigest() for op in ops}
              for p in passes]
    for k, p in enumerate(passes):
        for op in ops:
            if not op_passed(op, p[op.id]):
                failed += 1
                if not op.fault:
                    problems.append(f"pass {k} {op.id}: exit {p[op.id].rc}, "
                                    f"stderr {p[op.id].stderr.decode()[-300:]!r}")
        if hashes[k] != hashes[0]:
            changed = sorted(i for i in hashes[0] if hashes[k][i] != hashes[0][i])
            problems.append(f"pass {k}: stdout differs from pass 0 for {changed}")
    if not problems:
        reports = {op.id: json.loads(passes[0][op.id].stdout)
                   for op in ops if op_passed(op, passes[0][op.id])}
        try:
            problems += wl.check(reports, refs, ops)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"check could not read a report: {exc!r}")
    return problems, failed, hashes[0]


def setup_seconds(names, workdir, env, clock) -> tuple:
    """Median of SETUP_REPEATS set-up processes, each scaled by the core
    speed over its own lifetime; also returns the raw median."""
    raw, scaled, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        res = spawn([sys.executable, "-c", SETUP_CODE, *names], workdir, env)
        if res.rc != 0:
            problems.append(f"setup exited {res.rc}: {res.stderr.decode()[-300:]!r}")
        raw.append(res.wall)
        scaled.append(res.wall * clock.scale(start, time.perf_counter()))
    return statistics.median(scaled), statistics.median(raw), problems


def another_pass_fits(start, seconds, walls) -> bool:
    """Whole passes only: start another while the slowest so far would
    still end within the run's time."""
    return time.perf_counter() - start + max(walls) <= seconds


def run_plain(wl, ops, refs, workdir, seconds):
    """Times are scaled to the reference core speed (see corespeed); the
    raw medians go to the info line."""
    env = child_env()
    clock = CoreClock()
    try:
        setup_s, setup_raw, problems = setup_seconds(wl.setup_names, workdir, env, clock)
        passes, walls, scales = [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results, wall = subprocess_pass(ops, workdir, env)
            scales.append(clock.scale(t0, time.perf_counter()))
            passes.append(results)
            walls.append(wall)
            if not another_pass_fits(start, seconds, walls):
                break
    finally:
        clock.close()
    more, failed, hashes = check_passes(wl, ops, refs, passes)
    cpus = [sum(r.cpu for r in p.values()) for p in passes]
    metrics = {
        "wall_s": statistics.median(w * k for w, k in zip(walls, scales)),
        "cpu_s": statistics.median(c * k for c, k in zip(cpus, scales)),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p.values()) for p in passes),
    }
    info = {"passes": len(passes), "core": clock.cpu, "raw_wall_s": walls, "raw_cpu_s": cpus,
            "raw_setup_s": setup_raw, "core_scale": scales}
    return metrics, problems + more, failed, len(ops) * len(passes), hashes, info


def run_traced(wl, ops, refs, workdir, seconds):
    sys.path.insert(0, SRC)
    import hopfdiff.cli
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    passes, plain_walls, traced_walls, per_pass = [], [], [], []
    problems = []
    start = time.perf_counter()
    while True:
        results, wall = inprocess_pass(ops, workdir, hopfdiff.cli.run)
        passes.append(results)
        plain_walls.append(wall)
        tracer.reset()
        tracer.install()
        try:
            results, wall = inprocess_pass(ops, workdir, hopfdiff.cli.run)
        finally:
            tracer.uninstall()
        passes.append(results)
        traced_walls.append(wall)
        summary = tracer.summary()
        coverage = summary["root_ns"] / 1e9 / wall
        if coverage < MIN_ROOT_COVERAGE:
            problems.append(f"top-level spans cover {coverage:.3f} of the traced pass")
        per_pass.append(layer_metrics(summary))
        pair_walls = [a + b for a, b in zip(plain_walls, traced_walls)]
        if not another_pass_fits(start, seconds, pair_walls):
            break
    os.makedirs(OUT, exist_ok=True)
    tracer.write_jsonl(os.path.join(OUT, f"trace-{wl.name}.jsonl"))
    more, failed, hashes = check_passes(wl, ops, refs, passes)
    # median_low keeps counts whole: it returns one of the passes' values
    metrics = {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    info = {"passes": len(passes), "pass_wall_s": plain_walls, "traced_wall_s": traced_walls,
            "root_coverage": coverage, "spans": summary["spans"]}
    return metrics, problems + more, failed, len(ops) * len(passes), hashes, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopfdiff", "cli.py")):
        sys.stderr.write(f"error: no hopfdiff sources under {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        env = child_env()
        refs = export_refs(wl.refs, workdir, env)
        ops, files = wl.ops(args.seed, refs)
        for path, content in files.items():
            with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        runner = run_traced if args.trace else run_plain
        metrics, problems, failed, attempted, hashes, info = runner(
            wl, ops, refs, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatch = sorted({m["name"] for m in wanted} ^ set(metrics))
    if mismatch:
        problems.append(f"metrics differ from BENCHMARK.json: {mismatch}")
    info.update({"workload": wl.name, "seed": args.seed, "stdout_sha256": hashes,
                 "faults": {op.id: op.fault for op in ops if op.fault},
                 "problems": problems})
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
