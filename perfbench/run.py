"""Benchmark of bergbesov: kernel points, transforms and cold CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Every process this starts gets one BLAS/OpenMP thread and runs alone.

Untraced, the last line of stdout is the run's end-to-end result:
setup_s (median of five fresh interpreters), ops_per_s, op_p50_ms and
peak_rss_mb.  Times are given at the calibration probes' reference speed
(see calibration.py); the raw wall and probe times go to
perfbench/out/run-NAME-seedN.json.  Traced, the last line holds the
per-layer metrics instead, and the traced run's totals and spans go to
perfbench/out/trace-NAME-seedN.json.  Exit code 0 when the run completed,
whatever the checks found; the result's `correct` says whether every
failure is a known fault.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calibration
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
# Wall-clock budget of the whole run, below the 180 s every run must meet.
BUDGET_S = 170.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(Exception):
    pass


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_PINS:
        env[name] = "1"
    return env


def _worker(args, root, outdir, deadline, extra=(), importtime=False):
    """Run worker.py once and return (its JSON result, its stderr)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--root", root, "--outdir", outdir, *extra]
    # own session, so that a timeout can stop the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"worker did not finish within {BUDGET_S:.0f} s") from None
    stderr = stderr.decode(errors="replace")
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}:\n{stderr[-2000:]}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise RunError(f"worker printed no result:\n{stderr[-2000:]}")
    return json.loads(lines[-1]), stderr


def _untraced(args, root, outdir, deadline):
    setups, spawns = [], []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(_worker(args, root, outdir, deadline, ["--setup-only"])[0]["setup_s"])
        spawns.append(calibration.spawn_time(_child_env(root)))
    res, stderr = _worker(args, root, outdir, deadline)
    sys.stderr.write(stderr)
    setups.append(res["setup_s"])
    op_s = calibration.scaled(res["op_s"], res["probe_s"], calibration.PROBES[args.workload][1])
    k_setup = calibration.factor(spawns, calibration.SPAWN_REFERENCE_S)
    metrics = {
        "setup_s": {"value": k_setup * statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(op_s) / sum(op_s), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(op_s), "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }
    tracing.write(os.path.join(outdir, f"run-{args.workload}-seed{args.seed}.json"), {
        "workload": args.workload, "seed": args.seed, "metrics": metrics, "setup_factor": k_setup,
        "raw": {"setup_s": setups, "setup_probe_s": spawns, "op_s": res["op_s"], "probe_s": res["probe_s"]},
    })
    return res, metrics


def _traced(args, root, outdir, deadline):
    in_process = args.workload != "cli-cold"
    res, stderr = _worker(args, root, outdir, deadline, ["--trace"], importtime=in_process)
    totals = dict(res["layers"])
    if in_process:
        tracing.merge(totals, tracing.import_times(stderr))
    sys.stderr.write("".join(line + "\n" for line in stderr.splitlines()
                             if not line.startswith("import time:")))
    reference = calibration.PROBES[args.workload][1]
    op_s = calibration.scaled(res["op_s"], res["probe_s"], reference)
    # layer times are totals over the run, so the run's median probe scales them
    k = calibration.factor(res["probe_s"], reference)
    tracing.write(os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.json"), {
        "workload": args.workload, "seed": args.seed, "factor": k,
        "traced_ops_per_s": len(op_s) / sum(op_s), "op_s": res["op_s"],
        "layers": totals, "spans": res["spans"],
    })
    return res, tracing.metrics(totals, k)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(calibration.PROBES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bergbesov", "__init__.py")):
        print(f"error: {root} holds no src/bergbesov; run from the root of a checkout",
              file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            res, metrics = _traced(args, root, outdir, deadline)
        else:
            res, metrics = _untraced(args, root, outdir, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": res["unexpected"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
