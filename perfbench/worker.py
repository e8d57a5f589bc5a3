"""One measured run of a workload, in a fresh interpreter started by run.py.

    python perfbench/worker.py --workload NAME --seed N --seconds S
                               --root DIR --outdir DIR [--trace] [--setup-only]

Set-up is timed from the first line of this file until the operation list
is built: the cold `import bergbesov` plus input generation.  Then the list
runs in whole rounds until S seconds have passed (at least one round), each
operation timed alone, then followed by a calibration probe (see
calibration.py) and checked, both outside its timing.  The result is one
JSON line on stdout, with raw wall times and probe times.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


class CliRunner:
    """Runs `bergbesov ARGV` in a fresh process, as a user would.

    Traced, the command goes through cli_trace.py, which installs the layer
    wrappers and writes the command's per-layer totals to a file; the
    runner adds them up, together with the import times that
    `python -X importtime` reports.
    """

    def __init__(self, root, outdir, trace):
        self.root = root
        self.outdir = outdir
        self.trace = trace
        self.totals = {}
        self.commands = 0

    def out_path(self, name):
        return os.path.join(self.outdir, name)

    def __call__(self, argv):
        if not self.trace:
            cmd = [sys.executable, "-m", "bergbesov.cli", *argv]
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True)
            return proc.returncode, proc.stdout, proc.stderr
        import tracing

        self.commands += 1
        spans = self.out_path(f"cli-layers-{os.getpid()}-{self.commands}.json")
        cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_trace.py"), spans, *argv]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True)
        stderr = proc.stderr.decode(errors="replace")
        tracing.merge(self.totals, tracing.import_times(stderr))
        with open(spans, encoding="utf-8") as fh:
            tracing.merge(self.totals, json.load(fh))
        os.remove(spans)
        kept = "".join(line + "\n" for line in stderr.splitlines() if not line.startswith("import time:"))
        return proc.returncode, proc.stdout, kept.encode()


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--root", required=True, help="checkout root: the program's src/ is below it")
    ap.add_argument("--outdir", required=True, help="directory for files the run writes")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def run_ops(ops, seconds, probe, tracer=None):
    """Run the list in whole rounds until `seconds` have passed.

    Returns (time of each operation run, names of the failed ones, their
    error messages, probe times).  Exceptions from the program count as
    failures.
    """
    times, failed, errors, probes = [], [], [], []
    start = time.perf_counter()
    while True:
        done = {}
        for op in ops:
            t = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # the program failed: record it, keep going
                out, err = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t)
            probes.append(probe())
            done[op.name] = out
            if err is None:
                if tracer is not None:
                    tracer.enabled = False
                try:
                    err = op.check(out, done)
                except Exception:  # a check that cannot judge the output fails it
                    err = "check raised " + traceback.format_exc(limit=3)
                if tracer is not None:
                    tracer.enabled = True
            if err is not None:
                failed.append(op.name)
                errors.append(err)
        if time.perf_counter() - start >= seconds:
            return times, failed, errors, probes


def main(argv=None):
    args = _parse(argv)
    import bergbesov  # noqa: F401  (the cold import every operation pays)

    import workloads

    cli = CliRunner(args.root, args.outdir, args.trace) if args.workload == "cli-cold" else None
    ops = workloads.build(args.workload, args.seed, cli=cli)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace and cli is None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import calibration

    probe, _ = calibration.PROBES[args.workload]
    times, failed, errors, probes = run_ops(ops, args.seconds, probe, tracer)
    faults = {op.name: op.fault for op in ops}
    unexpected = [name for name in failed if faults[name] is None]
    for name, err in zip(failed, errors):
        tag = "UNEXPECTED" if faults[name] is None else f"known fault {faults[name]}"
        print(f"{tag}: {name}: {err}", file=sys.stderr)
    who = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "op_s": times,
        "probe_s": probes,
        "attempted": len(times),
        "failed": len(failed),
        "unexpected": len(unexpected),
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }
    if args.trace:
        result["layers"] = cli.totals if cli is not None else tracer.summary()
        result["spans"] = [] if tracer is None else tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
