"""Fast tests of the benchmark itself, on its tiny operation lists.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

They check that every check accepts the right answer and rejects a
slightly wrong one, that the failed operations are exactly the known
faults, that the traced run reports every per-layer metric, and that the
benchmark refuses to run where there is no program.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibration  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bergbesov import kernel  # noqa: E402

IN_PROCESS = ("kernel-points", "transforms")
SEED = 7


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_checks_accept_exact_and_reject_perturbed(workload):
    ops = workloads.build(workload, SEED, tiny=True)
    done = {op.name: op.exact() for op in ops}
    for op in ops:
        assert op.check(done[op.name], done) is None, op.name
        assert op.check(op.perturb(done[op.name]), done) is not None, op.name


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_failed_set_is_exactly_the_known_faults(workload):
    ops = workloads.build(workload, SEED, tiny=True)
    times, failed, errors, probes = worker.run_ops(ops, 0.0, calibration.series_loop_time)
    assert len(probes) == len(ops)
    assert len(times) == len(ops)
    assert failed == [op.name for op in ops if op.fault is not None], errors
    if workload == "transforms":
        assert {op.fault for op in ops if op.fault} == {"A", "B"}


def test_seed_changes_inputs_but_not_the_list():
    for workload in IN_PROCESS:
        a = workloads.build(workload, 1)
        b = workloads.build(workload, 2)
        assert [op.name for op in a] == [op.name for op in b]
        assert [op.fault for op in a] == [op.fault for op in b]
    x1 = workloads.build("kernel-points", 1)[0].meta["x"]
    x2 = workloads.build("kernel-points", 2)[0].meta["x"]
    assert not (x1 == x2).all()


def test_kernel_allowance_covers_rounded_inputs_near_the_diagonal():
    """R_1.7 on the disc at |x||y| = 0.9 and an angle of 0.03: R = 4707.08, and
    a cos one half-ulp off moves it by 1.1e-9, eleven times tol."""
    rho, angle = 0.9, 0.0306973664313126
    x = math.sqrt(rho) * np.array([1.0, 0.0])
    y = math.sqrt(rho) * np.array([math.cos(angle), math.sin(angle)])
    _, allowed = workloads._kernel_reference(kernel.KernelSpec(1.7, 2, workloads.KERNEL_TOL), x, y)
    cos = math.cos(angle)
    moved = [reference.kernel_closed_form(1.7, x, math.sqrt(rho) * np.array([c, math.sqrt(1.0 - c * c)]))
             for c in (cos, cos - 2.0 ** -53)]
    assert abs(moved[1] - moved[0]) > 2.0 * workloads.KERNEL_TOL
    assert abs(moved[1] - moved[0]) < allowed < 1e-6 * abs(moved[0])


def test_cli_checks_accept_program_output_and_reject_perturbed(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", _env()["PYTHONPATH"])
    runner = worker.CliRunner(ROOT, str(tmp_path), trace=False)
    ops = workloads.build("cli-cold", SEED, cli=runner, tiny=True)
    done = {}
    for op in ops:
        done[op.name] = op.run()
        assert op.check(done[op.name], done) is None, (op.name, done[op.name][2][-500:])
    for op in ops:
        assert op.check(op.perturb(done[op.name]), done) is not None, op.name


def test_traced_run_reports_every_layer_metric():
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import calibration, tracing, worker, workloads\n"
        "ops = workloads.build('kernel-points', 7, tiny=True)\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "worker.run_ops(ops, 0.0, calibration.series_loop_time, tracer)\n"
        "print(json.dumps(tracer.summary()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=ROOT, env=_env(), check=True)
    totals = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = tracing.metrics(totals)
    assert list(metrics) == [name for name, _ in tracing.METRICS]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert declared == list(metrics)
    calls = totals["kernel.truncation_degree.calls"]
    # the R(x, 0) operations stop before the certificate
    assert calls == len([op for op in workloads.build("kernel-points", 7, tiny=True) if "y=0" not in op.name])
    assert totals["accel.series.terms"] == totals["kernel.certified_degree"] + calls
    assert totals["accel.series.ms"] > 0.0 and totals["kernel.truncation_degree.ms"] > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kernel-points",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
