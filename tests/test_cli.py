"""Command-line front end: JSON/CSV output contracts, exit codes, and
fixture values, exercised through real subprocess invocations."""

import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
import warnings

import pytest

CMD = [sys.executable, "-m", "bergbesov.cli"]


def run_cli(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_classify_bounded_example():
    out = run_json("classify", "--b", "0", "--c", "0", "--alpha", "0",
                   "--beta", "0", "--p", "2", "--q", "2",
                   "--target", "besov", "--dim", "2")
    assert out["command"] == "classify"
    assert out["bounded"] is True
    assert out["theorem_part"] == "besov(i)"
    assert out["params"]["b"] == 0.0 and out["params"]["dim"] == 2
    oks = [iq["ok"] for iq in out["inequalities"]]
    assert oks == [True, True]


def test_classify_weight_obstruction_note():
    out = run_json("classify", "--b", "0", "--c", "0", "--alpha", "0",
                   "--beta", "-2", "--target", "lebesgue")
    assert out["bounded"] is False
    assert out["theorem_part"] == "lebesgue(beta<=-1)"
    assert "harmonic" in out["notes"]


def test_classify_rejects_inconsistent_q():
    proc = run_cli("classify", "--b", "0", "--c", "0", "--alpha", "0",
                   "--q", "inf", "--target", "besov")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_classify_rejects_garbage():
    proc = run_cli("classify", "--b", "0", "--c", "0", "--alpha", "0",
                   "--p", "half", "--target", "besov")
    assert proc.returncode == 2
    proc = run_cli("classify", "--b", "0", "--c", "0", "--alpha", "0",
                   "--target", "hardy")
    assert proc.returncode == 2


def test_kernel_at_origin_is_one():
    out = run_json("kernel", "--alpha", "0.7", "--x", "0.3,0.1", "--y", "0,0")
    assert out["value"] == 1.0
    assert out["truncation_degree"] == 0
    # degree 0 is the series' first term, even at an order with a closed form
    assert out["method"] == "series"
    assert set(out) == {"command", "alpha", "dim", "tol", "x", "y", "value", "truncation_degree",
                        "method"}


@pytest.mark.parametrize("alpha, dim, method", [
    ("0", 3, "closed-form"), ("-1", 5, "closed-form"), ("1.7", 2, "closed-form"),
    ("0.4", 3, "series"), ("-2", 2, "series"), ("-4.5", 4, "series"),
])
def test_kernel_reports_its_method(alpha, dim, method):
    x = ",".join(["0.3"] + ["0.1"] * (dim - 1))
    y = ",".join(["0.5"] + ["-0.2"] * (dim - 1))
    out = run_json("kernel", "--alpha", alpha, "--x", x, "--y", y)
    assert out["method"] == method
    assert out["truncation_degree"] > 0


def test_kernel_dimension_mismatch():
    proc = run_cli("kernel", "--alpha", "0", "--x", "0.3,0.1", "--y", "0,0,0")
    assert proc.returncode == 2


def test_kernel_past_max_degree_is_input_error():
    proc = run_cli("kernel", "--alpha", "0", "--x", "0.9999,0", "--y", "0.99995,0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("x, y, code", [
    # gamma_k(300) overflows a double before the dim-5 tail bound is met
    ("0.7,0,0,0,0", "0.1,0.7,0,0,0", 2),
    # in the disc it is met at K = 1025, where gamma_1026 is still finite
    ("0.7,0", "0.7,0", 0),
])
def test_kernel_coefficient_overflow_fails_fast_and_says_so(x, y, code, capsys):
    from bergbesov import cli

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["kernel", "--alpha", "300", "--x", x, "--y", y]) == code
    assert caught == []
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("error:") and "overflows a double" in captured.err
        assert captured.out == ""
    else:
        out = json.loads(captured.out)
        assert out["truncation_degree"] == 1025 and out["method"] == "closed-form"
        assert math.isfinite(out["value"]) and captured.err == ""


def test_kernel_both_points_on_sphere_is_input_error():
    proc = run_cli("kernel", "--alpha", "0", "--x", "1,0", "--y", "0.6,0.8")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


ONE_TERM = '{"dim":2,"terms":[{"k":1,"y":[0.5,0],"c":1}]}'
APPLY = ("apply", "--b", "0", "--c", "0")
DEGREE_ZERO = '{"dim":3,"terms":[{"k":0,"y":[0.5,0,0],"c":2}]}'
# id: (arguments, a fragment the error line must hold)
MALFORMED = {
    # a kernel series that cannot be certified below MAX_DEGREE
    "kernel-uncertifiable": (("kernel", "--alpha", "0", "--x", "0.99999999,0", "--y", "0.9999,0"),
                             "200000 terms"),
    "apply-x-nan": (APPLY + ("--f", ONE_TERM, "--x", "nan,0"), "finite"),
    "kernel-y-inf": (("kernel", "--alpha", "0", "--x", "0.1,0", "--y", "0,inf"), "finite"),
    "fuv-nan": (APPLY + ("--f", "fuv:nan,0", "--x", "0.1,0"), "finite"),
    "fuv-inf": (("norm", "--f", "fuv:0.5,-inf", "--p", "2"), "finite"),
    "json-no-dim": (APPLY + ("--f", '{"terms":[]}', "--x", "0.1,0"), "missing 'dim'"),
    "json-no-terms": (APPLY + ("--f", '{"dim":2}', "--x", "0.1,0"), "missing 'terms'"),
    "json-no-k": (APPLY + ("--f", '{"dim":2,"terms":[{"y":[0.5,0],"c":1}]}', "--x", "0.1,0"),
                  "missing 'k'"),
    "json-no-y": (APPLY + ("--f", '{"dim":2,"terms":[{"k":1,"c":1}]}', "--x", "0.1,0"),
                  "missing 'y'"),
    "json-no-c": (("norm", "--b", "0", "--c", "0", "--q", "2",
                   "--f", '{"dim":2,"terms":[{"k":1,"y":[0.5,0]}]}'), "missing 'c'"),
    "json-fractional-k": (APPLY + ("--f", '{"dim":2,"terms":[{"k":1.5,"y":[0.5,0],"c":1}]}',
                                   "--x", "0.1,0"), "integer"),
    "json-fractional-dim": (APPLY + ("--f", '{"dim":2.5,"terms":[{"k":1,"y":[0.5,0],"c":1}]}',
                                     "--x", "0.1,0"), "integer"),
    # json.loads accepts NaN and Infinity; an expansion does not
    "json-c-nan": (APPLY + ("--f", '{"dim":2,"terms":[{"k":1,"y":[0.5,0],"c":NaN}]}',
                            "--x", "0.1,0"), "finite"),
    "json-c-inf": (APPLY + ("--f", '{"dim":2,"terms":[{"k":1,"y":[0.5,0],"c":Infinity}]}',
                            "--x", "0.1,0"), "finite"),
    "json-y-nan": (APPLY + ("--f", '{"dim":2,"terms":[{"k":1,"y":[NaN,0],"c":1}]}',
                            "--x", "0.1,0"), "finite"),
    # non-finite operator parameters and weights get no verdict and no value
    "classify-b-nan": (("classify", "--b", "nan", "--c", "0", "--alpha", "0", "--target", "besov"),
                       "b must be finite"),
    "classify-b-inf": (("classify", "--b", "inf", "--c", "0", "--alpha", "0", "--target", "besov"),
                       "b must be finite"),
    "sweep-c-infinite-range": (("sweep", "--c=-inf:inf:2", "--target", "besov"), "c must be finite"),
    # a range is named where its count is not an integer or stop - start
    # overflows, which gave "b must be finite, got nan"
    "sweep-range-overflow": (("sweep", "--b=1e308:-1e308:3", "--target", "besov"),
                             "range '1e308:-1e308:3' spans past the double range: stop - start is -inf"),
    "sweep-range-fractional-count": (("sweep", "--b=0:1:2.5", "--target", "besov"),
                                     "the count of range '0:1:2.5' must be an integer >= 1, got 2.5"),
    "sweep-range-text": (("sweep", "--c", "-1:x:3", "--target", "besov"),
                         "range '-1:x:3' must be three numbers start:stop:count"),
    # each grid value is checked once, with the message its first tuple would raise
    "sweep-b-nan": (("sweep", "--b=0,nan", "--target", "besov"), "b must be finite, got nan"),
    "sweep-alpha-nan": (("sweep", "--alpha=nan", "--target", "besov"),
                        "alpha must be finite, got nan"),
    "sweep-beta-nan": (("sweep", "--beta=0.5,nan", "--target", "bloch", "--q", "inf"),
                       "beta must be finite, got nan"),
    "sweep-dim-1": (("sweep", "--dim", "1", "--target", "besov"),
                    "dim must be an integer >= 2, got 1"),
    "sweep-besov-q-inf": (("sweep", "--target", "besov", "--q", "inf"),
                          "target besov requires finite q"),
    "sweep-bloch-q-2": (("sweep", "--target", "bloch", "--q", "2"), "target bloch requires q = inf"),
    "apply-fuv-b-nan": (("apply", "--b", "nan", "--c", "0", "--f", "fuv:0.3,1", "--x", "0.1,0"),
                        "b must be finite"),
    "apply-fuv-c-nan": (("apply", "--b", "0", "--c", "nan", "--f", "fuv:0.3,1", "--x", "0.1,0"),
                        "c must be finite"),
    "apply-b-nan": (("apply", "--b", "nan", "--c", "0", "--f", ONE_TERM, "--x", "0.1,0"),
                    "b must be finite"),
    "apply-c-nan": (("apply", "--b", "0", "--c", "nan", "--f", ONE_TERM, "--x", "0.1,0"),
                    "c must be finite"),
    "apply-b-inf": (("apply", "--b", "inf", "--c", "0", "--f", ONE_TERM, "--x", "0.1,0"),
                    "b must be finite"),
    "norm-besov-c-nan": (("norm", "--b", "0", "--c", "nan", "--q", "2", "--f", ONE_TERM),
                         "c must be finite"),
    "norm-besov-b-inf": (("norm", "--b=-inf", "--c", "0", "--q", "2", "--f", ONE_TERM),
                         "b must be finite"),
    "norm-bloch-c-inf": (("norm", "--b", "0", "--c", "inf", "--target", "bloch", "--f", ONE_TERM),
                         "c must be finite"),
    "kernel-alpha-nan": (("kernel", "--alpha", "nan", "--x", "0.1,0", "--y", "0.2,0"),
                         "alpha must be finite"),
    "kernel-alpha-inf": (("kernel", "--alpha=-inf", "--x", "0.1,0", "--y", "0.2,0"),
                         "alpha must be finite"),
    "norm-inf-alpha-nan": (("norm", "--f", "fuv:0.3,-2", "--p", "inf", "--alpha", "nan"),
                           "alpha must be finite"),
    "norm-inf-alpha-inf": (("norm", "--f", "fuv:0.3,-2", "--p", "inf", "--alpha", "inf"),
                           "alpha must be finite"),
    "norm-2-alpha-nan": (("norm", "--f", "fuv:0.3,-2", "--p", "2", "--alpha", "nan"),
                         "alpha must be finite"),
    "norm-expansion-inf-alpha-nan": (("norm", "--f", ONE_TERM, "--p", "inf", "--alpha", "nan"),
                                     "alpha must be finite"),
    # a flag the mode does not read is refused rather than echoed
    "norm-bloch-q": (("norm", "--b", "0", "--c", "0", "--f", "const1", "--target", "bloch",
                      "--q", "3"), "bloch norm takes no --q"),
    "norm-image-p": (("norm", "--b", "0", "--c", "0", "--f", "const1", "--q", "2", "--p", "2"),
                     "transform-image mode takes no --p"),
    "norm-image-bloch-p": (("norm", "--b", "0", "--c", "0", "--f", ONE_TERM, "--p", "inf"),
                           "transform-image mode takes no --p"),
    "norm-source-q": (("norm", "--f", "const1", "--p", "2", "--q", "2"),
                      "source-space mode takes no --q"),
    "norm-source-target": (("norm", "--f", ONE_TERM, "--p", "2", "--target", "besov"),
                           "source-space mode takes no --target"),
    "norm-source-target-no-p": (("norm", "--f", "fuv:0.3,0", "--target", "bloch"),
                                "source-space mode takes no --target"),
    # also at the value the mode that reads the flag defaults it to
    "norm-image-alpha": (("norm", "--b", "0", "--c", "0", "--f", "const1", "--q", "2",
                          "--alpha", "5"), "transform-image mode takes no --alpha"),
    "norm-image-alpha-0": (("norm", "--b", "0", "--c", "0", "--f", ONE_TERM, "--target", "bloch",
                            "--alpha", "0"), "transform-image mode takes no --alpha"),
    "norm-source-beta": (("norm", "--f", "const1", "--p", "2", "--beta", "7"),
                         "source-space mode takes no --beta"),
    "norm-source-beta-0": (("norm", "--f", ONE_TERM, "--p", "inf", "--beta", "0"),
                           "source-space mode takes no --beta"),
    **{f"probe-floor-{flag}": (("probe", "--kind", "floor", f"--{flag}", value),
                               f"probe --kind floor takes no --{flag}")
       for flag, value in (("b", "0"), ("c", "1"), ("beta", "0"), ("p", "2"), ("q", "3"),
                           ("target", "besov"))},
    # an image weight that is not finite read as divergent, or failed in the rule
    "norm-bloch-beta-nan": (("norm", "--b", "0", "--c", "0", "--f", ONE_TERM, "--target", "bloch",
                             "--beta", "nan"), "beta must be finite, got nan"),
    "norm-besov-beta-inf": (("norm", "--b", "0", "--c", "0", "--f", ONE_TERM, "--q", "3",
                             "--beta", "inf"), "beta must be finite, got inf"),
    # the source-space dimension is checked as every other one is
    "norm-source-dim-0": (("norm", "--f", "const1", "--p", "2", "--dim", "0"),
                          "dim must be an integer >= 2, got 0"),
    "norm-source-dim-1": (("norm", "--f", "const1", "--p", "inf", "--dim", "1"),
                          "dim must be an integer >= 2, got 1"),
    "json-infinite-dim": (APPLY + ("--f", '{"dim":Infinity,"terms":[]}', "--x", "0.1,0"),
                          "dim must be an integer >= 2, got inf"),
    "json-infinite-k": (APPLY + ("--f", '{"dim":2,"terms":[{"k":Infinity,"y":[0.5,0],"c":1}]}',
                                 "--x", "0.1,0"), "degree must be an integer >= 0, got inf"),
    # a transform value past the double range has no certified value
    "apply-fuv-past-the-doubles": (("apply", "--b", "1", "--c", "0", "--f", "fuv:0.3,-240",
                                    "--x", "0.1,0"), "has no finite value"),
}


@pytest.mark.parametrize("args, fragment", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_or_uncertifiable_input_exits_2(args, fragment, tmp_path):
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert fragment in proc.stderr and proc.stderr.count("\n") == 1 and proc.stdout == ""
    if args[0] == "sweep":
        dest = tmp_path / "grid.csv"
        to_file = run_cli(*args, "--out", str(dest))
        assert (to_file.returncode, to_file.stderr) == (2, proc.stderr)
        assert not dest.exists()


KERNEL_STDOUT = {
    ("--alpha", "0.7", "--x", "0.3,0.1", "--y", "0.5,-0.2"): """{
  "command": "kernel",
  "alpha": 0.69999999999999996,
  "dim": 2,
  "tol": 1e-10,
  "x": [
    0.29999999999999999,
    0.10000000000000001
  ],
  "y": [
    0.5,
    -0.20000000000000001
  ],
  "value": 1.6883945136348038,
  "truncation_degree": 16,
  "method": "closed-form"
}
""",
    ("--alpha", "-4.5", "--x", "0.5,0.2,-0.3,0.6", "--y", "0.1,0.7,0.4,-0.5", "--tol", "1e-12"): """{
  "command": "kernel",
  "alpha": -4.5,
  "dim": 4,
  "tol": 9.9999999999999998e-13,
  "x": [
    0.5,
    0.20000000000000001,
    -0.29999999999999999,
    0.59999999999999998
  ],
  "y": [
    0.10000000000000001,
    0.69999999999999996,
    0.40000000000000002,
    -0.5
  ],
  "value": 0.84193330500457175,
  "truncation_degree": 118,
  "method": "series"
}
""",
}


@pytest.mark.parametrize("args", list(KERNEL_STDOUT), ids=["dim2", "dim4-factorial-branch"])
def test_kernel_certifies_once_and_prints_the_fixture(args, monkeypatch, capsys):
    import bergbesov.kernel as kernel
    from bergbesov import cli

    calls = []
    certify = kernel.truncation_degree

    def counted(*a, **kw):
        calls.append(a)
        return certify(*a, **kw)

    monkeypatch.setattr(kernel, "truncation_degree", counted)
    # and under any name the CLI module itself may hold
    monkeypatch.setattr(cli, "truncation_degree", counted, raising=False)
    assert cli.main(["kernel", *args]) == 0
    assert capsys.readouterr().out == KERNEL_STDOUT[args]
    assert len(calls) == 1


def test_kernel_series_fixture_matches_mpmath():
    # the dim-4 factorial-branch fixture against the kernel series summed in
    # 40 digits well past its certified degree, at the printed inputs taken
    # exactly: within tol plus the rounding bound 2 (K+2) eps sum_k gamma_k
    # h_k (|x||y|)^k of any order of summation
    import mpmath

    args = next(a for a in KERNEL_STDOUT if a[1] == "-4.5")
    out = json.loads(KERNEL_STDOUT[args])
    alpha, n, tol, kmax = out["alpha"], out["dim"], out["tol"], out["truncation_degree"]
    with mpmath.workdps(40):
        x, y = [mpmath.mpf(v) for v in out["x"]], [mpmath.mpf(v) for v in out["y"]]
        rho = mpmath.sqrt(mpmath.fsum(v * v for v in x) * mpmath.fsum(v * v for v in y))
        t = mpmath.fsum(a * b for a, b in zip(x, y)) / rho
        half, big_a, lam = mpmath.mpf(n) / 2, 1 - (mpmath.mpf(n) / 2 + alpha), mpmath.mpf(n - 2) / 2
        gam, total, scale = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(1)
        cm1, c = mpmath.mpf(1), 2 * lam * t
        for k in range(1, 4 * kmax):
            if k >= 2:
                cm1, c = c, (2 * t * (k + lam - 1) * c - (k + 2 * lam - 2) * cm1) / k
            # the factorial branch: gamma_k = (k!)^2 / ((1-(n/2+alpha))_k (n/2)_k)
            gam *= mpmath.mpf(k) ** 2 / ((big_a + k - 1) * (half + k - 1))
            total += gam * rho**k * (k + lam) / lam * c
            if k <= kmax:
                scale += gam * (k + 1) ** 2 * rho**k  # h_k = (k+1)^2 in dimension 4
        rounding = 2 * (kmax + 2) * sys.float_info.epsilon * scale
        assert abs(out["value"] - total) <= tol + rounding
        assert n == 4 and abs(out["value"] - total) <= 1e-13


def test_apply_constant_function():
    out = run_json("apply", "--b", "0", "--c", "0", "--f", "const1", "--x", "0.4,0.2")
    assert out["divergent"] is False
    assert abs(out["value"] - 1.0) < 1e-8


def test_apply_accepts_bare_array_expansion_json():
    # the bare record array is the from_json form without "dim"; apart from
    # the echoed f, the output equals that of the {"dim", "terms"} form
    bare = run_json(*APPLY, "--f", '[{"k":1,"y":[0.5,0],"c":1}]', "--x", "0.3,0.1")
    full = run_json(*APPLY, "--f", ONE_TERM, "--x", "0.3,0.1")
    assert bare.pop("f") != full.pop("f")
    assert bare == full


def test_apply_of_an_expansion_near_the_sphere_is_its_exact_multiple():
    # T_{0,0} Z_1(., a) = gamma_1(0) (n/2) B(n/2+1, 1) Z_1(., a), and in the
    # disc gamma_1(0) = 2 and (n/2) B(2, 1) = 1/2: the image is Z_1(x, a)
    # = 2 x.a itself, with no kernel series to certify at |x| = 0.99999999
    x = 0.99999999
    out = run_json(*APPLY, "--f", ONE_TERM, "--x", f"{x},0")
    assert out["value"] == pytest.approx(2.0 * x * 0.5, rel=1e-15)
    assert out["divergent"] is False and out["refinements"] == []
    assert out["method"] == "spectral" and out["rule"] is None
    # a radial input has an exact image too, and no rule either
    for f in ("const1", "fuv:0.3,0.5"):
        assert run_json(*APPLY, "--f", f, "--x", f"{x},0")["rule"] is None


@pytest.mark.parametrize("flag", ["--radial-nodes", "--sphere-nodes"])
def test_apply_takes_no_rule_flags(flag):
    # every --f apply accepts has an exact image, so a rule size would be
    # a knob that changes nothing; norm keeps both flags where it reads a
    # rule, and refuses them for a radial input, which reads none
    proc = run_cli(*APPLY, "--f", "const1", "--x", "0.1,0", flag, "32")
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    out = run_json("norm", "--f", ONE_TERM, "--p", "3", flag, "32")
    assert out["rule"][flag[2:].replace("-", "_")] == 32
    assert out["value"] == pytest.approx(run_json("norm", "--f", ONE_TERM, "--p", "3")["value"],
                                         rel=1e-2)
    proc = run_cli("norm", "--f", "const1", "--p", "2", flag, "32")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: a radial input takes no {flag} "
                           "(its norms read no quadrature rule)\n")


@pytest.mark.parametrize("args, fragment", [
    (("norm", "--f", "fuv:0.3,1", "--p", "inf"), "a radial input takes no"),
    (("norm", "--b", "0", "--c", "0", "--f", "const1", "--q", "3"), "a radial input takes no"),
    (("norm", "--b", "0", "--c", "0", "--f", "fuv:0.3,1", "--target", "bloch"),
     "a radial input takes no"),
    (("norm", "--f", ONE_TERM, "--p", "2", "--alpha", "0.5"),
     "the p = 2 norm of an expansion takes no"),
    (("norm", "--b", "0", "--c", "0", "--f", ONE_TERM, "--q", "2"), "this image norm takes no"),
    (("norm", "--b", "0.5", "--c", "0", "--f", DEGREE_ZERO, "--q", "3"), "this image norm takes no"),
    (("norm", "--b", "-1.5", "--c", "0", "--f", ONE_TERM, "--target", "bloch"),
     "this image norm takes no"),
], ids=["source-radial", "image-besov-radial", "image-bloch-radial", "source-p2-expansion",
        "image-q2-expansion", "image-degree0-expansion", "image-divergent-expansion"])
@pytest.mark.parametrize("flag", ["--radial-nodes", "--sphere-nodes"])
def test_norm_refuses_rule_flags_where_no_rule_is_read(args, fragment, flag):
    # the value and the echo are those without the flag, which is refused
    # at any value, the rule's old default 48 included
    plain = run_json(*args)
    assert plain["rule"] is None
    for value in ("48", "7"):
        proc = run_cli(*args, flag, value)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: {fragment} {flag} (")
        assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("args", [
    ("--b", "0", "--c", "0", "--f", ONE_TERM, "--q", "2"),
    ("--b", "0.5", "--c", "0", "--f", DEGREE_ZERO, "--q", "3"),
    ("--b", "0.5", "--c", "0", "--f", DEGREE_ZERO, "--target", "bloch", "--beta", "1"),
    ("--b", "-1.5", "--c", "0", "--f", ONE_TERM, "--q", "1.5"),
    ("--b", "0", "--c", "0", "--f", ONE_TERM, "--q", "3"),
    ("--b", "0.5", "--c", "0.25", "--f", ONE_TERM, "--target", "bloch"),
], ids=["q2", "degree0-besov", "degree0-bloch", "divergent", "q3", "bloch"])
def test_image_norms_of_expansions_echo_the_rule_they_read(args):
    # the value, s, t and divergent are the operators' by repr; "rule" is
    # the default rule where the image is read on a grid, and null where
    # its norm is exact (q = 2, a constant image, a divergent one)
    from bergbesov.operators import _image_norm, besov_norm, bloch_norm

    out = run_json("norm", *args)
    b, c, f = float(args[1]), float(args[3]), args[5]
    beta = out["beta"]
    if out["target"] == "bloch":
        res = bloch_norm((b, c, f), beta, dim=out["dim"])
        q = math.inf
    else:
        q = out["q"]
        res = besov_norm((b, c, f), q, beta, dim=out["dim"])
    assert {k: out[k] for k in ("value", "s", "t", "divergent")} == res.to_dict()
    read = _image_norm((b, c, f), q, beta, None, out["dim"], None)[1]
    exact = args[-1] == "2" or f == DEGREE_ZERO or b <= -1.0
    assert (read is None) is exact
    assert out["rule"] == (None if exact else read.describe())


def test_image_norms_of_radial_inputs_echo_no_rule():
    # the norm of a constant image reads no rule: the value, s, t and
    # divergent are the operators' by repr, and "rule" is null
    from bergbesov.operators import besov_norm, bloch_norm

    out = run_json("norm", "--b", "-0.3", "--c", "1", "--f", "fuv:0.4,-1", "--q", "3",
                   "--beta", "-2.5", "--dim", "3")
    res = besov_norm((-0.3, 1.0, "fuv:0.4,-1"), 3.0, -2.5, dim=3)
    assert out["rule"] is None and out["t"] == res.t == 1 and out["s"] == 1.0
    assert out["value"] == res.value and out["divergent"] is False
    out = run_json("norm", "--b", "-1.5", "--c", "0", "--f", "const1", "--target", "bloch")
    res = bloch_norm((-1.5, 0.0, "const1"), 0.0, dim=2)
    assert out["rule"] is None and out["value"] == res.value == math.inf
    assert out["divergent"] is res.divergent is True and out["t"] == res.t == 1


@pytest.mark.parametrize("dim, want", [
    # 40-digit mpmath values: the L^3_3 integrand of f_{-0.9,-60} peaks at
    # about e^{708.8}, inside the doubles, but its integral, about 1.75e309
    # in dim 2, is past them
    (2, 1.9140612232205068015e103),
    (3, 2.5841795562216726256e103),
], ids=["dim2", "dim3"])
def test_norm_whose_integral_is_past_the_doubles_under_a_peak_that_is_not(dim, want):
    out = run_json("norm", "--f", "fuv:-0.9,-60", "--p", "3", "--alpha", "3", "--dim", str(dim))
    assert out["finite"] is True and out["method"] == "radial-adaptive"
    assert out["value"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("flag", ["--mc-samples", "--seed"])
def test_removed_sampling_flags_are_rejected(flag):
    proc = run_cli(*APPLY, "--f", "const1", "--x", "0.1,0", flag, "3")
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


def test_norm_source_space_just_inside_the_boundary():
    # alpha + p u = -0.99: finite, 606 030 100 up to the binary rounding of u
    out = run_json("norm", "--f", "fuv:-0.99,-3", "--p", "1", "--alpha", "0")
    assert out["finite"] is True
    assert out["value"] == pytest.approx(606030099.99999785, rel=1e-12)


def test_norm_source_space_fixture():
    out = run_json("norm", "--f", "const1", "--p", "2", "--alpha", "0.5")
    assert out["mode"] == "source-space"
    assert out["method"] == "radial-adaptive"
    assert out["finite"] is True
    assert abs(out["value"] - 1.0) < 1e-9


@pytest.mark.parametrize("f, want", [
    # 40-digit mpmath maxima of (1-r^2)^u (1 + log 1/(1-r^2))^{-v}
    ("fuv:0.7,-1", 1.05831174383102554),
    ("fuv:0.05,-7", 1.01053090608465158e12),
])
def test_norm_source_space_sup_is_the_closed_form(f, want):
    out = run_json("norm", "--f", f, "--p", "inf", "--alpha", "0")
    assert out["method"] == "closed-form"
    assert out["finite"] is True
    assert out["value"] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("f", ["fuv:1,-200", "fuv:1e-50,-7"])
def test_norm_source_space_sup_past_the_double_range(f):
    # a finite sup above the largest double prints Infinity, and finite
    # reports membership, not the overflowed value
    proc = run_cli("norm", "--f", f, "--p", "inf", "--alpha", "0")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    out = json.loads(proc.stdout)
    assert out["value"] == math.inf and out["finite"] is True
    assert out["method"] == "closed-form"


THREE_DIM = '{"dim":3,"terms":[{"k":1,"y":[0.5,0,0],"c":1}]}'


@pytest.mark.parametrize("mode", [("--b", "0.5", "--c", "0.25", "--q", "2"), ("--p", "2")],
                         ids=["image", "source"])
def test_norm_takes_the_dimension_of_expansion_json(mode):
    # Z_1(x, e_1/2) = 1.5 x_1 in dim 3.  The image norm at q = 2 and the
    # source p = 2 norm read no rule; at q = 3 the image norm builds its
    # rule in that dim.  The source norm's weight normalization V_alpha is
    # the dim-3 one
    from bergbesov.expansion import from_json, square_integral, transform
    from bergbesov.quadrature import normalization_V

    exp = from_json(THREE_DIM)
    if mode[0] == "--b":
        out = run_json("norm", "--f", THREE_DIM, *mode)
        assert out["dim"] == 3 and out["rule"] is None
        cubic = run_json("norm", "--f", THREE_DIM, *mode[:-1], "3")
        assert cubic["dim"] == 3 and cubic["rule"] == {"dim": 3, "radial_nodes": 48, "sphere_nodes": 48}
        want = math.sqrt(square_integral(transform(0.5, 0.25, exp), 0.0))
    else:
        out = run_json("norm", "--f", THREE_DIM, *mode, "--alpha", "0.5")
        assert out["dim"] == 3 and out["rule"] is None and out["method"] == "spectral"
        want = math.sqrt(square_integral(exp, 0.5) / normalization_V(0.5, 3))
        assert normalization_V(0.5, 3) != normalization_V(0.5, 2)
    assert out["value"] == pytest.approx(want, rel=1e-13)
    for dim in ("2", "4"):
        proc = run_cli("norm", "--f", THREE_DIM, "--dim", dim, *mode)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert f"expansion dim 3 != requested dim {dim}" in proc.stderr


SIX_DIM = '{"dim":6,"terms":[{"k":5,"y":[0,0.8,0,0,0,0],"c":1}]}'


def test_source_p2_norm_of_an_expansion_is_its_degree_sum():
    # the dim-6 product rule is exact only to degree 7, so |Z_5|^2 read 26 %
    # low on it (1.686996); the sum over orthogonal degrees is exact.  In
    # the disc the rule is exact for these degrees, and the two agree
    from bergbesov.expansion import evaluate_many, from_json
    from bergbesov.quadrature import BallQuadrature, lp_norm

    out = run_json("norm", "--f", SIX_DIM, "--p", "2", "--alpha", "0.5", "--dim", "6")
    assert out["method"] == "spectral" and out["rule"] is None and out["finite"] is True
    assert out["value"] == pytest.approx(2.2740178350319, rel=1e-13)
    disc = '{"dim":2,"terms":[{"k":0,"y":[0,0],"c":0.5},{"k":3,"y":[0.6,-0.3],"c":-2},' \
           '{"k":2,"y":[0.1,0.7],"c":1.5},{"k":3,"y":[0,0.9],"c":1}]}'
    out = run_json("norm", "--f", disc, "--p", "2", "--alpha", "0.7")
    exp = from_json(disc)
    want = lp_norm(lambda pts: evaluate_many(exp, pts), 2.0, 0.7, BallQuadrature(2, 64, 64))
    assert out["value"] == pytest.approx(want, rel=1e-12)


def test_norm_requires_mode_flags():
    proc = run_cli("norm", "--f", "const1")
    assert proc.returncode == 2
    proc = run_cli("norm", "--f", "const1", "--b", "0")
    assert proc.returncode == 2


def test_probe_finiteness_json():
    out = run_json("probe", "--kind", "finiteness", "--b", "0", "--c", "0",
                   "--alpha", "0", "--p", "2", "--q", "2")
    assert out["kind"] == "finiteness"
    assert out["evidence"][0]["observed"] == "finite-plateau"
    assert out["evidence"][0]["agree"] is True
    assert out["verdict"]["bounded"] is True


def test_sweep_grid_to_stdout_deterministic():
    args = ("sweep", "--b", "0:1:3", "--c=-1,0,1", "--alpha", "0",
            "--beta", "0", "--p", "2", "--q", "2", "--target", "besov")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert lines[0] == "b,c,alpha,beta,p,q,target,dim,bounded,part,binding_slack"
    assert len(lines) == 10  # 3 x 3 grid
    row = lines[1].split(",")
    assert row[0] == "0" and row[1] == "-1"
    assert row[6] == "besov" and row[9] == "besov(i)"
    bounded_flags = [ln.split(",")[8] for ln in lines[1:]]
    assert set(bounded_flags) == {"true", "false"}


def test_sweep_lebesgue_obstruction_rows_all_unbounded():
    proc = run_cli("sweep", "--b", "0,1", "--c=-3,0", "--alpha", "0",
                   "--beta", "-1.5", "--target", "lebesgue")
    assert proc.returncode == 0
    rows = [ln.split(",") for ln in proc.stdout.splitlines()[1:]]
    assert len(rows) == 4
    assert all(r[8] == "false" and r[9] == "lebesgue(beta<=-1)" for r in rows)


def test_sweep_to_file_and_io_failure(tmp_path):
    dest = tmp_path / "grid.csv"
    proc = run_cli("sweep", "--b", "0", "--c", "0", "--alpha", "0",
                   "--target", "besov", "--out", str(dest))
    assert proc.returncode == 0
    text = dest.read_text()
    assert text.startswith("b,c,alpha,beta,p,q,target,dim,bounded,part")
    bad = run_cli("sweep", "--b", "0", "--c", "0", "--alpha", "0",
                  "--target", "besov", "--out", str(tmp_path / "no" / "dir.csv"))
    assert bad.returncode == 1
    assert "i/o error" in bad.stderr


def test_sweep_parses_each_exponent_once(tmp_path, monkeypatch, capsys):
    from bergbesov import cli
    from bergbesov.classifier import ExtExponent, OperatorParams, Target, classify

    grids = {"b": "0,1.5", "c": "-3:1:3", "alpha": "0,-0.5", "beta": "-1.5,0.5",
             "p": "1,2,oo", "q": "1.5,3"}
    argv = ["sweep", "--target", "besov", "--dim", "3"]
    for name, spec in grids.items():
        argv.append(f"--{name}={spec}")
    # the CSV built tuple by tuple from the raw grid values
    values = [cli._parse_values(grids[k], allow_inf=k in "pq") for k in grids]
    rows = [cli.CSV_HEADER]
    for b, c, al, be, p, q in itertools.product(*values):
        params = OperatorParams(b=b, c=c, alpha=al, beta=be, p=p, q=q, dim=3)
        verdict = classify(params, Target.BESOV)
        rows.append(",".join(["%.17g" % v for v in (b, c, al, be)]
                             + [str(params.p), str(params.q), "besov", "3",
                                "true" if verdict.bounded else "false", verdict.part,
                                "%.17g" % verdict.binding_slack]))
    want = "\n".join(rows) + "\n"

    parsed = []
    parse = ExtExponent.parse.__func__

    def counted(cls, text):
        parsed.append(text)
        return parse(cls, text)

    monkeypatch.setattr(ExtExponent, "parse", classmethod(counted))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    assert parsed == [1.0, 2.0, math.inf, 1.5, 3.0]
    dest = tmp_path / "grid.csv"
    assert cli.main(argv + ["--out", str(dest)]) == 0
    assert dest.read_bytes() == want.encode()
    assert len(parsed) == 10


# Grids on which the sweep reaches every part of its target, with c on a
# 1/4 grid that meets the c-boundaries exactly: n = 2, so (n + beta)/q,
# (n + alpha)/p and alpha - 1 are multiples of 1/4 for most of the values.
FINITE_Q_GRID = {"b": "-0.5,0,0.5,1", "c": "-4:1:21", "alpha": "0,0.5", "beta": "-1.5,-1,0,2",
                 "p": "1,2,4,inf", "q": "2,4"}
SUP_GRID = dict(FINITE_Q_GRID, beta="-0.5,0,0.5", q="inf")
# target: (grid, its parts, (part, term) pairs some row meets with equality:
# the either-pair terms of p = 1 and the strict c-inequalities)
SWEEP_PARTS = {
    "besov": (FINITE_Q_GRID, {"besov(i)", "besov(ii)", "besov(iii)", "besov(iv)"},
              {("besov(ii)", "alpha<b"), ("besov(ii)", "c<b+(n+beta)/q-(n+alpha)"),
               ("besov(iii)", "c<b+(1+beta)/q-(1+alpha)/p"), ("besov(iv)", "c<b+(beta+1)/q-alpha")}),
    "lebesgue": (FINITE_Q_GRID, {"lebesgue(i)", "lebesgue(ii)", "lebesgue(iii)", "lebesgue(iv)",
                                 "lebesgue(beta<=-1)"},
                 {("lebesgue(ii)", "alpha<=b"), ("lebesgue(ii)", "c<=b+(n+beta)/q-(n+alpha)"),
                  ("lebesgue(beta<=-1)", "-1<beta")}),
    "bloch": (SUP_GRID, {"bloch(i)", "bloch(ii)", "bloch(iii)"},
              {("bloch(ii)", "alpha<b"), ("bloch(ii)", "c<b+beta-(n+alpha)"),
               ("bloch(i)", "c<=b+beta-(n+alpha)/p"), ("bloch(iii)", "c<=b+beta-alpha")}),
    "hinf": (SUP_GRID, {"hinf(i)", "hinf(ii)", "hinf(iii)"},
             {("hinf(ii)", "alpha<=b"), ("hinf(i)", "c<b-(n+alpha)/p"), ("hinf(iii)", "c<b-alpha")}),
    "wlinf": (SUP_GRID, {"wlinf(i)", "wlinf(ii)", "wlinf(iii)", "wlinf(beta<0)"},
              {("wlinf(i)", "c<b+beta-(n+alpha)/p"), ("wlinf(iii)", "c<b+beta-alpha"),
               ("wlinf(i)", "c<=b+beta-(n+alpha)/p"), ("wlinf(ii)", "c<=b+beta-(n+alpha)")}),
}


@pytest.mark.parametrize("target", SWEEP_PARTS)
def test_sweep_rows_are_the_verdicts_of_classify(target, capsys):
    from bergbesov import cli
    from bergbesov.classifier import OperatorParams, classify

    grid, parts, boundaries = SWEEP_PARTS[target]
    argv = ["sweep", f"--target={target}"] + [f"--{k}={v}" for k, v in grid.items()]
    assert cli.main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == math.prod(len(cli._parse_values(v, allow_inf=True)) for v in grid.values())
    met = set()
    for row in rows:
        verdict = classify(OperatorParams(*map(float, row[:6]), dim=int(row[7])), target)
        assert row[8:] == ["true" if verdict.bounded else "false", verdict.part,
                           "%.17g" % verdict.binding_slack], row
        met |= {(verdict.part, iq.name) for iq in verdict.inequalities if iq.lhs == iq.rhs}
    assert {row[9] for row in rows} == parts
    assert boundaries <= met


def test_sweep_builds_no_parameter_inequality_or_verdict_objects(monkeypatch, capsys):
    from bergbesov import classifier, cli

    built = []
    for cls in (classifier.OperatorParams, classifier.Inequality, classifier.Verdict):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    grid, _, _ = SWEEP_PARTS["lebesgue"]
    assert cli.main(["sweep", "--target=lebesgue"] + [f"--{k}={v}" for k, v in grid.items()]) == 0
    assert capsys.readouterr().out.count("\n") > 1000
    assert built == []
    # the spies see what classify builds
    classifier.classify(classifier.OperatorParams(0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2), "besov")
    assert built == ["OperatorParams", "Inequality", "Inequality", "Verdict"]


def test_rejected_sweep_writes_no_file(tmp_path):
    dest = tmp_path / "grid.csv"
    proc = run_cli("sweep", "--c=-inf:inf:2", "--target", "besov", "--out", str(dest))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not dest.exists()


def test_sweep_rejects_malformed_range():
    proc = run_cli("sweep", "--b", "0:1", "--c", "0", "--alpha", "0",
                   "--target", "besov")
    assert proc.returncode == 2


@pytest.mark.parametrize("pflag", ["inf", "oo"])
def test_infinite_exponent_spellings(pflag):
    out = run_json("classify", "--b", "1", "--c", "-4", "--alpha", "0",
                   "--p", pflag, "--q", "inf", "--target", "bloch")
    assert out["params"]["p"] == float("inf")
    assert out["theorem_part"] == "bloch(iii)"


# Negative values in the number syntax the commands read, each given as its
# own token: argparse alone took only -2 and -.5 there, and refused the rest
# with "expected one argument"
NEGATIVE_TOKENS = {
    "classify-exponents": ("classify", "--b", "-1E+1", "--c", "-1.5e-3", "--alpha", "-.5e0",
                           "--beta", "-2.", "--target", "besov"),
    "classify-wlinf": ("classify", "--b", "-0.25", "--c", "-7e-1", "--alpha", "-1e-9",
                       "--q", "inf", "--target", "wlinf", "--dim", "3"),
    "sweep-ranges-and-lists": ("sweep", "--b", "-1e-3:1:3", "--c", "-1,-2e0,-.5:-1.5e0:3",
                               "--alpha", "-5e-1", "--beta", "-1.5:-.5:2", "--p", "1,inf",
                               "--target", "lebesgue"),
    "kernel-point": ("kernel", "--alpha", "-1e0", "--x", "-1e-1,0.2", "--y", "-.3,-2e-1"),
    "norm-weight": ("norm", "--f", "fuv:-0.4,1.5", "--p", "1", "--alpha", "-5e-1"),
    "probe-floor": ("probe", "--kind", "floor", "--alpha", "-1.5e0"),
}


@pytest.mark.parametrize("args", NEGATIVE_TOKENS.values(), ids=NEGATIVE_TOKENS.keys())
def test_negative_values_are_read_in_their_own_token(args, capsys):
    from bergbesov import cli

    # the same command with every value joined to its flag by '='
    joined = [args[0]] + [f"{flag}={value}" for flag, value in zip(args[1::2], args[2::2])]
    assert cli.main(joined) == 0
    want = capsys.readouterr().out
    assert cli.main(list(args)) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("args, fragment", [
    # an infinite parameter is read, and refused by its check
    (("classify", "--b", "0", "--c", "-inf", "--alpha", "0", "--target", "besov"),
     "error: c must be finite, got -inf"),
    (("sweep", "--b", "-Infinity:0:3", "--target", "besov"), "error: b must be finite, got nan"),
    # an unknown flag still fails, with or without a negative value
    (("classify", "--b", "0", "--c", "0", "--alpha", "0", "--target", "besov", "--bogus", "-1e-3"),
     "unrecognized arguments: --bogus -1e-3"),
    (("classify", "--b", "0", "--c", "0", "--alpha", "0", "--target", "besov", "-1e-3"),
     "unrecognized arguments: -1e-3"),
    (("classify", "--b", "0", "--c", "-x", "--alpha", "0", "--target", "besov"),
     "argument --c: expected one argument"),
    (("sweep", "--b", "0", "-x", "--target", "besov"), "unrecognized arguments: -x"),
], ids=["classify-c-inf", "sweep-infinite-range", "unknown-flag", "stray-value", "flag-like-value",
        "unknown-short-flag"])
def test_negative_tokens_that_are_no_values_still_exit_2(args, fragment):
    proc = run_cli(*args)
    assert proc.returncode == 2 and proc.stdout == ""
    assert fragment in proc.stderr and "Traceback" not in proc.stderr


def _main_in_fresh_process(*args):
    """Run cli.main(args) in a new interpreter; return its exit code, its
    stdout, and the scipy modules it loaded."""
    code = (
        "import contextlib, io, json, sys\n"
        "import bergbesov, bergbesov.cli as cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    rc = cli.main({list(args)!r})\n"
        "mods = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps([rc, out.getvalue(), mods]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_does_not_load_scipy():
    code = ("import sys, bergbesov, bergbesov.cli\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("args", [
    ("classify", "--b", "0", "--c", "0", "--alpha", "0", "--beta", "0",
     "--p", "2", "--q", "2", "--target", "besov"),
    ("sweep", "--b", "0:1:3", "--c=-1,0,1", "--alpha", "0", "--beta", "0",
     "--p", "2", "--q", "2", "--target", "besov"),
    ("kernel", "--alpha", "0", "--x", "0.3,0.1", "--y", "0.2,0.5"),
    ("probe", "--kind", "floor"),
], ids=["classify", "sweep", "kernel", "floor"])
def test_commands_without_quadrature_do_not_load_scipy(args):
    rc, stdout, mods = _main_in_fresh_process(*args)
    assert rc == 0 and stdout
    assert mods == []


SCIPY_FREE_COMMANDS = {
    "apply-fuv": ("apply", "--b", "0.5", "--c", "0", "--f", "fuv:0.3,1", "--x", "0.3,0.2"),
    "apply-const1": ("apply", "--b", "0", "--c", "0", "--f", "const1", "--x", "0.1,0.2,0.3"),
    "norm-dim2": ("norm", "--f", "fuv:0.5,0", "--p", "2", "--alpha", "0.5"),
    "norm-dim3": ("norm", "--f", "fuv:0.5,1", "--p", "3", "--alpha", "0.5", "--dim", "3"),
    "finiteness-dim2": ("probe", "--kind", "finiteness", "--b", "0", "--c", "0"),
    "finiteness-dim3": ("probe", "--kind", "finiteness", "--b", "-0.5", "--c", "0.5",
                        "--alpha", "0.5", "--dim", "3"),
    "ratio-dim2": ("probe", "--kind", "ratio", "--b", "0", "--c", "0"),
    "ratio-dim3": ("probe", "--kind", "ratio", "--b", "0.5", "--c", "0", "--alpha", "0.5",
                   "--beta", "1", "--dim", "3"),
}


def _main_with_unimportable(module, *args):
    """cli.main(args) in a fresh interpreter in which importing module fails."""
    code = ("import sys\n"
            f"sys.modules[{module!r}] = None  # importing it now raises ImportError\n"
            "import bergbesov.cli as cli\n"
            f"sys.exit(cli.main({list(args)!r}))\n")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


@pytest.mark.parametrize("args", SCIPY_FREE_COMMANDS.values(), ids=SCIPY_FREE_COMMANDS.keys())
def test_every_command_runs_with_scipy_unimportable(args):
    proc = _main_with_unimportable("scipy", *args)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["command"] == args[0]
    if args == SCIPY_FREE_COMMANDS["norm-dim2"]:
        # ||f_{0.5,0}||_{L^2_{0.5}} in dim 2 is (V_1.5 / V_0.5)^{1/2} = sqrt(0.6)
        assert abs(out["value"] / math.sqrt(0.6) - 1.0) <= 1e-12


def test_import_does_not_load_numpy():
    code = ("import sys, bergbesov, bergbesov.cli\n"
            "print('numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


NUMPY_FREE_COMMANDS = {
    "classify-besov": ("classify", "--b", "0", "--c", "0", "--alpha", "0", "--q", "2",
                       "--target", "besov"),
    "classify-lebesgue": ("classify", "--b", "0", "--c", "0", "--alpha", "0", "--beta", "-2",
                          "--target", "lebesgue"),
    "classify-bloch": ("classify", "--b", "1", "--c", "-4", "--alpha", "0", "--p", "oo",
                       "--q", "inf", "--target", "bloch"),
    "classify-hinf": ("classify", "--b", "0.5", "--c", "-1", "--alpha", "0.3", "--p", "inf",
                      "--q", "inf", "--target", "hinf", "--dim", "3"),
    "classify-wlinf": ("classify", "--b", "0.5", "--c", "0.1", "--alpha", "0.3", "--p", "2",
                       "--q", "inf", "--target", "wlinf", "--dim", "4"),
    "sweep": ("sweep", "--b=-1:1:3,-1", "--c=0.5:-0.5:3", "--alpha", "0", "--p", "1,oo",
              "--q", "2", "--target", "besov"),
    # the closed-form orders, and a pair with y = 0, sum no series
    "kernel-poisson-dim3": ("kernel", "--alpha", "-1", "--x", "0.5,0.3,-0.1", "--y", "0.2,-0.4,0.6"),
    "kernel-bergman-dim5": ("kernel", "--alpha", "0", "--x", "0.5,0.3,-0.1,0.2,0.1",
                            "--y", "0.2,-0.4,0.6,0.1,-0.3"),
    "kernel-disc": ("kernel", "--alpha", "0.7", "--x", "0.3,0.1", "--y", "0.5,-0.2"),
    "kernel-y-zero": ("kernel", "--alpha", "-4.5", "--x", "0.5,0.2,-0.3,0.6", "--y", "0,0,0,0"),
    # so the floor probe evaluates its rows on floats at those orders
    "floor-disc-0.7": ("probe", "--kind", "floor", "--alpha", "0.7"),
    "floor-disc--1.5": ("probe", "--kind", "floor", "--alpha", "-1.5"),
    "floor-poisson-dim3": ("probe", "--kind", "floor", "--alpha", "-1", "--dim", "3"),
    "floor-bergman-dim5": ("probe", "--kind", "floor", "--alpha", "0", "--dim", "5"),
    # source norms of the radial family are 1-D integrals on Python floats
    "norm-const1-dim2": ("norm", "--f", "const1", "--p", "1", "--alpha", "0.5"),
    "norm-const1-dim3": ("norm", "--f", "const1", "--p", "inf", "--alpha", "0.25", "--dim", "3"),
    "norm-fuv-p1-dim2": ("norm", "--f", "fuv:-0.4,1.5", "--p", "1", "--alpha", "-0.5"),
    "norm-fuv-p1-dim3": ("norm", "--f", "fuv:0.3,-2", "--p", "1", "--alpha", "0", "--dim", "3"),
    "norm-fuv-p2-dim2": ("norm", "--f", "fuv:0.5,0", "--p", "2", "--alpha", "0.5"),
    "norm-fuv-p2-dim3": ("norm", "--f", "fuv:-0.6,0", "--p", "2", "--alpha", "0", "--dim", "3"),
    "norm-fuv-p3-dim2": ("norm", "--f", "fuv:-0.3,1", "--p", "3", "--alpha", "-0.1"),
    "norm-fuv-p3-dim3": ("norm", "--f", "fuv:0.5,1", "--p", "3", "--alpha", "0.5", "--dim", "3"),
    "norm-fuv-inf-dim2": ("norm", "--f", "fuv:0.7,-1", "--p", "inf", "--alpha", "0"),
    "norm-fuv-inf-dim3": ("norm", "--f", "fuv:-0.2,0.5", "--p", "inf", "--alpha", "0.1",
                          "--dim", "3"),
    # b + u = -0.65, -1.25 and -1.02 for the probe's f_{-0.65,1}
    "finiteness-finite": ("probe", "--kind", "finiteness", "--b", "0", "--c", "0",
                          "--alpha", "0.3"),
    "finiteness-divergent": ("probe", "--kind", "finiteness", "--b", "-0.6", "--c", "0",
                             "--alpha", "0.3", "--dim", "3"),
    "finiteness-boundary-band": ("probe", "--kind", "finiteness", "--b", "-0.37", "--c", "0",
                                 "--alpha", "0.3", "--q", "inf", "--target", "bloch"),
    # every T_{b,c} sends a radial input to a constant, a 1-D integral on
    # Python floats, so its transforms and image norms need no arrays:
    # b + u = -1.3 diverges below
    "apply-const1-dim2": ("apply", "--b", "0.5", "--c", "1", "--f", "const1", "--x", "0.3,0.2"),
    "apply-fuv-dim3": ("apply", "--b", "-0.3", "--c", "0", "--f", "fuv:0.4,-1",
                       "--x", "0.1,0.2,-0.3"),
    "apply-fuv-divergent-dim3": ("apply", "--b", "-1.5", "--c", "2", "--f", "fuv:0.2,1",
                                 "--x", "0.1,0.2,0.3"),
    "ratio-besov": ("probe", "--kind", "ratio", "--b", "1", "--c", "0.5", "--alpha", "0.3",
                    "--beta", "0.5", "--q", "3", "--target", "besov", "--dim", "3"),
    "ratio-lebesgue": ("probe", "--kind", "ratio", "--b", "1", "--c", "0.5", "--alpha", "0.3",
                       "--beta", "0.5", "--target", "lebesgue"),
    "ratio-lebesgue-beta-below-minus-1": ("probe", "--kind", "ratio", "--b", "1", "--c", "0.5",
                                          "--alpha", "0.3", "--beta", "-1.5",
                                          "--target", "lebesgue"),
    "ratio-bloch": ("probe", "--kind", "ratio", "--b", "1", "--c", "0.5", "--alpha", "0.3",
                    "--beta", "0.7", "--q", "inf", "--target", "bloch", "--dim", "3"),
    "ratio-hinf": ("probe", "--kind", "ratio", "--b", "1", "--c", "-1", "--alpha", "0.3",
                   "--q", "inf", "--target", "hinf"),
    "ratio-wlinf-negative-beta": ("probe", "--kind", "ratio", "--b", "1", "--c", "0.5",
                                  "--alpha", "0.3", "--beta", "-0.5", "--q", "inf",
                                  "--target", "wlinf"),
    "norm-image-besov-q1.5": ("norm", "--b", "0.5", "--c", "0.25", "--f", "fuv:0.3,0.5",
                              "--q", "1.5", "--beta", "0.3"),
    "norm-image-besov-q3-t1": ("norm", "--b", "-0.3", "--c", "1", "--f", "const1", "--q", "3",
                               "--beta", "-2.5", "--dim", "3"),
    "norm-image-bloch": ("norm", "--b", "0.5", "--c", "0", "--f", "fuv:-0.8,-1",
                         "--target", "bloch", "--beta", "-0.5", "--dim", "3"),
}


@pytest.mark.parametrize("args", NUMPY_FREE_COMMANDS.values(), ids=NUMPY_FREE_COMMANDS.keys())
def test_classifier_commands_run_with_numpy_unimportable(args):
    want = run_cli(*args)
    got = _main_with_unimportable("numpy", *args)
    assert want.returncode == 0 and want.stdout
    assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, "")


def test_sweep_to_file_with_numpy_unimportable(tmp_path):
    args = NUMPY_FREE_COMMANDS["sweep"]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    assert run_cli(*args, "--out", str(want)).returncode == 0
    proc = _main_with_unimportable("numpy", *args, "--out", str(got))
    assert proc.returncode == 0, proc.stderr
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("args", [
    ("classify", "--b", "0", "--c", "0", "--alpha", "0", "--p", "half", "--target", "besov"),
    ("sweep", "--b", "0:1", "--c", "0", "--alpha", "0", "--target", "besov"),
    ("kernel", "--alpha", "0", "--x", "0.1,0.2", "--y", "0.1,0.2,0.3"),
    ("kernel", "--alpha", "0", "--x", "1,0", "--y", "1,0"),
    ("norm", "--f", "fuv:1", "--p", "2"),
    ("norm", "--f", "fuv:0.3,0", "--p", "0.5"),
    ("norm", "--f", "const1", "--alpha", "0.5"),
    ("apply", "--b", "0", "--c", "0", "--f", "const1", "--x", "0.6,0.8"),
    ("apply", "--b", "nan", "--c", "0", "--f", "fuv:0.3,1", "--x", "0.1,0"),
    ("apply", "--b", "0", "--c", "0", "--f", "fuv:1", "--x", "0.1,0"),
    ("norm", "--b", "0", "--c", "0", "--f", "const1", "--q", "2", "--radial-nodes", "32"),
], ids=["classify", "sweep", "kernel-dims", "kernel-divergent", "norm-fuv-spec", "norm-p-half",
        "norm-no-p", "apply-outside-the-ball", "apply-b-nan", "apply-fuv-spec",
        "norm-image-radial-nodes"])
def test_malformed_classifier_commands_exit_2_with_numpy_unimportable(args):
    proc = _main_with_unimportable("numpy", *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


PAST_THE_DOUBLES = ("norm", "--f", "fuv:0.3,-200", "--p", "2")
PAST_THE_DOUBLES_STDOUT = """{
  "command": "norm",
  "mode": "source-space",
  "f": "fuv:0.3,-200",
  "p": 2,
  "alpha": 0,
  "dim": 2,
  "method": "radial-adaptive",
  "rule": null,
  "value": Infinity,
  "finite": true
}
"""


@pytest.mark.parametrize("numpy", ["importable", "unimportable"])
def test_norm_whose_integral_is_past_the_double_range_prints_infinity(numpy):
    # the L^2 integrand of f_{0.3,-200}, e^{-1.6 w} (1+w)^{400}, peaks near
    # e^{1810}, and the norm is about 6.7e393: past the doubles, so Infinity,
    # with finite true as for a sup past them, and no warning or error
    if numpy == "importable":
        proc = run_cli(*PAST_THE_DOUBLES)
    else:
        proc = _main_with_unimportable("numpy", *PAST_THE_DOUBLES)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, PAST_THE_DOUBLES_STDOUT, "")


@pytest.mark.parametrize("dim, want", [
    # 40-digit mpmath values: the integral, about 1.3e420, is past the
    # doubles, and its square root is not
    (2, 1.1367423188967590e210),
    (3, 1.3922193251625878e210),
], ids=["dim2", "dim3"])
def test_norm_whose_integral_is_past_the_double_range_but_the_norm_is_not(dim, want):
    out = run_json("norm", "--f", "fuv:0.3,-120", "--p", "2", "--dim", str(dim))
    assert out["finite"] is True and out["method"] == "radial-adaptive"
    assert out["value"] == pytest.approx(want, rel=1e-12)


def test_a_test_function_call_and_the_expansion_module_load_no_operators_or_quadrature():
    # evaluating f_{u,v} on points is array work in the radial module, and
    # the expansions take normalization_V from it too
    code = ("import json, sys\n"
            "from bergbesov import TestFunction\n"
            "vals = TestFunction(0.5, 1.0)([[0.6, 0.0], [0.0, 0.0]])\n"
            "loaded = ['numpy' in sys.modules, 'bergbesov.operators' in sys.modules]\n"
            "import bergbesov.expansion\n"
            "loaded += ['bergbesov.quadrature' in sys.modules, 'bergbesov.operators' in sys.modules]\n"
            "print(json.dumps([loaded, vals.tolist()]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded, vals = json.loads(proc.stdout)
    assert loaded == [True, False, False, False]
    assert vals[0] == pytest.approx(0.8 / (1.0 - math.log(0.64)), rel=1e-15)
    assert vals[1] == 1.0


def test_radial_layer_and_probes_load_numpy_only_for_array_work():
    # the radial module, the probe module and the radial family import no
    # NumPy; the ratio probe's norms are radial too, so it loads neither
    # NumPy nor the operators, and the floor probe loads NumPy for its
    # kernel batch, but not the operators
    floor = ("probe", "--kind", "floor", "--alpha", "0.5", "--dim", "3")
    ratio = ("probe", "--kind", "ratio", "--b", "0.5", "--c", "0", "--alpha", "0.3", "--dim", "3")
    code = ("import contextlib, io, json, sys\n"
            "import bergbesov.radial, bergbesov.probe\n"
            "from bergbesov import TestFunction\n"
            "loaded = ['numpy' in sys.modules]\n"
            "import bergbesov.cli as cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    rc = [cli.main({list(ratio)!r})]\n"
            "    loaded += ['numpy' in sys.modules, 'bergbesov.operators' in sys.modules]\n"
            f"    rc.append(cli.main({list(floor)!r}))\n"
            "loaded += ['numpy' in sys.modules, 'bergbesov.operators' in sys.modules]\n"
            "value = TestFunction(0.5, 0.0)([0.6, 0.0])\n"
            "print(json.dumps([loaded, rc, out.getvalue(), value]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded, rc, stdout, value = json.loads(proc.stdout)
    assert loaded == [False, False, False, True, False]
    assert rc == [0, 0]
    assert stdout == run_cli(*ratio).stdout + run_cli(*floor).stdout
    assert value == pytest.approx(0.8, rel=1e-15)


@pytest.mark.parametrize("args", [
    ("apply", "--b", "0.5", "--c", "1", "--f", "fuv:0.3,1", "--x", "0.3,0.2,0.1"),
    ("norm", "--b", "0.5", "--c", "1", "--f", "const1", "--q", "3", "--beta", "-2.5"),
    ("norm", "--b", "0.5", "--c", "1", "--f", "fuv:0.3,1", "--target", "bloch", "--dim", "3"),
], ids=["apply", "norm-besov", "norm-bloch"])
def test_radial_transforms_and_image_norms_load_neither_numpy_nor_the_operators(args):
    code = ("import contextlib, io, json, sys\n"
            "import bergbesov.cli as cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    rc = cli.main({list(args)!r})\n"
            "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'\n"
            "              or m in ('bergbesov.operators', 'bergbesov.expansion',\n"
            "                       'bergbesov.kernel', 'bergbesov.quadrature'))\n"
            "print(json.dumps([rc, out.getvalue(), mods]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    rc, stdout, mods = json.loads(proc.stdout)
    assert (rc, mods) == (0, [])
    out = json.loads(stdout)
    assert out["rule"] is None and math.isfinite(out["value"]) and out["value"] > 0.0


def test_kernel_module_loads_numpy_only_for_a_series():
    # importing the kernel module, and the certificate, import no NumPy; an
    # order without a closed form loads it for its coefficient table
    args = ["kernel", *next(a for a in KERNEL_STDOUT if a[1] == "-4.5")]
    code = ("import contextlib, io, json, sys\n"
            "import bergbesov.kernel as kernel\n"
            "loaded = ['numpy' in sys.modules]\n"
            "kernel.truncation_degree(kernel.KernelSpec(-4.5, 4), 0.9, 0.9)\n"
            "loaded.append('numpy' in sys.modules)\n"
            "import bergbesov.cli as cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    rc = cli.main({args!r})\n"
            "loaded.append('numpy' in sys.modules)\n"
            "print(json.dumps([loaded, rc, out.getvalue()]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded, rc, stdout = json.loads(proc.stdout)
    assert loaded == [False, False, True]
    assert (rc, stdout) == (0, KERNEL_STDOUT[tuple(args[1:])])


def test_sweep_csv_is_frozen(tmp_path):
    # negative and repeated grid values, a range with a negative step, and
    # inf in three spellings; the digest is that of the CSV the per-row
    # formatting wrote before each value was formatted once
    args = ("sweep", "--b=-1:1:3,-1", "--c=0.5:-0.5:3", "--alpha=0,-0.75", "--beta=-1.5,0.25",
            "--p=1,oo,2,inf", "--q=inf,Infinity", "--target", "bloch", "--dim", "3")
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    dest = tmp_path / "grid.csv"
    assert run_cli(*args, "--out", str(dest)).returncode == 0
    assert dest.read_bytes() == proc.stdout.encode()
    assert len(proc.stdout.splitlines()) == 1 + 4 * 3 * 2 * 2 * 4 * 2
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "2327d7c5c4bfa88c2ce5507f619ffca52d16a517b36ebc3869105ad92c3dd10c")


# b and c on a 1/4 grid, so hundreds of rows of every part meet its boundary
# with slack 0; alpha = 0.3, beta = 0.1, p = 1.5 and q = 3 round, so a
# threshold formed in another order moves some slacks
REGIME_GRID = ("--b=-1:1:9", "--c=-4:1:21", "--alpha=-0.5,0,0.3,1")
# target: (flags, sha256 of the CSV)
FROZEN_SWEEPS = {
    # p = 1, 1 < p <= q, q < p and p = inf; for lebesgue beta <= -1 too
    "besov": ((*REGIME_GRID, "--beta=-2,-1.5,-1,0.1,2", "--p=1,1.5,2,4,inf", "--q=1,3,4"),
              "ca3b86f4d156f4b16b0dbe00c2003178cbe1a605e32431ed12f51b71c53011f8"),
    "lebesgue": ((*REGIME_GRID, "--beta=-2,-1.5,-1,0.1,2", "--p=1,1.5,2,4,inf", "--q=1,3,4"),
                 "529de024b0c3853b1b062b7d786e85abca70ad55af452b4d664fa0198ca6e2dd"),
    # through beta = 0, where the c-inequality turns strict
    "wlinf": ((*REGIME_GRID, "--beta=-0.5,-0,0,0.1,1e-300", "--p=1,1.5,4,inf", "--q=inf", "--dim=3"),
              "0b76b3c474cd534eb1a22b0af80348680eae41236dc828c71f857e7624d6d564"),
}


@pytest.mark.parametrize("target", FROZEN_SWEEPS)
def test_sweep_csv_of_every_regime_is_frozen(target, capsys):
    # the digests are those of the CSV each tuple's own inequality system
    # wrote, before the systems were planned once per (alpha, beta, p, q)
    from bergbesov import cli

    flags, digest = FROZEN_SWEEPS[target]
    assert cli.main(["sweep", f"--target={target}", *flags]) == 0
    text = capsys.readouterr().out
    rows = [line.split(",") for line in text.splitlines()[1:]]
    parts = {row[9] for row in rows}
    assert len(parts) == (5 if target == "lebesgue" else 4)
    assert parts - {row[9] for row in rows if float(row[10]) == 0.0} <= {"wlinf(beta<0)"}
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _classify_tuples():
    """(b, c, alpha, beta, p, q, dim, target) tuples over every target: 3 800
    drawn at random, each followed by its c-boundary (the rhs of its
    c-inequality, read from classify) and the c-boundary of the tuple moved
    onto its first-inequality boundary, where they exist."""
    from bergbesov.classifier import OperatorParams, classify

    rng = random.Random(2028)
    targets = ("besov", "lebesgue", "bloch", "hinf", "wlinf")
    out = []
    for draw in range(3_800):
        target = targets[draw % 5]
        p = rng.choice((1.0, 1.3, 2.0, 3.0, 6.0, math.inf))
        q = rng.choice((1.0, 1.5, 2.0, 4.0)) if target in ("besov", "lebesgue") else math.inf
        dim = rng.choice((2, 3, 5))
        b, c, alpha, beta = (rng.choice((rng.uniform(-3.0, 3.0), rng.randrange(-12, 13) / 4))
                             for _ in range(4))
        case = [b, c, alpha, beta, p, q, dim, target]
        out.append(tuple(case))
        for first in (False, True):
            if first:
                case[0] = alpha if p == 1.0 else alpha - 1.0 if p == math.inf else (alpha + 1.0) / p - 1.0
            verdict = classify(OperatorParams(*case[:7]), target)
            if len(verdict.inequalities) > 1:
                case[1] = verdict.inequalities[1].rhs
                out.append(tuple(case))
    return out


def test_classify_json_is_frozen(capsys):
    # the classify command's JSON on random and on-boundary tuples of every
    # target; the digest is that of the JSON each tuple's own inequality
    # system gave, before the systems were planned once per (alpha, beta, p, q)
    import argparse

    from bergbesov import cli

    digest = hashlib.sha256()
    for b, c, alpha, beta, p, q, dim, target in _classify_tuples():
        args = argparse.Namespace(b=b, c=c, alpha=alpha, beta=beta, p=p, q=q, dim=dim, target=target)
        assert cli._cmd_classify(args) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "622064d89113eb3c22fe6cc6947a415c9443d66ee6971744eefc6532fb434e84"


RANGE_GRID = [-2.5, -1.0, -1e-300, 0.0, 0.3, 1.0, 7.25]


@pytest.mark.parametrize("count", [1, 2, 3, 7, 10, 101])
def test_range_expansion_equals_linspace(count):
    import numpy as np

    from bergbesov import cli
    from bergbesov.errors import _linspace

    pairs = list(itertools.product(RANGE_GRID, repeat=2))  # a == b and negative steps
    pairs += [(0.0, 5e-324), (-1e-320, 1e-320), (1e308, -1e308), (0.0, math.inf)]
    for a, b in pairs:
        with np.errstate(all="ignore"):
            want = [v.hex() for v in np.linspace(a, b, count).tolist()]
        assert [v.hex() for v in _linspace(a, b, count)] == want, (a, b, count)
        spec = f"{a!r}:{b!r}:{count}"
        if (a, b) == (1e308, -1e308):
            # stop - start overflows: the range is refused by name
            with pytest.raises(ValueError) as refused:
                cli._parse_values(spec)
            assert str(refused.value).startswith(f"range '{spec}' spans past the double range")
        else:
            assert [v.hex() for v in cli._parse_values(spec)] == want, (a, b, count)


def test_emit_prints_numpy_scalars_as_before():
    import numpy as np

    from bergbesov import cli

    assert cli._emit(np.int64(-7)) == "-7"
    assert cli._emit(np.uint8(200)) == "200"
    assert cli._emit(np.float64(0.1)) == "0.10000000000000001"
    assert cli._emit(np.float32(0.1)) == "0.10000000149011612"
    assert cli._emit(np.float64(-np.inf)) == "-Infinity"
    assert cli._emit(np.float64(np.nan)) == "NaN"
    assert cli._emit({"k": [np.int64(3), np.float64(2.0)]}) == '{\n  "k": [\n    3,\n    2\n  ]\n}'
    assert cli._emit(True) == "true" and cli._emit(np.bool_(True)) == '"True"'


def test_unconverged_radial_integral_exits_2(monkeypatch, capsys):
    from bergbesov import cli, quadrature, radial

    # one halving of the double-exponential step cannot reach its tolerance
    monkeypatch.setattr(radial, "_DE_MAX_LEVEL", 1)
    rc = cli.main(["norm", "--f", "fuv:0.5,0", "--p", "2", "--alpha", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: double-exponential rule on [")
    with pytest.raises(quadrature.ConvergenceError):
        quadrature.radial_power_log_value(0.5, 0.0, dim=2)
