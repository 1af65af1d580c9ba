"""Command-line behavior: determinism, formats, exit codes."""

import hashlib
import math
import warnings

import pytest

from cyclocubic import cli, density, lfunctions, verify
from cyclocubic._primes import MR_PROOF_BOUND, primes_up_to
from cyclocubic.fields import Family, enumerate_family, record_from_line
from test_tooling import _fresh_python


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_catalog(tmp_path, capsys):
    target = tmp_path / "catalog.txt"
    code, _, _ = run(["enumerate", "--x", "2000", "--out", str(target)], capsys)
    assert code == 0
    first = target.read_bytes()
    lines = first.decode().splitlines()
    assert lines[:3] == ["# cyclocubic catalog", "# x=2000", "# count=3"]
    body = [l for l in lines if not l.startswith("#")]
    assert len(body) == 3
    records = [record_from_line(l) for l in body]
    assert records == enumerate_family(2000).records()
    # rerun is byte-identical
    code, _, _ = run(["enumerate", "--x", "2000", "--out", str(target)], capsys)
    assert code == 0 and target.read_bytes() == first


def test_enumerate_unwritable_path(capsys):
    bad = "/nonexistent-dir/catalog.txt"
    code, _, err = run(["enumerate", "--x", "2000", "--out", bad], capsys)
    assert code == cli.EXIT_IO
    assert "nonexistent-dir" in err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate"])  # --x is required
    assert exc.value.code == cli.EXIT_USAGE
    code, _, err = run(["enumerate", "--x", "50"], capsys)
    assert code == cli.EXIT_USAGE and "1000" in err
    for command in ("enumerate", "density"):  # past the int64 range of the enumeration
        code, _, err = run([command, "--x", str(2**79 + 1)], capsys)
        assert code == cli.EXIT_USAGE and "2**79" in err
    code, _, err = run(["density", "--x", "2000", "--beta", "1.5"], capsys)
    assert code == cli.EXIT_USAGE
    with pytest.raises(SystemExit) as exc:  # density takes no catalog
        cli.main(["density", "--x", "1000", "--catalog", "c.txt"])
    assert exc.value.code == cli.EXIT_USAGE and "--catalog" in capsys.readouterr().err
    # at so narrow a support fhat(0) = 1/beta is inf, so the table would be too
    for x, beta in (("1000", "1e-320"), ("100000000", "1e-310")):
        code, out, err = run(["density", "--x", x, "--beta", beta], capsys)
        assert code == cli.EXIT_USAGE and out == "", beta
        assert "--beta" in err and "Traceback" not in err and err.count("\n") == 1, beta
    code, out, err = run(["charsum", "--primes", ","], capsys)  # would check nothing
    assert code == cli.EXIT_USAGE and out == "" and "--primes" in err
    code, _, err = run(["charsum", "--primes", "3,7"], capsys)
    assert code == cli.EXIT_USAGE and "p = 3" in err
    code, _, err = run(["charsum", "--primes", "8"], capsys)
    assert code == cli.EXIT_USAGE and "8 is not prime" in err
    code, _, err = run(["charsum", "--ymax", "1"], capsys)
    assert code == cli.EXIT_USAGE and "--ymax" in err
    # psi_12 fooled Miller-Rabin to the bases 2..37; from psi_13 on no answer is proven
    code, _, err = run(["charsum", "--primes", "7,318665857834031151167461"], capsys)
    assert code == cli.EXIT_USAGE and "318665857834031151167461 is not prime" in err
    code, out, err = run(["charsum", "--primes", "7,3317044064679887385961981"], capsys)
    assert code == cli.EXIT_USAGE and out == "" and str(MR_PROOF_BOUND) in err
    assert "Traceback" not in err and err.count("\n") == 1
    # below s = 2 or p0 = 10**6 the generating-series probes cannot be Cauchy
    # to 1e-8 between p0 // 10 and p0, so these were false FAILs (exit 2); from
    # s = 19.24 on, up to inf (1e400 parses to it), every left-side Euler factor
    # rounds to 1.0, so both probes passed with lhs = rhs = 1.0 and checked nothing
    for s in ("1", "0", "-2", "1.1", "1.5", "1.999", "inf", "1e400", "20", "30", "1e308"):
        code, out, err = run(["verify", "--s", s], capsys)
        assert code == cli.EXIT_USAGE and out == "" and "--s" in err, s
        assert err.count("\n") == 1, s
    for argv in (["--p0", "0"], ["--p0", "69"], ["--p0", "70"], ["--p0", "1000"],
                 ["--p0", "100000"], ["--p0", "999999"], ["--ymax", "10", "--p0", "70"]):
        code, out, err = run(["verify"] + argv, capsys)
        assert code == cli.EXIT_USAGE and out == "" and "--p0" in err, argv
        assert err.count("\n") == 1, argv
    # past 2**40 a sieve would need terabytes; from 2**63 numpy raised a traceback
    for argv in (["charsum", "--ymax", str(10**20)], ["verify", "--ymax", str(10**20)],
                 ["verify", "--p0", str(10**20)], ["charsum", "--ymax", str(2**40 + 1)],
                 ["verify", "--p0", str(2**40 + 1)]):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == "" and argv[1] in err, argv
        assert "2**40" in err and "Traceback" not in err and err.count("\n") == 1, argv
    code, _, err = run(["verify", "--ymax", "1"], capsys)
    assert code == cli.EXIT_USAGE and "--ymax" in err


def test_usage_errors_refuse_before_any_work(capsys, monkeypatch):
    # every refusal is a check run before the enumeration's sieve and the
    # registry that verify and charsum build first
    def unreachable(n):
        raise AssertionError(f"work up to {n} started before the input was refused")

    monkeypatch.setattr("cyclocubic.fields.smallest_factor_sieve", unreachable)
    monkeypatch.setattr("cyclocubic.verify.registry_table", unreachable)
    test_usage_errors(capsys)


# (the library call that refuses an input, the argv whose stderr line is its message)
LIBRARY_REFUSALS = [
    (lambda: enumerate_family(50), ["enumerate", "--x", "50"]),
    (lambda: enumerate_family(2**79 + 1), ["enumerate", "--x", str(2**79 + 1)]),
    (lambda: density.fejer_pair(1.5), ["density", "--x", "2000", "--beta", "1.5"]),
    (lambda: density.fejer_pair(1e-320), ["density", "--x", "1000", "--beta", "1e-320"]),
    (lambda: density.family_average(enumerate_family(10**6), density.fejer_pair(1e-306)),
     ["density", "--x", "1000000", "--beta", "1e-306"]),
    (lambda: verify.run_probe_suite(s=1.5), ["verify", "--s", "1.5"]),
    (lambda: verify.run_probe_suite(s=20.0), ["verify", "--s", "20"]),
    (lambda: verify.run_probe_suite(p0=10**5), ["verify", "--p0", "100000"]),
    (lambda: verify.run_probe_suite(p0=10**20), ["verify", "--p0", str(10**20)]),
    (lambda: verify.run_probe_suite(charsum_y=1), ["verify", "--ymax", "1"]),
    (lambda: verify.run_probe_suite(charsum_y=10**20), ["verify", "--ymax", str(10**20)]),
    (lambda: verify.char_sums(3, [10]), ["charsum", "--primes", "3"]),
    (lambda: verify.char_sums(8, [10]), ["charsum", "--primes", "8"]),
    (lambda: verify.char_sums(MR_PROOF_BOUND, [10]),
     ["charsum", "--primes", str(MR_PROOF_BOUND)]),
]


@pytest.mark.parametrize("call, argv", LIBRARY_REFUSALS,
                         ids=[" ".join(argv) for _, argv in LIBRARY_REFUSALS])
def test_library_refuses_as_the_cli_does(capsys, call, argv):
    # each input rule lives in the library function that runs it: a library
    # caller gets the ValueError whose text the command prints, exit 1
    with pytest.raises(ValueError) as refusal:
        call()
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err == f"{refusal.value}\n"


def test_out_of_memory_exits_cleanly(capsys, monkeypatch):
    # an --x near X_MAX passes validation, but its sieve to sqrt(2X) cannot
    # be allocated; the stub raises as numpy does, without allocating
    def no_memory(n):
        raise MemoryError(f"cannot allocate a sieve to {n}")

    monkeypatch.setattr("cyclocubic.fields.smallest_factor_sieve", no_memory)
    for command in ("enumerate", "density"):
        code, out, err = run([command, "--x", "604462909807314587353087"], capsys)
        assert code == cli.EXIT_USAGE and out == "", command
        assert "memory" in err and "Traceback" not in err and err.count("\n") == 1, command


def test_tiny_beta_writes_only_its_message(capsys):
    # a table value that is not finite is a usage error: at beta = 1e-320,
    # fhat(0) = 1/beta and the gamma terms are inf, and at 1e-306 the 67 finite
    # gamma terms of X = 1e6 sum past the float range.  The overflow raises
    # no RuntimeWarning, so stderr holds the one --beta line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, beta in (("1000", "1e-320"), ("1000000", "1e-306")):
            code, out, err = run(["density", "--x", x, "--beta", beta], capsys)
            assert code == cli.EXIT_USAGE and out == "", beta
            assert "--beta" in err and err.count("\n") == 1, beta
        # a tiny beta whose values are all finite writes its table
        code, out, err = run(["density", "--x", "1000", "--beta", "1e-12"], capsys)
    assert code == cli.EXIT_OK and err == ""
    rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row[5:])
    assert "# average=" in out and "# classification=U" in out
    # no p^2 < Delta^beta, so every square sum is empty: 0.0, never -0.0
    assert "# references=U:0.0 Sp:0.0 O:0.0 SOeven:0.0 SOodd:0.0" in out.splitlines()


def test_density_table(tmp_path, capsys):
    out = tmp_path / "density.csv"
    code, _, _ = run(["density", "--x", "200000", "--beta", "0.2", "--out", str(out)],
                     capsys)
    assert code == 0
    text = out.read_text()
    assert "# x=200000 beta=0.2 mode=kummer" in text
    assert "D,e3,d1,d2,conductor,archimedean,gamma_term,prime_sum,total" in text
    assert "# classification=" in text
    rows = [l for l in text.splitlines() if l and not l.startswith(("#", "D,"))]
    assert len(rows) == len(enumerate_family(200000))
    for row in rows:
        parts = row.split(",")
        assert len(parts) == 9
        arch, gam, ps, total = map(float, parts[5:])
        assert abs(total - (arch - ps + gam)) < 1e-12


def test_density_has_no_mode_option(capsys):
    # the one character is the Kummer symbol; the paper-literal chi_p carries no
    # L-function, so density takes no option that would switch to it
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--x", "1000", "--mode", "paper"])
    out, err = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE and out == ""
    assert err.splitlines()[-1] == "cyclocubic: error: unrecognized arguments: --mode paper"
    assert "Traceback" not in err


def test_density_tiny_beta_zero_prime_sums(tmp_path, capsys):
    out = tmp_path / "density_tiny.csv"
    code, _, _ = run(["density", "--x", "200000", "--beta", "0.02",
                      "--out", str(out)], capsys)
    assert code == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith(("#", "D,"))]
    assert rows and all(float(r.split(",")[7]) == 0.0 for r in rows)


def test_charsum_output(tmp_path, capsys):
    out = tmp_path / "charsum.csv"
    code, _, _ = run(["charsum", "--primes", "13", "--ymax", "1000",
                      "--out", str(out)], capsys)
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[1].startswith("# ymax=1000 grid=")
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith(("#", "p,"))]
    ten = next(r for r in rows if r[1] == "10")
    assert (ten[2], ten[3]) == ("0", "0")  # S_13(10) = 0 exactly
    for r in rows:
        assert float(r[5]) <= 1.1  # trivial bound on the fitted exponent


def test_charsum_at_primes_past_int64(tmp_path, capsys):
    # a split and an inert prime past 2^31, and an inert one past 2^63
    primes = [2147483659, 2147483693, 9223372036854775907]
    out = tmp_path / "charsum.csv"
    code, _, _ = run(["charsum", "--primes", ",".join(map(str, primes)), "--ymax", "1000",
                      "--out", str(out)], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[3:]]
    assert [int(r[0]) for r in rows] == [p for p in primes for _ in verify.log_grid(1000)]
    for p, y, a, b, magnitude, _ in rows:
        cs = verify.char_sum(int(p), int(y))
        assert (int(a), int(b), float(magnitude)) == (cs.value.a, cs.value.b, cs.magnitude)


@pytest.mark.parametrize("ymax, top", [(50000, 39811), (30000, 25119), (100000, 100000)])
def test_charsum_grid_ends_at_ymax(tmp_path, capsys, ymax, top):
    out = tmp_path / "charsum.csv"
    code, _, _ = run(["charsum", "--primes", "7", "--ymax", str(ymax), "--out", str(out)],
                     capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    grid = [int(y) for y in lines[1].split("grid=")[1].split(",")]
    assert grid[-1] == top
    assert [int(row.split(",")[1]) for row in lines[3:]] == grid


def test_verify_command(tmp_path, capsys, monkeypatch):
    # shrink the battery so the test stays quick
    import cyclocubic.verify as verify_mod

    seen = {}

    def tiny_suite(**kwargs):
        seen.update(kwargs)
        return [verify_mod.splitting_oracle_probe(60, 60),
                verify_mod.family_count_scaling([10**4, 10**5, 10**6])]

    monkeypatch.setattr(cli.verify_mod, "run_probe_suite", tiny_suite)
    out = tmp_path / "report.txt"
    code, _, _ = run(["verify", "--s", "3", "--out", str(out)], capsys)
    assert code == 0
    assert seen["s"] == 3.0
    text = out.read_text()
    assert "s=3.0" in text
    assert "splitting_oracle: PASS" in text
    assert text.count("\n") >= 4  # one summary line per probe plus header


def test_verify_accepts_s_below_the_rounding_bound(tmp_path, capsys):
    # at s = 19 the left side's factor at ell = 7 is still not 1.0, so both
    # generating-series probes compare products other than 1
    out = tmp_path / "report.txt"
    code, _, err = run(["verify", "--s", "19", "--out", str(out)], capsys)
    assert code == 0 and err == ""
    lines = [line for line in out.read_text().splitlines() if line.startswith("genseries")]
    assert len(lines) == 2 and all(" lhs=1.0 " not in line for line in lines), lines


def test_verify_exit_code_on_failure(tmp_path, capsys, monkeypatch):
    import cyclocubic.verify as verify_mod

    def failing_suite(**kwargs):
        return [verify_mod.ProbeReport("stub", verify_mod.FAIL, [], {})]

    monkeypatch.setattr(cli.verify_mod, "run_probe_suite", failing_suite)
    code, _, _ = run(["verify", "--out", str(tmp_path / "r.txt")], capsys)
    assert code == cli.EXIT_ASSERTION


DENSITY_1E8 = ("density", "--x", "100000000", "--beta", "0.4")
# pinned bytes: refactors must leave these outputs identical
GOLDEN = {
    ("enumerate", "--x", "100000000"):
        "547203777580b4a1a7691d78257f0ea8fa19d27287e281a3e76a8c7513ce8f2c",
    ("charsum", "--primes", "7,13", "--ymax", "1000"):
        "979875225a0335c8528c91606fff4e6c5b532ecce186059ac3cd2f028a091032",
    ("density", "--x", "1000000", "--beta", "0.4"):
        "7798225375ee0e8b828dedaabd3b1e522d80b59ba34c4cc5bc9afa508fa1d263",
    ("density", "--x", "1000000"):
        "24874544d84ef8c7b3382fb60fa382c055ee8fff7a63c3bd24e9502a3917e8f7",
    ("verify",): "51b5e682d0b96ecf85e3c1ffec1913f95c341f1089c6626b32ad4a806a6a7a45",
    ("enumerate", "--x", "10000000000"):
        "d3b81d4e4d8576211a824016e4a696097c241257c48ec86d9d3afcfaa397525b",
    DENSITY_1E8: "5b5c331bae25eb8ee0f01ad66ccd3f47a11161a3420b4dd99c90870d5b588251",
    ("density", "--x", "10000000000", "--beta", "0.2"):
        "483ea9c1117529ec161901723e81bf67c91831b28c6c642de404aeb56f818bf6",
    ("charsum", "--primes", "7,13,31", "--ymax", "100000"):
        "85fc1cb22a76242c6ab9d36bd29c8bab12ec2aa17f92275472fb6e238f1fd1ec",
    ("charsum", "--primes", "2,5,11,17,97", "--ymax", "100000"):
        "d4a377cd451a1aa34d5ae9de56dc64df59dabdabc81d7aec1422de7e324da408",
    ("verify", "--p0", "10000000"):  # the generating-series symbols of 665k split ell
        "a02c8a314e548ebb6c6af99e2d563e17bd1a0b5067dadddb2e15f79d51959e0f",
    # split primes past the registry table, the second past int64: the norm-equation solve
    ("charsum", "--primes", "2305843009213693951,3317044064679887385961813", "--ymax", "1000"):
        "ca3cfb1f350b38173a3c94d192ec25781ea03c0a7db2f82941ef41395c153003",
}


@pytest.mark.parametrize("argv, sha256", [(list(argv), sha) for argv, sha in GOLDEN.items()])
def test_golden_outputs(tmp_path, capsys, argv, sha256):
    out = tmp_path / "out.txt"
    code, _, _ = run(argv + ["--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("argv", [DENSITY_1E8, ("verify",)])
def test_golden_outputs_under_the_cli_start_up(tmp_path, argv):
    # the cases above run in this process, under pytest's numpy; these run as
    # `python -m cyclocubic.cli`, which starts numpy with one BLAS thread, and
    # verify's polyfits are the package's LAPACK calls
    out = tmp_path / "out.txt"
    _fresh_python("-m", "cyclocubic.cli", *argv, "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]


def test_density_factors_nothing(tmp_path, capsys, monkeypatch):
    # the family's primes come from the enumeration as columns, so neither
    # the enumeration nor lambda_table factors a label; same pinned bytes
    def no_factoring(n):
        raise AssertionError(f"the density path factored {n}")

    monkeypatch.setattr("cyclocubic.fields.factorize", no_factoring)
    monkeypatch.setattr("cyclocubic._primes.factorize", no_factoring)
    out = tmp_path / "out.txt"
    code, _, _ = run([*DENSITY_1E8, "--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[DENSITY_1E8]


def test_density_keeps_its_family_as_columns(tmp_path, capsys, monkeypatch):
    # no label is built per field, and lambda_table reads the generators above
    # the q | d1 d2 off Family.gens: prime_above is asked for the column
    # primes p < Delta^beta only, once each; same pinned bytes
    def no_labels(self):
        raise AssertionError("the density path built a label per field")

    calls = []
    real = lfunctions.prime_above
    monkeypatch.setattr(Family, "labels", no_labels)
    monkeypatch.setattr(lfunctions, "prime_above", lambda p: calls.append(p) or real(p))
    out = tmp_path / "out.txt"
    code, _, _ = run([*DENSITY_1E8, "--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[DENSITY_1E8]
    column_primes = primes_up_to(int((2 * 10**8) ** 0.4) + 1)  # Delta <= 2X
    assert calls and len(calls) == len(set(calls)) and set(calls) <= set(column_primes)


def test_empty_family(capsys):
    # conductors 43 and 61 are adjacent and 61 / 43 > sqrt(2): no discriminant
    # lies in [1850, 3700]
    code, out, err = run(["density", "--x", "1850"], capsys)
    assert code == cli.EXIT_USAGE and out == "" and "no fields" in err
    code, out, _ = run(["enumerate", "--x", "1850"], capsys)
    assert code == 0 and out.splitlines() == ["# cyclocubic catalog", "# x=1850", "# count=0"]


def test_density_surfaces_other_runtime_errors(monkeypatch):
    # only a table value that is not finite is a usage error; corrupt
    # arithmetic must still raise, a ValueError past the input checks too
    for name, error in (("gamma_terms", RuntimeError), ("prime_sums", ValueError)):
        def corrupt(columns, tf, error=error):
            raise error("arithmetic is corrupt")

        with monkeypatch.context() as patch:
            patch.setattr(cli.density_mod, name, corrupt)
            with pytest.raises(error, match="corrupt"):
                cli.main(["density", "--x", "2000"])
