"""Command-line behavior: determinism, formats, exit codes."""

import dataclasses
import hashlib

import pytest

from cyclocubic import cli
from cyclocubic.fields import (enumerate_family, make_record, partner, record_from_line,
                               record_to_line)


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
    assert records == enumerate_family(2000)
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
    code, _, err = run(["density", "--x", "2000", "--beta", "1.5"], capsys)
    assert code == cli.EXIT_USAGE
    code, _, err = run(["charsum", "--primes", "3,7"], capsys)
    assert code == cli.EXIT_USAGE and "p = 3" in err
    code, _, err = run(["charsum", "--primes", "8"], capsys)
    assert code == cli.EXIT_USAGE and "8 is not prime" in err
    code, _, err = run(["charsum", "--ymax", "1"], capsys)
    assert code == cli.EXIT_USAGE and "--ymax" in err
    for s in ("1", "0", "-2"):
        code, _, err = run(["verify", "--s", s], capsys)
        assert code == cli.EXIT_USAGE and "--s" in err


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


def test_density_paper_mode_annotated(tmp_path, capsys):
    out = tmp_path / "density_paper.csv"
    code, _, _ = run(["density", "--x", "200000", "--mode", "paper",
                      "--out", str(out)], capsys)
    assert code == 0
    assert "mode=paper" in out.read_text()


def test_density_tiny_beta_zero_prime_sums(tmp_path, capsys):
    out = tmp_path / "density_tiny.csv"
    code, _, _ = run(["density", "--x", "200000", "--beta", "0.02",
                      "--out", str(out)], capsys)
    assert code == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith(("#", "D,"))]
    assert rows and all(float(r.split(",")[7]) == 0.0 for r in rows)


def test_density_catalog_reuse(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    run(["enumerate", "--x", "200000", "--out", str(cat)], capsys)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code, _, _ = run(["density", "--x", "200000", "--catalog", str(cat),
                      "--out", str(a)], capsys)
    assert code == 0
    run(["density", "--x", "200000", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_density_catalog_rejects_bad_lines(tmp_path, capsys):
    records = enumerate_family(200000)
    bad_lines = [
        "D=7 e3=0 d1=7",  # truncated
        record_to_line(records[0]).replace("conductor=", "conductor=x"),  # not an integer
        # disagrees with the record rebuilt from D
        record_to_line(dataclasses.replace(records[0], conductor=records[0].conductor + 1)),
        record_to_line(make_record(partner(records[0].label))),  # not canonical
    ]
    cat = tmp_path / "bad.txt"
    for bad in bad_lines:
        lines = ["# cyclocubic catalog", record_to_line(records[1]), bad,
                 record_to_line(records[2])]
        cat.write_text("\n".join(lines) + "\n")
        code, out, err = run(["density", "--x", "200000", "--catalog", str(cat)], capsys)
        assert code == cli.EXIT_USAGE and out == "", bad
        assert err.startswith(f"{cat}:3: ") and "Traceback" not in err, bad


def test_density_catalog_outside_window(tmp_path, capsys):
    # a catalog enumerated at X = 1e5 holds no field of the X = 1e8 window
    cat = tmp_path / "cat.txt"
    run(["enumerate", "--x", "100000", "--out", str(cat)], capsys)
    code, out, err = run(["density", "--x", "100000000", "--catalog", str(cat)], capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert f"{cat}:4:" in err and "[100000000, 200000000]" in err


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


def test_verify_exit_code_on_failure(tmp_path, capsys, monkeypatch):
    import cyclocubic.verify as verify_mod

    def failing_suite(**kwargs):
        return [verify_mod.ProbeReport("stub", verify_mod.FAIL, [], {})]

    monkeypatch.setattr(cli.verify_mod, "run_probe_suite", failing_suite)
    code, _, _ = run(["verify", "--out", str(tmp_path / "r.txt")], capsys)
    assert code == cli.EXIT_ASSERTION


@pytest.mark.parametrize("argv, sha256", [
    (["enumerate", "--x", "100000000"],
     "547203777580b4a1a7691d78257f0ea8fa19d27287e281a3e76a8c7513ce8f2c"),
    (["charsum", "--primes", "7,13", "--ymax", "1000"],
     "979875225a0335c8528c91606fff4e6c5b532ecce186059ac3cd2f028a091032"),
])
def test_golden_outputs(tmp_path, capsys, argv, sha256):
    # pinned bytes: refactors must leave these outputs identical
    out = tmp_path / "out.txt"
    code, _, _ = run(argv + ["--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
