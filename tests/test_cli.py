import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entmono import MeasureId, MeasureTriple, StateError, haar_random, residual, save_state
from entmono.cli import main, resolve_example, run
from entmono.measures import LOG2_3
from reference import scale_free_residual

ALPHA_EC = math.log(2) / math.log(LOG2_3)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_ghz_monogamous(self, capsys):
        code, out, _ = run_cli(["analyze", "--example", "ghz", "--measure", "c"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["x"]["kind"] == "zero"
        assert not rec["non_monogamy_witness"]

    def test_e223_witness(self, capsys):
        code, out, _ = run_cli(["analyze", "--example", "e223", "--measure", "ca"], capsys)
        assert code == 2
        rec = json.loads(out)
        assert rec["x"]["kind"] == "unbounded"
        assert rec["non_monogamy_witness"]
        assert rec["min_alpha"] is None
        assert rec["triple"] == pytest.approx([1.0, 1.0, 2 * math.sqrt(2) / 3], abs=1e-9)

    def test_bad_example(self, capsys):
        code, _, err = run_cli(["analyze", "--example", "nope", "--measure", "c"], capsys)
        assert code == 1
        assert "error:" in err

    def test_missing_source(self, capsys):
        code, _, err = run_cli(["analyze", "--measure", "c"], capsys)
        assert code == 1
        assert "state source" in err

    def test_both_sources(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        save_state(haar_random((2, 2, 2), 0), p)
        code, _, err = run_cli(
            ["analyze", "--example", "ghz", "--state", str(p), "--measure", "c"], capsys
        )
        assert code == 1

    @pytest.mark.parametrize("argv, code", [
        (["analyze", "--example", "ghz", "--measure", "c"], 0),
        (["analyze", "--example", "e223", "--measure", "ca"], 2),
        (["bogus"], 1),
    ], ids=["ghz", "e223", "bogus"])
    def test_entry_point(self, capsys, monkeypatch, argv, code):
        # the console script's run() exits with main's code
        monkeypatch.setattr(sys, "argv", ["entmono", *argv])
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == code

    def test_missing_state_file(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--state", "/nonexistent/s.json", "--measure", "c"], capsys
        )
        assert code == 1


class TestAnalyze:
    def test_afs_lookup(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--example", "afs", "--measure", "ec-lookup", "--y", "1"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["x"]["kind"] == "finite"
        assert rec["x"]["value"] == pytest.approx(1 / (LOG2_3 - 1), abs=1e-9)
        assert rec["min_alpha"] == pytest.approx(ALPHA_EC, abs=1e-5)
        assert rec["per_state_exponent"]["alpha"] == pytest.approx(ALPHA_EC, abs=1e-9)

    def test_lookup_needs_afs(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--example", "ghz", "--measure", "ec-lookup"], capsys
        )
        assert code == 1
        assert "afs" in err

    def test_residual_report(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--example", "w", "--measure", "c", "--alpha", "2"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["residual_at_alpha"] >= -1e-9

    def test_state_file_round_trip(self, tmp_path, capsys):
        s = haar_random((2, 2, 2), 31)
        p = tmp_path / "s.json"
        save_state(s, p)
        code, out, _ = run_cli(["analyze", "--state", str(p), "--measure", "c"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["state"] == str(p)

    def test_eps_reaches_min_alpha(self, capsys):
        # the smaller pair value is below --eps, so every exponent works
        code, out, _ = run_cli(["analyze", "--example", "wclass:0,1,1,0.0001", "--measure", "c",
                                "--eps", "1e-3"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["x"]["kind"] == "zero"
        assert rec["min_alpha"] == 0.0

    @pytest.mark.parametrize("example,measure,code,kind", [
        ("wclass:0,1,1,0", "c", 0, "zero"),  # an exactly vanishing pair value
        ("e223", "ca", 2, "unbounded"),  # cut equal to the larger pair value
    ])
    def test_eps_zero_decisions_agree(self, capsys, example, measure, code, kind):
        got, out, _ = run_cli(["analyze", "--example", example, "--measure", measure,
                               "--eps", "0"], capsys)
        assert got == code
        rec = json.loads(out)
        assert rec["x"]["kind"] == kind
        assert rec["non_monogamy_witness"] == (kind == "unbounded")
        assert rec["min_alpha"] == (0.0 if kind == "zero" else None)

    @pytest.mark.parametrize("example,measure,y,code,kind", [
        ("e223", "ca", "400", 2, "unbounded"),  # min^400 below eps once read as zero
        ("w", "c", "1e-9", 0, "finite"),  # cut^y - max^y below eps once read as unbounded
    ])
    def test_kind_does_not_depend_on_y(self, capsys, example, measure, y, code, kind):
        got, out, _ = run_cli(["analyze", "--example", example, "--measure", measure,
                               "--y", y], capsys)
        assert got == code
        rec = json.loads(out)
        assert rec["x"]["kind"] == kind
        assert rec["non_monogamy_witness"] == (kind == "unbounded")
        if kind == "finite":
            # x ~ 1 / (y log(cut / max)) with cut / max = sqrt(2)
            assert rec["x"]["value"] == pytest.approx(1e9 / math.log(math.sqrt(2)), rel=1e-6)
            assert rec["min_alpha"] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the x-rule calls a gap unbounded when cut - max < eps in absolute "
                       "terms, so this state gets a false witness (exit 2)")
    def test_ckw_tight_state_is_finite(self, capsys):
        # C^2 is monogamous on every three-qubit state (CKW), and this W-class
        # state meets alpha = 2 with equality: x(2) = lo^2 / (cut^2 - hi^2) = 1,
        # with a true gap cut - max of 5e-11 against lo = 1e-5
        code, out, _ = run_cli(["analyze", "--example", "wclass:0,1,1,0.00001", "--measure", "c"],
                               capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["x"]["kind"] == "finite"
        assert rec["non_monogamy_witness"] is False
        assert abs(rec["x"]["value"] - 1.0) <= 1e-5

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="item 10: min_alpha checks its residual's sign in float "
                       "arithmetic only, with no error bound")
    def test_min_alpha_residual_verified(self, capsys):
        # b = cut / max = sqrt(2) up to rounding, so the root is log_b 2 = 2.
        # Theorem 3 prints 1.9999999999999996, whose 60-digit residual is
        # +3.1e-17; min_alpha prints 1.9999999999999993, where it is -4.6e-17
        code, out, _ = run_cli(["analyze", "--example", "wclass:1,1,0.75,0.75", "--measure", "c"],
                               capsys)
        assert code == 0
        rec = json.loads(out)
        cut, hi, lo = rec["triple"]
        assert scale_free_residual(cut, hi, lo, rec["per_state_exponent"]["alpha"]) >= 0
        assert scale_free_residual(cut, hi, lo, rec["min_alpha"]) >= 0

    def test_lookup_large_y_is_finite(self, capsys):
        # log2(3)^2000 overflows, but x is read from (min/cut)^y and log(cut/max):
        # finite, with a value that underflows to 0
        code, out, _ = run_cli(["analyze", "--example", "afs", "--measure", "ec-lookup",
                                "--y", "2000"], capsys)
        assert code == 0
        assert json.loads(out)["x"] == {"kind": "finite", "y": 2000.0, "value": 0.0}

    @pytest.mark.parametrize("example,measure,alpha", [
        ("w", "c", 2.0),  # CKW
        ("afs", "ec-lookup", 1.5050070664324333),  # log 2 / log log2 3
        ("wclass:0,0.7071067811865476,0.5,0.5", "eof", 1.3608021083178212),  # alpha*_F
    ])
    def test_closed_form_min_alpha(self, capsys, example, measure, alpha):
        # equal pair values: the root is Theorem 3's log_b 2, read from the exact gap
        code, out, _ = run_cli(["analyze", "--example", example, "--measure", measure], capsys)
        assert code == 0
        assert abs(json.loads(out)["min_alpha"] - alpha) <= 2 * math.ulp(alpha)

    def test_min_alpha_above_64(self, capsys):
        # a near-GHZ state whose root, 344.07, once lay above the bracket's fixed end
        code, out, _ = run_cli(["analyze", "--example", "schmidt:0.7071,0,0.01,0.1,0.7071,0",
                                "--measure", "ca"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["x"]["kind"] == "finite"
        a, a3 = rec["min_alpha"], rec["per_state_exponent"]["alpha"]
        assert 300.0 < a <= a3 + 4 * math.ulp(a3)

    def test_kind_decided_twice(self, capsys, monkeypatch):
        # by solve_x, and by min_alpha at y = 1; the witness flag is solve_x's kind
        from entmono import monogamy

        calls = []
        classify = monogamy._classify
        monkeypatch.setattr(monogamy, "_classify", lambda *a: calls.append(a) or classify(*a))
        assert run_cli(["analyze", "--example", "e223", "--measure", "ca"], capsys)[0] == 2
        assert len(calls) == 2


class TestInlineExamples:
    def test_wclass_normalized(self):
        _, s = resolve_example("wclass:0,0.577,0.577,0.577")
        assert np.linalg.norm(s.amps) == pytest.approx(1.0, abs=1e-15)
        assert abs(s.amps[4]) == pytest.approx(1 / math.sqrt(3), abs=1e-3)

    def test_schmidt_normalized(self):
        _, s = resolve_example("schmidt:1,0,0,0,1,0")
        assert np.linalg.norm(s.amps) == pytest.approx(1.0, abs=1e-15)
        assert abs(s.amps[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_small_pair_keeps_its_digits(self, capsys):
        # a pair concurrence far below the three-tangle: no s1 - s2 cancellation
        code, out, _ = run_cli(["analyze", "--example", "schmidt:0.6,0.1,0,0.00000001,0.79,0",
                                "--measure", "c"], capsys)
        assert code == 0
        assert abs(json.loads(out)["triple"][1] / 1.2071220199175132e-08 - 1) <= 1e-15

    def test_wrong_arity(self):
        with pytest.raises(StateError):
            resolve_example("wclass:1,0,0")

    def test_zero_direction(self):
        with pytest.raises(StateError):
            resolve_example("wclass:0,0,0,0")

    @pytest.mark.parametrize("name, unit", [
        ("wclass:1e200,1e200,0,0", "wclass:1,1,0,0"),
        ("wclass:1e-320,0,0,1e-320", "wclass:1,0,0,1"),
        ("schmidt:1e300,0,0,0,1e300,0", "schmidt:1,0,0,0,1,0"),
        ("schmidt:5e-324,0,0,0,5e-324,0", "schmidt:1,0,0,0,1,0"),
    ])
    def test_direction_outside_float_range(self, capsys, name, unit):
        # finite, nonzero directions whose norm overflows or underflows are
        # scaled by their largest entry first, with no overflow warning
        code, out, err = run_cli(["analyze", "--example", name, "--measure", "c"], capsys)
        assert (code, err) == (0, "")
        ref = run_cli(["analyze", "--example", unit, "--measure", "c"], capsys)[1]
        assert out.replace(name, unit) == ref


class TestSweep:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        args = ["sweep", "--dims", "2,2,2", "--measure", "c", "--samples", "200",
                "--seed", "5", "--out", str(tmp_path / "a")]
        assert run_cli(args, capsys)[0] == 0
        args2 = args[:-1] + [str(tmp_path / "b")]
        assert run_cli(args2, capsys)[0] == 0
        ra = (tmp_path / "a" / "sweep_report.json").read_bytes()
        rb = (tmp_path / "b" / "sweep_report.json").read_bytes()
        assert ra == rb
        ha = (tmp_path / "a" / "sweep_histogram.csv").read_bytes()
        hb = (tmp_path / "b" / "sweep_histogram.csv").read_bytes()
        assert ha == hb
        rec = json.loads(ra)
        assert rec["samples"] == 200
        assert rec["empirical"] is True
        assert rec["certificate_kind"] == "empirical-x-bound"
        header = ha.decode().splitlines()[0]
        assert header == "bucket_lo,bucket_hi,count"

    def test_w_family_alias(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["sweep", "--dims", "2,2,2", "--measure", "ca", "--samples", "50",
             "--seed", "1", "--family", "w", "--out", str(tmp_path)], capsys)
        assert code == 0
        rec = json.loads((tmp_path / "sweep_report.json").read_text())
        assert rec["family"] == "w_class"
        assert rec["certified_alpha"] == pytest.approx(2.0, abs=1e-9)

    def test_unbounded_gives_no_certificate(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["sweep", "--dims", "2,2,2", "--measure", "ca", "--family", "schmidt",
             "--samples", "600", "--seed", "11", "--eps", "1e-5", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert " unbounded=9 " in out
        assert out.endswith("no certificate: unbounded solutions found\n")
        assert json.loads((tmp_path / "sweep_report.json").read_text())["certified_alpha"] is None

    def test_bad_dims(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--dims", "2,2", "--measure", "c", "--samples", "5",
             "--out", str(tmp_path)], capsys)
        assert code == 1

    @pytest.mark.parametrize("measure, dims, family, seed, code", [
        *(pytest.param("c", "2,2,2", f, 17, 0, id=f) for f in ("haar", "w", "schmidt")),
        *(pytest.param("eof", "2,2,2", f, 17, 0, id=f"eof-{f}") for f in ("haar", "w", "schmidt")),
        # the ca search; seed 7 finds witnesses on every dims, so both runs exit 2.
        # (2,3,2) searches the AB pair, (2,2,5) rows take 40 normals, and a
        # qudit above 4 levels is first cut to the 4 its vectors span
        *(pytest.param("ca", d, "haar", 7, 2, id=f"ca-{d}")
          for d in ("2,2,3", "2,3,2", "2,2,5", "2,2,64")),
    ])
    def test_pooled_report_matches_serial(self, tmp_path, capsys, monkeypatch,
                                          measure, dims, family, seed, code):
        # each chunk draws from its own Generator, so a pool thread draws the
        # rows the serial run draws, schmidt phases included.  Four chunks and a
        # partial one reach the pool threshold; the 2-thread pool must really be made.
        from entmono import monogamy

        pools = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                pools.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        samples = 4 * monogamy._SWEEP_CHUNK + 77
        reports = []
        for threads in ("2", "1"):
            monkeypatch.setenv("MONO_THREADS", threads)
            out = tmp_path / threads
            got, _, _ = run_cli(
                ["sweep", "--dims", dims, "--measure", measure, "--family", family,
                 "--samples", str(samples), "--seed", str(seed), "--out", str(out)], capsys)
            assert got == code
            reports.append((out / "sweep_report.json").read_bytes())
        assert pools == [2]
        assert reports[0] == reports[1]


class TestRejectedInputs:
    """Bad exponents, tolerances, dims, seeds and thread caps exit 1 with a message."""

    @pytest.mark.parametrize("extra", [
        ["--y", "inf"], ["--y", "nan"], ["--y", "0"], ["--y", "-2"],
        ["--eps", "-1"], ["--eps", "nan"], ["--eps", "inf"],
        ["--dims", "a,b,c"], ["--dims", "2,2,x"], ["--seed", "-1"],
    ])
    def test_sweep(self, tmp_path, capsys, extra):
        code, out, err = run_cli(
            ["sweep", "--dims", "2,2,2", "--measure", "c", "--samples", "50",
             "--out", str(tmp_path)] + extra, capsys)
        assert code == 1
        assert err.startswith("error:")
        assert not (tmp_path / "sweep_report.json").exists()

    def test_sweep_out_is_a_file(self, tmp_path, capsys, monkeypatch):
        # the output directory is made before sampling, so no chunk is evaluated
        def no_chunk(*args):
            pytest.fail("a chunk was evaluated before --out was checked")

        monkeypatch.setattr("entmono.monogamy._sweep_chunk", no_chunk)
        out = tmp_path / "taken"
        out.write_text("")
        code, _, err = run_cli(["sweep", "--dims", "2,2,2", "--measure", "c", "--samples", "50",
                                "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error:") and "File exists" in err

    def test_rejected_sweep_leaves_no_out(self, tmp_path, capsys):
        out = tmp_path / "new_dir"
        code, _, err = run_cli(["sweep", "--dims", "2,2,2", "--measure", "c", "--samples", "10",
                                "--y", "-1", "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["analyze", "--example", "w"], ["sweep", "--dims", "2,2,2", "--samples", "10"],
    ], ids=["analyze", "sweep"])
    def test_x_not_finite_at_tiny_y(self, tmp_path, capsys, command):
        # the rows are classified before the error: the sweep still removes its --out
        out = tmp_path / "new_dir"
        extra = ["--out", str(out)] if command[0] == "sweep" else []
        code, stdout, err = run_cli(command + ["--measure", "c", "--y", "1e-320"] + extra, capsys)
        assert code == 1
        assert err == "error: x is not finite at y=1e-320\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("levels", [("a", "b", "c"), ("a", "..", "b", "c")],
                             ids=["chain", "dotdot"])
    def test_rejected_sweep_leaves_no_nested_out(self, tmp_path, capsys, levels):
        # every level the sweep created goes, leaf first; the one that existed stays
        (tmp_path / "nest").mkdir()
        out = tmp_path.joinpath("nest", *levels)
        code, _, err = run_cli(["sweep", "--dims", "2,2,2", "--measure", "c", "--samples", "10",
                                "--y", "-1", "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert list(tmp_path.iterdir()) == [tmp_path / "nest"]
        assert list((tmp_path / "nest").iterdir()) == []

    @pytest.mark.parametrize("extra", [
        ["--y", "nan"], ["--y", "inf"], ["--eps", "-1"], ["--alpha", "nan"], ["--alpha", "0"],
        ["--example", "wclass:nan,1,1,1"], ["--example", "schmidt:1,1,1,1,1,inf"],
        ["--example", "schmidt:1,x,0,0,0,0"], ["--example", "wclass:1,2,x,4"],
        ["--example", "schmidt:inf,0,0,0,0,0"],
    ])
    def test_analyze(self, capsys, extra):
        code, out, err = run_cli(["analyze", "--example", "w", "--measure", "c"] + extra, capsys)
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    _AMPS = ', "amps": [[0.5, 0]' + ', [0.5, 0]' * 3 + ', [0, 0]' * 4 + ']}'

    @pytest.mark.parametrize("doc", [
        b'{"dims": [2,2,2], "amps": [[NaN, 0]' + b', [0.5, 0]' * 4 + b', [0, 0]' * 3 + b']}',
        b'\xff\xfe{"dims": [2,2,2]' + _AMPS.encode(),
        b'{"dims": [2.5,2,2]' + _AMPS.encode(),
        b'{"dims": [true,2,4]' + _AMPS.encode(),
        b'{"dims": ["2","2","2"]' + _AMPS.encode(),
        b'{"dims": ' + b'[' * 100_000 + b']' * 100_000 + b'}',
        b'{"dims": [2,2,2], "amps": [[true, 0]' + b', [0, 0]' * 7 + b']}',
    ], ids=["nan", "not-utf8", "dim-2.5", "dim-true", "dim-str", "deep", "amp-true"])
    def test_bad_state_file(self, tmp_path, capsys, doc):
        p = tmp_path / "bad.json"
        p.write_bytes(doc)
        code, out, err = run_cli(["analyze", "--state", str(p), "--measure", "c"], capsys)
        assert code == 1
        assert err.startswith(f"error: {p}: ")
        assert out == ""

    @pytest.mark.parametrize("doc", [
        b'{"dims": [2,2,2], "amps": [[' + b'9' * 400 + b', 0]' + b', [0, 0]' * 7 + b']}',
        b'{"dims": [' + b'2' * 5000 + b',2,2]' + _AMPS.encode(),
        b'{"dims": [2,2,2], "amps": [[' + b'2' * 5000 + b', 0]' + b', [0, 0]' * 7 + b']}',
    ], ids=["amp-400-digits", "dim-5000-digits", "amp-5000-digits"])
    def test_oversized_integer(self, tmp_path, capsys, doc):
        # complex() overflows on a 400-digit part, and json.load refuses an
        # integer of more than 4300 digits: an error naming the file either way
        p = tmp_path / "big.json"
        p.write_bytes(doc)
        code, out, err = run_cli(["analyze", "--state", str(p), "--measure", "c"], capsys)
        assert code == 1
        assert err.startswith(f"error: {p}: ") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--example", "afs", "--measure", "ec-lookup", "--alpha", "2000"],
        ["certify", "--example", "afs", "--measure", "ec-lookup", "--mode", "relaxed",
         "--c", "1.0000000000001"],
    ])
    def test_residual_overflow(self, capsys, argv):
        # log2(3)^alpha leaves the float range: an error, not a traceback or inf
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert err.startswith("error:") and "overflows" in err
        assert out == ""

    @pytest.mark.parametrize("cap", ["x", "0"])
    def test_thread_cap(self, tmp_path, capsys, monkeypatch, cap):
        monkeypatch.setenv("MONO_THREADS", cap)
        code, _, err = run_cli(
            ["sweep", "--dims", "2,2,2", "--measure", "c", "--samples", "50",
             "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "MONO_THREADS" in err


class TestCertify:
    def test_thm3_afs(self, capsys):
        code, out, _ = run_cli(
            ["certify", "--example", "afs", "--measure", "ec-lookup"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "per-state-exponent"
        assert rec["alpha"] == pytest.approx(ALPHA_EC, abs=1e-9)
        assert rec["residual_at_alpha"] == pytest.approx(0.0, abs=1e-9)
        assert rec["inputs"]["b"] == pytest.approx(LOG2_3, abs=1e-12)

    def test_relaxed_afs(self, capsys):
        code, out, _ = run_cli(
            ["certify", "--example", "afs", "--measure", "ec-lookup",
             "--mode", "relaxed", "--c", "1.5"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "relaxed-base"
        # afs has b = log2 3 >= 1.5, so alpha = log 2 / log 1.5, verified
        assert abs(rec["alpha"] - 1.7095112913514547) <= 1e-12
        assert rec["residual_at_alpha"] >= 0.0

    def test_relaxed_needs_c(self, capsys):
        code, _, err = run_cli(
            ["certify", "--example", "afs", "--measure", "ec-lookup",
             "--mode", "relaxed"], capsys
        )
        assert code == 1
        assert "--c" in err

    def test_thm3_rejects_c(self, capsys):
        code, out, err = run_cli(
            ["certify", "--example", "w", "--measure", "c", "--mode", "thm3", "--c", "1.2"], capsys
        )
        assert code == 1
        assert err.startswith("error:") and "--c applies to relaxed mode only" in err
        assert out == ""

    @pytest.mark.parametrize("example, measure", [("w", "c"), ("afs", "ec-lookup")])
    def test_analyze_exponent_is_certified(self, capsys, example, measure):
        # analyze reports the certificate's alpha, whose residual is verified >= 0
        source = ["--example", example, "--measure", measure]
        code, out, _ = run_cli(["certify", *source], capsys)
        assert code == 0
        cert = json.loads(out)
        assert cert["residual_at_alpha"] >= 0.0
        code, out, _ = run_cli(["analyze", *source], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["per_state_exponent"]["alpha"] == cert["alpha"]
        # ...and min_alpha, the verified end of its bisection bracket
        a = rec["min_alpha"]
        assert residual(MeasureTriple(*rec["triple"], MeasureId(measure)), a) >= 0.0
        if example == "afs":  # equal pair values: the root is log 2 / log log2 3
            assert ALPHA_EC <= a <= ALPHA_EC + 1e-6

    def test_near_ghz_equal_pairs(self, capsys):
        # b = 1 + 1e-6: log b of the rounded quotient was off by far more than
        # the certificate's steps could repair; log1p of the exact gap is not
        code, out, _ = run_cli(["certify", "--example", "schmidt:0.7071,0,0.001,0.001,0.7071,0",
                                "--measure", "ca"], capsys)
        assert code == 0
        assert json.loads(out)["residual_at_alpha"] >= 0.0


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    assert main(["figures", "--out", str(out)]) == 0
    return out


class TestFigures:
    def test_fig1(self, outdir):
        lines = (outdir / "fig1.csv").read_text().splitlines()
        assert lines[0] == "alpha,f_alpha"
        assert len(lines) == 300
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert rows[0][0] == pytest.approx(1.51)
        assert rows[-1][0] == pytest.approx(3.0)
        # last row: 3^alpha residual of (log2 3, 1, 1) at alpha = 3
        assert rows[-1][1] == pytest.approx(LOG2_3 ** 3 - 2, abs=1e-9)
        assert all(f >= -1e-9 for _, f in rows)
        # residual grows with alpha on this triple
        assert all(b[1] > a[1] for a, b in zip(rows, rows[1:]))

    def test_fig2(self, outdir):
        lines = (outdir / "fig2.csv").read_text().splitlines()
        assert lines[0] == "y,z1,z2"
        assert len(lines) == 392
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert rows[0][0] == pytest.approx(0.1)
        assert rows[-1][0] == pytest.approx(4.0)
        # z2 = y is the identity line; z1 crosses it at the minimal exponent
        for y, z1, z2 in rows:
            assert z2 == pytest.approx(y, abs=1e-12)
        diffs = [(y, z1 - z2) for y, z1, z2 in rows]
        crossings = [
            (a[0] + b[0]) / 2
            for a, b in zip(diffs, diffs[1:])
            if a[1] > 0 >= b[1]
        ]
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(ALPHA_EC, abs=0.01)

    def test_precision_format(self, outdir):
        line = (outdir / "fig1.csv").read_text().splitlines()[1]
        _, f = line.split(",")
        # 12 significant digits survive the formatting
        assert len(f.replace("-", "").replace(".", "").lstrip("0")) >= 10


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["analyze", "--example", "w"],  # no --measure
        ["bogus"],
        ["sweep", "--dims", "2,2,2", "--measure", "c", "--samples", "x"],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        # argparse exits 2 on a usage error, which is the witness code here
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: entmono" in capsys.readouterr().err

    def test_bad_measure(self, capsys):
        code, _, err = run_cli(["analyze", "--example", "ghz", "--measure", "xx"], capsys)
        assert code == 1


def test_import_leaves_scipy_out(tmp_path):
    """Importing the package loads numpy only, and ca triples run with scipy blocked,
    a 1024-level qudit's included."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def run(code):
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True, timeout=120).stdout.strip()

    assert run("import sys, entmono; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") == "[]"
    codes = run(
        "import sys; sys.modules['scipy'] = None\n"
        "from entmono.cli import main\n"
        "e223 = main(['analyze', '--example', 'e223', '--measure', 'ca'])\n"
        f"sweep = main(['sweep', '--dims', '2,2,3', '--measure', 'ca', '--samples', '64', '--out', {str(tmp_path)!r}])\n"
        # the qudit is first cut to the 4 levels its vectors span
        f"wide = main(['sweep', '--dims', '2,2,1024', '--measure', 'ca', '--samples', '2048', '--seed', '1', '--out', {str(tmp_path / 'wide')!r}])\n"
        "print('codes', e223, sweep, wide in (0, 2))\n"
    )
    assert codes.splitlines()[-1] == "codes 2 0 True"
    assert json.loads((tmp_path / "sweep_report.json").read_text())["samples"] == 64
