"""Command-line surface: exit codes, formats, goldens."""

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import isclose, log10
from pathlib import Path

import pytest

from necs import asymptotics as asym
from necs import cli
from necs import congruence as cg
from necs import counting as ct

from helpers import (
    ERDOS_COVER,
    HUGE_MODULUS_NOT_EXACT,
    NON_NATURAL_13,
    SHIFT_CLASS_COUNTS,
    shift_class_counts_stream,
    slow,
    sys_of,
)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out


class TestSeriesCommand:
    def test_A_head(self, capsys):
        code, out = run_cli(capsys, "series", "--which", "A", "--terms", "8")
        assert code == 0
        assert out.split() == ["1", "1", "3", "10", "39", "160", "691", "3081"]

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "series", "--which", "M", "--terms", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["1,1", "2,-1", "3,-1"]

    def test_phi_starts_at_zero(self, capsys):
        code, out = run_cli(capsys, "series", "--which", "phi", "--terms", "9")
        assert out.split() == ["1", "1", "2", "3", "6", "9", "17", "28", "50", "83"]

    def test_am(self, capsys):
        code, out = run_cli(capsys, "series", "--which", "Am:2", "--terms", "8")
        assert out.split()[1:] == ["1", "2", "6", "22", "88", "372", "1636"]

    def test_unknown_series(self, capsys):
        assert cli.run(["series", "--which", "Q", "--terms", "3"]) == 2


class TestCountCommand:
    def test_csv_table(self, capsys):
        code, out = run_cli(capsys, "count", "--max-size", "3")
        assert code == 0
        assert out.splitlines() == ["k,m,count", "1,1,1", "2,1,0", "2,2,1", "3,1,0", "3,2,2", "3,3,1"]

    def test_lcm_table(self, capsys):
        code, out = run_cli(capsys, "count", "--max-size", "3", "--lcm")
        assert code == 0
        assert "3,2,4,2" in out.splitlines()
        for extra in ([], ["--lcm"]):
            code = cli.run(["count", "--max-size", "0", *extra])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1

    def test_cache_flag(self, capsys, tmp_path):
        path = str(tmp_path / "c.json")
        code1, out1 = run_cli(capsys, "count", "--max-size", "5", "--cache", path)
        code2, out2 = run_cli(capsys, "count", "--max-size", "5", "--cache", path)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_cache_dir_environment_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NECS_CACHE_DIR", str(tmp_path))
        code, _ = run_cli(capsys, "count", "--max-size", "4")
        assert code == 0
        assert (tmp_path / "counts.json").exists()

    @pytest.mark.parametrize(
        "text", ['{"format": "something-else", "version": 9}', "[1, 2]", "not json"]
    )
    def test_foreign_cache_is_a_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        code = cli.run(["count", "--max-size", "5", "--cache", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert str(path) in captured.err
        assert path.read_text() == text  # left as it was

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["counts"].__setitem__(5, [4, 3, "999"]),  # a(4, 3) = 3 in the file
            lambda d: d["counts"].append([3, 5, "0"]),  # gcd above the size
            lambda d: d["counts"].append([7, 2, "0"]),  # size above max_size
            lambda d: d.__setitem__("max_size", 7),  # a row missing
            lambda d: d.__setitem__("counts", [[1, 1]]),  # not a [k, m, count] triple
            # a(5, 2) = 22 and a(5, 3) = 12 moved by 5 each way: every row sum kept
            lambda d: d["counts"].__setitem__(slice(7, 9), [[5, 2, "27"], [5, 3, "7"]]),
        ],
    )
    def test_edited_cache_is_a_usage_error(self, capsys, tmp_path, edit):
        path = tmp_path / "c.json"
        assert cli.run(["count", "--max-size", "6", "--cache", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert data["counts"][5] == [4, 3, "3"]
        edit(data)
        path.write_text(json.dumps(data))
        code = cli.run(["count", "--max-size", "5", "--cache", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert str(path) in captured.err


class TestEnumerateCommand:
    def test_lines(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--size", "2")
        assert code == 0
        assert out == "0 mod 2\n1 mod 2\n"

    def test_count_only(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--size", "7", "--format", "count-only")
        assert out.strip() == "691"

    def test_json(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--size", "3", "--format", "json")
        systems = json.loads(out)
        assert len(systems) == 3
        assert [[0, 2], [1, 4], [3, 4]] in systems

    def test_gcd_filter(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--size", "6", "--gcd", "3", "--format", "count-only")
        assert out.strip() == "48"

    def test_shift_classes(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--size", "5", "--canonical", "shift", "--format", "count-only")
        assert out.strip() == "10"

    def test_shift_class_counts_per_gcd(self, capsys):
        shift = ["--canonical", "shift", "--format", "count-only"]
        for k in range(1, 11):
            code, out = run_cli(capsys, "enumerate", "--size", str(k), *shift)
            assert (code, out) == (0, f"{SHIFT_CLASS_COUNTS[k]}\n")
        for k in range(1, 9):
            want = shift_class_counts_stream(k)
            for m in range(1, k + 1):
                code, out = run_cli(capsys, "enumerate", "--size", str(k), "--gcd", str(m), *shift)
                assert (code, out) == (0, f"{want.get(m, 0)}\n"), (k, m)

    def test_ecs_search(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--size", "4", "--ecs", "--format", "count-only")
        assert out.strip() == "10"

    def test_ecs_budget_abort(self, capsys):
        code = cli.run(["enumerate", "--size", "9", "--ecs", "--budget", "0", "--format", "count-only"])
        assert code == 5
        err = capsys.readouterr().err
        assert "after 0 nodes and 0 solutions" in err

    def test_ecs_budget_abort_json_prints_nothing(self, capsys):
        code = cli.run(["enumerate", "--size", "9", "--ecs", "--budget", "0", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert captured.err.startswith("search aborted: ")

    def test_ecs_max_modulus_bounds_size_two(self, capsys):
        for fmt in ("lines", "json", "count-only"):
            code, out = run_cli(
                capsys, "enumerate", "--size", "2", "--ecs", "--max-modulus", "1", "--format", fmt
            )
            assert (code, out) == (0, {"lines": "", "json": "[]\n", "count-only": "0\n"}[fmt])

    @pytest.mark.parametrize(
        "extra",
        [
            ["--gcd", "9"],
            ["--gcd", "9", "--ecs"],
            ["--gcd", "9", "--format", "count-only"],
            ["--gcd", "0"],
            ["--gcd", "-1", "--canonical", "shift"],
        ],
    )
    def test_gcd_out_of_range(self, capsys, extra):
        code = cli.run(["enumerate", "--size", "5", *extra])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("enumerate: --gcd must be between 1 and --size (5)")
        assert out.err.count("\n") == 1


class TestRecognizeAndCheck:
    def write(self, tmp_path, pairs, name="sys.txt"):
        path = tmp_path / name
        path.write_text("".join(f"{a} mod {n}\n" for a, n in pairs))
        return str(path)

    def test_natural(self, capsys, tmp_path):
        path = self.write(tmp_path, [(0, 2), (1, 4), (3, 4)])
        code, out = run_cli(capsys, "recognize", path)
        assert code == 0
        assert "witness split tree: (2 () (2 () ()))" in out

    @staticmethod
    def binary_chain():
        # split the last class in two, 1,149 times: far deeper than the
        # interpreter's recursion limit
        pairs = [(0, 1)]
        for _ in range(1149):
            a, n = pairs.pop()
            pairs += [(a, 2 * n), (a + n, 2 * n)]
        return pairs

    def test_deep_binary_chain(self, capsys, tmp_path):
        pairs = self.binary_chain()
        code, out = run_cli(capsys, "recognize", self.write(tmp_path, pairs))
        assert code == 0
        witness = out.split("witness split tree: ")[1]
        assert witness.count("()") == 1150
        assert witness.startswith("(2 () (2 () (2 ")

    def test_deep_binary_chain_not_exact(self, capsys, tmp_path):
        pairs = self.binary_chain()
        dropped = pairs[:-1]
        # the last class moved onto the offset of the class of half its
        # modulus, which no other class of its modulus uses
        moved = pairs[:-1] + [(pairs[-3][0], pairs[-1][1])]
        for broken in (dropped, moved):
            code, out = run_cli(capsys, "recognize", self.write(tmp_path, broken))
            assert code == 4
            assert out == "not an exact covering system\n"

    @staticmethod
    def chain(arity, depth):
        # split the last class into `arity` classes, `depth` times
        pairs = [(0, 1)]
        for _ in range(depth):
            a, n = pairs.pop()
            pairs += [(a + j * n, arity * n) for j in range(arity)]
        return pairs

    @pytest.mark.parametrize("arity, depth", [(2, 4999), (3, 1500)])
    def test_deeper_chains(self, capsys, tmp_path, arity, depth):
        # 5,000 and 3,001 classes: one level of the witness costs O(arity),
        # not O(classes), so these take well under a second
        pairs = self.chain(arity, depth)
        path = self.write(tmp_path, pairs)
        code, out = run_cli(capsys, "recognize", path)
        assert code == 0
        witness = out.split("witness split tree: ")[1]
        assert witness.count("()") == len(pairs) == (arity - 1) * depth + 1
        assert witness.startswith(f"({arity} ()" + " ()" * (arity - 2) + f" ({arity} ")
        code, out = run_cli(capsys, "check", path)
        assert (code, out) == (0, f"exact: size {len(pairs)}, gcd {arity}, lcm {arity**depth}\n")

    def test_primitive_cover_under_a_deep_chain(self, capsys, tmp_path):
        pairs = self.chain(2, 2000)
        a, n = pairs.pop()
        pairs += [(a + n * b, n * m) for b, m in NON_NATURAL_13]
        path = self.write(tmp_path, pairs)
        assert run_cli(capsys, "recognize", path) == (3, "exact but not natural\n")
        code, out = run_cli(capsys, "check", path)
        assert (code, out) == (0, f"exact: size 2013, gcd 2, lcm {15 * 2**2001}\n")

    def test_deep_class_moved_into_the_residue_above(self, capsys, tmp_path):
        # the deepest classes are <2^(d-1) - 1, 2^d> and <2^d - 1, 2^d>; the
        # second moves to 3 * 2^(d-2) - 1, inside <2^(d-2) - 1, 2^(d-1)>, the
        # leaf one level up, and still sorts last, so that only the check of
        # the last class of the chain sees it
        d = 2000
        pairs = self.chain(2, d)
        assert pairs[-1] == (2**d - 1, 2**d) and pairs[-3] == (2 ** (d - 2) - 1, 2 ** (d - 1))
        pairs[-1] = (3 * 2 ** (d - 2) - 1, 2**d)
        path = self.write(tmp_path, pairs)
        assert run_cli(capsys, "recognize", path) == (4, "not an exact covering system\n")
        code, out = run_cli(capsys, "check", path)
        assert code == 4 and out.startswith("not exact: size 2001, gcd 2, lcm ")

    @pytest.mark.parametrize("pairs", HUGE_MODULUS_NOT_EXACT)
    def test_huge_modulus_not_exact(self, capsys, tmp_path, pairs):
        code, out = run_cli(capsys, "recognize", self.write(tmp_path, pairs))
        assert code == 4
        assert out == "not an exact covering system\n"

    def test_not_exact(self, capsys, tmp_path):
        path = self.write(tmp_path, ERDOS_COVER)
        code, out = run_cli(capsys, "recognize", path)
        assert code == 4

    def test_exact_not_natural(self, capsys, tmp_path):
        path = self.write(tmp_path, NON_NATURAL_13)
        code, out = run_cli(capsys, "recognize", path)
        assert code == 3

    def test_json_input(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps([[0, 2], [1, 2]]))
        code, out = run_cli(capsys, "recognize", str(path))
        assert code == 0

    def test_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 mod 0\n")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        bools = tmp_path / "bools.json"
        bools.write_text("[[false, true]]")
        for command in ("recognize", "check"):
            for arg in (str(path), str(tmp_path / "missing.txt"), str(deep), str(bools)):
                code = cli.run([command, arg])
                captured = capsys.readouterr()
                assert code == 2
                assert captured.out == ""
                assert len(captured.err.splitlines()) == 1

    def test_integers_past_the_digit_limit(self, capsys, tmp_path):
        # one class <0, 10^4400>: its modulus has 4,401 digits, past CPython's
        # default limit of 4,300 for int <-> str conversion
        digits = "1" + "0" * 4400
        text = tmp_path / "big.txt"
        text.write_text(f"0 mod {digits}\n")
        blob = tmp_path / "big.json"
        blob.write_text(f"[[0, {digits}]]")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        for path in (text, blob):
            code, out = run_cli(capsys, "recognize", str(path))
            assert (code, out) == (4, "not an exact covering system\n")
            code, out = run_cli(capsys, "check", str(path))
            assert (code, out) == (4, f"not exact: size 1, gcd {digits}, lcm {digits}\n")
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    def test_bad_lines_are_echoed_short(self, capsys, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("1e3 mod 7\n")
        huge = "1" + "0" * 4400
        long = tmp_path / "long.txt"
        long.write_text(f"0 mod {huge}x\n")
        # integers that parse now that the digit limit is lifted, in messages
        # that quote them: an offset past its modulus, and a duplicate class
        past = tmp_path / "past.txt"
        past.write_text(f"{huge} mod 7\n")
        twice = tmp_path / "twice.txt"
        twice.write_text(f"0 mod {huge}\n0 mod {huge}\n")
        for command in ("recognize", "check"):
            assert cli.run([command, str(short)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"{command}: line 1: non-integer field in '1e3 mod 7'\n"
            )
            for path, start in (
                (long, "line 1: non-integer field in '0 mod 1000"),
                (past, "line 1: need 0 <= a < n, got a=1000"),
                (twice, "duplicate class <0,1000"),
            ):
                assert cli.run([command, str(path)]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith(f"{command}: {start}")
                assert "..." in captured.err and len(captured.err) < 160
                assert captured.err.count("\n") == 1

    def test_check_deep_binary_chain(self, capsys, tmp_path):
        pairs = self.binary_chain()
        code, out = run_cli(capsys, "check", self.write(tmp_path, pairs))
        assert (code, out) == (0, f"exact: size 1150, gcd 2, lcm {2**1149}\n")
        code, out = run_cli(capsys, "check", self.write(tmp_path, pairs[:-1]))
        assert (code, out) == (4, f"not exact: size 1149, gcd 2, lcm {2**1149}\n")

    def test_check(self, capsys, tmp_path):
        path = self.write(tmp_path, [(1, 4), (3, 4), (0, 6), (2, 6), (4, 6)])
        code, out = run_cli(capsys, "check", path)
        assert code == 0
        assert "exact: size 5, gcd 2, lcm 12" in out
        path2 = self.write(tmp_path, [(0, 2), (1, 4)], "partial.txt")
        code, out = run_cli(capsys, "check", path2)
        assert code == 4
        # exact but not natural: the witness returns None, still exact
        path3 = self.write(tmp_path, NON_NATURAL_13, "gcd1.txt")
        code, out = run_cli(capsys, "check", path3)
        assert (code, out) == (0, "exact: size 13, gcd 1, lcm 30\n")


class TestAsymptCommand:
    def test_prints_constants(self, capsys):
        code, out = run_cli(capsys, "asympt", "--digits", "12")
        assert code == 0
        assert "tau" in out and "0.322993913302" in out
        assert "gamma" in out and "5.487452188297" in out

    def test_json_carries_exact_fields(self, capsys):
        code, out = run_cli(capsys, "asympt", "--digits", "10", "--json")
        blob = json.loads(out)
        assert set(blob) >= {"tau", "rho", "gamma", "c", "d1", "m2tau", "alpha", "beta"}
        assert blob["tau"]["decimal"].startswith("0.3229939133")
        assert "/" in blob["tau"]["error_bound"]

    def test_identities_flag(self, capsys):
        code, out = run_cli(capsys, "asympt", "--digits", "12", "--identities")
        assert "identity lambert at tau" in out

    def test_ratios_flag(self, capsys):
        code, out = run_cli(capsys, "asympt", "--digits", "10", "--ratios", "8")
        assert "k=  8" in out

    ARGV = ["asympt", "--digits", "30", "--identities", "--ratios", "5"]

    def test_golden_text(self, capsys):
        code, out = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert out == (GOLDEN / "asympt_digits30_identities_ratios5.txt").read_text()

    def test_golden_json(self, capsys):
        code, out = run_cli(capsys, *self.ARGV, "--json")
        assert code == 0
        got = json.loads(out)
        want = json.loads((GOLDEN / "asympt_digits30_identities_ratios5.json").read_text())

        # the floats (ratio rows, residual bounds) come from libm, which may
        # differ in the last bit across platforms; everything else is exact
        def same(a, b):
            if isinstance(a, float) or isinstance(b, float):
                return isclose(a, b, rel_tol=1e-12)
            if isinstance(a, (list, dict)):
                keys = range(len(a)) if isinstance(a, list) else a.keys()
                return len(a) == len(b) and all(same(a[k], b[k]) for k in keys)
            return a == b

        assert same(got, want)

    def test_json_bound_past_int_str_limit(self):
        # CPython refuses str() of ints over 4,300 digits by default; the
        # exact bounds of --digits 400 pass that, so _fixed_json lifts it
        den = 3**10500
        digits = int(10500 * log10(3)) + 1  # 5,010
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        blob = cli._fixed_json(asym.FixedReal(7, 2, Fraction(1, den)))
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        num, den_text = blob["error_bound"].split("/")
        assert num == "1" and len(den_text) == digits
        assert den_text[:20] == str(den // 10 ** (digits - 20))
        assert den_text[-20:] == str(den % 10**20).zfill(20)
        assert blob["decimal"] == "0.07"

    @slow
    def test_json_at_400_digits(self, capsys):
        code, out = run_cli(capsys, "asympt", "--digits", "400", "--json")
        assert code == 0
        blob = json.loads(out)
        assert len(blob["c"]["error_bound"].split("/")[1]) > 4300
        assert blob["c"]["decimal"].startswith("0.0809422941860973003586157712")


class TestPolyAndTrees:
    def test_poly_csv(self, capsys):
        code, out = run_cli(capsys, "poly", "--n", "6")
        assert out.splitlines()[1:] == [
            "6,1,691", "6,2,654", "6,3,324", "6,4,94", "6,5,15", "6,6,1",
        ]

    def test_poly_diff_checks(self, capsys):
        code, out = run_cli(capsys, "poly", "--n", "5", "--check-diffs", "3")
        assert code == 0
        assert "all equal 3^l" in out

    def test_trees_count(self, capsys):
        code, out = run_cli(capsys, "trees", "--leaves", "6", "--format", "count-only")
        assert out.strip() == "197"

    def test_trees_listing(self, capsys):
        code, out = run_cli(capsys, "trees", "--leaves", "3")
        assert out.splitlines() == ["(2 (2 () ()) ())", "(2 () (2 () ()))", "(3 () () ())"]

    def test_trees_chi(self, capsys):
        code, out = run_cli(capsys, "trees", "--chi", "(2 (3 () () ()) (2 () ()))")
        want = sys_of([(1, 4), (3, 4), (0, 6), (2, 6), (4, 6)])
        from necs import congruence as cg

        assert out == cg.format_system_text(want)

    def test_trees_needs_a_mode(self, capsys):
        assert cli.run(["trees"]) == 2

    def test_trees_chi_deep_chain(self, capsys):
        depth = 4999
        code, out = run_cli(capsys, "trees", "--chi", "(2 () " * depth + "()" + ")" * depth)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == depth + 1
        assert lines[0] == "0 mod 2" and lines[-1] == f"{2**depth - 1} mod {2**depth}"


class TestVerify:
    def test_battery_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--order", "20")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert len(lines) == 6

    def test_recurrence_disagreeing_with_reversion_fails(self, capsys, monkeypatch):
        real = ct.count_size_gcd_lcm

        def one_wrong(*args, **kwargs):
            table = real(*args, **kwargs)
            table.entries[5, 2, ct.OVERFLOW] += 1
            return table

        monkeypatch.setattr(ct, "count_size_gcd_lcm", one_wrong)
        code, out = run_cli(capsys, "verify", "--order", "16")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL dp-vs-reversion"
        ]


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--which", "Am:x"],
            ["series", "--which", "A", "--terms", "0"],
            ["enumerate", "--size", "0"],
            ["enumerate", "--size", "0", "--canonical", "shift", "--format", "count-only"],
            ["trees", "--chi", "(2"],
            ["poly", "--n", "0"],
            ["asympt", "--digits", "-3"],
            ["verify", "--order", "0"],
            ["verify", "--order", "-1"],
            ["asympt", "--digits", "5", "--ratios", "-3"],
            ["enumerate", "--size", "3", "--ecs", "--max-modulus", "0"],
            ["count", "--max-size", "3", "--lcm", "--lcm-max", "-5"],
            ["enumerate", "--size", "3", "--canonical", "shift", "--ecs"],
            ["enumerate", "--size", "3", "--max-modulus", "1"],
            ["enumerate", "--size", "3", "--budget", "0"],
            ["count", "--max-size", "3", "--lcm-max", "5"],
            ["count", "--max-size", "3", "--lcm", "--cache", "counts.json"],
            ["enumerate", "--size", "9", "--ecs", "--format", "count-only", "--budget", "-1"],
            ["enumerate", "--size", "9", "--ecs", "--format", "count-only", "--budget", "nan"],
            ["series", "--which", "Q"],
            ["trees"],
            ["poly", "--n", "3", "--check-diffs", "-1"],
            ["trees", "--leaves", "3", "--chi", "(2 () ())"],
            ["asympt", "--digits", "5", "--ratios", "417"],
            ["poly", "--n", "3", "--check-diffs", "4"],
            ["poly", "--n", "-2"],
        ],
    )
    def test_bad_values_exit_2_with_one_line(self, capsys, argv):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"{argv[0]}: ")

    def test_unknown_flag_rejected(self):
        assert cli.run(["count", "--max-size", "3", "--bogus"]) == 2

    def test_missing_command_rejected(self):
        assert cli.run([]) == 2


class TestParserCache:
    """`run` parses every command with the one parser of the process."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_then_valid_call(self, capsys):
        assert cli.run(["series", "--which", "A", "--terms", "x"]) == 2
        capsys.readouterr()
        code, out = run_cli(capsys, "series", "--which", "A", "--terms", "3")
        assert (code, out) == (0, "1\n1\n3\n")

    def test_no_option_value_leaks_into_the_next_call(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--size", "4", "--gcd", "2", "--format", "count-only")
        assert (code, out) == (0, "6\n")
        code, out = run_cli(capsys, "enumerate", "--size", "4", "--format", "count-only")
        assert (code, out) == (0, "10\n")

    def test_help_is_the_same_twice(self, capsys):
        first = run_cli(capsys, "--help")
        second = run_cli(capsys, "--help")
        assert first == second
        assert first[0] == 0 and first[1].startswith("usage: necs ")


def natural_system(seed: int, size: int) -> cg.CoveringSystem:
    """{<0,1>} r-split at random classes, arities 2, 3, 5 and 7, until it
    has at least `size` classes."""
    rng = random.Random(seed)
    c = cg.TRIVIAL
    while len(c) < size:
        c = cg.r_split(c, rng.choice(c.classes), rng.choice((2, 3, 5, 7)))
    return c


class TestRecognizeMemory:
    def test_repeated_recognize_keeps_no_memory(self, tmp_path):
        # Leaks that a garbage collection would hide: cyclic garbage left
        # by rebuilding the parser on every call, and temporary tuples of
        # at most 20 items, which CPython keeps on per-length free lists
        # until a full collection empties them (on 3.11 and 3.12 a
        # 20-item tuple goes on its list and is never taken off again).
        nat = natural_system(1, 290)
        # exact but not natural, so that the pairwise exactness test runs
        # once per command, on the gcd-1 piece
        not_natural = []
        for seed in range(8):
            c = sys_of(NON_NATURAL_13)
            rng = random.Random(seed)
            while len(c) < 24:
                c = cg.r_split(c, rng.choice(c.classes), rng.choice((2, 3)))
            not_natural.append(c.classes)
        # the Path objects stay alive, and with them the interned strings of
        # their parts: pathlib interns the parts again on every read, and
        # fresh intern-table entries would resize that table mid-measurement
        files = []
        for i, (classes, rc) in enumerate(
            [(nat.classes, 0), (nat.classes[1:], 4)] + [(c, 3) for c in not_natural]
        ):
            path = tmp_path / f"{i}.txt"
            path.write_text("".join(f"{a} mod {n}\n" for n, a in classes))
            files.append((["recognize", str(path)], rc, path))

        def rounds(k):
            for _ in range(k):
                for argv, rc, _ in files:
                    with contextlib.redirect_stdout(io.StringIO()):
                        assert cli.run(argv) == rc

        if tracemalloc.is_tracing():
            pytest.skip("memory is already traced")
        enabled = gc.isenabled()
        gc.disable()
        try:
            rounds(3)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                rounds(100)
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        finally:
            if enabled:
                gc.enable()
        assert grown < 64 * 1024


class TestMain:
    """`python -m necs.cli`, the path of the console script."""

    @staticmethod
    def main(*argv, stdin=""):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-m", "necs.cli", *argv],
            input=stdin, capture_output=True, text=True, env=env, timeout=120,
        )

    @pytest.mark.parametrize(
        "pairs, code",
        [([(0, 2), (1, 4), (3, 4)], 0), (NON_NATURAL_13, 3), (ERDOS_COVER, 4)],
    )
    def test_recognize_stdin_exit_codes(self, pairs, code):
        done = self.main("recognize", "-", stdin="".join(f"{a} mod {n}\n" for a, n in pairs))
        assert (done.returncode, done.stderr) == (code, "")
        assert len(done.stdout.splitlines()) == 1

    def test_help(self):
        done = self.main("--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: necs ")
