"""Command-line surface: exit codes, formats, goldens."""

import json

import pytest

from necs import cli

from helpers import ERDOS_COVER, HUGE_MODULUS_NOT_EXACT, NON_NATURAL_13, sys_of


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

    def test_ecs_search(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--size", "4", "--ecs", "--format", "count-only")
        assert out.strip() == "10"

    def test_ecs_budget_abort(self, capsys):
        code = cli.run(["enumerate", "--size", "9", "--ecs", "--budget", "0", "--format", "count-only"])
        assert code == 5
        err = capsys.readouterr().err
        assert "after 1024 nodes and" in err and "solutions" in err

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
        assert out.err.startswith("--gcd must be between 1 and --size (5)")
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
        for command in ("recognize", "check"):
            for arg in (str(path), str(tmp_path / "missing.txt")):
                code = cli.run([command, arg])
                captured = capsys.readouterr()
                assert code == 2
                assert captured.out == ""
                assert len(captured.err.splitlines()) == 1

    def test_check(self, capsys, tmp_path):
        path = self.write(tmp_path, [(1, 4), (3, 4), (0, 6), (2, 6), (4, 6)])
        code, out = run_cli(capsys, "check", path)
        assert code == 0
        assert "exact: size 5, gcd 2, lcm 12" in out
        path2 = self.write(tmp_path, [(0, 2), (1, 4)], "partial.txt")
        code, out = run_cli(capsys, "check", path2)
        assert code == 4


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


class TestVerify:
    def test_battery_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--order", "20")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert len(lines) == 6


class TestUsage:
    def test_unknown_flag_rejected(self):
        assert cli.run(["count", "--max-size", "3", "--bogus"]) == 2

    def test_missing_command_rejected(self):
        assert cli.run([]) == 2
