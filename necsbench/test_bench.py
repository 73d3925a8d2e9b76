"""Self-tests of the benchmark: every check rejects a corrupted output, the
recognize inputs carry the right verdicts, and tracing keeps its books.

Run with `python -m pytest necsbench` from the repository root.  The
workload sizes are shrunk here so the real CLI outputs come quickly.
"""

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from necs import cli  # noqa: E402


def cli_out(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(argv)) == 0
    return out.getvalue()


def bump_line(text: str, index: int, old: str, new: str) -> str:
    lines = text.splitlines(keepends=True)
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new, 1)
    return "".join(lines)


@pytest.fixture
def small_tables(monkeypatch):
    monkeypatch.setattr(wl, "TABLE_MAX", 14)
    monkeypatch.setattr(wl, "SERIES_TERMS", 20)
    monkeypatch.setattr(wl, "LCM_MAX", 6)
    monkeypatch.setattr(wl, "ASYMPT_DIGITS", 20)
    monkeypatch.setattr(wl, "RATIO_ROWS", 5)
    monkeypatch.setattr(wl, "POLY_N", 4)
    return {
        "count-cold": cli_out("count", "--max-size", "14"),
        "count-lcm": cli_out("count", "--max-size", "6", "--lcm"),
        "series": cli_out("series", "--which", "A", "--terms", "20"),
        "asympt": cli_out("asympt", "--digits", "20", "--identities", "--ratios", "5"),
        "poly": cli_out("poly", "--n", "4", "--check-diffs", "2"),
    }


class TestTableChecks:
    def test_real_outputs_pass(self, small_tables):
        outs = small_tables
        assert wl.check_count_cold(outs["count-cold"], outs) is None
        assert wl.check_count_lcm(outs["count-lcm"], outs) is None
        assert wl.check_series(outs["series"], outs) is None
        assert wl.check_asympt(outs["asympt"], outs) is None
        assert wl.check_poly(outs["poly"], outs) is None

    def test_count_off_by_one(self, small_tables):
        outs = dict(small_tables)
        # row k=14 lies beyond the copied table2, so only the cross-route check sees it
        lines = outs["count-cold"].splitlines(keepends=True)
        k, m, v = lines[-2].strip().split(",")
        lines[-2] = f"{k},{m},{int(v) + 1}\n"
        bad = "".join(lines)
        assert wl.check_count_cold(bad, outs) == "row sum 14 differs from the reverted series"
        outs["count-cold"] = bad
        assert wl.check_count_lcm(outs["count-lcm"], outs) is None  # k <= 6 untouched

    def test_lcm_count_off_by_one(self, small_tables):
        lines = small_tables["count-lcm"].splitlines(keepends=True)
        k, m, l, v = lines[-1].strip().split(",")
        lines[-1] = f"{k},{m},{l},{int(v) + 1}\n"
        assert wl.check_count_lcm("".join(lines), small_tables) is not None

    def test_series_term_off_by_one(self, small_tables):
        outs = dict(small_tables)
        lines = outs["series"].splitlines()
        lines[17] = str(int(lines[17]) + 1)  # term 18: beyond every copied value
        outs["series"] = "\n".join(lines) + "\n"
        assert wl.check_series(outs["series"], outs) == "M(A(x)) != x"

    @pytest.mark.parametrize("name", ["tau", "d1", "beta"])
    def test_asympt_flipped_digit(self, small_tables, name):
        out = small_tables["asympt"]
        index = wl.ASYMPT_NAMES.index(name)
        line = out.splitlines()[index]
        digit = line[-3]
        bad = bump_line(out, index, line, line[:-3] + str((int(digit) + 1) % 10) + line[-2:])
        assert wl.check_asympt(bad, small_tables) is not None

    def test_asympt_weak_identity(self, small_tables):
        out = small_tables["asympt"]
        last = out.splitlines()[-1]
        bad = bump_line(out, len(out.splitlines()) - 1, last, last.split("<= ")[0] + "<= 1.000e-03")
        assert wl.check_asympt(bad, small_tables) is not None

    def test_poly_coefficient_off_by_one(self, small_tables):
        out = small_tables["poly"]
        bad = bump_line(out, 1, "4,1,39", "4,1,40")
        assert wl.check_poly(bad, small_tables) is not None

    def test_verify_failure_line(self):
        check = wl.exact_text(wl.VERIFY_OUT)
        assert check(wl.VERIFY_OUT, {}) is None
        assert check(wl.VERIFY_OUT.replace("PASS power-sums", "FAIL power-sums"), {}) is not None

    def test_warm_cache_must_match_cold(self):
        check = wl.same_as("count-cold")
        assert check("k,m,count\n1,1,1\n", {"count-cold": "k,m,count\n1,1,1\n"}) is None
        assert check("k,m,count\n1,1,2\n", {"count-cold": "k,m,count\n1,1,1\n"}) is not None


class TestListChecks:
    def test_text_list(self):
        out = cli_out("enumerate", "--size", "6")
        check = wl.necs_text(6)
        assert check(out, {}) is None
        blocks = out.split("\n\n")
        assert check("\n\n".join(blocks[:-1]) + "\n", {}) is not None  # one system missing
        assert check("\n\n".join(blocks[:1] + blocks[:-1]), {}) is not None  # a duplicate
        first, rest = blocks[3].split("\n", 1)
        a, _, n = first.split()
        moved = f"{(int(a) + 1) % int(n)} mod {n}\n{rest}"  # one offset moved: not exact
        assert check("\n\n".join(blocks[:3] + [moved] + blocks[4:]), {}) is not None

    def test_json_list(self):
        out = cli_out("enumerate", "--size", "5", "--format", "json")
        check = wl.necs_json(5)
        assert check(out, {}) is None
        systems = json.loads(out)
        systems[10][-1][0] = (systems[10][-1][0] + 1) % systems[10][-1][1]
        assert check(json.dumps(systems), {}) is not None

    def test_count_only(self):
        check = wl.exact_text(f"{ref.A_COUNTS[10]}\n")
        assert check("65757\n", {}) is None
        assert check("65758\n", {}) is not None

    def test_trees(self):
        out = cli_out("trees", "--leaves", "5")
        check = wl.check_trees(5)
        assert check(out, {}) is None
        lines = out.splitlines()
        assert check("\n".join(lines[:-1] + [lines[0]]) + "\n", {}) is not None
        assert check(out.replace("(5 () () () () ())", "(4 () () () () ())"), {}) is not None


class TestRecognize:
    def test_witness_must_relabel_to_input(self):
        pairs = [(0, 2), (1, 4), (3, 4)]
        check = wl.witness_check(pairs)
        assert check(wl.WITNESS_PREFIX + "(2 () (2 () ()))\n", {}) is None
        assert check(wl.WITNESS_PREFIX + "(2 (2 () ()) ())\n", {}) is not None
        assert check(wl.WITNESS_PREFIX + "(3 () () ())\n", {}) is not None

    def test_wrong_exit_code_is_wrong(self):
        op = wl.Op("natural-0", ["recognize", "x"], wl.exact_text("x\n"), expect_rc=0)
        result = run.Result(3, "x\n", None, 0.0)
        assert run.check_pass([op], [result], {}) == [("wrong", "exit code 3, want 0")]

    def test_raised_op_is_failed_not_wrong(self):
        op = wl.Op("deep-chain-0", ["recognize", "x"], wl.exact_text("x\n"))
        result = run.Result(None, "", "RecursionError: too deep", 0.0)
        assert run.check_pass([op], [result], {}) == [("failed", "RecursionError: too deep")]

    def test_generator_verdicts_match_brute_force(self, monkeypatch):
        monkeypatch.setattr(inputs, "MAX_SIZE", 16)
        monkeypatch.setattr(inputs, "DEEP_CHAIN_SIZES", (12,))
        checked = 0
        for seed in range(4):
            for case in inputs.make_cases(seed, 60):
                pairs = list(case.pairs)
                assert len(set(pairs)) == len(pairs)  # a duplicate would not parse
                assert all(0 <= a < n for a, n in pairs)
                period = math.lcm(*(n for _, n in pairs))
                if period > 200_000:
                    continue
                assert ref.brute_force_exact(pairs) == (case.expected != 4), case
                checked += 1
        assert checked > 150

    def test_cases_are_deterministic_per_seed(self):
        assert inputs.make_cases(7, 30) == inputs.make_cases(7, 30)
        assert inputs.make_cases(7, 30) != inputs.make_cases(8, 30)

    def test_natural_cases_relabel_from_cli_witness(self, tmp_path):
        cases = [c for c in inputs.make_cases(3, 40) if c.kind != "deep-chain"][:25]
        paths = inputs.write_cases(cases, str(tmp_path), 3)
        for case, path in zip(cases, paths):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.run(["recognize", path])
            assert rc == case.expected
            check = wl.witness_check(case.pairs) if rc == 0 else wl.exact_text(wl.VERDICT_TEXT[rc])
            assert check(out.getvalue(), {}) is None


class TestReference:
    def test_tree_round_trip_is_iterative(self):
        depth = 5000
        tree = ref.parse_tree("(2 () " * depth + "()" + ")" * depth)
        assert ref.leaf_count(tree) == depth + 1
        chain = [(2**i - 1, 2 ** (i + 1)) for i in range(depth)] + [(2**depth - 1, 2**depth)]
        assert sorted(ref.relabel(tree)) == sorted(chain)

    def test_mobius_check_rejects_other_series(self):
        a = [0, 1, 1, 3, 10, 39, 160, 691, 3081]
        assert ref.mobius_of_series_is_x(a)
        assert not ref.mobius_of_series_is_x(a[:-1] + [3082])

    def test_mobius_sieve(self):
        assert ref.mobius_upto(12) == [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


class TestTracing:
    def test_spans_cover_the_command_and_are_removed(self):
        import necs.enumeration as en

        original = en.enumerate_necs
        original_count = en.count_size_gcd
        tracer = tracing.Tracer()
        installed = tracing.Installed(tracer)
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = tracer.span("cli", cli.run, ["enumerate", "--size", "6", "--format", "count-only"])
            assert (rc, out.getvalue()) == (0, "160\n")
        finally:
            installed.remove()
        assert en.enumerate_necs is original and en.count_size_gcd is original_count
        assert tracer.items["enumeration.necs"] == 160
        assert tracer.calls["congruence.system_build"] == 160
        assert tracer.calls["counting.size_gcd"] == 1  # bound in enumeration
        assert tracer.stack == []
        assert all(v >= 0 for v in tracer.self_s.values())

    def test_exception_in_nested_span_leaves_clean_stack(self):
        tracer = tracing.Tracer()

        def boom():
            tracer.open("lost")  # never closed, as when a RecursionError strikes
            raise RecursionError("deep")

        with pytest.raises(RecursionError):
            tracer.span("outer", tracer.span, "inner", boom)
        assert tracer.stack == []
        assert set(tracer.self_s) == {"outer", "inner"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "necsbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "necsbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_is_nearest_rank():
    xs = [float(x) for x in range(1, 1003)]
    random.Random(1).shuffle(xs)
    assert run.percentile(xs, 50) == 501.0
    assert run.percentile(xs, 99) == 992.0  # ten samples beyond it
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 99) == 4.0
