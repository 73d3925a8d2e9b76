"""The four workloads: the CLI commands each pass runs, and the check of
every command's output against an independent reference.

A check returns None when the output is right and a one-line reason when it
is not.  Checks may read the outputs of the other commands of the same pass
(`outs`), which is how the cross-route checks work: the row sums of the
count table against the reverted series, the lcm marginal against the count
table, the warm cache against the cold one, the exact-cover search against
the natural-system list.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from decimal import Decimal, localcontext
from math import comb
from typing import Callable

import inputs
import reference as ref

Check = Callable[[str, dict], "str | None"]


@dataclass
class Op:
    """One CLI command: its argv, the exit code it must return, and the
    check of its standard output."""

    name: str
    argv: list[str]
    check: Check
    expect_rc: int = 0


@dataclass
class Workload:
    name: str
    why: str
    prepare: Callable[[str, int], list[Op]]
    #: run before every pass, outside the timed region
    before_pass: Callable[[str], None] = lambda work: None


# --- shared parsers and checks -------------------------------------------------


def exact_text(want: str) -> Check:
    return lambda out, outs: None if out == want else f"expected {want!r}, got {out[:80]!r}"


def same_as(other: str) -> Check:
    def check(out, outs):
        return None if out == outs.get(other) else f"output differs from {other}"

    return check


def parse_count_csv(out: str) -> dict:
    lines = out.splitlines()
    if not lines or lines[0] != "k,m,count":
        raise ValueError("missing 'k,m,count' header")
    table = {}
    for line in lines[1:]:
        k, m, v = line.split(",")
        table[int(k), int(m)] = int(v)
    return table


def parse_series(out: str) -> list[int]:
    return [0] + [int(line) for line in out.splitlines()]


def check_system_list(systems: list, k: int) -> str | None:
    """All natural systems of size k, each once, canonical order, by an
    exactness check of our own and the published counts by gcd."""
    if len(systems) != ref.A_COUNTS[k]:
        return f"{len(systems)} systems of size {k}, want {ref.A_COUNTS[k]}"
    by_gcd = [0] * k
    prev = None
    for pairs in systems:
        if len(pairs) != k or any(not 0 <= a < n for a, n in pairs):
            return f"malformed system {pairs}"
        key = [x for a, n in pairs for x in (n, a)]
        classes = [(n, a) for a, n in pairs]
        if classes != sorted(classes):
            return f"classes out of canonical order in {pairs}"
        if prev is not None and key <= prev:
            return "systems not in strictly increasing canonical order"
        prev = key
        if not ref.is_exact_pairs(pairs):
            return f"not an exact cover: {pairs}"
        by_gcd[ref.gcd_of_pairs(pairs) - 1] += 1
    if by_gcd != ref.TABLE2[k]:
        return f"counts by gcd {by_gcd}, want {ref.TABLE2[k]}"
    return None


def parse_system_blocks(out: str) -> list:
    systems = []
    for block in out.split("\n\n"):
        pairs = []
        for line in block.splitlines():
            a, mod, n = line.split()
            if mod != "mod":
                raise ValueError(f"bad line {line!r}")
            pairs.append((int(a), int(n)))
        systems.append(pairs)
    return systems


def necs_text(k: int) -> Check:
    def check(out, outs):
        try:
            systems = parse_system_blocks(out)
        except ValueError as exc:
            return f"unparsable system list: {exc}"
        return check_system_list(systems, k)

    return check


def necs_json(k: int) -> Check:
    def check(out, outs):
        try:
            systems = [[(a, n) for a, n in s] for s in json.loads(out)]
        except (ValueError, TypeError) as exc:
            return f"unparsable JSON system list: {exc}"
        return check_system_list(systems, k)

    return check


# --- tables --------------------------------------------------------------------

TABLE_MAX = 40
LCM_MAX = 16
SERIES_TERMS = 300
ASYMPT_DIGITS = 60
RATIO_ROWS = 40
VERIFY_ORDER = 64
POLY_N = 12
POLY_DIFFS = 5

ASYMPT_NAMES = ("tau", "rho", "gamma", "c", "d1", "m2tau", "alpha", "beta")
IDENTITIES = (
    ("lambert", "tau"), ("derivative-sum", "tau"), ("gcd-weights", "tau"),
    ("lambert", "3/10"), ("derivative-sum", "3/10"),
    ("lambert", "1/2"), ("derivative-sum", "1/2"),
)
VERIFY_OUT = "".join(
    f"PASS {name}\n"
    for name in ("reversion-head", "functional-equation", "power-sums", "dp-vs-reversion",
                 "gcd-table-golden", "small-systems-golden")
)


def check_count_cold(out, outs):
    try:
        table = parse_count_csv(out)
        series = parse_series(outs["series"])
    except (ValueError, KeyError) as exc:
        return f"unparsable: {exc}"
    want_keys = [(k, m) for k in range(1, TABLE_MAX + 1) for m in range(1, k + 1)]
    if list(table) != want_keys:
        return "rows missing or out of order"
    for k, row in ref.TABLE2.items():
        if [table[k, m] for m in range(1, k + 1)] != row:
            return f"row {k} differs from table2.csv"
    for k in range(1, TABLE_MAX + 1):
        if sum(table[k, m] for m in range(1, k + 1)) != series[k]:
            return f"row sum {k} differs from the reverted series"
    return None


def check_count_lcm(out, outs):
    lines = out.splitlines()
    if not lines or lines[0] != "k,m,l,count":
        return "missing 'k,m,l,count' header"
    marginal = {}
    for line in lines[1:]:
        k, m, l, v = (int(x) for x in line.split(","))
        if l % m:
            return f"lcm {l} not a multiple of gcd {m}"
        marginal[k, m] = marginal.get((k, m), 0) + v
    try:
        table = parse_count_csv(outs["count-cold"])
    except (ValueError, KeyError) as exc:
        return f"count table unavailable: {exc}"
    want = {km: v for km, v in table.items() if km[0] <= LCM_MAX and v}
    return None if marginal == want else "lcm marginal differs from the count table"


def check_series(out, outs):
    try:
        a = parse_series(out)
    except ValueError as exc:
        return f"unparsable: {exc}"
    if len(a) != SERIES_TERMS + 1:
        return f"{len(a) - 1} terms, want {SERIES_TERMS}"
    if a[1:14] != ref.A_COUNTS[1:]:
        return "head differs from A050385"
    if not ref.mobius_of_series_is_x(a):
        return "M(A(x)) != x"
    return None


def check_asympt(out, outs):
    lines = out.splitlines()
    n_names, n_ratio = len(ASYMPT_NAMES), RATIO_ROWS + 1
    if len(lines) != n_names + n_ratio + len(IDENTITIES):
        return f"{len(lines)} lines"
    values = {}
    for name, line in zip(ASYMPT_NAMES, lines):
        got_name, _, value = line.partition(" = ")
        if got_name.strip() != name:
            return f"expected {name}, got {line!r}"
        if len(value.split(".")[1]) != ASYMPT_DIGITS:
            return f"{name} has the wrong number of digits"
        values[name] = Decimal(value)
        want = ref.DIGITS.get(name)
        if want and not value.startswith(want[: len(want.split(".")[0]) + 1 + ASYMPT_DIGITS]):
            return f"{name} digits differ from the reference"
    # Consistency of the printed (truncated) values with each other.  Each
    # is off by less than one unit in its last place, which moves these
    # relations by at most a few units (gamma ~ 5.5, rho ~ 0.18, M''(tau) ~
    # -4.4); pi has only 50 reference digits.
    ulp = Decimal(10) ** -ASYMPT_DIGITS
    with localcontext() as ctx:
        ctx.prec = ASYMPT_DIGITS + 20
        if abs(values["gamma"] * values["rho"] - 1) > 10 * ulp:
            return "gamma * rho != 1"
        d1 = ref.sqrt_decimal(-2 * values["rho"] / values["m2tau"], ASYMPT_DIGITS + 20)
        if abs(values["d1"] - d1) > 3 * ulp:
            return "d1 != sqrt(-2 rho / M''(tau))"
        c = values["d1"] / (2 * ref.sqrt_decimal(Decimal(ref.PI_DIGITS), ASYMPT_DIGITS + 20))
        if abs(values["c"] - c) > 3 * ulp + Decimal("1e-48"):
            return "c != d1 / (2 sqrt(pi))"
    try:
        a = parse_series(outs["series"])
    except (ValueError, KeyError):
        return "series output unavailable"
    gamma, c = float(values["gamma"]), float(values["c"])
    head = lines[n_names]
    if head != f"ratio a_k k^1.5 / gamma^k -> c = {c:.12f}":
        return f"bad ratio header {head!r}"
    for k, line in enumerate(lines[n_names + 1 : n_names + n_ratio], start=1):
        ratio = a[k] * k**1.5 / gamma**k
        want = f"  k={k:3d}  ratio={ratio:.12f}  gap={abs(ratio - c):.3e}"
        if line != want:
            return f"ratio row {k}: {line!r} != {want!r}"
    for (name, point), line in zip(IDENTITIES, lines[n_names + n_ratio :]):
        prefix = f"identity {name} at {point}: residual <= "
        # the margin of tests/test_asymptotics.py: worst residual < 10^-(digits-5)
        if not line.startswith(prefix) or float(line[len(prefix):]) >= 10.0 ** (5 - ASYMPT_DIGITS):
            return f"identity line {line!r}"
    return None


def check_poly(out, outs):
    lines = out.splitlines()
    coeffs = ref.binomial_basis(ref.A_COUNTS, POLY_N)
    want = (
        ["n,k,coefficient"]
        + [f"{POLY_N},{k},{c}" for k, c in enumerate(coeffs, start=1)]
        + ["backward differences: all equal 3^l"]
    )
    if lines != want:
        return "coefficients differ from [x^n] (A/x - 1)^k"
    try:
        table = parse_count_csv(outs["count-cold"])
    except (ValueError, KeyError):
        return "count table unavailable"
    for g in range(POLY_N + 1, TABLE_MAX - POLY_N + 1):
        if sum(c * comb(g, k) for k, c in enumerate(coeffs, start=1)) != table[g + POLY_N, g]:
            return f"f_{POLY_N}({g}) differs from a({g + POLY_N}, {g})"
    return None


def prepare_tables(work: str, seed: int) -> list[Op]:
    os.makedirs(work, exist_ok=True)
    cache = os.path.join(work, "counts.json")
    count = ["count", "--max-size", str(TABLE_MAX), "--cache", cache]
    return [
        Op("count-cold", count, check_count_cold),
        Op("count-warm", count, same_as("count-cold")),
        Op("count-lcm", ["count", "--max-size", str(LCM_MAX), "--lcm"], check_count_lcm),
        Op("series", ["series", "--which", "A", "--terms", str(SERIES_TERMS)], check_series),
        Op("asympt", ["asympt", "--digits", str(ASYMPT_DIGITS), "--identities",
                      "--ratios", str(RATIO_ROWS)], check_asympt),
        Op("verify", ["verify", "--order", str(VERIFY_ORDER)], exact_text(VERIFY_OUT)),
        Op("poly", ["poly", "--n", str(POLY_N), "--check-diffs", str(POLY_DIFFS)], check_poly),
    ]


def clear_cache(work: str) -> None:
    for name in ("counts.json", "counts.json.tmp"):
        path = os.path.join(work, name)
        if os.path.exists(path):
            os.remove(path)


# --- census --------------------------------------------------------------------

CENSUS_COUNT = 10
CENSUS_JSON = 9
CENSUS_TEXT = 8
TREE_LEAVES = 9


def check_trees(k: int) -> Check:
    def check(out, outs):
        lines = out.splitlines()
        if len(lines) != ref.SCHROEDER[k]:
            return f"{len(lines)} trees, want {ref.SCHROEDER[k]}"
        if len(set(lines)) != len(lines):
            return "duplicate trees"
        for line in lines:
            try:
                leaves = ref.leaf_count(ref.parse_tree(line))
            except ValueError as exc:
                return f"bad tree {line!r}: {exc}"
            if leaves != k:
                return f"tree {line!r} has {leaves} leaves"
        return None

    return check


def prepare_census(work: str, seed: int) -> list[Op]:
    k = str(CENSUS_COUNT)
    return [
        Op("necs-count", ["enumerate", "--size", k, "--format", "count-only"],
           exact_text(f"{ref.A_COUNTS[CENSUS_COUNT]}\n")),
        Op("shift-count", ["enumerate", "--size", k, "--canonical", "shift", "--format", "count-only"],
           exact_text(f"{ref.SHIFT_CLASS_COUNTS[CENSUS_COUNT]}\n")),
        Op("necs-json", ["enumerate", "--size", str(CENSUS_JSON), "--format", "json"],
           necs_json(CENSUS_JSON)),
        Op("necs-text", ["enumerate", "--size", str(CENSUS_TEXT)], necs_text(CENSUS_TEXT)),
        Op("trees", ["trees", "--leaves", str(TREE_LEAVES)], check_trees(TREE_LEAVES)),
    ]


# --- ecs -----------------------------------------------------------------------
#
# Every exact cover with at most 12 classes is natural (the gcd-1 covers,
# never natural, start at 13 classes), so up to size 12 the exact-cover
# search must find exactly the natural systems: the published counts and
# the natural-system list are its references.

ECS_COUNT = 8
ECS_GCD1 = 12
ECS_LIST = 7


def prepare_ecs(work: str, seed: int) -> list[Op]:
    return [
        Op("ecs-count", ["enumerate", "--size", str(ECS_COUNT), "--ecs", "--format", "count-only"],
           exact_text(f"{ref.A_COUNTS[ECS_COUNT]}\n")),
        Op("ecs-gcd1", ["enumerate", "--size", str(ECS_GCD1), "--gcd", "1", "--ecs",
                        "--format", "count-only"], exact_text("0\n")),
        Op("necs-list", ["enumerate", "--size", str(ECS_LIST)], necs_text(ECS_LIST)),
        Op("ecs-list", ["enumerate", "--size", str(ECS_LIST), "--ecs"], same_as("necs-list")),
    ]


# --- recognize -----------------------------------------------------------------

RECOGNIZE_CASES = 1000
VERDICT_TEXT = {3: "exact but not natural\n", 4: "not an exact covering system\n"}
WITNESS_PREFIX = "natural exact covering system; witness split tree: "


def witness_check(pairs) -> Check:
    want = sorted(pairs)

    def check(out, outs):
        if not (out.startswith(WITNESS_PREFIX) and out.endswith("\n")):
            return f"unexpected output {out[:80]!r}"
        try:
            tree = ref.parse_tree(out[len(WITNESS_PREFIX) : -1])
        except ValueError as exc:
            return f"bad witness: {exc}"
        if sorted(ref.relabel(tree)) != want:
            return "witness does not relabel to the input system"
        return None

    return check


def prepare_recognize(work: str, seed: int) -> list[Op]:
    cases = inputs.make_cases(seed, RECOGNIZE_CASES)
    paths = inputs.write_cases(cases, os.path.join(work, "systems"), seed)
    ops = []
    for case, path in zip(cases, paths):
        if case.expected == 0:
            check = witness_check(case.pairs)
        else:
            check = exact_text(VERDICT_TEXT[case.expected])
        ops.append(Op(case.kind, ["recognize", path], check, case.expected))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tables",
            "count tables, series, constants and polynomials; no enumeration",
            prepare_tables,
            before_pass=clear_cache,
        ),
        Workload("census", "explicit lists of natural systems and trees", prepare_census),
        Workload("ecs", "the general exact-cover search", prepare_ecs),
        Workload("recognize", "exactness and naturality of many seeded systems", prepare_recognize),
    )
}
