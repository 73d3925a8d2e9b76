"""Command-line interface.

Subcommands map one-to-one onto the library modules: series expansion,
count tables, enumeration, recognition of naturality, the asymptotic
constants, the binomial-basis polynomials, tree utilities, and a verify
battery that re-derives the shipped golden tables.

Exit codes: 0 success, 2 usage error (a bad value or an unreadable file,
reported in one stderr line).  `recognize` additionally uses 3 for an
exact cover that is not natural and 4 for input that is not an exact
cover; `check` uses 4 the same way; `enumerate --ecs` uses 5 when its
--budget runs out.  Semantic codes are results, not failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from importlib import resources
from pathlib import Path

from . import asymptotics as asym
from . import congruence as cg
from . import counting as ct
from . import enumeration as en
from . import polybasis as pb
from . import series as se
from . import trees as tr

_SERIES = {
    "M": lambda n: se.mobius_series(n),
    "A": lambda n: se.A_series(n),
    "phi": lambda n: se.phi_series(n),
    "schroeder": lambda n: se.schroeder_series(n),
}


def _load_golden(name: str) -> str:
    return resources.files("necs").joinpath("data").joinpath(name).read_text(encoding="utf-8")


def _emit_series(args) -> int:
    which = args.which
    if which.startswith("Am:"):
        m = int(which.split(":", 1)[1])
        s = se.Am_series(m, args.terms)
    elif which in _SERIES:
        s = _SERIES[which](args.terms)
    else:
        raise ValueError(f"unknown series {which!r}; choose M, A, Am:<m>, phi, schroeder")
    start = 0 if which == "phi" else 1
    for k in range(start, args.terms + 1):
        if args.format == "csv":
            print(f"{k},{s[k]}")
        else:
            print(s[k])
    return 0


def _default_cache(args) -> str | None:
    if args.cache:
        return args.cache
    root = os.environ.get("NECS_CACHE_DIR")
    return os.path.join(root, "counts.json") if root else None


def _emit_count(args) -> int:
    if args.lcm_max is not None and not args.lcm:
        raise ValueError("--lcm-max needs --lcm")
    if args.cache is not None and args.lcm:
        raise ValueError("--cache holds only the size/gcd table, not --lcm")
    if args.lcm:
        table = ct.count_size_gcd_lcm(args.max_size, args.lcm_max)
    else:
        table = ct.count_size_gcd(args.max_size, cache_path=_default_cache(args))
    out = ["k,m,l,count\n" if args.lcm else "k,m,count\n"] if args.format == "csv" else []
    for *key, v in table.rows():
        if args.lcm and key[2] == ct.OVERFLOW:
            key[2] = "overflow"
        label = ",".join(map(str, key))
        out.append(f"{label},{v}\n" if args.format == "csv" else f"a({label}) = {v}\n")
    sys.stdout.write("".join(out))
    if args.lcm and table.overflowed:
        print("# some counts exceeded --lcm-max and were bucketed", file=sys.stderr)
    return 0


def _emit_enumerate(args) -> int:
    """List or count the systems of one size.  A listing writes each system
    as the ordered stream hands it over, formatting each distinct class once
    through a memo that lives as long as the listing.  An ordered stream is
    materialised before its first system, so an error or a budget abort
    leaves stdout empty."""
    if args.gcd is not None and not 1 <= args.gcd <= args.size:
        raise ValueError(f"--gcd must be between 1 and --size ({args.size}), got {args.gcd}")
    if args.ecs and args.canonical == "shift":
        raise ValueError("--canonical shift applies only to natural systems, not --ecs")
    if not args.ecs and (args.max_modulus is not None or args.budget is not None):
        raise ValueError("--max-modulus and --budget need --ecs")
    count_only = args.format == "count-only"
    if args.ecs:
        cfg = en.EcsSearchConfig(
            max_modulus=args.max_modulus, budget_seconds=args.budget, gcd=args.gcd
        )
        systems = None if count_only else en.enumerate_ecs(args.size, cfg)
    elif args.canonical == "shift":
        if count_only:
            print(en.shift_class_count(args.size, args.gcd))
            return 0
        systems = en.enumerate_shift_classes(args.size, args.gcd)
    else:
        systems = en.enumerate_necs(args.size, args.gcd, ordered=not count_only)
    write = sys.stdout.write
    try:
        if count_only:
            print(en.count_ecs(args.size, cfg) if args.ecs else sum(1 for _ in systems))
        elif args.format == "json":
            fmt, sep = functools.cache(cg.class_json), "["
            for s in systems:
                write(sep + "[" + ", ".join(map(fmt, s.classes)) + "]")
                sep = ", "
            write("[]\n" if sep == "[" else "]\n")
        else:
            fmt, sep = functools.cache(cg.class_text), ""
            for s in systems:
                write(sep + "".join(map(fmt, s.classes)))
                sep = "\n"
    except en.SearchBudgetExceeded as exc:
        print(f"search aborted: {exc}", file=sys.stderr)
        return 5
    return 0


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift CPython's limit on int <-> str conversion (4,300 digits by
    default, where the interpreter has one) inside the block, and restore it
    on the way out."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _read_system(path: str, as_json: bool) -> cg.CoveringSystem:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    # a split chain of about 14,300 levels has a modulus past the digit limit
    with _unlimited_int_digits():
        if as_json or path.endswith(".json"):
            return cg.parse_system_json(text)
        return cg.parse_system_text(text)


def _emit_recognize(args) -> int:
    system = _read_system(args.file, args.json)
    try:
        witness = cg.naturality_witness(system)
    except cg.NotExactCoverError:
        print("not an exact covering system")
        return 4
    if witness is None:
        print("exact but not natural")
        return 3
    print(f"natural exact covering system; witness split tree: {tr.format_tree(witness)}")
    return 0


def _emit_check(args) -> int:
    system = _read_system(args.file, args.json)
    try:
        cg.naturality_witness(system)  # a tree or None: exact either way
        exact = True
    except cg.NotExactCoverError:
        exact = False
    verdict = "exact" if exact else "not exact"
    with _unlimited_int_digits():
        print(
            f"{verdict}: size {cg.size_of(system)}, gcd {cg.gcd_of(system)}, lcm {cg.lcm_of(system)}"
        )
    return 0 if exact else 4


def _fixed_json(x: asym.FixedReal) -> dict:
    # exact error bounds pass CPython's int-to-str digit limit from about
    # --digits 400
    err = x.error_bound
    with _unlimited_int_digits():
        return {
            "mantissa": str(x.mantissa),
            "scale": x.scale,
            "error_bound": f"{err.numerator}/{err.denominator}",
            "decimal": x.decimal(),
        }


def _emit_asympt(args) -> int:
    if args.ratios < 0:
        raise ValueError(f"need --ratios >= 0, got {args.ratios}")
    d = args.digits
    cs = asym.constants(d)
    values = dict(cs.as_dict())
    values["alpha"] = asym.find_alpha(d)
    values["beta"] = asym.find_beta(d)
    # the ratio report may refuse its K, so it is built before any output
    ratios = asym.ratio_check(args.ratios) if args.ratios else None
    if args.json:
        blob = {name: _fixed_json(v) for name, v in values.items()}
    else:
        width = max(len(n) for n in values)
        for name, v in values.items():
            print(f"{name:<{width}} = {v.decimal(d)}")
    if ratios is not None:
        if args.json:
            blob["ratios"] = {
                "target": ratios.target,
                "rows": [[r.k, r.ratio, r.gap] for r in ratios.rows],
            }
        else:
            print(f"ratio a_k k^1.5 / gamma^k -> c = {ratios.target:.12f}")
            for row in ratios.rows:
                print(f"  k={row.k:3d}  ratio={row.ratio:.12f}  gap={row.gap:.3e}")
    if args.identities:
        rep = asym.identity_checks(d)
        if args.json:
            blob["identities"] = [
                [r.name, r.point, float(r.residual_bound)] for r in rep.results
            ]
        else:
            for r in rep.results:
                print(f"identity {r.name} at {r.point}: residual <= {float(r.residual_bound):.3e}")
    if args.json:
        print(json.dumps(blob, indent=2))
    return 0


def _emit_poly(args) -> int:
    bp = pb.binomial_coeffs(args.n)  # rejects n < 1 before the flags that depend on n
    if args.check_diffs < 0:
        raise ValueError(f"need --check-diffs >= 0, got {args.check_diffs}")
    if args.check_diffs > args.n:
        # the identity holds for l <= m <= n, so a larger L checks nothing
        raise ValueError(f"need --check-diffs <= --n ({args.n}), got {args.check_diffs}")
    if args.format == "csv":
        print("n,k,coefficient")
        for k, c in enumerate(bp.coeffs, start=1):
            print(f"{args.n},{k},{c}")
    else:
        body = " + ".join(f"{c}*C(x,{k})" for k, c in enumerate(bp.coeffs, start=1))
        print(f"f_{args.n}(x) = {body}")
    if args.check_diffs:
        diffs = pb.backward_differences(args.check_diffs, args.n)
        bad = [(l, m, got) for (l, m), got in diffs.items() if l and got != 3**l]
        for l, m, got in bad:
            print(f"difference l={l}, m={m}: {got} != {3**l}", file=sys.stderr)
        print("backward differences: " + ("MISMATCH" if bad else "all equal 3^l"))
        return 1 if bad else 0
    return 0


def _emit_trees(args) -> int:
    if args.chi is not None and args.leaves is not None:
        raise ValueError("give --leaves K or --chi TREE, not both")
    if args.chi is not None:
        tree = tr.parse_tree(args.chi)
        sys.stdout.write(cg.format_system_text(tr.chi(tree)))
        return 0
    if args.leaves is None:
        raise ValueError("need --leaves K or --chi TREE")
    if args.format == "count-only":
        print(sum(1 for _ in tr.enumerate_trees(args.leaves)))
    else:
        sys.stdout.writelines(tr.format_tree(t) + "\n" for t in tr.enumerate_trees(args.leaves))
    return 0


def _emit_verify(args) -> int:
    order = args.order
    if order < 1:
        raise ValueError(f"need --order >= 1, got {order}")
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}{': ' + detail if detail else ''}")

    a = se.A_series(max(order, 8))
    report("reversion-head", a.coeffs[1:9] == (1, 1, 3, 10, 39, 160, 691, 3081))

    m = se.mobius_series(order)
    report("functional-equation", se.compose(m, a.truncate(order), order) == se.x_series(order))

    n_pow = min(order, 24)
    a_pow = a.truncate(n_pow)
    ok = True
    for n in range(2, 7):
        lhs = se.power(a_pow, n, n_pow)
        total = [0] * (n_pow + 1)
        d = 1
        while n * d <= n_pow:
            amd = se.Am_of(a_pow, n * d, n_pow)
            total = [t + amd[i] for i, t in enumerate(total)]
            d += 1
        ok = ok and lhs.coeffs == tuple(total)
    report("power-sums", ok)

    # count_size_gcd reads its table off the powers of A, so its row sums are
    # A by construction; the recurrence over lcm vectors is the independent route.
    # With lcm_max=1 every lcm above 1 shares the overflow bucket, so this is
    # the recurrence plus one tag, and its marginal is exact.
    k_dp = min(order, 22)
    table = ct.count_size_gcd_lcm(k_dp, lcm_max=1).marginal()
    report(
        "dp-vs-reversion",
        all(table.row_sum(k) == a[k] for k in range(1, k_dp + 1)),
    )

    golden2 = _load_golden("table2.csv").strip().splitlines()
    lines = ["k,m,count"] + [f"{k},{mm},{v}" for k, mm, v in ct.count_size_gcd(13).rows()]
    report("gcd-table-golden", lines == golden2)

    golden1 = _load_golden("table1.txt")
    chunks = []
    for k in range(1, 5):
        for s in en.enumerate_necs(k):
            chunks.append(cg.format_system_text(s))
    report("small-systems-golden", "\n".join(chunks) == golden1)

    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process.

    `run` calls it for each command, so the first call builds the tree and
    later calls return the same object: do not mutate it.  Parsing keeps no
    state in it; each `parse_args` fills a fresh namespace.
    """
    p = argparse.ArgumentParser(prog="necs", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("series", help="print series coefficients")
    sp.add_argument("--which", required=True, help="M | A | Am:<m> | phi | schroeder")
    sp.add_argument("--terms", type=int, default=16)
    sp.add_argument("--format", choices=["lines", "csv"], default="lines")
    sp.set_defaults(func=_emit_series)

    cp = sub.add_parser("count", help="size/gcd (and lcm) count tables")
    cp.add_argument("--max-size", type=int, required=True)
    cp.add_argument("--lcm", action="store_true", help="track lcm as well")
    cp.add_argument("--lcm-max", type=int, default=None)
    cp.add_argument("--cache", default=None, help="JSON cache path")
    cp.add_argument("--format", choices=["csv", "lines"], default="csv")
    cp.set_defaults(func=_emit_count)

    ep = sub.add_parser("enumerate", help="list covering systems")
    ep.add_argument("--size", type=int, required=True)
    ep.add_argument("--gcd", type=int, default=None)
    ep.add_argument("--canonical", choices=["none", "shift"], default="none")
    ep.add_argument("--format", choices=["lines", "json", "count-only"], default="lines")
    ep.add_argument("--ecs", action="store_true", help="search all exact covers, not just natural ones")
    ep.add_argument("--budget", type=float, default=None, help="seconds before the search aborts")
    ep.add_argument("--max-modulus", type=int, default=None)
    ep.set_defaults(func=_emit_enumerate)

    rp = sub.add_parser("recognize", help="is the input a natural exact covering system?")
    rp.add_argument("file", help="'a mod n' lines, or JSON pairs; '-' for stdin")
    rp.add_argument("--json", action="store_true", help="force JSON input")
    rp.set_defaults(func=_emit_recognize)

    kp = sub.add_parser("check", help="exactness and invariants of a system file")
    kp.add_argument("file")
    kp.add_argument("--json", action="store_true")
    kp.set_defaults(func=_emit_check)

    ap = sub.add_parser("asympt", help="certified growth constants")
    ap.add_argument("--digits", type=int, default=60)
    ap.add_argument("--ratios", type=int, default=0, metavar="K")
    ap.add_argument("--identities", action="store_true")
    ap.add_argument("--json", action="store_true")
    ap.set_defaults(func=_emit_asympt)

    pp = sub.add_parser("poly", help="binomial-basis diagonal polynomials")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--check-diffs", type=int, default=0, metavar="L")
    pp.add_argument("--format", choices=["csv", "lines"], default="csv")
    pp.set_defaults(func=_emit_poly)

    tp = sub.add_parser("trees", help="split trees and their covering systems")
    tp.add_argument("--leaves", type=int, default=None)
    tp.add_argument("--chi", default=None, metavar="TREE", help="parenthesized tree")
    tp.add_argument("--format", choices=["lines", "count-only"], default="lines")
    tp.set_defaults(func=_emit_trees)

    vp = sub.add_parser("verify", help="identity battery and golden tables")
    vp.add_argument("--order", type=int, default=32)
    vp.set_defaults(func=_emit_verify)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input values, unusable files
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
