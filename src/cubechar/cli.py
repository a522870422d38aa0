"""Command-line front end: every verification as a reproducible batch run.

Exit codes: 0 success / PSD / all criteria pass; 1 failed verification,
not-PSD or falsification; 2 unparseable input; 3 resource cap exceeded;
4 sign undetermined at the precision cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from functools import partial

from . import appendix, caps, gnsfinite, obstruction, verify
from .certreal import DEFAULT_PRECISION, check_precision
from .characters import Alpha, BasePower, char_eval, check_gram_caps, gram_matrix
from .cube import NiceSet
from .errors import CapExceededError, FalsificationError
from .perm import (
    all_permutations,
    cycle_string,
    fixed_fraction,
    parse_permutation,
    random_permutation,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_UNDETERMINED = 4


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _check_count(flag: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} must be non-negative, got {value}")


def _parse_m_range(text: str) -> tuple:
    """`--m` as (lo, hi): an integer n is (n, n), and 'a..b' is (a, b)."""
    text = text.strip()
    parts = text.split("..")
    try:
        if len(parts) > 2:
            raise ValueError
        lo, hi = int(parts[0]), int(parts[-1])
    except ValueError:
        raise ValueError(f"--m expects an integer or 'a..b', got {text!r}") from None
    if lo > hi:
        raise ValueError(f"reversed range {text!r}: write the smaller end first")
    return lo, hi


def cmd_char_eval(args) -> int:
    check_precision(args.precision)
    alpha = Alpha.parse(args.alpha)
    perm = parse_permutation(args.perm)
    value = char_eval(alpha, perm)
    if isinstance(value, BasePower):
        rendered = str(value.enclosure(args.precision))
    else:
        rendered = str(value)
    if args.format == "json":
        _print_json(
            {
                "alpha": str(alpha),
                "perm": cycle_string(perm),
                "level": perm.level,
                "fixed_fraction": str(fixed_fraction(perm)),
                "value": rendered,
            }
        )
    else:
        print(rendered)
    return EXIT_OK


def cmd_gram(args) -> int:
    check_precision(args.precision)
    alpha = Alpha.parse(args.alpha)
    if args.all_level is not None:
        n = args.all_level
        _check_count("--all-level", n)
        # S(2^n) has (2^n)! elements; from n = 4 on only 16!, already past the cap, is formed
        check_gram_caps(math.factorial(1 << min(n, 4)), n)
        elements = list(all_permutations(n))
    elif args.elements:
        literals = [t for t in args.elements.split(";") if t.strip()]
        check = partial(check_gram_caps, len(literals))
        elements = [parse_permutation(t, check) for t in literals]
    else:
        raise ValueError("provide --elements or --all-level")
    report = gram_matrix(
        alpha, elements, witness_strategy=args.witness, precision=args.precision
    )
    if args.format == "text":
        print(f"{report.verdict} ({report.method})")
        if report.witness is not None:
            print("witness:", " ".join(report.witness))
            print("witness value:", report.witness_value)
    else:
        _print_json(report.to_json_dict())
    return EXIT_OK if report.is_psd else EXIT_FAILED


def _print_obstruction_csv(reports) -> None:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["alpha", "m", "value_lo", "value_hi", "sign", "method"])
    for r in reports:
        writer.writerow(r.csv_row())
    sys.stdout.write(out.getvalue())


def cmd_obstruction(args) -> int:
    alphas = [Alpha.parse(part).fraction for part in args.alpha.split(",") if part.strip()]
    if not alphas:
        raise ValueError("--alpha needs at least one value")
    if args.witness:
        if len(alphas) != 1:
            raise ValueError("--witness takes a single alpha")
        m, report = obstruction.noninteger_witness(alphas[0], precision=args.precision)
        if report.sign == "undetermined":
            print("undetermined", file=sys.stderr)
            return EXIT_UNDETERMINED
        if args.format == "json":
            _print_json({"witness_m": m, "report": report.to_json_dict()})
        elif args.format == "text":
            print(f"m={m} C_alpha(m) in {report.enclosure} certified {report.sign}")
        else:
            _print_obstruction_csv([report])
        return EXIT_OK
    lo, hi = _parse_m_range(args.m)
    for alpha in alphas:
        obstruction.check_m_range(alpha, lo, hi, args.precision)
    reports = [
        obstruction.c_alpha_real(alpha, m, precision=args.precision)
        for alpha in alphas
        for m in range(lo, hi + 1)
    ]
    if args.format == "json":
        _print_json([r.to_json_dict() for r in reports])
    elif args.format == "text":
        lines = []  # all rendered before the first is printed, so a refused value prints none
        for r in reports:
            shown = str(r.exact_value) if r.method == "exact" else str(r.enclosure)
            lines.append(f"C_{r.alpha}({r.m}) = {shown} [{r.sign}]")
        print("\n".join(lines))
    else:
        _print_obstruction_csv(reports)
    if any(r.sign == "undetermined" for r in reports):
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_construct_si(args) -> int:
    head = parse_permutation(args.perm)
    family = appendix.construct_si(head, args.repeats)
    report = appendix.verify_si_properties(head, family)
    if args.format == "text":
        print(f"family of {len(family)} at level {family.level}: ", end="")
        print("all properties verified" if report.ok else "FALSIFIED")
        if not report.ok:
            for kind in ("conjugacy_failures", "fix_failures", "even_failures"):
                for item in report.to_json_dict()[kind]:
                    print(f"  {kind}: {item}")
        return EXIT_OK if report.ok else EXIT_FAILED
    payload = {
        "head": cycle_string(head),
        "head_level": head.level,
        "repeats": family.repeats,
        "tail_block_level": family.tail_block_level,
        "family_level": family.level,
        "cycle_orders": sorted(family.generators),
        "block_decompositions": {
            str(k): list(gen.block_decomposition)
            for k, gen in family.generators.items()
            if gen.block_decomposition is not None
        },
        "verification": report.to_json_dict(),
    }
    if family.level <= 12:
        payload["members"] = [cycle_string(member.densify()) for member in family]
    _print_json(payload)
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_gns_check(args) -> int:
    level = args.level
    _check_count("--level", level)
    _check_count("--samples", args.samples)
    caps.LEVEL.check(2 * level)
    caps.GNS_SAMPLES.check(caps.log2_ceil(args.samples) + 2 * level)
    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.samples):
        s = random_permutation(level, rng)
        if gnsfinite.matrix_character(s) != fixed_fraction(s):
            failures.append(f"matrix character mismatch at {cycle_string(s)}")
    s = random_permutation(level, rng)
    t = random_permutation(level, rng)
    rep_s, rep_t = gnsfinite.rep_matrix(s), gnsfinite.rep_matrix(t)
    if gnsfinite.rep_matrix(s.compose(t)) != rep_s.compose(rep_t):
        failures.append("rep is not a homomorphism on a sampled pair")
    explicit_tensor = 4 * level <= caps.TENSOR.limit
    if explicit_tensor and gnsfinite.tensor_character(s, 2) != gnsfinite.matrix_character(s) ** 2:
        failures.append("tensor self-check failed")
    xi = gnsfinite.xi_vector(level)
    if gnsfinite.weighted_inner(xi, xi, level) != 1:
        failures.append("xi is not a unit vector")
    a = NiceSet.from_text(args.nice_set) if args.nice_set else NiceSet(1, 0b01)
    first = max(level, a.canonical().level) + 1
    # at alpha = 1 each character value is its base
    scan = gnsfinite.stabilization_bases(s, t, a, range(first, first + 4))
    if not gnsfinite.scan_is_constant(scan):
        failures.append(f"stabilization scan not constant: {[str(v) for v in scan]}")
    payload = {
        "level": level,
        "samples": args.samples,
        "seed": args.seed,
        "failures": failures,
        "ok": not failures,
    }
    if args.format == "text":
        print("ok" if not failures else "\n".join(failures))
    else:
        _print_json(payload)
    return EXIT_OK if not failures else EXIT_FAILED


def cmd_verify_all(args) -> int:
    results = verify.run_all(args.seed)
    if args.format == "json":
        payload = verify.render_json_dict(results)
        payload["seed"] = args.seed
        _print_json(payload)
    else:
        print(f"seed: {args.seed}")
        sys.stdout.write(verify.render_text(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubechar",
        description="Exact verification of the fixed-set character family on "
        "permutations of binary cubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char-eval", help="evaluate chi_alpha on one permutation")
    p.add_argument("--alpha", required=True, help="non-negative rational or 'inf'")
    p.add_argument("--perm", required=True, help="'level=n: ...' table or cycles, identity(n), odometer(n)")
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_char_eval)

    p = sub.add_parser("gram", help="Gram matrix of chi_alpha with a PSD certificate")
    p.add_argument("--alpha", required=True)
    p.add_argument("--elements", help="semicolon-separated permutation literals")
    p.add_argument("--all-level", type=int, help="use all of S(2^n), n <= 2")
    p.add_argument("--witness", choices=("auto", "signs"), default="auto")
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("obstruction", help="the alternating sums C_alpha(m)")
    p.add_argument("--alpha", required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--m", default="1..8", help="single m or range 'a..b'")
    which.add_argument("--witness", action="store_true", help="search for a certified negative value")
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("construct-si", help="build and verify a conjugate family")
    p.add_argument("--perm", required=True)
    p.add_argument("-r", "--repeats", type=int, default=1)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_construct_si)

    p = sub.add_parser("gns-check", help="finite GNS truncation identities")
    p.add_argument(
        "--level",
        type=int,
        default=2,
        help="cube level n <= 10; the tensor-square check runs only where the explicit"
        f" tensor is built (n <= {caps.TENSOR.limit // 4})",
    )
    p.add_argument(
        "--samples", type=int, default=50, help=f"samples x 4^n at most 2^{caps.GNS_SAMPLES.limit}"
    )
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--nice-set", help="cylinder set for the stabilization scan, e.g. 'k=2:1010'")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_gns_check)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
