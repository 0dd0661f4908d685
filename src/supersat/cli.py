"""Command-line front end.  JSON results go to stdout, diagnostics to
stderr; exact integers above the 53-bit float-safe range are serialized as
decimal strings.  `count` reads its family file through
`supersat.core.read_family`, which owns the file format, bytes included.

Exit codes: 0 ok, 1 verify-suite failure, 2 usage error, 3 precondition
violation, 4 file error, 5 family-format error.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from supersat import __version__

if TYPE_CHECKING:
    from typing import Optional, Sequence

    from supersat.scd import Permutation

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_FILE = 4
EXIT_FORMAT = 5

_SAFE_INT = 1 << 53

# sorted(supersat.verify.SUITES), spelled out so that parsing arguments
# imports no suite; a test keeps the two equal
SUITE_CHOICES = ("counting", "scd", "theorem")


def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) <= _SAFE_INT else str(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _emit(payload: dict) -> None:
    import json  # here, so that --version and usage errors never load it

    json.dump(_jsonable(payload), sys.stdout)
    sys.stdout.write("\n")


def _cmd_bound(args) -> int:
    from supersat.bounds import bound_report

    report = bound_report(args.n, args.k, args.x)
    _emit(report.to_payload())
    return EXIT_OK


def _cmd_sigma(args) -> int:
    from supersat.core import sigma

    _emit({"n": args.n, "k": args.k, "sigma": sigma(args.n, args.k)})
    return EXIT_OK


def _cmd_count(args) -> int:
    from supersat.core import read_family
    from supersat.counting import count_k_chains

    _emit({"count": count_k_chains(read_family(args.family), args.k)})
    return EXIT_OK


def _cmd_construct(args) -> int:
    from supersat.bounds import build_extremal_family
    from supersat.core import family_text_blocks

    family = build_extremal_family(args.n, args.k, args.x)
    # one block of text at a time, never the whole file
    blocks = family_text_blocks(family)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(blocks)
        _emit({"n": args.n, "k": args.k, "x": args.x, "size": family.size(), "out": args.out})
    else:
        sys.stdout.writelines(blocks)
    return EXIT_OK


def _int_list(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of an option's value; `what` names them in the error."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None


def _parse_permutation(text: str, n: int) -> Permutation:
    from supersat.scd import Permutation

    image = _int_list(text, "permutation")
    if len(image) != n:
        raise ValueError(f"permutation lists {len(image)} images, expected {n}")
    return Permutation(image)


def _cmd_scd(args) -> int:
    from supersat.core import _word_formatter
    from supersat.scd import _permuted, _scd_chains, _validate_chains

    # every mode reads each chain once, as it is made: the dump writes it,
    # --validate marks its words, and --permute holds one level's images
    chains = _scd_chains(args.n)
    if args.permute:
        chains = _permuted(chains, _parse_permutation(args.permute, args.n))
    if args.validate:
        report, read = _validate_chains(args.n, chains)
        _emit(
            {
                "n": args.n,
                "method": args.method,
                "chains": read,
                "valid": report.ok,
                "checks": dict(zip(report._fields[:5], report[:5])),
                "problems": list(report.problems),
            }
        )
        return EXIT_OK
    name = _word_formatter(args.n)
    sys.stdout.writelines(" -> ".join(map(name, chain)) + "\n" for chain in chains)
    return EXIT_OK


def _cmd_nperm(args) -> int:
    from supersat.bounds import (
        check_enumerable,
        n_permutations_enumerate,
        n_permutations_factorial,
        n_permutations_ratio,
    )
    from supersat.scd import scd_inductive

    levels = _int_list(args.levels, "levels")
    payload = {
        "n": args.n,
        "levels": list(levels),
        "factorial_form": n_permutations_factorial(args.n, levels),
        "ratio_form": n_permutations_ratio(args.n, levels),
    }
    payload["agree"] = payload["factorial_form"] == payload["ratio_form"]
    if args.enumerate:
        check_enumerable(args.n)  # before building a decomposition it would not use
        # the chain of initial segments [lvl]; the formulas above have checked the levels
        chain = [(1 << lvl) - 1 for lvl in levels]
        enumerated = n_permutations_enumerate(scd_inductive(args.n), chain)
        payload["enumerated"] = enumerated
        payload["agree"] = payload["agree"] and enumerated == payload["factorial_form"]
    _emit(payload)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from supersat.core import serialize_family
    from supersat.oracle import min_chain_count_exact, min_chain_count_heuristic

    if args.iters < 0:
        raise ValueError("iterations must be nonnegative")
    if args.heuristic:
        result = min_chain_count_heuristic(
            args.n, args.k, args.size, seed=args.seed, iterations=args.iters
        )
    else:
        result = min_chain_count_exact(args.n, args.k, args.size)
    _emit(
        {
            "n": result.n,
            "k": result.k,
            "size": result.family_size,
            "min_count": result.min_count,
            "exact": result.exact,
            "witness": serialize_family(result.witness),
        }
    )
    return EXIT_OK


def _cmd_kleitman(args) -> int:
    from supersat.oracle import kleitman_report

    rows = kleitman_report(args.n, args.k, seed=args.seed, iterations=args.iters)
    if args.json:
        _emit(
            {
                "n": args.n,
                "k": args.k,
                "rows": [
                    {
                        "size": row.size,
                        "min_count": row.min_count,
                        "exact": row.exact,
                        "construction": row.construction_count,
                        "equal": row.equal,
                    }
                    for row in rows
                ],
            }
        )
        return EXIT_OK
    sys.stdout.write("size\tmin_count\texact\tconstruction\tequal\n")
    for row in rows:
        sys.stdout.write(
            f"{row.size}\t{row.min_count}\t{str(row.exact).lower()}"
            f"\t{row.construction_count}\t{str(row.equal).lower()}\n"
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from supersat.verify import run_suite

    checks = run_suite(args.suite, seed=args.seed)
    _emit(
        {
            "suite": args.suite,
            "ok": all(check.ok for check in checks),
            "checks": [
                {"name": check.name, "ok": check.ok, "detail": check.detail} for check in checks
            ],
        }
    )
    return EXIT_OK if all(check.ok for check in checks) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersat",
        description="Chain counting, symmetric chain decompositions, and "
        "supersaturation bounds in the subset lattice.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="forced k-chain lower bound for a size surplus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("sigma", help="sum of the k largest binomials C(n, .)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("count", help="count k-chains in a family file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", required=True, help="path to a family file")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("construct", help="emit the extremal family for (n, k, x)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--out", help="write the family file here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("scd", help="dump or validate a symmetric chain decomposition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("inductive", "bracketing"), default="inductive",
                   help="either name gives the one SCD: bracket matching yields the inductive one")
    p.add_argument("--permute", help="comma-separated images of 1..n")
    p.add_argument("--validate", action="store_true", help="emit a JSON validation report")
    p.set_defaults(func=_cmd_scd)

    p = sub.add_parser("nperm", help="permutation-count formulas for a level tuple")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--levels", required=True, help="comma-separated levels a1<...<ak")
    p.add_argument("--enumerate", action="store_true", help="cross-check by brute force (n <= 7)")
    p.set_defaults(func=_cmd_nperm)

    p = sub.add_parser("oracle", help="minimum chain count over families of one size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--heuristic", action="store_true", help="annealing search (n <= 10)")
    p.add_argument("--seed", type=int, default=0,
                   help="annealing seed; only --heuristic reads it, the exact sweep ignores it")
    p.add_argument("--iters", type=int, default=2000,
                   help="annealing steps, at least 0; only --heuristic runs them, "
                   "the exact sweep ignores the value")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("kleitman", help="minimum vs centered construction for every size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="annealing seed for n >= 5; ignored for n <= 4, where every row is exact")
    p.add_argument("--iters", type=int, default=500,
                   help="annealing steps per size for n >= 5, at least 0; "
                   "ignored for n <= 4, where every row is exact")
    p.add_argument("--json", action="store_true", help="JSON instead of the TSV table")
    p.set_defaults(func=_cmd_kleitman)

    p = sub.add_parser("verify", help="run a module property suite")
    p.add_argument("--suite", choices=SUITE_CHOICES, required=True)
    p.add_argument("--seed", type=int, default=2024,
                   help="seed of the counting and theorem suites; "
                   "the scd suite draws nothing at random")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from supersat.core import FamilyFormatError

    try:
        return args.func(args)
    except FamilyFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
