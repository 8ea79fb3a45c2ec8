"""
Command-line interface.

Exit codes are a stable contract:

    0  success (or: the queried predicate is true)
    1  the queried predicate is false
    2  usage error (malformed word, bad arguments)
    3  resource guard triggered (n / radius / exact-image word beyond desk scale)
    4  internal assertion failed (a checked identity was violated)
    5  unexpected error (a bug: one line on stderr, no traceback)

Words are comma- or whitespace-separated nonzero integers (+i for the i-th
generator, -i for its inverse); the strand count comes from --n.  All output
formats are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import sys

from .bmw import YoungDiagram, bratteli_dim, level_diagrams
from .braid import BraidWord
from .burau import burau_of_word
from .errors import InternalCheckError, ResourceGuardError
from .garside import greedy_normal_form
from .lkb import (
    _guard_exact_images,
    is_trivial,
    length_omega,
    lkb_of_word,
    omega_ball_oracle,
    words_equal,
)
from .verify import SUITES, run_suite

_MAX_STRANDS = 9


def _parse_word(n: int, text: str) -> BraidWord:
    if n < 1:
        raise ValueError("strand count must be at least 1")
    if n > _MAX_STRANDS:
        raise ResourceGuardError(f"strand count {n} exceeds the desk-scale cap {_MAX_STRANDS}")
    return BraidWord.from_text(n, text)


def _print_matrix(matrix, fmt: str, order: str) -> None:
    if fmt == "json":
        import json  # only this branch uses it, so no other request pays for its import

        print(json.dumps(matrix.to_json_obj(order)))
        return
    cells = [[e.pretty() for e in row] for row in matrix.entries]
    widths = [
        max(len(cells[r][c]) for r in range(matrix.dim)) for c in range(matrix.dim)
    ]
    for row in cells:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _cmd_matrix(args) -> int:
    word = _parse_word(args.n, args.word)
    _guard_exact_images(word, rep="Burau" if args.rep == "burau" else "LKB")
    if args.rep == "burau":
        _print_matrix(burau_of_word(word), args.format, "strand")
    else:
        _print_matrix(lkb_of_word(word), args.format, "lex-refpair")
    return 0


def _answer(yes: bool, yes_text: str, no_text: str) -> int:
    print(yes_text if yes else no_text)
    return 0 if yes else 1


def _cmd_trivial(args) -> int:
    word = _parse_word(args.n, args.word)
    return _answer(is_trivial(word), "trivial (LKB)", "nontrivial (LKB)")


def _cmd_equal(args) -> int:
    a = _parse_word(args.n, args.w1)
    b = _parse_word(args.n, args.w2)
    return _answer(words_equal(a, b), "equal (LKB)", "not equal (LKB)")


def _cmd_normal_form(args) -> int:
    word = _parse_word(args.n, args.word)
    if not word.is_positive:
        raise ValueError("normal-form takes a positive word")
    nf = greedy_normal_form(word)
    if nf.is_trivial():
        print("identity")
    else:
        for factor in nf.factors:
            print(factor.reduced_word().to_text())
    return 0


def _cmd_length_omega(args) -> int:
    word = _parse_word(args.n, args.word)
    print(length_omega(word))
    return 0


def _cmd_growth(args) -> int:
    ball = omega_ball_oracle(args.n, args.radius)
    counts = [0] * (args.radius + 1)
    for depth, _ in ball.values():
        counts[depth] += 1
    for k, count in enumerate(counts):
        print(f"{k} {count}")
    return 0


def _cmd_bratteli(args) -> int:
    if args.n < 1 or args.n > 40:
        raise ResourceGuardError(f"bratteli level {args.n} out of the supported range 1..40")
    if args.diagram is not None:
        diagram = YoungDiagram.from_text(args.diagram)
        print(bratteli_dim(args.n, diagram))
        return 0
    for diagram in level_diagrams(args.n):
        print(f"{diagram.to_text()} {bratteli_dim(args.n, diagram)}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, args.n)
    failed = 0
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}: {r.name}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidrep",
        description="Exact braid-group representations, Garside normal forms, and BMW dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="representation matrix of a word")
    p.add_argument("--rep", choices=("burau", "lkb"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("trivial", help="is the word the identity braid? (exit 0 yes, 1 no)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_trivial)

    p = sub.add_parser("equal", help="do two words represent the same braid? (exit 0 yes, 1 no)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("normal-form", help="left-weighted normal form of a positive word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("length-omega", help="word length in the simple generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_length_omega)

    p = sub.add_parser("growth", help="census of the ball by simple-generator length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("bratteli", help="module dimensions at a tower level")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diagram", help="partition as comma-separated rows; '-' for the empty diagram")
    p.set_defaults(func=_cmd_bratteli)

    p = sub.add_parser("verify", help="run a self-verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # last resort: never let a crash read as exit 1
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


def main_exit() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
