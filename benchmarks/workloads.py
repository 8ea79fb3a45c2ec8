"""The four benchmark workloads, built from a seed.

A workload is a list of operations, each a callable plus a check of its
result.  Sizes and kinds follow a fixed low-discrepancy sequence over the
operation index, so every prefix of the list has nearly the same mix
whatever the seed; the seed chooses the letters.  That keeps runs with
different seeds comparable.

Why each workload exists:

- ``lkb_long``: is_trivial / words_equal on long signed words (n = 5..7, a
  few at n = 9).  Almost all time goes to LaurentPoly mul/add on entries
  with hundreds of terms and growing coefficients: where a faster
  polynomial kernel and a modular fast reject must show.
- ``lkb_short``: the same calls plus length_omega on tiny words (n = 3..5,
  L = 1..12).  Per-call overhead, RepMatrix allocation and generator cache
  hits dominate, so a kernel with per-call packing costs would lose here.
- ``garside``: greedy_normal_form on long positive words and normal-form
  equality through positive_fraction on signed words.  It makes no
  LaurentPoly calls: the bypass case for polynomial work and the target of
  normal-form work.
- ``cli_cold``: one CLI process per request.  Each pays interpreter start,
  import and cold generator inversion; the only workload where the CLI, bmw
  and matrix inversion dominate.
"""

from __future__ import annotations

import dataclasses
import random
import subprocess
from typing import Callable

import braidrep as br

import oracle

GOLDEN = 0.6180339887498949


def spread(k: int) -> float:
    """The k-th point of the golden-ratio sequence in [0, 1)."""
    return (k * GOLDEN) % 1.0


def pick(u: float, segments) -> tuple[int, int]:
    """Map u in [0, 1) to (n, length) through (share, n, min_len, max_len) segments."""
    for share, n, lo, hi in segments:
        if u < share:
            return n, lo + int((hi - lo + 1) * u / share)
        u -= share
    _, n, _, hi = segments[-1]
    return n, hi


@dataclasses.dataclass
class Op:
    kind: str
    size: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclasses.dataclass
class Workload:
    ops: list[Op]
    warm: Callable[[], None] = lambda: None


def _expect(expected):
    def check(result):
        return None if result == expected else f"expected {expected!r}, got {result!r}"

    return check


def decision_case(rng: random.Random, kind: str, n: int, length: int):
    """Words of ``length`` letters for a decision of the given kind, and the
    answer by construction."""
    u = oracle.random_word(rng, n, length)
    same = oracle.rewrite(rng, n, u, max(2, length // 2))
    if kind == "trivial_yes":
        return (u + oracle.inverse(same),), True
    if kind == "trivial_no":
        # Flipping in the first half keeps the conjugate a s^2e a^-1 about as
        # long as u, so these words cost about as much as the trivial ones.
        return (u + oracle.inverse(oracle.flip_one(rng, same, max(1, len(same) // 2))),), False
    if kind == "equal_yes":
        return (u, same), True
    if kind == "equal_no":
        return (u, oracle.flip_one(rng, u)), False
    if kind == "omega_trivial":
        return (u + oracle.inverse(same),), 0
    if kind == "omega_positive":
        word = oracle.random_word(rng, n, length, positive=True)
        # The length of a positive braid is its number of normal-form factors.
        return (word,), len(br.greedy_normal_form(br.BraidWord(n, word)).factors)
    raise ValueError(kind)


def _decide(kind: str, n: int, words):
    args = [br.BraidWord(n, w) for w in words]
    if kind.startswith("trivial"):
        return lambda: br.is_trivial(*args)
    if kind.startswith("equal"):
        return lambda: br.words_equal(*args)
    return lambda: br.length_omega(*args)


def _decision_workload(name, seed, kinds, segments, count, strands) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    ops = []
    for k in range(count):
        kind = kinds[k % len(kinds)]
        n, length = pick(spread(k + 1), segments)
        words, expected = decision_case(rng, kind, n, length)
        ops.append(Op(kind, f"n={n} L={length}", _decide(kind, n, words), _expect(expected)))

    def warm():
        for n in strands:
            for k in range(1, n):
                br.lkb_generator(n, k, 1)
                br.lkb_generator(n, k, -1)

    return Workload(ops, warm)


def lkb_long(seed: int) -> Workload:
    segments = [(0.40, 5, 20, 28), (0.35, 6, 18, 26), (0.20, 7, 16, 22), (0.05, 9, 12, 16)]
    kinds = ("trivial_yes", "equal_no", "trivial_no", "equal_yes")
    return _decision_workload("lkb_long", seed, kinds, segments, 400, (5, 6, 7, 9))


def lkb_short(seed: int) -> Workload:
    segments = [(0.34, 3, 1, 12), (0.33, 4, 1, 12), (0.33, 5, 1, 12)]
    kinds = ("trivial_yes", "omega_positive", "equal_no", "trivial_no", "omega_positive",
             "equal_yes", "omega_trivial", "omega_positive")
    return _decision_workload("lkb_short", seed, kinds, segments, 800, (3, 4, 5))


# -- garside -------------------------------------------------------------------


def _nf_equal(n: int, u: br.BraidWord, v: br.BraidWord) -> bool:
    """u == v decided by normal forms: with u = x D^-d and v = x' D^-d', the
    braids agree iff x D^(d'-d) and x' have the same normal form."""
    delta = oracle.reduced_word(tuple(range(n - 1, -1, -1)))
    (x, y), (x2, y2) = br.positive_fraction(u), br.positive_fraction(v)
    shift = (len(y2) - len(y)) // len(delta)
    a = x.letters + delta * max(shift, 0)
    b = x2.letters + delta * max(-shift, 0)
    return br.greedy_normal_form(br.BraidWord(n, a)) == br.greedy_normal_form(br.BraidWord(n, b))


def _normal_form_op(rng: random.Random, n: int, length: int) -> Op:
    word = oracle.random_word(rng, n, length, positive=True)
    burau = oracle.BurauModP(n, rng.randrange(2, oracle.PRIME))
    w = br.BraidWord(n, word)

    def run():
        return [f.reduced_word().letters for f in br.greedy_normal_form(w).factors]

    return Op("normal_form", f"n={n} L={length}", run, lambda factors: oracle.normal_form_error(n, word, factors, burau))


def garside(seed: int) -> Workload:
    rng = random.Random(f"garside:{seed}")
    positive = [(0.25, 5, 50, 110), (0.25, 6, 50, 120), (0.25, 7, 50, 110), (0.25, 8, 50, 130)]
    signed = [(0.45, 4, 10, 22), (0.35, 5, 10, 16), (0.20, 6, 10, 13)]
    ops = []
    for k in range(600):
        u = spread(k // 2 + 1)
        if k % 2 == 0:
            ops.append(_normal_form_op(rng, *pick(u, positive)))
            continue
        n, length = pick(u, signed)
        kind = "equal_yes" if k % 4 == 1 else "equal_no"
        (a, b), expected = decision_case(rng, kind, n, length)
        wa, wb = br.BraidWord(n, a), br.BraidWord(n, b)
        ops.append(Op("nf_" + kind, f"n={n} L={length}", lambda n=n, wa=wa, wb=wb: _nf_equal(n, wa, wb), _expect(expected)))
    return Workload(ops)


# -- cli_cold --------------------------------------------------------------------

CLI_TIMEOUT_S = 30.0

# One round of requests; heavy kinds (growth, bratteli, verify) are a small
# share, so the p90 falls among the word commands.  Their parameter lists are
# walked once within the first two rounds (48 requests), then the last, cheap
# entry repeats: a run makes at least worker.MIN_OPS = 100 requests, so it
# makes each heavy request exactly once wherever it stops.
CLI_ROUND = ("trivial_yes", "equal_no", "omega_positive", "normal_form", "trivial_no", "bratteli",
             "equal_yes", "omega_positive", "verify", "trivial_no", "normal_form", "equal_no",
             "omega_positive", "trivial_yes", "growth", "equal_yes", "normal_form", "omega_trivial",
             "trivial_no", "bratteli", "equal_no", "omega_positive", "verify", "normal_form")
CLI_WORDS = [(0.15, 3, 2, 8), (0.15, 4, 2, 8), (0.15, 5, 2, 7), (0.15, 6, 2, 6),
             (0.15, 7, 2, 6), (0.15, 8, 2, 5), (0.10, 9, 2, 4)]
CLI_GROWTH = ((4, 2), (3, 3))
CLI_BRATTELI = (30, 24, 20, 12)
CLI_SUITES = (("all", 3), ("relations", 6), ("full-twist", 6), ("bmw", 4))


def _walk(items, j: int):
    return items[min(j, len(items)) - 1]


@dataclasses.dataclass
class Completed:
    code: int
    out: str
    err: str


def _check_cli(expected_code: int, parse: Callable[[str], str | None]):
    def check(done: Completed):
        if done.code != expected_code:
            return f"exit code {done.code}, expected {expected_code}: {done.err.strip()[-200:]}"
        return parse(done.out)

    return check


def _lines_equal(expected: list[str]):
    return lambda out: None if out.splitlines() == expected else f"expected {expected!r}, got {out[:200]!r}"


def _check_normal_form(n: int, word: tuple[int, ...], burau: oracle.BurauModP):
    def parse(out):
        factors = [tuple(int(e) for e in line.split(",")) for line in out.splitlines()]
        return oracle.normal_form_error(n, word, factors, burau)

    return parse


def _check_bratteli(n: int):
    def parse(out):
        total = sum(int(line.split()[1]) ** 2 for line in out.splitlines())
        expected = oracle.double_factorial_odd(n)
        return None if total == expected else f"sum of squared dimensions {total} != (2n-1)!! = {expected}"

    return parse


def _check_verify(out: str) -> str | None:
    lines = out.splitlines()
    passed = [line for line in lines[:-1] if line.startswith("PASS: ")]
    if len(passed) != len(lines) - 1 or lines[-1:] != [f"{len(passed)}/{len(passed)} checks passed"]:
        return f"verify did not pass every check: {out[-200:]!r}"
    return None


def _text(word) -> str:
    return ",".join(str(e) for e in word)


def _cli_decision(kind: str, n: int, words, expected) -> tuple[list[str], Callable]:
    if kind.startswith("omega"):
        argv = ["length-omega", f"--n={n}", "--word=" + _text(words[0])]
        return argv, _check_cli(0, _lines_equal([str(expected)]))
    if kind.startswith("trivial"):
        argv = ["trivial", f"--n={n}", "--word=" + _text(words[0])]
        text = "trivial (LKB)" if expected else "nontrivial (LKB)"
    else:
        argv = ["equal", f"--n={n}", "--w1=" + _text(words[0]), "--w2=" + _text(words[1])]
        text = "equal (LKB)" if expected else "not equal (LKB)"
    return argv, _check_cli(0 if expected else 1, _lines_equal([text]))


def cli_cold(seed: int, command: list[str], env: dict[str, str]) -> Workload:
    """Requests to ``command`` (the CLI, or the traced runner), a fresh process each."""
    rng = random.Random(f"cli_cold:{seed}")
    growth = {(n, r): oracle.growth_spheres(n, r, oracle.BurauModP(n, rng.randrange(2, oracle.PRIME)))
              for n, r in CLI_GROWTH}
    seen: dict[str, int] = {}
    ops = []
    for k in range(240):
        kind = CLI_ROUND[k % len(CLI_ROUND)]
        j = seen[kind] = seen.get(kind, 0) + 1
        n, length = pick(spread(k + 1), CLI_WORDS)
        if kind == "normal_form":
            length = 4 + int(26 * spread(j))
            word = oracle.random_word(rng, n, length, positive=True)
            burau = oracle.BurauModP(n, rng.randrange(2, oracle.PRIME))
            argv = ["normal-form", f"--n={n}", "--word=" + _text(word)]
            check = _check_cli(0, _check_normal_form(n, word, burau))
        elif kind == "growth":
            n, radius = _walk(CLI_GROWTH, j)
            argv = ["growth", f"--n={n}", f"--radius={radius}"]
            check = _check_cli(0, _lines_equal([f"{i} {c}" for i, c in enumerate(growth[n, radius])]))
        elif kind == "bratteli":
            n = _walk(CLI_BRATTELI, j)
            argv = ["bratteli", f"--n={n}"]
            check = _check_cli(0, _check_bratteli(n))
        elif kind == "verify":
            suite, n = _walk(CLI_SUITES, j)
            argv = ["verify", f"--suite={suite}", f"--n={n}"]
            check = _check_cli(0, _check_verify)
        else:
            words, expected = decision_case(rng, kind, n, length)
            argv, check = _cli_decision(kind, n, words, expected)
        ops.append(Op(kind, " ".join(argv[:2]), _cli_call(command + argv, env), check))
    return Workload(ops)


def _cli_call(argv: list[str], env: dict[str, str]):
    def run() -> Completed:
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return Completed(done.returncode, done.stdout, done.stderr)

    return run


WORKLOADS = {"lkb_long": lkb_long, "lkb_short": lkb_short, "garside": garside}
