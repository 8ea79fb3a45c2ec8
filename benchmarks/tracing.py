"""Per-layer tracing of braidrep from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper, both in
the module that defines it and in every braidrep module that imported it by
name, and patches the ring and matrix operators on their classes.  Spans are
aggregated in memory: for each key the call count, the inclusive time of
outermost calls, and the self time (span minus the traced spans inside it).
``layer_metrics`` turns merged aggregates into the per-layer metrics named
in BENCHMARK.json.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from braidrep import bmw, braid, burau, garside, laurent, lkb, matrix

# Each function is wrapped once; the wrapper replaces every module-level
# reference to the original in braidrep.
FUNCTIONS = {
    (matrix, "mat_inverse"): "matrix.inverse",
    (matrix, "mat_det"): "matrix.det",
    (lkb, "lkb_generator"): "generators.lkb",
    (burau, "burau_generator"): "generators.burau",
    (lkb, "lkb_of_word"): "lkb.word_image",
    (lkb, "is_trivial"): "lkb.is_trivial",
    (lkb, "words_equal"): "lkb.words_equal",
    (lkb, "length_omega"): "lkb.length_omega",
    (lkb, "omega_ball_oracle"): "lkb.omega_ball",
    (garside, "greedy_normal_form"): "garside.normal_form",
    (garside, "simple_head"): "garside.simple_head",
    (garside, "positive_fraction"): "garside.positive_fraction",
    (bmw, "bratteli_dim"): "bmw.bratteli",
    (bmw, "level_diagrams"): "bmw.level_diagrams",
}
# __rmul__ and __radd__ are the same functions as __mul__ and __add__.
METHODS = {
    (laurent.LaurentPoly, ("__mul__", "__rmul__")): "laurent.mul",
    (laurent.LaurentPoly, ("__add__", "__radd__")): "laurent.add",
    (matrix.RepMatrix, ("__mul__",)): "matrix.mul",
    (braid.Permutation, ("__post_init__",)): "braid.permutation",
}
CACHED = {"generators.lkb": lkb.lkb_generator, "generators.burau": burau.burau_generator}
DECISIONS = ("lkb.is_trivial", "lkb.words_equal", "lkb.length_omega", "lkb.omega_ball")

# Exact counts that must repeat between two traced runs on one seed.
EXACT = (
    "laurent.mul_term_pairs",
    "matrix.mul_calls",
    "garside.simple_head_calls",
    "generators.lkb_misses",
)


def _terms(x) -> int:
    if isinstance(x, laurent.LaurentPoly):
        return len(x._terms)
    return 1 if x else 0


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self._stack = [0.0]
        self._active: Counter = Counter()
        self._misses_seen = {key: 0 for key in CACHED}

    def wrap(self, fn, key, after=None):
        """A wrapper recording a span of ``fn`` under ``key``.

        ``after(args, result, elapsed, outermost)`` records counts; its own
        time is left out of every span's self time.
        """
        stack, active, clock = self._stack, self._active, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            active[key] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                active[key] -= 1
                outermost = not active[key]
                self.calls[key] += 1
                self.self_s[key] += elapsed - children
                if outermost:
                    self.total[key] += elapsed
                hook = 0.0
                if after is not None and result is not None and result is not NotImplemented:
                    h0 = clock()
                    after(args, result, elapsed, outermost)
                    hook = clock() - h0
                stack[-1] += elapsed + hook

        traced.__wrapped__ = fn
        return traced

    # -- counts recorded at layer boundaries ---------------------------------

    def _after_mul(self, args, result, elapsed, outermost):
        self.counts["laurent.mul_term_pairs"] += _terms(args[0]) * _terms(args[1])
        self._after_poly(args, result, elapsed, outermost)

    def _after_poly(self, args, result, elapsed, outermost):
        terms = result._terms
        if len(terms) > self.peaks["laurent.peak_terms"]:
            self.peaks["laurent.peak_terms"] = len(terms)
        if terms:
            bits = max(max(terms.values()), -min(terms.values())).bit_length()
            if bits > self.peaks["laurent.max_coeff_bits"]:
                self.peaks["laurent.max_coeff_bits"] = bits

    def _after_generator(self, key):
        # An outermost call that added a cache miss built a table entry; its
        # inclusive time is the cold cost.
        def after(args, result, elapsed, outermost):
            misses = CACHED[key].cache_info().misses
            if outermost and misses != self._misses_seen[key]:
                self._misses_seen[key] = misses
                self.counts["generators.cold_s"] += elapsed

        return after

    def _after_word_image(self, args, result, elapsed, outermost):
        self.counts["lkb.letters"] += len(args[0].letters)

    def _after_simple_head(self, args, result, elapsed, outermost):
        if result[0] != args[0]:
            self.counts["garside.useful_heads"] += 1

    def _after_fraction(self, args, result, elapsed, outermost):
        self.counts["garside.fraction_letters_in"] += len(args[0])
        self.counts["garside.fraction_letters_out"] += len(result[0]) + len(result[1])

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "laurent.mul": self._after_mul,
            "laurent.add": self._after_poly,
            "lkb.word_image": self._after_word_image,
            "garside.simple_head": self._after_simple_head,
            "garside.positive_fraction": self._after_fraction,
            "generators.lkb": self._after_generator("generators.lkb"),
            "generators.burau": self._after_generator("generators.burau"),
        }
        for key, cached in CACHED.items():
            self._misses_seen[key] = cached.cache_info().misses
        modules = [m for name, m in sys.modules.items() if name == "braidrep" or name.startswith("braidrep.")]
        for (module, name), key in FUNCTIONS.items():
            original = getattr(module, name)
            wrapper = self.wrap(original, key, hooks.get(key))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
        for (cls, names), key in METHODS.items():
            wrapper = self.wrap(cls.__dict__[names[0]], key, hooks.get(key))
            for name in names:
                setattr(cls, name, wrapper)

    def snapshot(self) -> dict:
        """The aggregate as JSON data; ``merge`` sums snapshots of several processes."""
        info = CACHED["generators.lkb"].cache_info()
        counts = dict(self.counts)
        counts["generators.lkb_hits"] = info.hits
        counts["generators.lkb_misses"] = info.misses
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_s),
            "counts": counts,
            "peaks": dict(self.peaks),
        }


def merge(snapshots) -> dict:
    out = {part: Counter() for part in ("calls", "total", "self", "counts", "peaks")}
    for snap in snapshots:
        for part in ("calls", "total", "self", "counts"):
            out[part].update(snap[part])
        for key, value in snap["peaks"].items():
            out["peaks"][key] = max(out["peaks"][key], value)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict:
    """Per-layer values from a merged aggregate (the ``cli.*`` and ``trace.*``
    entries are added by the caller)."""
    calls, total, self_s, counts, peaks = (agg[p] for p in ("calls", "total", "self", "counts", "peaks"))
    hits, misses = counts["generators.lkb_hits"], counts["generators.lkb_misses"]
    return {
        "laurent.mul_calls": calls["laurent.mul"],
        "laurent.mul_term_pairs": counts["laurent.mul_term_pairs"],
        "laurent.mul_s": self_s["laurent.mul"],
        "laurent.add_calls": calls["laurent.add"],
        "laurent.add_s": self_s["laurent.add"],
        "laurent.peak_terms": peaks["laurent.peak_terms"],
        "laurent.max_coeff_bits": peaks["laurent.max_coeff_bits"],
        "matrix.mul_calls": calls["matrix.mul"],
        "matrix.mul_s": self_s["matrix.mul"],
        "matrix.inverse_calls": calls["matrix.inverse"],
        "matrix.inverse_s": total["matrix.inverse"],
        "matrix.det_s": total["matrix.det"],
        "generators.lkb_hits": hits,
        "generators.lkb_misses": misses,
        "generators.hit_ratio": _ratio(hits, hits + misses),
        "generators.cold_s": counts["generators.cold_s"],
        "lkb.word_image_calls": calls["lkb.word_image"],
        "lkb.word_image_s": total["lkb.word_image"],
        "lkb.letters": counts["lkb.letters"],
        "lkb.decision_s": sum(total[k] for k in DECISIONS),
        "lkb.is_trivial_s": total["lkb.is_trivial"],
        "lkb.words_equal_s": total["lkb.words_equal"],
        "lkb.length_omega_s": total["lkb.length_omega"],
        "lkb.omega_ball_s": total["lkb.omega_ball"],
        "garside.normal_form_s": total["garside.normal_form"],
        "garside.simple_head_calls": calls["garside.simple_head"],
        "garside.useful_head_ratio": _ratio(counts["garside.useful_heads"], calls["garside.simple_head"]),
        "garside.fraction_expansion": _ratio(
            counts["garside.fraction_letters_out"], counts["garside.fraction_letters_in"]
        ),
        "braid.permutations_built": calls["braid.permutation"],
        "bmw.bratteli_s": total["bmw.bratteli"],
        "bmw.level_diagrams_s": total["bmw.level_diagrams"],
    }
