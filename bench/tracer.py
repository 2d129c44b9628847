"""Per-layer spans and counters, recorded around calls into gausslab.

The wrappers are installed from outside the library: every gausslab module
name that binds a traced function (for example both ``polycore.div_exact``
and ``qgauss.div_exact``) is rebound to one wrapper.  A span's self time is
its duration minus the time covered by traced spans it called.  Counters
wrap a function without opening a span, so their time stays with the
enclosing span.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

SHAPE_FUNCTIONS = (
    "is_unimodal",
    "mode",
    "is_log_concave",
    "is_palindromic",
    "darga",
    "gamma_decompose",
    "is_gamma_nonnegative",
)

# span name -> (module, function) pairs whose calls it times.
SPANS = {
    "cli": [("cli", "main")],
    "enumerate_box": [("injectlab", "enumerate_box")],
    "audit": [("injectlab", "audit")],
    "check_claim": [("injectlab", "check_claim")],
    "quotient": [("qgauss", "gaussian_quotient")],
    "level_counts": [("qgauss", "level_counts")],
    "koh_sum": [("qgauss", "koh_sum")],
    "pascal": [("qgauss", "gaussian_pascal")],
    "mul": [("polycore", "IntPoly.__mul__")],
    "div_exact": [("polycore", "div_exact")],
    "real_rooted": [("polycore", "is_real_rooted")],
    "shape": [("polycore", name) for name in SHAPE_FUNCTIONS],
    "eulerian": [("posetlab", "eulerian")],
    "max_antichain": [("posetlab", "max_antichain")],
    "inversion_polynomial": [("posetlab", "inversion_polynomial")],
    "monotone_injection": [("pathlab", "monotone_injection")],
    "count_free": [("pathlab", "count_free")],
}

# Per-layer metric -> unit, in the order they are reported.
PER_LAYER = {
    "cli.self_s": "s",
    "injectlab.enumerate_box_s": "s",
    "injectlab.enumerate_box_calls": "count",
    "injectlab.partitions_built": "count",
    "injectlab.audit_s": "s",
    "injectlab.audit_calls": "count",
    "injectlab.check_claim_s": "s",
    "injectlab.check_claim_calls": "count",
    "injectlab.levels_built": "count",
    "injectlab.levels_scanned": "count",
    "injectlab.level_use_ratio": "ratio",
    "qgauss.quotient_s": "s",
    "qgauss.quotient_calls": "count",
    "qgauss.level_counts_s": "s",
    "qgauss.koh_sum_s": "s",
    "qgauss.koh_terms": "count",
    "qgauss.pascal_s": "s",
    "qgauss.pascal_calls": "count",
    "qgauss.pascal_memo_entries": "count",
    "polycore.mul_s": "s",
    "polycore.mul_calls": "count",
    "polycore.mul_coeff_products": "count",
    "polycore.div_exact_s": "s",
    "polycore.div_exact_calls": "count",
    "polycore.real_rooted_s": "s",
    "polycore.real_rooted_calls": "count",
    "polycore.square_free_calls": "count",
    "polycore.sturm_chain_len": "count",
    "polycore.sturm_max_coeff_bits": "bits",
    "polycore.shape_s": "s",
    "posetlab.eulerian_s": "s",
    "posetlab.max_antichain_s": "s",
    "posetlab.inversion_polynomial_s": "s",
    "pathlab.monotone_injection_s": "s",
    "pathlab.count_free_s": "s",
}


def _resolve(module: str, name: str):
    """(owner, attribute, function) for ``gausslab.<module>.<name>``."""
    owner = sys.modules[f"gausslab.{module}"]
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self) -> None:
        self.self_ns: collections.Counter = collections.Counter()
        self.calls: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[list[int]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, span: str, fn, after=None):
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            covered = [0]
            stack.append(covered)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[span] += elapsed - covered[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result, args)
            return result

        return wrapper

    @staticmethod
    def _count(fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        return wrapper

    # -- counters ---------------------------------------------------------------

    def _partitions(self, result, args):
        self.counts["partitions_built"] += len(result)

    def _levels(self, result, args):
        self.counts["levels_built"] += len(result)

    def _level(self, result, args):
        self.counts["levels_built"] += 1

    def _audit(self, result, args):
        self.counts["levels_scanned"] += result.levels_checked

    def _koh_terms(self, result, args):
        self.counts["koh_terms"] += len(result)

    def _mul(self, result, args):
        left, right = args
        width = len(right.coeffs) if hasattr(right, "coeffs") else 1
        self.counts["mul_coeff_products"] += len(left.coeffs) * width

    def _square_free(self, result, args):
        self.counts["square_free_calls"] += 1

    def _sturm(self, result, args):
        self.counts["sturm_chain_len"] += len(result)
        bits = max((abs(c).bit_length() for q in result for c in q.coeffs), default=0)
        self.counts["sturm_max_coeff_bits"] = max(self.counts["sturm_max_coeff_bits"], bits)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every gausslab name of every traced function to its wrapper."""
        after = {
            ("injectlab", "enumerate_box"): self._partitions,
            ("injectlab", "audit"): self._audit,
            ("polycore", "IntPoly.__mul__"): self._mul,
        }
        counted = {
            ("injectlab", "levels"): self._levels,
            ("injectlab", "level"): self._level,
            ("qgauss", "koh_terms"): self._koh_terms,
            ("polycore", "square_free_part"): self._square_free,
            ("polycore", "sturm_chain"): self._sturm,
        }
        for span, targets in SPANS.items():
            for target in targets:
                self._rebind(target, lambda fn: self._span(span, fn, after.get(target)))
        for target, hook in counted.items():
            self._rebind(target, lambda fn: self._count(fn, hook))

    def _rebind(self, target, make) -> None:
        try:
            owner, attr, fn = _resolve(*target)
        except (KeyError, AttributeError):
            print(f"trace: gausslab.{'.'.join(target)} not found", file=sys.stderr)
            return
        wrapper = make(fn)
        if isinstance(owner, type):
            for name, value in list(vars(owner).items()):
                if value is fn:
                    setattr(owner, name, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gausslab" or name.startswith("gausslab.")):
                continue
            for binding, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, binding, wrapper)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        def seconds(span: str) -> float:
            return self.self_ns[span] / 1e9

        qgauss = sys.modules.get("gausslab.qgauss")
        built, scanned = self.counts["levels_built"], self.counts["levels_scanned"]
        return {
            "cli.self_s": seconds("cli"),
            "injectlab.enumerate_box_s": seconds("enumerate_box"),
            "injectlab.enumerate_box_calls": self.calls["enumerate_box"],
            "injectlab.partitions_built": self.counts["partitions_built"],
            "injectlab.audit_s": seconds("audit"),
            "injectlab.audit_calls": self.calls["audit"],
            "injectlab.check_claim_s": seconds("check_claim"),
            "injectlab.check_claim_calls": self.calls["check_claim"],
            "injectlab.levels_built": built,
            "injectlab.levels_scanned": scanned,
            "injectlab.level_use_ratio": scanned / built if built else 0.0,
            "qgauss.quotient_s": seconds("quotient"),
            "qgauss.quotient_calls": self.calls["quotient"],
            "qgauss.level_counts_s": seconds("level_counts"),
            "qgauss.koh_sum_s": seconds("koh_sum"),
            "qgauss.koh_terms": self.counts["koh_terms"],
            "qgauss.pascal_s": seconds("pascal"),
            "qgauss.pascal_calls": self.calls["pascal"],
            "qgauss.pascal_memo_entries": len(getattr(qgauss, "_pascal_cache", ())),
            "polycore.mul_s": seconds("mul"),
            "polycore.mul_calls": self.calls["mul"],
            "polycore.mul_coeff_products": self.counts["mul_coeff_products"],
            "polycore.div_exact_s": seconds("div_exact"),
            "polycore.div_exact_calls": self.calls["div_exact"],
            "polycore.real_rooted_s": seconds("real_rooted"),
            "polycore.real_rooted_calls": self.calls["real_rooted"],
            "polycore.square_free_calls": self.counts["square_free_calls"],
            "polycore.sturm_chain_len": self.counts["sturm_chain_len"],
            "polycore.sturm_max_coeff_bits": self.counts["sturm_max_coeff_bits"],
            "polycore.shape_s": seconds("shape"),
            "posetlab.eulerian_s": seconds("eulerian"),
            "posetlab.max_antichain_s": seconds("max_antichain"),
            "posetlab.inversion_polynomial_s": seconds("inversion_polynomial"),
            "pathlab.monotone_injection_s": seconds("monotone_injection"),
            "pathlab.count_free_s": seconds("count_free"),
        }
