"""Outside-in tracing of the toolkit's layers.

Wrappers are installed only for the traced run.  Each wraps a public function
(or method) of one ``lefschetz`` module and is bound at every ``lefschetz.*``
module attribute that holds the original, because modules import each other's
functions by name (``checks`` does ``from .exactmath import rank``).  Per-scalar
``FieldSpec`` methods and ``Poly`` operators are left alone: their time lands
in the enclosing span.

Spans live in memory as ``[name, start, end, parent, job]`` and are written
once, when the run ends.  Counters are derived from outside, from arguments,
return values and the growth of the toolkit's own caches.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from lefschetz import algebra, checks, cli, constructions, descfiles, exactmath, polynomials, sl2, symbolic

# span name -> (module, attribute path) of every function the span wraps.
# Spans with no metric of their own (jordan, hessian, paper suite) keep their
# time out of the self time of whatever called them.
SPANS = {
    "exactmath.rref": [(exactmath, "rref")],
    "exactmath.matmul": [(exactmath, "Matrix.mul")],
    "exactmath.kernel": [(exactmath, "kernel_basis")],
    "exactmath.invert": [(exactmath, "invert")],
    "exactmath.rowspace": [(exactmath, "RowSpace.add"), (exactmath, "RowSpace.reduce")],
    "algebra.build": [(algebra, "from_ideal"), (algebra, "from_dual_generator")],
    "algebra.multiply": [(algebra, "GradedAlgebra.multiply")],
    "algebra.operator_matrix": [(algebra, "operator_matrix")],
    "algebra.min_generators": [(algebra, "GradedAlgebra.minimal_generators")],
    "checks.decide": [(checks, "generic_report"), (checks, "report_for_element")],
    "checks.jordan": [(checks, "jordan_type")],
    "checks.power_matrix": [(checks, "power_map_matrix")],
    "checks.symbolic_steps": [(checks, "_symbolic_step_matrices")],
    "checks.nll": [(checks, "nll_conditions")],
    "checks.hessian": [(checks, "hessian_det"), (checks, "slp_by_hessian")],
    "symbolic.bareiss": [(symbolic, "fraction_free_echelon")],
    "symbolic.poly_mat_mul": [(symbolic, "poly_mat_mul")],
    "symbolic.poly_det": [(symbolic, "poly_det")],
    "symbolic.gcd": [(symbolic, "poly_gcd"), (symbolic, "poly_gcd_list"),
                     (symbolic, "squarefree_part")],
    "sl2.triple": [(sl2, "triple_from_lefschetz")],
    "sl2.verify": [(sl2, "verify_triple")],
    "sl2.weights": [(sl2, "weight_decomposition")],
    "constructions.tensor": [(constructions, "tensor_product")],
    "constructions.pair": [(constructions, "fiber_product"), (constructions, "connected_sum"),
                           (constructions, "connected_sum_over_field"),
                           (constructions, "PairAlgebra.multiply"),
                           (constructions, "QuotientAlgebra.multiply")],
    "constructions.blowup": [(constructions, "blowup"), (constructions, "exceptional_divisor"),
                             (constructions, "blowup_square_commutes"),
                             (constructions, "BlowupAlgebra.multiply")],
    "constructions.thom": [(constructions, "thom_class")],
    "constructions.presentation": [(constructions, "presentation_of"),
                                   (constructions, "presented_algebra")],
    "polynomials.parse": [(polynomials, "parse_poly"), (polynomials, "parse_dual"),
                          (polynomials, "parse_element")],
    "descfiles.parse": [(descfiles, "parse_algebra_text"), (descfiles, "parse_map_text")],
    "cli.main": [(cli, "main")],
    "cli.paper_suite": [(cli.suite_mod, "run_all")],
}


def _resolve(module, path):
    owner = module
    *parents, name = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, name


def _toolkit_modules():
    return [m for n, m in sys.modules.items() if n == "lefschetz" or n.startswith("lefschetz.")]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._undo: list = []

    # -- recording ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = self.clock()

    def spanned(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after:
                after(args, token, result)
            return result
        return wrapper

    def _counted(self, fn, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args)
            result = fn(*args, **kwargs)
            after(args, token, result)
            return result
        return wrapper

    # -- counters derived from outside ----------------------------------------------

    def _hooks(self, path: str):
        c = self.counts
        if path == "rref":
            def before(args):
                m = args[0]
                c["exactmath.rref.cells"] += m.rows * m.cols
            return before, None
        if path == "Matrix.mul":
            def before(args):
                a, b = args[0], args[1]
                c["exactmath.matmul.mults"] += a.rows * a.cols * b.cols
            return before, None
        if path == "RowSpace.add":
            def after(args, token, grew):
                c["exactmath.rowspace.adds"] += 1
                c["exactmath.rowspace.useful"] += bool(grew)
            return None, after
        if path == "generic_report":
            def after(args, token, rep):
                c["checks.witnesses"] += rep.witness is not None
                if rep.certification in ("symbolic", "exhaustive"):
                    c[f"checks.escalations.{rep.certification}"] += 1
            return None, after
        return None, None

    def _count_only(self):
        """Wrappers without spans, for hot private calls that feed a ratio."""
        c = self.counts

        def cache_before(args):
            return len(args[0]._mult_cache)

        def cache_after(args, size, result):
            c["algebra.basis_product.calls"] += 1
            c["algebra.mult_cache.misses"] += len(args[0]._mult_cache) > size

        def ranks_before(args):
            return len(args[0]._ranks)

        def ranks_after(args, size, result):
            c["checks.rank_maps"] += len(args[0]._ranks) - size

        def trial_after(args, token, result):
            c["checks.trial_elements"] += 1

        return [
            (algebra, "GradedAlgebra._basis_product", cache_before, cache_after),
            (checks, "RankTable.rank", ranks_before, ranks_after),
            (checks, "combine_coordinates", lambda args: None, trial_after),
        ]

    # -- installation ---------------------------------------------------------------

    def _patch(self, module, path, wrapper_for) -> None:
        owner, name = _resolve(module, path)
        original = owner.__dict__[name]
        wrapper = wrapper_for(original)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            self._undo.append((owner, name, original))
            return
        for mod in _toolkit_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, targets in SPANS.items():
            for module, path in targets:
                before, after = self._hooks(path)
                self._patch(module, path,
                            lambda fn, n=name, b=before, a=after: self.spanned(n, fn, b, a))
        for module, path, before, after in self._count_only():
            self._patch(module, path, lambda fn, b=before, a=after: self._counted(fn, b, a))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans},
                      fh, separators=(",", ":"))


def self_times(spans) -> dict:
    """Per span index: duration minus the part covered by its child spans."""
    covered = defaultdict(float)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {i: (s[2] - s[1]) - covered[i] for i, s in enumerate(spans)}


def layer_totals(spans, job_factor) -> tuple:
    """Calibrated self seconds and call counts per span name."""
    seconds = defaultdict(float)
    calls = Counter()
    for i, own in self_times(spans).items():
        name, job = spans[i][0], spans[i][4]
        seconds[name] += own * job_factor.get(job, 1.0)
        calls[name] += 1
    return seconds, calls
