"""Per-layer spans and counts for the benchmark's traced runs.

The tracer wraps, from outside the package, the public functions that one
plethax module calls in another (for example `plethax.expansion.
enumerate_supersets` and `plethax.process.run_process`), the methods of
`SparsePolynomial` and `LabelledAbacus` that other modules call and that do
more than a lookup, and the constructors of `Partition` and
`LabelledAbacus`.  Accessors such as `LabelledAbacus.slot` and `.position`
and the `Monomial` methods are not wrapped: a wrapper costs more than they
do, so their time stays in the caller's self time.  Nothing in
`src/` changes: the wrappers replace module and class attributes while a
traced pass runs and are removed after it.

Spans are kept in memory, aggregated by call path (the span's name and the
names of the spans that enclosed it), because one verify-process pass makes
hundreds of thousands of calls.  Each path keeps its call count, its total
time and its self time: the span's duration minus the time its child spans
cover.
"""

import contextlib
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = {}  # call path -> [calls, total_ns, self_ns]
        self.counts = Counter()
        self._stack = []  # [path, child_ns] of each open span
        self._patches = []

    def span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [(parent[0] if parent else ()) + (name,), 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            if parent is not None:
                parent[1] += elapsed
            node = self.spans.get(frame[0])
            if node is None:
                node = self.spans[frame[0]] = [0, 0, 0]
            node[0] += 1
            node[1] += elapsed
            node[2] += elapsed - frame[1]

    def function(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, args, kwargs)
            if after is not None:
                after(self.counts, result)
            return result

        return wrapper

    def generator(self, name, fn, per_item=None):
        """Wrap a generator function; each resumption is one span."""

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = self.span(name, next, (items,), {})
                except StopIteration:
                    return
                if per_item is not None:
                    self.counts[per_item] += 1
                yield item

        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, make):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    @contextlib.contextmanager
    def installed(self):
        """Wrap the plethax layers for the duration of the block."""
        from plethax import abacus, cli, expansion, partitions, polynomials, process

        def fn(name, *owners, attr=None, after=None):
            for owner in owners:
                self.patch(owner, attr or name.split(".")[-1], lambda f: self.function(name, f, after))

        def add_terms(counts, result):
            counts["expansion.terms"] += len(result)

        def add_report(counts, report):
            counts["process.report.pairs"] += report.n_pairs
            counts["process.report.completed"] += report.n_completed

        def add_output(counts, _):
            counts["cli.output_bytes"] += len(sys.stdout.getvalue().encode())

        def add_shapes(counts, found):
            counts["partitions.enumerate_supersets.shapes"] += len(found)

        def add_terms_out(counts, product):
            counts["polynomials.mul.terms_out"] += len(product.terms)

        LA, SP = abacus.LabelledAbacus, polynomials.SparsePolynomial
        try:
            fn("cli.main", cli, after=add_output)
            fn("expansion.pmn_expand", cli, expansion, after=add_terms)
            fn("expansion.pmn_expand_iterated", cli, after=add_terms)
            fn("expansion.verify_against_oracle", cli, expansion)
            fn("expansion.verify_process_identity", cli, expansion, after=add_report)
            fn("partitions.enumerate_supersets", expansion, after=add_shapes)
            fn("partitions.r_decompose", cli, process)
            fn("partitions.sgn_r", expansion)
            fn("partitions.bead_positions", abacus)
            fn("abacus.canonical_abacus", cli)
            fn("abacus.from_positions", LA)
            fn("abacus.r_move", LA)
            fn("abacus.sign", LA)
            fn("abacus.weight", LA)
            fn("abacus.shape", LA)
            fn("abacus.support", LA)
            fn("abacus.swap", LA)
            fn("process.run_process", process, cli)
            fn("process.epsilon", expansion, cli)
            fn("process.weight_with_budget", expansion)
            fn("polynomials.a_beta", expansion)
            fn("polynomials.a_beta_eval", expansion)
            fn("polynomials.h_eval", expansion)
            fn("polynomials.h_poly", expansion)
            fn("polynomials.plethysm_pr", expansion)
            fn("polynomials.shifted_beta", expansion)
            fn("polynomials.seeded_points", expansion)
            fn("polynomials.mul", SP, attr="__mul__", after=add_terms_out)
            fn("polynomials.add", SP, attr="__add__")
            fn("polynomials.sub", SP, attr="__sub__")
            fn("polynomials.scale", SP)
            fn("polynomials.zero", SP)
            fn("polynomials.monomial", SP)
            for owner in (expansion, process):
                self.patch(owner, "all_abaci", lambda f: self.generator("abacus.all_abaci", f))
            self.patch(process, "compositions", lambda f: self.generator("polynomials.compositions", f))
            self.patch(
                expansion,
                "enumerate_pairs",
                lambda f: self.generator("process.enumerate_pairs", f, "process.enumerate_pairs.pairs"),
            )
            self.patch(partitions.Partition, "__init__", lambda f: self.counted("partitions.Partition.constructed", f))
            self.patch(LA, "__init__", lambda f: self.counted("abacus.LabelledAbacus.constructed", f))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def totals(self):
        """Calls and self time (ns) per span name, over all call paths."""
        calls, self_ns = Counter(), Counter()
        for path, (n, _, own) in self.spans.items():
            calls[path[-1]] += n
            self_ns[path[-1]] += own
        return calls, self_ns

    def dump(self):
        return {
            "spans": [
                {"path": list(path), "calls": n, "total_ms": total / 1e6, "self_ms": own / 1e6}
                for path, (n, total, own) in sorted(self.spans.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }
