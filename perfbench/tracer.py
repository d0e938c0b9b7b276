"""Spans and counters recorded from outside ``mouldnf``.

:meth:`Tracer.install` replaces public functions of the program with wrappers,
under every name the program looks them up by (``from .x import f``
leaves copies in other modules, so each copy is replaced).  The program's
files are not changed.

A span records its name, start, end, parent span and job.  Spans stay in
memory and are written once, by :meth:`Tracer.write`.  Self time is a
span's duration minus that of its direct children; inclusive time counts
only spans with no ancestor of the same name, so recursion is not
counted twice.  Counters are bumped at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# What is wrapped: (path in mouldnf, span or counter name, how).  "span"
# records a span, "count" only counts calls (too many for spans), and
# "mould" wraps the mould a factory returns, timing each evaluation.
WRAPPED = [
    ("liealg.normalize", "liealg.normalize", "span"),
    ("liealg.apply_exp_ad", "liealg.apply_exp_ad", "span"),
    ("liealg.contract", "liealg.contract", "span"),
    ("liealg.order_increment", "liealg.order_increment", "span"),
    ("classical.poisson_bracket", "classical.poisson_bracket", "span"),
    ("quantum.moyal_bracket", "quantum.moyal_bracket", "span"),
    ("quantum.weyl_matrix", "quantum.weyl_matrix", "span"),
    ("estimates.fit_growth_constants", "estimates.fit_growth_constants", "span"),
    ("estimates.verify_remainder_bound", "estimates.verify_remainder_bound", "span"),
    ("estimates.verify_semiclassical", "estimates.verify_semiclassical", "span"),
    ("estimates._sample_words", "estimates.fit_growth_constants.words", "count"),
    ("mould.mlog", "mould.mlog", "mould"),
    ("mould.mexp", "mould.mexp", "mould"),
    ("mould.check_alternal", "mould.check_alternal", "span"),
    ("solver.MouldSolver.values", "solver.values", "span"),
    ("solver.verify_equation", "solver.verify_equation", "span"),
    ("alphabet.Word.__init__", "alphabet.Word.constructed", "count"),
    ("alphabet.beta", "alphabet.beta", "span"),
    ("alphabet.shuffles", "alphabet.shuffles", "span"),
    ("alphabet.is_resonant", "alphabet.is_resonant.calls", "count"),
    ("observables.norm_rho", "observables.norm_rho", "span"),
    ("observables.Observable.__add__", "observables.add", "span"),
    ("cli.main", "cli.main", "span"),
] + [
    (f"exact.QI.{op}", "exact.qi_ops", "count")
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
]

JOB = "bench.job"


class Tracer:
    """In-memory spans and counters, aggregated per job."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._stack = []  # [span index, name, child time]
        self._depth = defaultdict(int)
        self.job = -1
        self.missing = []
        self._undo = []
        self.reset_job()

    def reset_job(self):
        """Start a new job's aggregates: name -> [calls, inclusive, self]."""
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)

    def inside(self, name):
        return self._depth[name] > 0

    def open(self, name):
        idx = len(self.span_start)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(self._ids[name])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._depth[name] += 1
        self._stack.append([idx, name, 0.0])
        self.span_start.append(time.perf_counter())

    def close(self):
        end = time.perf_counter()
        idx, name, child = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        if self._stack:
            self._stack[-1][2] += duration
        self._depth[name] -= 1
        agg = self.spans[name]
        agg[0] += 1
        agg[2] += duration - child
        if self._depth[name] == 0:
            agg[1] += duration

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(tracer, args, result)`` counts."""

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, key, fn, amount=None):
        """``fn`` counted under ``key``: once per call, or ``amount(result)``."""

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += 1 if amount is None else amount(result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------

    def _replace(self, orig, new):
        """Point every ``mouldnf`` module attribute that is ``orig`` at ``new``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "mouldnf" or modname.startswith("mouldnf.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._undo.append((module, attr, orig))
                    setattr(module, attr, new)

    def install(self, mouldnf):
        """Wrap the program's layers.  Paths absent from the program are
        listed in :attr:`missing` and report zero."""
        afters = _afters()
        for path, key, how in WRAPPED:
            owner = mouldnf
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(path)
                continue
            orig = vars(owner)[attr]
            if how == "span":
                new = self.span(key, orig, afters.get(key))
            elif how == "count":
                new = self.counter(key, orig, len if key.endswith(".words") else None)
            else:
                new = self._mould_factory(key, orig, mouldnf.mould.Mould)
            if isinstance(owner, type):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, new)
            else:
                self._replace(orig, new)

    def _mould_factory(self, name, factory, mould_cls):
        def traced_factory(*args, **kwargs):
            inner = factory(*args, **kwargs)
            return mould_cls(self.span(name, inner), name=inner.name)

        traced_factory.__wrapped__ = factory
        return traced_factory

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def write(self, path):
        """Write every span as tab-separated lines, once, at the end."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{names[self.span_name[i]]}\t{self.span_start[i]!r}\t{self.span_end[i]!r}"
                    f"\t{self.span_parent[i]}\t{self.span_job[i]}\n"
                )


def _afters():
    """Counters bumped when a span returns, keyed by span name."""

    def bracket(prefix):
        def after(tracer, args, result):
            c = tracer.counts
            c[prefix + ".pairs"] += len(args[0]) * len(args[1])
            c[prefix + ".out_modes"] += len(result)
            if tracer.inside("liealg.contract") or tracer.inside("liealg.order_increment"):
                c["liealg.contract.brackets"] += 1
                if not result:
                    c["liealg.contract.empty_brackets"] += 1
            if tracer.inside("liealg.apply_exp_ad"):
                c["liealg.apply_exp_ad.brackets"] += 1

        return after

    def exp_ad(tracer, args, result):
        tracer.counts["liealg.apply_exp_ad.out_modes"] += len(result[0])

    def normalize(tracer, args, result):
        tracer.counts["liealg.normalize.E_modes"] += len(result.E)

    def weyl(tracer, args, result):
        tracer.counts["quantum.weyl_matrix.entries"] += result.entries.size

    def add(tracer, args, result):
        tracer.counts["observables.add.modes"] += len(result)

    return {
        "classical.poisson_bracket": bracket("classical.poisson_bracket"),
        "quantum.moyal_bracket": bracket("quantum.moyal_bracket"),
        "liealg.apply_exp_ad": exp_ad,
        "liealg.normalize": normalize,
        "quantum.weyl_matrix": weyl,
        "observables.add": add,
    }
