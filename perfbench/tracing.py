"""Spans around the program's layer boundaries, recorded from outside.

The benchmark never edits the program: :class:`Tracer` installs timing
wrappers around public functions and methods for one traced pass and
removes them afterwards.  A wrapped module-level function is rebound in
every loaded ``repro`` module that imported it by name, so
``from x import f`` call sites are covered too.

Each span records its name, start, end, parent span, op id, thread and
counts.  Spans stay in memory; :meth:`Tracer.dump` writes them out when
the run ends.  Spans opened in the job queue's worker thread start
without an op; :meth:`Tracer.link` ties them to their op afterwards
through the request seed, which is unique per op.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import sys
import threading
import time

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "counts", "seed")

    def __init__(self, name, parent, op, seed=None) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.seed = seed
        self.thread = threading.get_ident()
        self.counts: dict | None = None
        self.start = time.perf_counter()
        self.end = self.start

    def add(self, counts: dict) -> None:
        if self.counts is None:
            self.counts = dict(counts)
        else:
            for key, value in counts.items():
                self.counts[key] = self.counts.get(key, 0) + value


def _request_seed(index):
    def seed(args, kwargs):
        request = args[index] if len(args) > index else kwargs.get("request")
        return getattr(request, "seed", None)

    return seed


#: (module, attribute path, span name, counts(args, kwargs, result) -> dict,
#:  options).  Options: ``merge`` adds a nested same-name call's counts to
#:  the enclosing span; ``only`` limits rebinding to the named module;
#:  ``seed`` reads the request seed that links a worker-thread span to
#:  its op.
LAYER_CALLS = [
    ("repro.problems.dcim", "DcimProblemDefinition.make_problem",
     "problems.make_problem", lambda a, k, r: {"calls": 1}, {}),
    ("repro.problems.mapping", "MappingProblemDefinition.make_problem",
     "problems.make_problem", lambda a, k, r: {"calls": 1}, {}),
    ("repro.dse.genome", "GenomeCodec.enumerate", "genome.enumerate",
     lambda a, k, r: {"calls": 1, "genomes": len(r)}, {}),
    ("repro.dse.genome", "GenomeCodec.decode", "genome.decode",
     lambda a, k, r: {"genomes": 1}, {}),
    ("repro.dse.genome", "GenomeCodec.decode_batch", "genome.decode",
     lambda a, k, r: {"genomes": len(r)}, {}),
    ("repro.dse.genome", "GenomeCodec.decode_params", "genome.decode",
     lambda a, k, r: {"genomes": len(r[0])}, {}),
    ("repro.model.engine", "CostEngine.evaluate_int", "engine",
     lambda a, k, r: {"rows": len(r)}, {}),
    ("repro.model.engine", "CostEngine.evaluate_fp", "engine",
     lambda a, k, r: {"rows": len(r)}, {}),
    ("repro.model.engine", "CostEngine.macro_costs", "engine",
     lambda a, k, r: {"rows": len(r)}, {}),
    ("repro.core.pareto", "pareto_front", "pareto",
     lambda a, k, r: {"rows_in": len(a[0]), "kept": len(r)}, {}),
    ("repro.core.pareto", "dominated_flags", "pareto",
     lambda a, k, r: {"rows_in": len(r), "kept": int(len(r) - r.sum())}, {}),
    ("repro.dse.explorer", "merge_exploration_results", "explorer.merge", None, {}),
    ("repro.service.campaign", "run_campaign", "campaign",
     lambda a, k, r: {"specs": len(a[0]), "evaluations": r.evaluations}, {}),
    ("repro.dse.nsga2", "nsga2", "nsga2",
     lambda a, k, r: {"generations": r.generations_run, "evaluations": r.evaluations}, {}),
    ("repro.dse.kernels", "breed_offspring", "kernels.breed",
     lambda a, k, r: {"offspring": len(r)}, {}),
    ("repro.dse.kernels", "novel_genomes", "kernels.breed",
     lambda a, k, r: {"requested": len(a[0]), "novel": len(r)}, {}),
    ("repro.dse.kernels", "GAKernels.nondominated_sort", "kernels.sort", None, {}),
    ("repro.dse.kernels", "GAKernels.pareto_filter", "kernels.sort", None, {}),
    ("repro.dse.kernels", "GAKernels.crowding", "kernels.crowding", None, {}),
    ("repro.service.executor", "ProblemEvaluator.evaluate_batch", "executor", None, {}),
    ("repro.service.executor", "SerialExecutor.evaluate_batch", "executor",
     lambda a, k, r: {"chunks": 1 if a[0].chunk_size is None
                      else -(-len(a[2]) // a[0].chunk_size)},
     {"merge": True}),
    ("repro.workloads.system", "map_system", "mapping.map_system",
     lambda a, k, r: {"calls": 1}, {}),
    ("repro.service.cache", "EvaluationCache.get_many", "cache.get_many",
     lambda a, k, r: {"keys": len(r), "hits": sum(v is not None for v in r)}, {}),
    ("repro.service.cache", "EvaluationCache.put_many", "cache.put_many",
     lambda a, k, r: {"keys": len(a[1])}, {}),
    ("repro.service.jobs", "execute_request", "jobs.run", None,
     {"only": True, "seed": _request_seed(0)}),
    ("repro.service.jobs", "JobQueue.submit", "jobs.submit", None,
     {"seed": _request_seed(1)}),
    ("repro.store.runstore", "RunStore.record_response", "store.record", None,
     {"seed": _request_seed(2)}),
    ("repro.service.server", "CampaignClient.submit", "http.submit",
     lambda a, k, r: {"calls": 1}, {}),
    ("repro.service.server", "CampaignClient.events", "http.watch",
     lambda a, k, r: {"calls": 1}, {}),
    ("repro.service.server", "CampaignClient.result", "http.result",
     lambda a, k, r: {"calls": 1}, {}),
    ("repro.dse.distill", "distill", "distill", None, {}),
    ("repro.dse.distill", "select", "distill", None, {}),
    ("repro.layout.pnr", "PnrFlow.run", "layout.pnr", None, {}),
    ("repro.rtl.generator", "generate_rtl", "rtl.generate", None, {}),
    ("repro.rtl.lint", "lint_bundle", "rtl.lint", None, {}),
    ("repro.rtl.testbench", "generate_int_testbench", "rtl.testbench",
     lambda a, k, r: {"bytes": len(r)}, {}),
    ("repro.netlist.verify", "verify_int_macro", "netlist.verify",
     lambda a, k, r: {"trials": r.trials}, {}),
    ("repro.netlist.verify", "verify_fp_datapath", "netlist.verify",
     lambda a, k, r: {"trials": r.trials}, {}),
    ("repro.core.manifest", "write_artifacts", "manifest.write", None, {}),
]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seed_to_op: dict = {}

    # Recording -------------------------------------------------------------
    @contextlib.contextmanager
    def op(self, op_id: int, seed=None):
        """One op's root span; ``seed`` links worker-thread spans to it."""
        if seed is not None:
            self._seed_to_op[seed] = op_id
        span = Span("op", None, op_id)
        token = _current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _current.reset(token)
            self.spans.append(span)

    def _wrap(self, fn, name, counts, merge, seed_of):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            if parent is not None and parent.name == name:
                result = fn(*args, **kwargs)
                if merge and counts is not None:
                    parent.add(counts(args, kwargs, result))
                return result
            span = Span(
                name,
                parent,
                parent.op if parent is not None else None,
                seed_of(args, kwargs) if seed_of is not None else None,
            )
            token = _current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _current.reset(token)
                spans.append(span)
            if counts is not None:
                span.add(counts(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every call in :data:`LAYER_CALLS`."""
        for module_name, path, name, counts, options in LAYER_CALLS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = self._wrap(
                original, name, counts, options.get("merge", False), options.get("seed")
            )
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            targets = [module] if options.get("only") else [
                m for key, m in list(sys.modules.items())
                if key.startswith("repro") and m is not None
            ]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patch(target, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original back, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # Analysis -------------------------------------------------------------
    def link(self) -> None:
        """Give worker-thread spans the op of their request seed."""
        for span in self.spans:
            if span.op is None:
                root = span
                while root.parent is not None and root.seed is None:
                    root = root.parent
                if root.seed is not None:
                    span.op = self._seed_to_op.get(root.seed)

    def layers(self, op_count: int) -> dict:
        """Per-layer self time, counts and the unattributed share.

        Self time is a span's duration minus its children's; only spans
        that belong to an op are counted.  The unattributed share is the
        part of all op time covered by no span of that op.
        """
        self.link()
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        counts: dict[str, dict] = {}
        children: dict[int, float] = {}
        by_op: dict[int, list] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                children[key] = children.get(key, 0.0) + span.end - span.start
        op_spans = {}
        for span in self.spans:
            if span.op is None:
                continue
            if span.name == "op":
                op_spans[span.op] = span
                continue
            by_op.setdefault(span.op, []).append((span.start, span.end))
            duration = span.end - span.start
            self_s[span.name] = self_s.get(span.name, 0.0) + duration - children.get(id(span), 0.0)
            total_s[span.name] = total_s.get(span.name, 0.0) + duration
            if span.counts:
                bucket = counts.setdefault(span.name, {})
                for key, value in span.counts.items():
                    bucket[key] = bucket.get(key, 0) + value
        op_time = covered = 0.0
        for op_id, root in op_spans.items():
            op_time += root.end - root.start
            covered += _union(by_op.get(op_id, []), root.start, root.end)
        return {
            "self_ms": {k: v * 1e3 / op_count for k, v in self_s.items()},
            "total_ms": {k: v * 1e3 / op_count for k, v in total_s.items()},
            "counts": counts,
            "unattributed_share": 1.0 - covered / op_time if op_time else 0.0,
        }

    def op_counts(self) -> dict:
        """``{op: {span name: counts}}``, the exact work each op did.

        Event long-polls are left out: how many a watch needs depends on
        when events arrive, not on the work.
        """
        self.link()
        out: dict = {}
        for span in self.spans:
            if span.op is not None and span.counts and span.name != "http.watch":
                bucket = out.setdefault(span.op, {}).setdefault(span.name, {})
                for key, value in span.counts.items():
                    bucket[key] = bucket.get(key, 0) + value
        return out

    def by_seed(self, name: str) -> dict:
        """``{request seed: span}`` for the spans of one name."""
        return {s.seed: s for s in self.spans if s.name == name and s.seed is not None}

    def dump(self, path, extra: dict) -> None:
        """Write every span plus ``extra`` as one JSON file."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        columns = ["name", "start", "end", "parent", "op", "thread", "counts"]
        rows = [
            [s.name, s.start, s.end, index.get(id(s.parent)), s.op, s.thread, s.counts]
            for s in self.spans
        ]
        path.write_text(json.dumps({**extra, "span_columns": columns, "spans": rows}))


def _union(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
