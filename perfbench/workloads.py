"""The benchmark's two workloads: ``in_process`` and ``service_http``.

Each workload turns ``--seed`` into a fixed list of ops, sets the
program up, runs one op against the public API, and checks the op's
output against oracles built before timing starts.  The op list is
sized from ``--seconds`` through a per-workload nominal round time, so
two runs with the same seed and seconds do identical work.

Program modules are imported inside :meth:`Workload.setup` only: the
set-up probe (``setup_probe.py``) times exactly the imports and objects
a workload needs.  Ops call program functions through their module, so
the tracer's wrappers, installed after set-up, are seen.
"""

from __future__ import annotations

import itertools
import random
import shutil
from dataclasses import dataclass, field
from types import SimpleNamespace

from oracles import (
    ExactFront,
    dcim_table,
    design_key,
    fingerprint,
    mapping_table,
    merged_exact,
    mutually_nondominated,
    nondominated,
)

KIB = 1024
#: The paper's Fig 7/8 grid: every space holds at most 512 genomes, so
#: the default campaign explores each spec exhaustively.
PAPER_WSTORES = tuple(4 * KIB << i for i in range(9))  # 4K .. 1M
PAPER_PRECISIONS = ("INT2", "INT4", "INT8", "INT16", "FP8", "FP16", "BF16")
PAPER_GRID = tuple((w, p) for p in PAPER_PRECISIONS for w in PAPER_WSTORES)
DEFAULT_BOUNDS = (64, 2048, 4)  # DcimSpec's max_l, max_h, min_n_factor


@dataclass
class Op:
    """One seeded unit of work: ``specs`` is workload-specific plain data."""

    index: int
    round: int
    slot: int
    kind: str
    seed: int
    specs: tuple


@dataclass
class Outcome:
    """What checking one op found."""

    ok: bool = True
    hv: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.errors.append(message)


def _groups(items, sizes):
    """Split ``items`` into consecutive groups cycling through ``sizes``."""
    out, i = [], 0
    for size in itertools.cycle(sizes):
        if i >= len(items):
            return out
        out.append(tuple(items[i : i + size]))
        i += size


def _front(points, objectives, key=design_key) -> dict:
    return {key(p): tuple(float(v) for v in row) for p, row in zip(points, objectives)}


class Workload:
    """Base: op-list sizing, warm-up selection and the spec-front check."""

    name = ""
    #: Nominal wall time of one round of ops on a 2-core host.
    round_seconds = 1.0

    def __init__(self) -> None:
        self.exact: dict = {}
        self._objectives: dict = {}

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_seconds))

    def make_ops(self, seed: int, seconds: float) -> list[Op]:
        """Every round runs the same slots, GA seeds included, in a new order.

        A slot is one ``(kind, specs, seed)``; repeating it lets the
        benchmark keep each slot's fastest run (see ``run.settled``).
        """
        rng = random.Random(seed)
        slots = [(kind, specs, rng.randrange(1, 2**31)) for kind, specs in self.slots(rng)]
        ops: list[Op] = []
        for r in range(self.rounds(seconds)):
            order = list(range(len(slots)))
            rng.shuffle(order)
            for i in order:
                kind, specs, op_seed = slots[i]
                ops.append(Op(len(ops), r, i, kind, op_seed, specs))
        return ops

    def warmup_ops(self, seed: int) -> list[Op]:
        """One round drawn with another seed, run untimed."""
        return self.make_ops(seed + 7919, self.round_seconds)

    def slots(self, rng: random.Random) -> list:
        """The ``(kind, specs)`` every round of a run repeats."""
        raise NotImplementedError

    def setup(self, workdir):
        raise NotImplementedError

    def close(self, env) -> None:
        pass

    def build_oracles(self, ops: list[Op]) -> None:
        raise NotImplementedError

    def run(self, env, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> Outcome:
        raise NotImplementedError

    # Shared pieces ---------------------------------------------------------
    def _dcim_exact(self, spec_key) -> ExactFront:
        if spec_key not in self.exact:
            from repro.core.spec import DcimSpec
            from repro.tech.cells import CellLibrary

            w, p, max_l, max_h, nf = spec_key
            spec = DcimSpec(w, p, max_l=max_l, max_h=max_h, min_n_factor=nf)
            self.exact[spec_key] = ExactFront(
                dcim_table(spec, CellLibrary.default(), self._objectives))
        return self.exact[spec_key]

    def _check_campaign(self, op, result, spec_keys, strategy, out, key=design_key):
        """Per-spec fronts against the exact fronts, plus the merge."""
        if len(result.results) != len(spec_keys):
            out.fail(f"{len(result.results)} results for {len(spec_keys)} specs")
            return
        returned = []
        for spec_key, res in zip(spec_keys, result.results):
            label = ":".join(map(str, spec_key))
            exact = self.exact[spec_key]
            got = _front(res.points, res.objectives, key)
            returned.append(got)
            out.fingerprints[f"{op.index}:{label}:{op.seed}"] = fingerprint(got)
            if res.strategy != strategy:
                out.fail(f"{label}: strategy {res.strategy}, expected {strategy}")
            if len(got) != len(res.points):
                out.fail(f"{label}: duplicate designs on the front")
            if strategy == "exhaustive":
                if got != exact.front:
                    out.fail(f"{label}: exhaustive front differs from the exact front")
            else:
                wrong = [k for k, row in got.items() if exact.table.get(k) != row]
                if wrong:
                    out.fail(f"{label}: {len(wrong)} front points re-evaluate differently")
                if not mutually_nondominated(got.values()):
                    out.fail(f"{label}: front points dominate each other")
            out.hv.append(exact.hv_ratio(got))
        union: dict = {}
        for got in returned:
            union.update(got)
        merged = _front(result.merged_points, result.merged_objectives, key)
        if merged != nondominated(union):
            out.fail("merged front is not the dominance filter of the spec fronts")


class InProcess(Workload):
    """Every in-process route, one slot list: exhaustive paper campaigns,
    campaigns that reach NSGA-II, and compiles with verification."""

    name = "in_process"
    round_seconds = 1.65
    #: Each space holds 592-672 genomes: above the 512 threshold.
    FP32_WSTORE = 256 * KIB
    MAPPING_NETWORKS = ("tiny_cnn", "transformer_block", "gcn_network", "resnet_block",
                        "mlp_mixer_block")
    #: INT testbench and verification cost grow steeply with N and the
    #: precision (64K INT8 writes for 4 s; INT16 at 4K takes longer than
    #: all four of these together), so INT compiles stay small.
    COMPILE_SPECS = ((4 * KIB, "INT2"), (4 * KIB, "INT8"), (4 * KIB, "FP16"), (1024 * KIB, "BF16"))

    def slots(self, rng):
        """21 paper campaigns of 2-4 grid specs, 7 GA campaigns, 4 compiles."""
        items = [("paper", g) for g in _groups(PAPER_GRID, (2, 3, 4))]
        items.append(("ga_dcim", ((64 * KIB, "INT8"), (64 * KIB, "BF16"))))
        items.append(("ga_fp32", ((self.FP32_WSTORE, "FP32"),)))
        items += [
            ("mapping", ((net, rng.choice(("sequential", "pipelined"))),))
            for net in self.MAPPING_NETWORKS
        ]
        items += [("compile", spec) for spec in self.COMPILE_SPECS]
        return items

    def setup(self, workdir):
        import repro.core.manifest as manifest
        import repro.core.spec as spec_mod
        import repro.service.campaign as campaign
        from repro.core.compiler import SegaDcim
        from repro.dse.nsga2 import NSGA2Config
        from repro.problems import get_problem
        from repro.problems.mapping import MappingSpec
        from repro.tech.cells import CellLibrary

        workdir.mkdir(parents=True, exist_ok=True)
        sizing = get_problem("mapping").sizing
        return SimpleNamespace(
            campaign=campaign, spec=spec_mod, manifest=manifest, MappingSpec=MappingSpec,
            library=CellLibrary.default(), compiler=SegaDcim(), workdir=workdir,
            configs={
                "paper": lambda seed: campaign.CampaignConfig(),
                "ga_dcim": lambda seed: campaign.CampaignConfig(
                    seed=seed, exhaustive_threshold=0),
                "ga_fp32": lambda seed: campaign.CampaignConfig(seed=seed),
                "mapping": lambda seed: campaign.CampaignConfig(
                    seed=seed, problem="mapping",
                    nsga2=NSGA2Config(population_size=sizing.population_size,
                                      generations=sizing.generations)),
            },
        )

    def build_oracles(self, ops):
        from repro.problems.mapping import MappingSpec
        from repro.tech.cells import CellLibrary

        for op in ops:
            if op.kind == "compile":
                self._dcim_exact(op.specs + DEFAULT_BOUNDS)
                continue
            for spec in op.specs:
                if op.kind != "mapping":
                    self._dcim_exact(spec + DEFAULT_BOUNDS)
                elif spec not in self.exact:
                    net, schedule = spec
                    self.exact[spec] = ExactFront(mapping_table(
                        MappingSpec(network=net, schedule=schedule), CellLibrary.default()))

    def run(self, env, op):
        if op.kind == "compile":
            w, p = op.specs
            result = env.compiler.compile(env.spec.DcimSpec(w, p), exhaustive=True, verify=True)
            path = env.manifest.write_artifacts(
                result, env.workdir / f"op{op.index}", env.compiler.tech, env.compiler.library)
            return result, path
        if op.kind == "mapping":
            specs = [env.MappingSpec(network=n, schedule=s) for n, s in op.specs]
        else:
            specs = [env.spec.DcimSpec(w, p) for w, p in op.specs]
        config = env.configs[op.kind](op.seed)
        return env.campaign.run_campaign(specs, config, library=env.library)

    def check(self, op, output):
        out = Outcome()
        if op.kind == "compile":
            self._check_compile(op, *output, out)
        elif op.kind == "mapping":
            self._check_campaign(op, output, list(op.specs), "ga", out,
                                 key=lambda p: design_key(p.design, p.n_macros))
        else:
            keys = [spec + DEFAULT_BOUNDS for spec in op.specs]
            strategy = "exhaustive" if op.kind == "paper" else "ga"
            self._check_campaign(op, output, keys, strategy, out)
        return out

    def _check_compile(self, op, result, path, out):
        from repro.core.manifest import load_manifest

        exact = self.exact[op.specs + DEFAULT_BOUNDS]
        label = "{}:{}".format(*op.specs)
        got = _front(result.exploration.points, result.exploration.objectives)
        if got != exact.front:
            out.fail(f"{label}: exploration front differs from the exact front")
        if not result.extras["lint"].passed:
            out.fail(f"{label}: lint failed")
        if result.verification is None or not result.verification.passed:
            out.fail(f"{label}: gate-level verification failed")
        if design_key(result.selected) not in exact.front:
            out.fail(f"{label}: selected design is not on the exact front")
        manifest = load_manifest(path)
        if manifest["design"] != result.selected:
            out.fail(f"{label}: manifest design differs from the selected design")
        missing = [f for f in manifest["files"] if not (path.parent / f).is_file()]
        is_int = not result.selected.precision.is_float
        if missing or (is_int and not any("tb_" in f for f in manifest["files"])):
            out.fail(f"{label}: artifact files missing")
        out.hv.append(exact.hv_ratio(got))
        out.fingerprints[f"{op.index}:{label}:{op.seed}"] = fingerprint(
            {**got, ("selected",) + design_key(result.selected): ()})
        shutil.rmtree(path.parent)


class ServiceHttp(Workload):
    name = "service_http"
    round_seconds = 1.0
    #: Spec-bound variants a request may carry; defaults are excluded so
    #: every variant addresses cache keys no paper-grid request touched.
    VARIANT_BOUNDS = tuple(
        b for b in itertools.product((8, 16, 32, 64), (256, 512, 1024, 2048), (1, 2, 3, 4, 5, 6))
        if b != DEFAULT_BOUNDS
    )

    def make_ops(self, seed, seconds):
        return self._ops(seed, self.rounds(seconds))

    def warmup_ops(self, seed):
        """Every repeat set once (fills the cache), plus two new sets."""
        return self._ops(seed, 0)

    def _ops(self, seed, rounds):
        """Rounds of 10 repeat and 10 new requests, in seeded order.

        Alternate specs of the paper grid, three to a request, make the
        repeat and the new sets; they are the same for every seed, so
        runs with other seeds do like work.  The warm-up serves the
        repeat sets first.  Each round gives every spec of the new sets
        other, never used ``max_l``/``max_h``/``min_n_factor`` bounds,
        drawn from the seed.  Every request has its own seed, so the
        queue never deduplicates.  ``rounds=0`` gives the warm-up.
        """
        if rounds >= len(self.VARIANT_BOUNDS):
            raise ValueError(f"at most {len(self.VARIANT_BOUNDS) - 1} rounds")
        rng = random.Random(seed)
        repeats = _groups(PAPER_GRID[0:60:2], (3,))
        news = _groups(PAPER_GRID[1:60:2], (3,))
        bounds = {spec: rng.sample(self.VARIANT_BOUNDS, len(self.VARIANT_BOUNDS))
                  for spec in PAPER_GRID}
        seeds = iter(rng.sample(range(1, 2**31), 2 * len(repeats) * max(rounds, 1)))
        if not rounds:  # the last bounds of each spec are never timed
            plan = [[("repeat", g) for g in repeats]
                    + [("new", tuple(spec + bounds[spec][-1] for spec in g)) for g in news[:2]]]
        else:
            plan = [
                [("repeat", g) for g in repeats]
                + [("new", tuple(spec + bounds[spec][r] for spec in g)) for g in news]
                for r in range(rounds)
            ]
        ops = []
        for r, items in enumerate(plan):
            order = list(range(len(items)))
            rng.shuffle(order)
            for slot in order:
                kind, specs = items[slot]
                op_seed = next(seeds) + (0 if rounds else 2**31)
                ops.append(Op(len(ops), r, slot, kind, op_seed, specs))
        return ops

    def setup(self, workdir):
        from repro.service.api import CampaignRequest, SpecRequest
        from repro.service.cache import EvaluationCache
        from repro.service.server import CampaignClient, serve
        from repro.store.runstore import RunStore

        workdir.mkdir(parents=True, exist_ok=True)
        cache = EvaluationCache(workdir / "evals.sqlite")
        store = RunStore(workdir / "runs.sqlite")
        server = serve("127.0.0.1", 0, workers=1, cache=cache, store=store)
        thread = server.serve_in_background()
        return SimpleNamespace(
            cache=cache, store=store, server=server, thread=thread,
            client=CampaignClient(server.url),
            CampaignRequest=CampaignRequest, SpecRequest=SpecRequest,
        )

    def close(self, env):
        env.server.shutdown()
        env.server.server_close()
        env.thread.join()
        env.server.queue.close()
        env.store.close()
        env.cache.close()

    def _spec_keys(self, op):
        return [s if len(s) == 5 else s + DEFAULT_BOUNDS for s in op.specs]

    def _request(self, cls_request, cls_spec, spec_keys, seed):
        specs = tuple(
            cls_spec(wstore=w, precision=p, max_l=l, max_h=h, min_n_factor=nf)
            for w, p, l, h, nf in spec_keys
        )
        return cls_request(specs=specs, seed=seed)

    def build_oracles(self, ops):
        """Exact scalar fronts, and ``execute_request`` of each spec set.

        Every spec set here runs the exhaustive route, where the GA seed
        plays no part, so one in-process response per distinct spec set
        stands for every request carrying it.
        """
        from repro.service.api import CampaignRequest, SpecRequest
        from repro.service.campaign import execute_request

        self.responses = {}
        for op in ops:
            keys = tuple(self._spec_keys(op))
            for key in keys:
                self._dcim_exact(key)
            if keys not in self.responses:
                request = self._request(CampaignRequest, SpecRequest, keys, 0)
                self.responses[keys] = execute_request(request)

    def run(self, env, op):
        request = self._request(env.CampaignRequest, env.SpecRequest, self._spec_keys(op), op.seed)
        job_id = env.client.submit(request)
        for _ in env.client.watch(job_id):
            pass
        return env.client.result(job_id)

    def check(self, op, response):
        out = Outcome()
        keys = tuple(self._spec_keys(op))
        expected = self.responses[keys]
        for attr in ("frontier", "evaluations", "per_spec_evaluations", "strategies", "problem"):
            if getattr(response, attr) != getattr(expected, attr):
                out.fail(f"{attr} differs from in-process execute_request")
        exact = merged_exact([self.exact[k] for k in keys])
        got = {design_key(p): tuple(p.objectives) for p in response.frontier}
        if got != exact.front:
            out.fail("merged frontier differs from the exact merged front")
        out.hv.append(exact.hv_ratio(got))
        out.fingerprints[f"{op.index}:{op.kind}:{op.seed}"] = fingerprint(got)
        return out


WORKLOADS = {w.name: w for w in (InProcess(), ServiceHttp())}
