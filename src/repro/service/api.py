"""Typed request/response records for the evaluation service.

Campaigns are driven programmatically (:func:`repro.service.campaign.
run_campaign`) or through the job queue; either way the boundary speaks
these dataclasses, and every record round-trips through JSON so requests
can be submitted from the CLI, files, or a network front-end.

Schema v2 (this release) makes the wire format problem-agnostic::

    {"schema_version": 2, "problem": "dcim",
     "specs": [{"wstore": 8192, "precision": "INT8"}], ...}

``problem`` names a :mod:`repro.problems` registry entry, which owns
the per-problem spec validation.  Legacy v1 payloads (no
``schema_version``/``problem`` keys) are upgraded transparently by the
loaders — they resolve to ``problem: "dcim"`` and produce bit-identical
campaign results and identical :meth:`CampaignRequest.fingerprint`
values, so existing request files, caches and registry rows keep
matching.  Loaders ignore unknown keys with a warning instead of
raising, so files written by newer schema versions stay readable.
The keys of the retired numeric-backend knobs (request ``engine`` /
``ga_backend``, response ``engine_backend`` / ``ga_backend``) are
dropped silently: stored requests and older peers still send them.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, fields

from repro.core.spec import DcimSpec, DesignPoint
from repro.problems.base import DEFAULT_PROBLEM, filter_unknown_keys
from repro.service.cache import stable_hash

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "SpecRequest",
    "CampaignRequest",
    "FrontierPoint",
    "CampaignResponse",
]

#: The schema this release writes.
SCHEMA_VERSION = 2

#: Schemas the loaders accept (v1 payloads are upgraded in place).
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: Request and response keys of the retired numeric-backend knobs.
#: numpy is the only backend, so they carry nothing; the loaders drop
#: them without the unknown-key warning.
_RETIRED_REQUEST_KEYS = ("engine", "ga_backend")
_RETIRED_RESPONSE_KEYS = ("engine_backend", "ga_backend")


@dataclass(frozen=True)
class SpecRequest:
    """JSON-able mirror of :class:`~repro.core.spec.DcimSpec`.

    This is the wire spec of the ``"dcim"`` problem; other problems
    carry their own spec dataclasses (see the
    :mod:`repro.problems` registry).
    """

    wstore: int
    precision: str
    max_l: int = 64
    max_h: int = 2048
    min_n_factor: int = 4
    max_n: int | None = None

    def to_spec(self) -> DcimSpec:
        """Materialise (and validate) the concrete specification."""
        return DcimSpec(
            wstore=self.wstore,
            precision=self.precision,
            max_l=self.max_l,
            max_h=self.max_h,
            min_n_factor=self.min_n_factor,
            max_n=self.max_n,
        )

    @classmethod
    def from_spec(cls, spec: DcimSpec) -> "SpecRequest":
        return cls(
            wstore=spec.wstore,
            precision=spec.precision.name,
            max_l=spec.max_l,
            max_h=spec.max_h,
            min_n_factor=spec.min_n_factor,
            max_n=spec.max_n,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "SpecRequest":
        """Tolerant loader: unknown keys are dropped with a warning."""
        return cls(**filter_unknown_keys(dict(payload), cls, "SpecRequest"))


@dataclass(frozen=True)
class CampaignRequest:
    """One multi-spec exploration campaign (schema v2).

    Attributes:
        specs: the specifications to explore (one NSGA-II run each);
            raw dicts are validated through the problem's registry
            entry, so each problem enforces its own spec schema.
        population_size / generations: GA sizing shared by all runs;
            ``None`` resolves to the problem's own default sizing (the
            one ``GET /api/problems`` advertises) at construction, so
            a stored request always carries concrete numbers.
        seed: base GA seed; spec ``i`` runs with ``seed + i``.
        backend: evaluation backend (``serial``/``thread``/``process``).
        workers: campaign-level parallelism (specs explored at once).
        chunk_size: genomes per executor task (``None`` = automatic).
        exhaustive_threshold: largest enumerable design space explored
            exhaustively instead of via the GA; ``0`` forces the GA
            everywhere, omitted/``None`` resolves to the library
            default at construction.
        schema_version: wire-format version; v1 payloads are accepted
            and upgraded, so a constructed request always carries
            :data:`SCHEMA_VERSION`.
        problem: :mod:`repro.problems` registry name this campaign
            optimises (default ``"dcim"``).
    """

    specs: tuple
    population_size: int | None = None
    generations: int | None = None
    seed: int = 0
    backend: str = "serial"
    workers: int = 1
    chunk_size: int | None = None
    exhaustive_threshold: int | None = None
    schema_version: int = SCHEMA_VERSION
    problem: str = DEFAULT_PROBLEM

    def __post_init__(self) -> None:
        if self.schema_version not in SUPPORTED_SCHEMA_VERSIONS:
            raise ValueError(
                f"unsupported schema_version {self.schema_version!r}; "
                f"supported: {list(SUPPORTED_SCHEMA_VERSIONS)}"
            )
        from repro.dse.explorer import DEFAULT_EXHAUSTIVE_THRESHOLD

        # Omitted threshold resolves to the library default, so stored
        # requests always carry the concrete number they ran with.
        if self.exhaustive_threshold is None:
            object.__setattr__(
                self, "exhaustive_threshold", DEFAULT_EXHAUSTIVE_THRESHOLD
            )
        if self.exhaustive_threshold < 0:
            raise ValueError("exhaustive_threshold must be >= 0")
        # Requests are always upgraded to the current schema in memory.
        object.__setattr__(self, "schema_version", SCHEMA_VERSION)
        from repro.problems import get_problem

        try:
            definition = get_problem(self.problem)
        except KeyError as exc:
            raise ValueError(str(exc.args[0])) from None
        # Omitted GA sizing resolves to the problem's own defaults —
        # the numbers GET /api/problems advertises — so a raw HTTP
        # submit and the CLI run the same campaign.
        if self.population_size is None:
            object.__setattr__(
                self, "population_size", definition.sizing.population_size
            )
        if self.generations is None:
            object.__setattr__(
                self, "generations", definition.sizing.generations
            )
        # Tolerate lists and raw dicts from JSON callers; the problem's
        # registry entry validates each spec payload.
        specs = tuple(definition.parse_spec(s) for s in self.specs)
        object.__setattr__(self, "specs", specs)
        if not specs:
            raise ValueError("a campaign needs at least one spec")

    def fingerprint(self) -> str:
        """Stable content hash used for request deduplication.

        ``schema_version`` never participates: the hash identifies the
        *workload*, and a request upgraded across schema bumps must keep
        matching its job-queue dedup entries and registry rows.  For the
        default ``"dcim"`` problem the ``problem`` key is dropped too,
        reproducing the v1-era layout exactly, so fingerprints recorded
        before the v2 schema keep matching as well.
        """
        payload = self.to_dict()
        del payload["schema_version"]
        if self.problem == DEFAULT_PROBLEM:
            del payload["problem"]
        # Every layout so far hashed the retired cost-engine knob, as
        # "auto" unless forced; keeping the literal keeps recorded
        # fingerprints matching.  The exhaustive threshold only hashes
        # when it differs from the library default, so fingerprints
        # from before it existed keep matching too.
        payload["engine"] = "auto"
        from repro.dse.explorer import DEFAULT_EXHAUSTIVE_THRESHOLD

        if self.exhaustive_threshold == DEFAULT_EXHAUSTIVE_THRESHOLD:
            del payload["exhaustive_threshold"]
        return stable_hash(payload)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignRequest":
        """Load a v1 or v2 payload (v1 is upgraded to ``problem: dcim``)."""
        payload = {
            k: v for k, v in payload.items() if k not in _RETIRED_REQUEST_KEYS
        }
        version = payload.pop("schema_version", 1)
        problem = payload.pop("problem", DEFAULT_PROBLEM)
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise ValueError(
                f"unsupported schema_version {version!r}; "
                f"supported: {list(SUPPORTED_SCHEMA_VERSIONS)}"
            )
        payload = filter_unknown_keys(payload, cls, "CampaignRequest")
        payload["specs"] = tuple(payload.get("specs", ()))
        return cls(schema_version=version, problem=problem, **payload)

    @classmethod
    def from_json(cls, text: str) -> "CampaignRequest":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class FrontierPoint:
    """One merged-frontier design plus its objective vector.

    The ``(precision, n, h, l, k)`` columns describe the underlying
    macro design; problems whose candidates carry more state (e.g. the
    ``"mapping"`` problem's macro count) put it in ``extras``, which is
    serialised only when non-empty so ``"dcim"`` payloads and content
    hashes are byte-identical to the v1 era.
    """

    precision: str
    n: int
    h: int
    l: int
    k: int
    objectives: tuple[float, ...] = ()
    extras: dict = field(default_factory=dict)

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the extras
        # dict; hash its canonical JSON instead so points stay usable
        # in sets/dict keys (as they were before extras existed), even
        # when extras values are themselves lists/dicts.  Treat extras
        # as immutable — mutating it in place would desync equality,
        # hashes and the store's content addresses.
        extras_key = (
            json.dumps(self.extras, sort_keys=True, default=str)
            if self.extras
            else ""
        )
        return hash(
            (
                self.precision,
                self.n,
                self.h,
                self.l,
                self.k,
                self.objectives,
                extras_key,
            )
        )

    @classmethod
    def from_design(
        cls, point: DesignPoint, objectives: tuple[float, ...] = ()
    ) -> "FrontierPoint":
        return cls(
            precision=point.precision.name,
            n=point.n,
            h=point.h,
            l=point.l,
            k=point.k,
            objectives=tuple(objectives),
        )

    def to_design(self) -> DesignPoint:
        return DesignPoint(
            precision=self.precision, n=self.n, h=self.h, l=self.l, k=self.k
        )

    def to_dict(self) -> dict:
        # Built by hand, not with asdict(): same keys in the same order,
        # at a fraction of the cost on every response a server writes.
        payload = {
            "precision": self.precision,
            "n": self.n,
            "h": self.h,
            "l": self.l,
            "k": self.k,
            "objectives": list(self.objectives),
        }
        if self.extras:
            payload["extras"] = copy.deepcopy(self.extras)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FrontierPoint":
        payload = dict(payload)
        if not _FRONTIER_POINT_FIELDS.issuperset(payload):
            payload = filter_unknown_keys(payload, cls, "FrontierPoint")
        payload["objectives"] = tuple(payload.get("objectives", ()))
        payload["extras"] = dict(payload.get("extras", ()))
        return cls(**payload)


_FRONTIER_POINT_FIELDS = frozenset(f.name for f in fields(FrontierPoint))


@dataclass(frozen=True)
class CampaignResponse:
    """Result record handed back for one campaign request.

    Attributes:
        frontier: the merged cross-architecture Pareto frontier.
        evaluations: unique genomes evaluated across all specs,
            including cache-served ones.
        fresh_evaluations: evaluations that reached the cost model:
            the GA specs' cache misses plus every genome of an
            exhaustive spec (that route never consults the cache).
            Equals ``evaluations`` for uncached and for all-exhaustive
            campaigns.
        per_spec_evaluations: breakdown of ``evaluations`` per spec.
        cache_stats: cache counters (``CacheStats.as_dict`` shape), or
            ``None`` when the campaign ran uncached.
        wall_time_s: end-to-end campaign wall clock.
        problem: registry name of the problem the campaign optimised.
        strategies: per-spec exploration strategy (``"ga"`` or
            ``"exhaustive"``), in spec input order; empty for records
            written before strategies were tracked.
    """

    frontier: tuple[FrontierPoint, ...]
    evaluations: int = 0
    fresh_evaluations: int = 0
    per_spec_evaluations: tuple[int, ...] = ()
    cache_stats: dict | None = None
    wall_time_s: float = 0.0
    problem: str = DEFAULT_PROBLEM
    strategies: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        frontier = tuple(
            p if isinstance(p, FrontierPoint) else FrontierPoint.from_dict(p)
            for p in self.frontier
        )
        object.__setattr__(self, "frontier", frontier)
        object.__setattr__(
            self, "per_spec_evaluations", tuple(self.per_spec_evaluations)
        )
        object.__setattr__(self, "strategies", tuple(self.strategies))

    def to_dict(self) -> dict:
        # Not asdict(): that would deep-convert the frontier only for
        # the next line to redo it point by point.
        return {
            "frontier": [point.to_dict() for point in self.frontier],
            "evaluations": self.evaluations,
            "fresh_evaluations": self.fresh_evaluations,
            "per_spec_evaluations": list(self.per_spec_evaluations),
            "cache_stats": (
                dict(self.cache_stats) if self.cache_stats is not None else None
            ),
            "wall_time_s": self.wall_time_s,
            "problem": self.problem,
            "strategies": list(self.strategies),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignResponse":
        payload = filter_unknown_keys(
            {k: v for k, v in payload.items() if k not in _RETIRED_RESPONSE_KEYS},
            cls,
            "CampaignResponse",
        )
        payload["frontier"] = tuple(
            FrontierPoint.from_dict(point)
            for point in payload.get("frontier", ())
        )
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "CampaignResponse":
        return cls.from_dict(json.loads(text))
