"""The problem abstraction behind the campaign API.

A *problem definition* makes one optimisation problem self-describing:
it owns the wire codec for its specification payloads (validate a JSON
dict, emit one back), a factory for the GA-facing problem object
(:class:`repro.dse.nsga2.Problem` protocol), objective metadata, and
default GA sizing.  The serving stack — ``CampaignRequest`` v2, the job
queue, the HTTP server, the CLI — never names a concrete problem class;
everything dispatches through a :class:`~repro.problems.registry.
ProblemRegistry` entry, so a new workload plugs into every front-end by
registering one definition (see ``examples/custom_problem.py``).
"""

from __future__ import annotations

import dataclasses
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = [
    "DEFAULT_PROBLEM",
    "GASizing",
    "ProblemDefinition",
    "SpecValidationError",
    "filter_unknown_keys",
]

#: The problem every v1-era payload (and every omitted ``problem`` key)
#: resolves to.
DEFAULT_PROBLEM = "dcim"


def filter_unknown_keys(payload: dict, cls: type, label: str) -> dict:
    """Drop keys the dataclass ``cls`` does not know, with a warning.

    Forward compatibility (shared by every wire loader): an older CLI
    reading a file written by a newer schema should degrade gracefully,
    not crash with ``TypeError``.
    """
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if not unknown:
        return payload
    warnings.warn(
        f"ignoring unknown {label} key(s) {', '.join(map(repr, unknown))} "
        f"(written by a newer schema version?)",
        RuntimeWarning,
        stacklevel=3,
    )
    return {k: v for k, v in payload.items() if k in known}


class SpecValidationError(ValueError):
    """A spec payload failed one problem's validation.

    Carries the problem name and the bare message so front-ends can
    build structured error envelopes without parsing the string.
    """

    def __init__(self, problem: str, message: str) -> None:
        super().__init__(f"[{problem}] {message}")
        self.problem = problem
        self.message = message


@dataclass(frozen=True)
class GASizing:
    """Default NSGA-II sizing a problem suggests for itself."""

    population_size: int = 64
    generations: int = 60


class ProblemDefinition(ABC):
    """One registry entry: a self-describing optimisation problem.

    Subclasses set the class attributes and implement the abstract
    methods; everything else (schema introspection, tolerant payload
    parsing, the ``/api/problems`` description) has working defaults
    derived from ``spec_type``, which must be a dataclass whose fields
    are JSON-able (plain ints/floats/strs/None).

    Two spec representations flow through the stack:

    * the *spec request* — an instance of ``spec_type``, the JSON-able
      wire form stored inside a ``CampaignRequest``, and
    * the *concrete spec* — whatever :meth:`make_problem` consumes
      (:meth:`to_spec` converts; for problems whose wire form is
      already concrete it is the identity).
    """

    #: Registry key (``"dcim"``, ``"mapping"``, ...).
    name: str
    #: One-line human title.
    title: str = ""
    #: Longer description for discovery endpoints.
    description: str = ""
    #: Ordered objective labels (all minimised).
    objectives: tuple[str, ...] = ()
    #: Dataclass type of the JSON-able spec request.
    spec_type: type
    #: Default GA sizing applied when a caller does not override it.
    sizing: GASizing = GASizing()

    # Wire codec -----------------------------------------------------------
    def parse_spec(self, payload):
        """Coerce one spec payload into a validated ``spec_type`` instance.

        Accepts an existing instance unchanged; dict payloads are
        filtered against the dataclass fields first — unknown keys are
        dropped with a :class:`RuntimeWarning` instead of raising, so
        files written by a newer schema stay readable.

        Raises:
            SpecValidationError: when the payload is not a mapping, is
                missing required fields, or fails the spec's own
                validation.
        """
        if isinstance(payload, self.spec_type):
            return payload
        if not isinstance(payload, dict):
            raise SpecValidationError(
                self.name,
                f"spec must be a mapping or {self.spec_type.__name__}, "
                f"got {type(payload).__name__}",
            )
        payload = filter_unknown_keys(
            dict(payload), self.spec_type, f"{self.name} spec"
        )
        try:
            spec_request = self.spec_type(**payload)
        except (TypeError, ValueError) as exc:
            raise SpecValidationError(self.name, str(exc)) from None
        self.validate_spec(spec_request)
        return spec_request

    def validate_spec(self, spec_request) -> None:
        """Extra semantic validation of a freshly parsed wire payload.

        Called by :meth:`parse_spec` after dataclass construction, for
        problems whose spec validity goes beyond field types (e.g. the
        dcim precision grammar).  Raise :class:`SpecValidationError`
        to reject; the default accepts everything.  Only *parsed*
        payloads pass through here — spec objects handed in directly
        by programmatic callers are trusted.
        """

    def spec_dict(self, spec_request) -> dict:
        """The JSON-able dict form of one spec request."""
        return dataclasses.asdict(spec_request)

    @abstractmethod
    def to_spec(self, spec_request):
        """Wire spec request -> concrete spec for :meth:`make_problem`."""

    def from_spec(self, spec):
        """Concrete spec -> wire spec request (identity by default)."""
        return spec

    @abstractmethod
    def spec_label(self, spec) -> str:
        """Short human label progress events identify a spec by."""

    def request_label(self, spec_request) -> str:
        """Label a *wire* spec without running the problem.

        Defaults to materialising the concrete spec; problems whose
        validation can fail at materialisation time (e.g. a bad
        precision name) should override this so failed campaigns are
        still recordable with meaningful labels.
        """
        return self.spec_label(self.to_spec(spec_request))

    @abstractmethod
    def parse_cli_spec(self, text: str):
        """One ``--spec`` CLI string -> validated spec request."""

    # Problem construction -------------------------------------------------
    @abstractmethod
    def make_problem(self, spec, library=None):
        """Build the GA-facing problem object for one concrete spec.

        The returned object must implement the
        :class:`repro.dse.nsga2.Problem` protocol plus ``decode``.
        """

    # Frontier rendering ---------------------------------------------------
    def frontier_point(self, point, objectives):
        """Map one decoded point onto the wire-level frontier record.

        :class:`~repro.core.spec.DesignPoint`\\ s fill the macro columns
        directly; any other decoded point lands in the record's
        ``extras`` (a dict point verbatim, anything else as its one-line
        description).  Problems with richer point state should override
        this to populate both (the ``"mapping"`` problem does).
        """
        from repro.core.spec import DesignPoint
        from repro.service.api import FrontierPoint

        if isinstance(point, DesignPoint):
            return FrontierPoint.from_design(point, tuple(objectives))
        extras = (
            dict(point)
            if isinstance(point, dict)
            else {"point": self.describe_point(point)}
        )
        return FrontierPoint(
            precision="-",
            n=0,
            h=0,
            l=0,
            k=0,
            objectives=tuple(objectives),
            extras=extras,
        )

    def describe_point(self, point) -> str:
        """One-line rendering of a decoded point."""
        describe = getattr(point, "describe", None)
        return describe() if callable(describe) else repr(point)

    def point_columns(self) -> tuple[str, ...]:
        """Column headers for the CLI frontier table."""
        return ("design", *self.objectives)

    def point_row(self, point, objectives) -> tuple:
        """One CLI frontier-table row matching :meth:`point_columns`."""
        return (
            self.describe_point(point),
            *(f"{value:.4g}" for value in objectives),
        )

    # Discovery ------------------------------------------------------------
    def spec_schema(self) -> dict:
        """Field-by-field schema of the spec request (for discovery).

        Derived from the ``spec_type`` dataclass, so registering a
        problem automatically documents its wire format.
        """
        schema: dict[str, dict] = {}
        for spec_field in dataclasses.fields(self.spec_type):
            required = (
                spec_field.default is dataclasses.MISSING
                and spec_field.default_factory is dataclasses.MISSING
            )
            entry: dict = {
                "type": str(spec_field.type),
                "required": required,
            }
            if not required and spec_field.default is not dataclasses.MISSING:
                entry["default"] = spec_field.default
            schema[spec_field.name] = entry
        return schema

    def describe(self) -> dict:
        """The ``GET /api/problems`` entry for this definition."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "objectives": list(self.objectives),
            "defaults": {
                "population_size": self.sizing.population_size,
                "generations": self.sizing.generations,
            },
            "spec_schema": self.spec_schema(),
        }
