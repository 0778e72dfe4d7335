"""The built-in ``"dcim"`` problem: macro architecture search.

This wraps the original (and still default) workload of the stack —
NSGA-II over the ``(N, H, L, k)`` macro design space of one
:class:`~repro.core.spec.DcimSpec` — as a registry entry, so the
generic campaign machinery reaches it the same way it reaches any
user-registered problem.  The wire spec is the existing
:class:`~repro.service.api.SpecRequest`, which keeps every v1-era
payload valid byte for byte.
"""

from __future__ import annotations

from repro.dse.genome import GenomeCodec
from repro.dse.problem import OBJECTIVE_NAMES, DcimProblem
from repro.problems.base import GASizing, ProblemDefinition, SpecValidationError
from repro.problems.registry import register_problem
from repro.service.api import SpecRequest

__all__ = ["DcimProblemDefinition"]


class DcimProblemDefinition(ProblemDefinition):
    """Registry entry for the DCIM macro design-space exploration."""

    name = "dcim"
    title = "DCIM macro architecture search"
    description = (
        "NSGA-II over the (N, H, L, k) digital CIM macro design space of "
        "one (Wstore, precision) specification; objectives are the "
        "paper's normalised [area, delay, energy, -throughput]."
    )
    objectives = OBJECTIVE_NAMES
    spec_type = SpecRequest
    sizing = GASizing(population_size=64, generations=60)

    def to_spec(self, spec_request: SpecRequest):
        return spec_request.to_spec()

    def validate_spec(self, spec_request: SpecRequest) -> None:
        # Fail wire payloads fast (HTTP submits answer 400 invalid_spec
        # instead of queueing a campaign doomed to fail): materialising
        # the DcimSpec checks the precision grammar and bounds, and its
        # genome codec checks that the bounds admit at least one design.
        try:
            GenomeCodec(spec_request.to_spec())
        except ValueError as exc:
            raise SpecValidationError(self.name, str(exc)) from None

    def from_spec(self, spec) -> SpecRequest:
        return SpecRequest.from_spec(spec)

    def spec_label(self, spec) -> str:
        return f"{spec.wstore}:{spec.precision.name}"

    def request_label(self, spec_request: SpecRequest) -> str:
        # No materialisation: labels must work for unrunnable requests
        # too (a failed campaign still records its spec provenance).
        return f"{spec_request.wstore}:{spec_request.precision}"

    def parse_cli_spec(self, text: str) -> SpecRequest:
        wstore_text, _, precision = text.partition(":")
        if not precision:
            raise SpecValidationError(
                self.name,
                f"spec {text!r} must look like WSTORE:PRECISION "
                f"(e.g. 8192:INT8)",
            )
        try:
            request = SpecRequest(wstore=int(wstore_text), precision=precision)
            request.to_spec()  # fail fast on bad bounds/precision
        except ValueError as exc:
            raise SpecValidationError(self.name, str(exc)) from None
        return request

    def make_problem(self, spec, library=None, engine: str = "auto"):
        if library is None:
            return DcimProblem(spec, engine_backend=engine)
        return DcimProblem(spec, library, engine_backend=engine)

    def point_columns(self) -> tuple[str, ...]:
        return ("prec", "N", "H", "L", "k", *self.objectives)

    def point_row(self, point, objectives) -> tuple:
        return (
            point.precision.name,
            point.n,
            point.h,
            point.l,
            point.k,
            *(f"{value:.4g}" for value in objectives),
        )


register_problem(DcimProblemDefinition())
