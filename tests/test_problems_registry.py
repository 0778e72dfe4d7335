"""Tests for the problem registry and definition abstraction."""

import warnings

import pytest

from repro.problems import (
    DEFAULT_PROBLEM,
    GASizing,
    ProblemDefinition,
    ProblemRegistry,
    SpecValidationError,
    get_problem,
    problem_catalog,
    problem_names,
)
from repro.service.api import SpecRequest


class TestBuiltins:
    def test_both_builtins_registered(self):
        assert problem_names() == ["dcim", "mapping"]
        assert DEFAULT_PROBLEM == "dcim"

    def test_get_problem_unknown_lists_known(self):
        with pytest.raises(KeyError, match="dcim"):
            get_problem("nope")

    def test_catalog_entries_are_self_describing(self):
        catalogue = {entry["name"]: entry for entry in problem_catalog()}
        assert set(catalogue) == {"dcim", "mapping"}
        dcim = catalogue["dcim"]
        assert dcim["objectives"] == ["area", "delay", "energy",
                                      "neg_throughput"]
        assert dcim["defaults"] == {"population_size": 64, "generations": 60}
        assert dcim["spec_schema"]["wstore"]["required"] is True
        assert dcim["spec_schema"]["max_l"] == {
            "type": "int", "required": False, "default": 64,
        }
        mapping = catalogue["mapping"]
        assert mapping["spec_schema"]["network"]["required"] is True
        assert "area_mm2" in mapping["objectives"]

    def test_dcim_parse_spec_validates(self):
        definition = get_problem("dcim")
        spec = definition.parse_spec({"wstore": 4096, "precision": "INT8"})
        assert spec == SpecRequest(4096, "INT8")
        with pytest.raises(SpecValidationError, match=r"\[dcim\]"):
            definition.parse_spec({"precision": "INT8"})  # missing wstore
        with pytest.raises(SpecValidationError):
            definition.parse_spec("4096:INT8")  # not a mapping
        # Valid fields, empty design space: no N = 8*2^a in (32, 40].
        with pytest.raises(SpecValidationError, match="max_n=40"):
            definition.parse_spec(
                {"wstore": 4096, "precision": "INT8", "max_n": 40}
            )

    def test_parse_spec_ignores_unknown_keys_with_warning(self):
        definition = get_problem("dcim")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = definition.parse_spec(
                {"wstore": 4096, "precision": "INT8", "shiny_new_field": 3}
            )
        assert spec == SpecRequest(4096, "INT8")
        assert any("shiny_new_field" in str(w.message) for w in caught)

    def test_dcim_cli_spec_parsing(self):
        definition = get_problem("dcim")
        assert definition.parse_cli_spec("8192:INT8") == SpecRequest(
            8192, "INT8"
        )
        with pytest.raises(SpecValidationError, match="WSTORE:PRECISION"):
            definition.parse_cli_spec("8192")
        with pytest.raises(SpecValidationError):
            definition.parse_cli_spec("8192:NOPE")

    def test_request_label_survives_bad_precision(self):
        definition = get_problem("dcim")
        assert definition.request_label(SpecRequest(4096, "NOPE")) \
            == "4096:NOPE"

    def test_dcim_point_row_matches_columns(self):
        """The dcim definition's table contract (used by API consumers
        rendering frontiers generically) stays consistent."""
        import random

        definition = get_problem("dcim")
        problem = definition.make_problem(
            definition.to_spec(SpecRequest(4096, "INT8"))
        )
        genome = problem.sample(random.Random(0))
        row = definition.point_row(
            problem.decode(genome), problem.evaluate(genome)
        )
        assert len(row) == len(definition.point_columns())
        assert row[0] == "INT8"


class _ToySpec:
    pass


class TestRegistry:
    def _toy_definition(self, name="toy"):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class ToySpec:
            width: int = 4

        class ToyDefinition(ProblemDefinition):
            title = "toy"
            objectives = ("a", "b")
            spec_type = ToySpec
            sizing = GASizing(8, 2)

            def to_spec(self, spec_request):
                return spec_request

            def spec_label(self, spec):
                return f"toy:{spec.width}"

            def parse_cli_spec(self, text):
                return ToySpec(width=int(text))

            def make_problem(self, spec, library=None, engine="auto"):
                raise NotImplementedError

        ToyDefinition.name = name
        return ToyDefinition()

    def test_register_and_lookup(self):
        registry = ProblemRegistry()
        definition = registry.register(self._toy_definition())
        assert registry.get("toy") is definition
        assert "toy" in registry
        assert registry.names() == ["toy"]

    def test_duplicate_name_rejected_unless_replace(self):
        registry = ProblemRegistry()
        registry.register(self._toy_definition())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(self._toy_definition())
        registry.register(self._toy_definition(), replace=True)
        assert len(registry) == 1

    def test_bad_names_rejected(self):
        registry = ProblemRegistry()
        for bad in ("", "no spaces", "hy-phen", None):
            with pytest.raises(ValueError, match="problem name"):
                registry.register(self._toy_definition(name=bad))

    def test_custom_problem_visible_in_campaign_request(self):
        """A user-registered problem is usable from the wire format."""
        from repro.problems import REGISTRY, register_problem
        from repro.service.api import CampaignRequest

        definition = self._toy_definition(name="toy_wire")
        register_problem(definition)
        try:
            request = CampaignRequest(
                problem="toy_wire", specs=({"width": 3},)
            )
            assert request.specs[0].width == 3
            clone = CampaignRequest.from_json(request.to_json())
            assert clone == request
            # non-default problems hash their problem name
            assert request.fingerprint() != CampaignRequest(
                specs=({"wstore": 4096, "precision": "INT8"},)
            ).fingerprint()
        finally:
            REGISTRY._definitions.pop("toy_wire", None)

    def test_unknown_problem_in_request_raises_value_error(self):
        from repro.service.api import CampaignRequest

        with pytest.raises(ValueError, match="unknown problem"):
            CampaignRequest(problem="nope", specs=({"x": 1},))
