"""Schema v2: v1 upgrade, fingerprints, tolerant loaders, discovery.

The golden v1 payload below is frozen in the exact layout the v1-era
code wrote (no ``schema_version``/``problem`` keys); the golden
fingerprint is the SHA-256 ``stable_hash`` the v1 code computed for it.
Both must stay valid forever: request files, cache dedup and run
registries written before the v2 schema keep working bit-identically.
"""

import dataclasses
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import CampaignConfig, run_campaign
from repro.service.api import (
    SCHEMA_VERSION,
    CampaignRequest,
    CampaignResponse,
    FrontierPoint,
    SpecRequest,
)
from repro.service.campaign import execute_request
from repro.store import RunStore

GOLDEN_V1_JSON = json.dumps(
    {
        "specs": [
            {"wstore": 4096, "precision": "INT4", "max_l": 64,
             "max_h": 2048, "min_n_factor": 4, "max_n": None},
            {"wstore": 4096, "precision": "INT8", "max_l": 64,
             "max_h": 2048, "min_n_factor": 4, "max_n": None},
        ],
        "population_size": 16,
        "generations": 4,
        "seed": 1,
        "backend": "serial",
        "workers": 1,
        "chunk_size": None,
        "engine": "auto",
    },
    sort_keys=True,
)

#: stable_hash of the payload above, as computed by the v1-era code.
GOLDEN_V1_FINGERPRINT = (
    "b06efebc6d3294e3a91511ee5c712c2101937ceec0ebe894fa439cc1fa974ec3"
)

#: Fingerprints computed by the code that still had the ``engine`` and
#: ``ga_backend`` knobs.  Their removal must not move any of them.
GOLDEN_DCIM_CONFIG_FINGERPRINT = (
    "447bf75d88ea068dbc2a3227eb914f1f0d1d51c4edbfb91e3597e7bb6723bb95"
)
GOLDEN_MAPPING_CONFIG_FINGERPRINT = (
    "14e6367c64f58066d7d95a43cf57cd5cff744bca94cbe22976875733c157930a"
)
GOLDEN_MAPPING_REQUEST_FINGERPRINT = (
    "79a6125532eb411a5a69ca5c281df8a2a2482a84ca13dd8dd2f654abb6e6465a"
)


def equivalent_v2_request() -> CampaignRequest:
    """The same campaign, written in the v2 layout."""
    return CampaignRequest.from_dict(
        {
            "schema_version": 2,
            "problem": "dcim",
            "specs": [
                {"wstore": 4096, "precision": "INT4"},
                {"wstore": 4096, "precision": "INT8"},
            ],
            "population_size": 16,
            "generations": 4,
            "seed": 1,
        }
    )


class TestV1Upgrade:
    def test_v1_payload_upgrades_to_dcim(self):
        request = CampaignRequest.from_json(GOLDEN_V1_JSON)
        assert request.schema_version == SCHEMA_VERSION
        assert request.problem == "dcim"
        assert request.specs == (
            SpecRequest(4096, "INT4"), SpecRequest(4096, "INT8"),
        )

    def test_v1_fingerprint_is_frozen(self):
        """The dcim fingerprint must never drift across schema bumps."""
        request = CampaignRequest.from_json(GOLDEN_V1_JSON)
        assert request.fingerprint() == GOLDEN_V1_FINGERPRINT

    def test_v1_and_v2_payloads_share_fingerprint(self):
        v1 = CampaignRequest.from_json(GOLDEN_V1_JSON)
        v2 = equivalent_v2_request()
        assert v1 == v2
        assert v2.fingerprint() == GOLDEN_V1_FINGERPRINT

    def test_v1_and_v2_produce_bit_identical_campaigns(self):
        v1_response = execute_request(CampaignRequest.from_json(GOLDEN_V1_JSON))
        v2_response = execute_request(equivalent_v2_request())
        assert [p.to_dict() for p in v1_response.frontier] == [
            p.to_dict() for p in v2_response.frontier
        ]
        assert v1_response.evaluations == v2_response.evaluations

    def test_v1_and_v2_record_identical_store_fingerprints(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            for request in (
                CampaignRequest.from_json(GOLDEN_V1_JSON),
                equivalent_v2_request(),
            ):
                store.record_response(execute_request(request), request)
            a, b = store.list_runs()
            assert a.fingerprint == b.fingerprint == GOLDEN_V1_FINGERPRINT
            assert a.problem == b.problem == "dcim"

    def test_unsupported_schema_version_rejected(self):
        payload = json.loads(GOLDEN_V1_JSON)
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            CampaignRequest.from_dict(payload)
        with pytest.raises(ValueError, match="schema_version"):
            CampaignRequest(
                specs=({"wstore": 4096, "precision": "INT8"},),
                schema_version=3,
            )

    def test_constructed_requests_write_v2(self):
        request = CampaignRequest(
            specs=({"wstore": 4096, "precision": "INT8"},)
        )
        payload = request.to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["problem"] == "dcim"

    def test_omitted_ga_sizing_resolves_to_problem_defaults(self):
        """The wire layer honours the sizing GET /api/problems
        advertises: omitted fields resolve per problem, and dcim's
        resolution reproduces the v1-era 64x60 exactly."""
        dcim = CampaignRequest(specs=({"wstore": 4096, "precision": "INT8"},))
        assert (dcim.population_size, dcim.generations) == (64, 60)
        mapping = CampaignRequest.from_dict(
            {"problem": "mapping", "schema_version": 2,
             "specs": [{"network": "tiny_cnn", "wstore": 4096}]}
        )
        assert (mapping.population_size, mapping.generations) == (32, 24)
        # explicit values always win
        explicit = CampaignRequest(
            problem="mapping",
            specs=({"network": "tiny_cnn", "wstore": 4096},),
            population_size=16,
        )
        assert (explicit.population_size, explicit.generations) == (16, 24)

    def test_no_problem_hashes_schema_version(self):
        """Fingerprints identify workloads: a future schema bump must
        not silently re-fingerprint any problem's requests."""
        request = CampaignRequest(
            problem="mapping",
            specs=({"network": "tiny_cnn", "wstore": 4096},),
        )
        assert request.fingerprint() == GOLDEN_MAPPING_REQUEST_FINGERPRINT

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("workers", 0, "workers must be >= 1"),
            ("workers", -3, "workers must be >= 1"),
            ("workers", "two", "workers must be an integer"),
            ("workers", 1.5, "workers must be an integer"),
            ("workers", True, "workers must be an integer"),
            ("population_size", 3, "population_size must be an even"),
            ("population_size", 2, "population_size must be an even"),
            ("population_size", "64", "population_size must be an integer"),
            ("generations", 0, "generations must be >= 1"),
            ("seed", "x", "seed must be an integer"),
            ("seed", 1.0, "seed must be an integer"),
        ],
    )
    def test_unrunnable_requests_fail_at_the_boundary(self, field, value, message):
        """A request the queue could only fail is refused when loaded,
        so an HTTP submit answers 400 instead of queueing a doomed job.
        ``seed`` must be an integer on the exhaustive route too, where
        the GA never reads it."""
        payload = {"specs": [{"wstore": 4096, "precision": "INT8"}], field: value}
        with pytest.raises(ValueError, match=message):
            CampaignRequest.from_dict(payload)

    def test_dcim_wire_spec_fails_fast_on_bad_precision(self):
        """A dict payload with a bad precision is rejected at the API
        boundary (HTTP submits answer 400) instead of queueing a
        campaign doomed to fail; programmatic SpecRequest instances
        stay trusted (their failure path is covered elsewhere)."""
        from repro.problems import SpecValidationError

        with pytest.raises(SpecValidationError, match="NOPE"):
            CampaignRequest(specs=({"wstore": 4096, "precision": "NOPE"},))
        # instance pass-through is not re-validated
        CampaignRequest(specs=(SpecRequest(4096, "NOPE"),))


class TestForwardCompatibility:
    def test_request_loader_ignores_unknown_keys_with_warning(self):
        payload = json.loads(GOLDEN_V1_JSON)  # carries the retired "engine"
        payload["added_in_v3"] = {"x": 1}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            request = CampaignRequest.from_dict(payload)
        assert request.fingerprint() == GOLDEN_V1_FINGERPRINT
        messages = " ".join(str(w.message) for w in caught)
        assert "added_in_v3" in messages
        assert "engine" not in messages

    def test_spec_loader_ignores_unknown_keys_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = SpecRequest.from_dict(
                {"wstore": 4096, "precision": "INT8", "novel": True}
            )
        assert spec == SpecRequest(4096, "INT8")
        assert any("novel" in str(w.message) for w in caught)

    def test_response_loader_ignores_unknown_keys_with_warning(self):
        payload = {
            "frontier": [
                {"precision": "INT8", "n": 64, "h": 64, "l": 1, "k": 8,
                 "objectives": [1.0, 2.0, 3.0, -4.0], "hologram": 9}
            ],
            "evaluations": 1,
            "from_the_future": "yes",
            "engine_backend": "numpy",  # retired: dropped silently
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            response = CampaignResponse.from_dict(payload)
        assert response.evaluations == 1
        assert response.frontier[0].n == 64
        assert len(caught) >= 2  # one per unknown-key site
        assert not any("engine_backend" in str(w.message) for w in caught)

    @pytest.mark.parametrize("engine", ["auto", "numpy", "python"])
    def test_retired_request_keys_load_silently(self, engine):
        """Stored requests and older clients still send the retired
        numeric-backend and executor knobs; they load without a warning
        and fingerprint like the default (a forced backend or chunk
        size never changed results)."""
        payload = dict(json.loads(GOLDEN_V1_JSON), engine=engine)
        payload.update(ga_backend="python", backend="process", chunk_size=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            request = CampaignRequest.from_dict(payload)
        assert request == CampaignRequest.from_json(GOLDEN_V1_JSON)
        assert request.fingerprint() == GOLDEN_V1_FINGERPRINT
        assert "backend" not in request.to_dict()
        assert "chunk_size" not in request.to_dict()

    def test_once_unknown_executor_backend_now_runs(self):
        """``"backend": "gpu"`` used to fail the job; the key is now
        dropped and the campaign runs like the default."""
        payload = dict(json.loads(GOLDEN_V1_JSON), backend="gpu")
        request = CampaignRequest.from_dict(payload)
        assert request.fingerprint() == GOLDEN_V1_FINGERPRINT
        assert execute_request(request).frontier

    def test_retired_response_keys_load_silently(self, dcim_response):
        payload = dict(
            dcim_response.to_dict(), engine_backend="numpy", ga_backend="numpy"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = CampaignResponse.from_dict(payload)
        assert loaded == dcim_response


class TestFrontierPointExtras:
    def test_empty_extras_serialise_identically_to_v1(self):
        point = FrontierPoint("INT8", 64, 64, 1, 8, (1.0, 2.0))
        payload = point.to_dict()
        assert "extras" not in payload
        assert FrontierPoint.from_dict(payload) == point

    def test_non_empty_extras_round_trip(self):
        point = FrontierPoint(
            "INT8", 64, 64, 1, 8, (1.0,), extras={"n_macros": 4}
        )
        clone = FrontierPoint.from_dict(point.to_dict())
        assert clone == point

    def test_points_stay_hashable(self):
        """extras must not cost FrontierPoint its set/dict-key use."""
        plain = FrontierPoint("INT8", 64, 64, 1, 8, (1.0,))
        extended = FrontierPoint(
            "INT8", 64, 64, 1, 8, (1.0,), extras={"n_macros": 4}
        )
        twin = FrontierPoint(
            "INT8", 64, 64, 1, 8, (1.0,), extras={"n_macros": 4}
        )
        assert len({plain, extended, twin}) == 2
        assert hash(extended) == hash(twin)
        # custom problems may put nested JSON in extras; still hashable
        nested = FrontierPoint(
            "-", 0, 0, 0, 0, (1.0,), extras={"tiles": [4, 2]}
        )
        assert hash(nested) == hash(
            FrontierPoint("-", 0, 0, 0, 0, (1.0,), extras={"tiles": [4, 2]})
        )

    def test_point_hash_unchanged_without_extras(self):
        from repro.service.cache import stable_hash
        from repro.store.runstore import point_hash

        point = FrontierPoint("INT8", 64, 64, 1, 8, (1.0, 2.0))
        legacy = stable_hash(
            {"precision": "INT8", "n": 64, "h": 64, "l": 1, "k": 8,
             "objectives": [1.0, 2.0]}
        )
        assert point_hash(point) == legacy
        extended = FrontierPoint(
            "INT8", 64, 64, 1, 8, (1.0, 2.0), extras={"n_macros": 2}
        )
        assert point_hash(extended) != legacy


def asdict_reference(point: FrontierPoint) -> dict:
    """The encoder ``FrontierPoint.to_dict`` replaced, kept as an oracle."""
    payload = dataclasses.asdict(point)
    payload["objectives"] = list(point.objectives)
    if not point.extras:
        del payload["extras"]
    return payload


#: Literal points whose ``point_hash`` was captured before
#: ``FrontierPoint.to_dict`` stopped going through ``dataclasses.asdict``.
GOLDEN_DCIM_POINT = FrontierPoint(
    "INT8", 64, 16, 64, 2,
    (0.011839232, 0.6096, 0.0190464, -0.20998687664041995),
)
GOLDEN_DCIM_POINT_HASH = (
    "5004d0d1bfa31c4b7d12b46bdafaa6110d0737e256789434bcafde1176f0ab3d"
)
GOLDEN_MAPPING_POINT = FrontierPoint(
    "BF16", 128, 8, 32, 4,
    (0.5, 12.25, 3.0625, -81.6326530612245),
    extras={"n_macros": 4, "schedule": "pipelined"},
)
GOLDEN_MAPPING_POINT_HASH = (
    "8241272a96b80381c634d1f0fc1de7a8a64541e0100f242c84c6433ce8bf0b20"
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
FRONTIER_POINTS = st.builds(
    FrontierPoint,
    precision=st.sampled_from(["INT4", "INT8", "BF16", "FP32", "-"]),
    n=st.integers(min_value=0, max_value=4096),
    h=st.integers(min_value=0, max_value=4096),
    l=st.integers(min_value=0, max_value=128),
    k=st.integers(min_value=0, max_value=16),
    objectives=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=4
    ).map(tuple),
    extras=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=3),
)
RESPONSES = st.builds(
    CampaignResponse,
    frontier=st.lists(FRONTIER_POINTS, max_size=4).map(tuple),
    evaluations=st.integers(min_value=0, max_value=10**6),
    fresh_evaluations=st.integers(min_value=0, max_value=10**6),
    per_spec_evaluations=st.lists(
        st.integers(min_value=0, max_value=10**4), max_size=4
    ).map(tuple),
    cache_stats=st.none()
    | st.dictionaries(
        st.sampled_from(["hits", "misses", "puts", "hit_rate"]),
        st.integers(min_value=0, max_value=10**4),
    ),
    wall_time_s=st.floats(min_value=0.0, max_value=1e3),
    problem=st.sampled_from(["dcim", "mapping"]),
    strategies=st.lists(st.sampled_from(["ga", "exhaustive"]), max_size=4).map(
        tuple
    ),
)


@pytest.fixture(scope="module")
def dcim_response() -> CampaignResponse:
    return execute_request(
        CampaignRequest(specs=(SpecRequest(4096, "INT8"), SpecRequest(4096, "BF16")))
    )


@pytest.fixture(scope="module")
def mapping_response() -> CampaignResponse:
    return execute_request(
        CampaignRequest(
            problem="mapping",
            specs=({"network": "tiny_cnn", "wstore": 4096},),
            population_size=12,
            generations=3,
        )
    )


NESTED_POINTS = (
    FrontierPoint("-", 0, 0, 0, 0, (1.0, -2.5), extras={"tiles": [4, 2]}),
    FrontierPoint(
        "INT8", 64, 16, 64, 2, (0.1,),
        extras={"grid": {"rows": [1, 2], "cols": {"n": 3}}, "note": None},
    ),
    FrontierPoint(
        "FP32", 32, 8, 8, 1, (),
        extras={"schedule": [["a", 1], {"b": [True, 0.5]}]},
    ),
)


class TestFrontierPointCodec:
    """``to_dict``/``from_dict`` are hand-built; the bytes must not move."""

    @pytest.mark.parametrize("sort_keys", [False, True])
    def test_dcim_points_match_asdict(self, dcim_response, sort_keys):
        assert dcim_response.frontier
        for point in dcim_response.frontier:
            assert json.dumps(point.to_dict(), sort_keys=sort_keys) == json.dumps(
                asdict_reference(point), sort_keys=sort_keys
            )

    @pytest.mark.parametrize("sort_keys", [False, True])
    def test_mapping_points_match_asdict(self, mapping_response, sort_keys):
        assert mapping_response.frontier
        for point in mapping_response.frontier:
            assert set(point.extras) == {"n_macros", "schedule"}
            assert json.dumps(point.to_dict(), sort_keys=sort_keys) == json.dumps(
                asdict_reference(point), sort_keys=sort_keys
            )

    @pytest.mark.parametrize("sort_keys", [False, True])
    @pytest.mark.parametrize("point", NESTED_POINTS)
    def test_nested_extras_match_asdict(self, point, sort_keys):
        assert json.dumps(point.to_dict(), sort_keys=sort_keys) == json.dumps(
            asdict_reference(point), sort_keys=sort_keys
        )

    @given(FRONTIER_POINTS)
    @settings(max_examples=100, deadline=None)
    def test_random_points_match_asdict(self, point):
        assert json.dumps(point.to_dict()) == json.dumps(asdict_reference(point))

    def test_response_wire_bytes_match_asdict(self, dcim_response, mapping_response):
        for response in (dcim_response, mapping_response):
            reference = dict(
                response.to_dict(),
                frontier=[asdict_reference(p) for p in response.frontier],
            )
            assert response.to_json() == json.dumps(reference, sort_keys=True)

    def test_returned_extras_are_a_deep_copy(self):
        point = FrontierPoint(
            "-", 0, 0, 0, 0, (1.0,),
            extras={"tiles": [4, 2], "grid": {"rows": [1]}},
        )
        payload = point.to_dict()
        payload["extras"]["tiles"].append(9)
        payload["extras"]["grid"]["rows"].clear()
        payload["extras"]["new"] = True
        assert point.extras == {"tiles": [4, 2], "grid": {"rows": [1]}}

    def test_from_dict_warns_on_unknown_key(self):
        payload = dict(GOLDEN_MAPPING_POINT.to_dict(), hologram=9)
        with pytest.warns(RuntimeWarning, match="hologram"):
            loaded = FrontierPoint.from_dict(payload)
        assert loaded == GOLDEN_MAPPING_POINT
        assert "hologram" in payload  # the caller's dict is left alone

    def test_from_dict_known_keys_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for point in (GOLDEN_DCIM_POINT, GOLDEN_MAPPING_POINT):
                assert FrontierPoint.from_dict(point.to_dict()) == point

    def test_from_dict_raises_type_error_on_missing_key(self):
        payload = GOLDEN_DCIM_POINT.to_dict()
        del payload["k"]
        with pytest.raises(TypeError):
            FrontierPoint.from_dict(payload)

    @given(RESPONSES)
    @settings(max_examples=100, deadline=None)
    def test_response_round_trip(self, response):
        assert CampaignResponse.from_dict(response.to_dict()) == response
        assert CampaignResponse.from_json(response.to_json()) == response

    def test_point_hash_goldens(self):
        from repro.store.runstore import point_hash

        assert point_hash(GOLDEN_DCIM_POINT) == GOLDEN_DCIM_POINT_HASH
        assert point_hash(GOLDEN_MAPPING_POINT) == GOLDEN_MAPPING_POINT_HASH


class TestProgrammaticFingerprint:
    def test_dcim_config_fingerprint_matches_pre_v2_layout(self):
        """run_campaign(store=...) fingerprints must not drift either."""
        from repro.core.spec import DcimSpec
        from repro.service.campaign import _campaign_fingerprint

        specs = [DcimSpec(wstore=4096, precision="INT8")]
        assert (
            _campaign_fingerprint(specs, CampaignConfig())
            == GOLDEN_DCIM_CONFIG_FINGERPRINT
        )

    def test_mapping_config_fingerprint_is_pinned(self):
        from repro.problems.mapping import MappingSpec
        from repro.service.campaign import _campaign_fingerprint

        specs = [MappingSpec(network="tiny_cnn")]
        assert (
            _campaign_fingerprint(specs, CampaignConfig(problem="mapping"))
            == GOLDEN_MAPPING_CONFIG_FINGERPRINT
        )
