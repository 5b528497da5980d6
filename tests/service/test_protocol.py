"""Request parsing, validation, and cache-key semantics."""

import pytest

from repro.lang import compile_source
from repro.runtime.serialize import program_to_dict
from repro.service.protocol import BadRequest, parse_request

from tests.service.conftest import BANDED_SOURCE


def banded_request(**extra):
    payload = {"source": BANDED_SOURCE, "machine": "dunnington"}
    payload.update(extra)
    return payload


class TestParsing:
    def test_source_request(self):
        request = parse_request(banded_request())
        assert request.nest.iteration_count() == 32
        assert request.machine.name == "dunnington"
        assert request.knobs.local_scheduling is True

    def test_serialized_program_request(self):
        program = compile_source(BANDED_SOURCE, name="banded")
        request = parse_request(
            {"program": program_to_dict(program), "machine": "nehalem"}
        )
        assert request.program.name == "banded"
        assert request.machine.num_cores == 8

    def test_inline_topology(self):
        spec = (
            "name=minibox; cores=4; clock=2.0; mem=100; "
            "L1:1K/2/32@2 per 1; L2:4K/4/32@8 per 2"
        )
        request = parse_request({"source": BANDED_SOURCE, "topology": spec})
        assert request.machine.num_cores == 4
        assert request.machine.name == "minibox"

    def test_scale_divides_capacities(self):
        small = parse_request(banded_request(scale=32))
        full = parse_request(banded_request())
        assert (
            small.machine.total_cache_bytes() < full.machine.total_cache_bytes()
        )

    def test_nest_by_name(self):
        request = parse_request(banded_request(name="banded", nest="banded"))
        assert request.nest.name == "banded"

    def test_knob_overrides(self):
        request = parse_request(
            banded_request(
                knobs={"block_size": 64, "alpha": 0.25, "local_scheduling": False}
            )
        )
        assert request.knobs.block_size == 64
        assert request.knobs.alpha == 0.25
        assert request.knobs.local_scheduling is False

    def test_defaults(self):
        request = parse_request(banded_request())
        assert request.deadline_ms is None
        assert request.no_cache is False
        assert request.debug_sleep_ms == 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            [],  # not an object
            {"machine": "dunnington"},  # no program
            {"source": BANDED_SOURCE},  # no machine
            {"source": BANDED_SOURCE, "program": {}, "machine": "dunnington"},
            {"source": BANDED_SOURCE, "machine": "dunnington", "topology": "x"},
            {"source": "not a program", "machine": "dunnington"},
            {"source": BANDED_SOURCE, "machine": "no-such-machine"},
            {"source": BANDED_SOURCE, "machine": "dunnington", "nest": 3},
            {"source": BANDED_SOURCE, "machine": "dunnington", "nest": "zzz"},
            {"source": BANDED_SOURCE, "machine": "dunnington", "scale": -1},
            {"source": BANDED_SOURCE, "machine": "dunnington", "deadline_ms": -5},
            {"source": BANDED_SOURCE, "machine": "dunnington", "knobs": {"zzz": 1}},
            {"source": BANDED_SOURCE, "machine": "dunnington",
             "knobs": {"block_size": -8}},
            {"source": BANDED_SOURCE, "machine": "dunnington",
             "knobs": {"dependence_policy": "punt"}},
            {"source": BANDED_SOURCE, "machine": "dunnington", "no_cache": "yes"},
        ],
    )
    def test_bad_requests_raise(self, payload):
        with pytest.raises(BadRequest):
            parse_request(payload)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"alpha": float("nan")},
            {"alpha": -1.0},
            {"beta": float("inf")},
            {"balance_threshold": 2.0},
        ],
    )
    def test_bad_knob_values_raise(self, knobs):
        with pytest.raises(BadRequest, match="alpha|beta|balance threshold"):
            parse_request(banded_request(knobs=knobs))

    def test_debug_sleep_requires_debug_server(self):
        with pytest.raises(BadRequest, match="debug"):
            parse_request(banded_request(debug_sleep_ms=10))
        request = parse_request(banded_request(debug_sleep_ms=10), allow_debug=True)
        assert request.debug_sleep_ms == 10.0

    def test_default_deadline_applies(self):
        request = parse_request(banded_request(), default_deadline_ms=250.0)
        assert request.deadline_ms == 250.0
        explicit = parse_request(
            banded_request(deadline_ms=50), default_deadline_ms=250.0
        )
        assert explicit.deadline_ms == 50.0


class TestCacheKey:
    def test_key_stable_across_parses(self):
        first = parse_request(banded_request())
        second = parse_request(banded_request())
        assert first.cache_key == second.cache_key

    def test_source_and_serialized_agree(self):
        """The same program keys identically however it was submitted."""
        program = compile_source(BANDED_SOURCE, name="request")
        via_source = parse_request(banded_request())
        via_ir = parse_request(
            {"program": program_to_dict(program), "machine": "dunnington"}
        )
        assert via_source.cache_key == via_ir.cache_key

    def test_key_varies_with_inputs(self):
        base = parse_request(banded_request()).cache_key
        other_machine = parse_request(
            {"source": BANDED_SOURCE, "machine": "nehalem"}
        ).cache_key
        other_knobs = parse_request(
            banded_request(knobs={"alpha": 0.9})
        ).cache_key
        other_scale = parse_request(banded_request(scale=32)).cache_key
        assert len({base, other_machine, other_knobs, other_scale}) == 4

    def test_qos_fields_do_not_change_key(self):
        """Deadline and caching policy are QoS, not content."""
        plain = parse_request(banded_request()).cache_key
        qos = parse_request(
            banded_request(deadline_ms=5, no_cache=True)
        ).cache_key
        assert plain == qos
