"""Plan digests pinned against the pre-near-linear (oracle) mapper.

Each digest is the first 16 hex digits of the SHA-256 of
``plan_to_json`` for a cold ``MappingPipeline`` map, as the quadratic
Figure 6/7 chain in ``tests/mapping/oracle.py`` produced it.  The table
covers the 12 paper kernels on the three paper machines at their
experiment block size (``Workload.block_size``), the ten map-default
cells at ``Knobs()`` (the Section 4.1 block-size heuristic), the
irregular suite, and a core-loss machine whose pruned tree goes through
``tree_distribute``.  ``test_oracle_chain_reproduces_pins`` maps a few
cells inside :func:`~tests.mapping.oracle.oracle_chain`, which ties the
constants to the in-test oracle rather than to a past checkout.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.experiments.harness import sim_machine
from repro.pipeline import Knobs, MappingPipeline
from repro.runtime.serialize import plan_to_json
from repro.topology.resolve import resolve_machine
from repro.workloads import workload
from tests.mapping.oracle import oracle_chain

#: Kernels at ``Workload.block_size`` on the paper machines.
COARSE = {
    "applu@harpertown": "7762cc4c56d10bcf",
    "applu@nehalem": "8e3224e7a2b59a62",
    "applu@dunnington": "ce11b7a695444b77",
    "galgel@harpertown": "b7cd4f15ef33e939",
    "galgel@nehalem": "a380c2882c517ba9",
    "galgel@dunnington": "4fb6813aa9daefed",
    "equake@harpertown": "957485360cd2bf73",
    "equake@nehalem": "0b16143f16479ff8",
    "equake@dunnington": "4f381e17c8a04514",
    "cg@harpertown": "f16953091a5af9f8",
    "cg@nehalem": "42c49627d44cec51",
    "cg@dunnington": "2431526fbb8eff88",
    "sp@harpertown": "efc3bec88c14aa6f",
    "sp@nehalem": "038c52180890a319",
    "sp@dunnington": "15027a955adc7a94",
    "bodytrack@harpertown": "17784142dd0a702d",
    "bodytrack@nehalem": "df2f822bf0ff1472",
    "bodytrack@dunnington": "7e5a1caefe3e39ed",
    "facesim@harpertown": "530647f0ca9a0c45",
    "facesim@nehalem": "80e209e3ab94d2ba",
    "facesim@dunnington": "dd0589f49a5fbef6",
    "freqmine@harpertown": "386bbfa15ee33822",
    "freqmine@nehalem": "eba61f6f45b2d878",
    "freqmine@dunnington": "416c1f3e1cf056e9",
    "namd@harpertown": "5bd045bac613f40d",
    "namd@nehalem": "d848121844d56bc2",
    "namd@dunnington": "1dd08b3d0760eb20",
    "povray@harpertown": "7dfb5477377c70ef",
    "povray@nehalem": "c21d59a331434676",
    "povray@dunnington": "f072af1f7668f652",
    "mesa@harpertown": "63e641d0febadec9",
    "mesa@nehalem": "beeef5d6f9f2a56c",
    "mesa@dunnington": "57c809493510c6a6",
    "h264@harpertown": "9d7e98fb69c87a9b",
    "h264@nehalem": "6da6431432fe05b3",
    "h264@dunnington": "e4eb72ed0c35b9a2",
}

#: The irregular (trace-tagged) suite on nehalem at ``Workload.block_size``.
IRREGULAR = {
    "spmv_banded@nehalem": "28860c9167763072",
    "spmv_random@nehalem": "bc73129319a38a05",
    "mesh_edge@nehalem": "1b80c2cb92afee48",
    "histogram@nehalem": "069ff99fb6cb5bb4",
    "csr_sweep@nehalem": "c77725cf6c94f960",
}

#: Dunnington without core 1 (not level-uniform: the tree descent).
PRUNED = {
    "sp@dunnington-1": "87383ba4b1218adb",
    "namd@dunnington-1": "97f615ac4c98bb28",
    "equake@dunnington-1": "497e6cfc465fc29f",
    "sp@dunnington-1:default": "a4058e3f6d4ffd56",
}

#: The map-default cells at ``Knobs()``.
DEFAULT_KNOBS = {
    "sp@harpertown": "ad37ef514ce6350b",
    "namd@harpertown": "ee2009d795a79360",
    "bodytrack@harpertown": "ef85da23acf10230",
    "sp@nehalem": "a552fdfe38b3f623",
    "namd@nehalem": "2a9e59012b70a00f",
    "bodytrack@nehalem": "b041a647a9d9f814",
    "h264@nehalem": "4e1e793f398fdf91",
    "sp@dunnington": "b2a76a383ef47010",
    "namd@dunnington": "4a0fbcbf8e64aa0a",
    "bodytrack@dunnington": "6c2ee39fff488845",
}


@lru_cache(maxsize=None)
def machine_for(spec: str):
    if spec.endswith("-1"):
        return machine_for(spec[:-2]).without_cores([1])
    return sim_machine(resolve_machine(spec))


def plan_digest(cell: str, default_knobs: bool) -> str:
    kernel, spec = cell.split(":")[0].split("@")
    w = workload(kernel)
    knobs = Knobs() if default_knobs else Knobs(block_size=w.block_size())
    program = w.program()
    result = MappingPipeline(machine_for(spec), knobs).map_nest(program, program.nests[0])
    return hashlib.sha256(plan_to_json(result.plan()).encode()).hexdigest()[:16]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cell", sorted({**COARSE, **IRREGULAR, **PRUNED}))
def test_block_size_plans_match_pins(cell):
    pins = {**COARSE, **IRREGULAR, **PRUNED}
    assert plan_digest(cell, default_knobs=cell.endswith(":default")) == pins[cell]


@pytest.mark.parametrize("cell", sorted(DEFAULT_KNOBS))
def test_default_knob_plans_match_pins(cell):
    assert plan_digest(cell, default_knobs=True) == DEFAULT_KNOBS[cell]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    ("cell", "default_knobs", "pin"),
    [
        ("sp@harpertown", False, COARSE["sp@harpertown"]),
        ("spmv_banded@nehalem", False, IRREGULAR["spmv_banded@nehalem"]),
        ("namd@dunnington-1", False, PRUNED["namd@dunnington-1"]),
        ("sp@dunnington", True, DEFAULT_KNOBS["sp@dunnington"]),
    ],
)
def test_oracle_chain_reproduces_pins(monkeypatch, cell, default_knobs, pin):
    with oracle_chain(monkeypatch):
        assert plan_digest(cell, default_knobs) == pin
