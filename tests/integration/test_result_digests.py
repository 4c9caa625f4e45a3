"""Pinned result digests: any change to a simulated result fails here.

Each entry in ``tests/data/result_digests.json`` is the sha256 of the
canonical JSON of one short run's ``RunResult`` (``manifest`` and
``profile`` dropped: they carry wall time, host and git provenance), plus
the sha256 of the tiny golden NDJSON trace of ``test_obs_pipeline.py``.

The table covers PEAS with ambient failures on/off x GRAB traffic on/off x
two seeds, one PEAS run under a ``region_kill`` + ``bursty_loss`` fault
plan, and one ``duty_cycle`` baseline run (which exercises the spatial
index and neighbour cache outside the PEAS network).

Regenerate the table with::

    PYTHONPATH=src python -m tests.integration.test_result_digests
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import Scenario, result_to_dict
from repro.faults import BurstyLossFault, FaultPlan, RegionKillFault
from repro.harness import RunOptions, run
from repro.obs import NdjsonSink, Tracer

from tests.integration.test_obs_pipeline import TINY

TABLE = Path(__file__).resolve().parent.parent / "data" / "result_digests.json"

_BASE = Scenario(
    num_nodes=50,
    field_size=(24.0, 24.0),
    failure_per_5000s=0.0,
    with_traffic=False,
    max_time_s=2_500.0,
)


def _cases():
    cases = {}
    for seed in (1, 2):
        for failures in (0.0, 20.0):
            for traffic in (False, True):
                name = (
                    f"peas-s{seed}-fail{'on' if failures else 'off'}"
                    f"-traffic{'on' if traffic else 'off'}"
                )
                cases[name] = _BASE.with_(
                    seed=seed, failure_per_5000s=failures, with_traffic=traffic
                )
    cases["peas-s3-regionkill-bursty"] = _BASE.with_(
        seed=3,
        failure_per_5000s=4.0,
        fault_plan=FaultPlan((
            RegionKillFault(at_s=600.0, radius_m=6.0),
            BurstyLossFault(good_mean_s=60.0, bad_mean_s=10.0, bad_loss=0.6),
        )),
    )
    cases["duty_cycle-s4"] = _BASE.with_(
        seed=4, protocol="duty_cycle", failure_per_5000s=8.0
    )
    return cases


CASES = _cases()
TRACE_CASE = "tiny-trace-ndjson"


def result_digest(scenario: Scenario) -> str:
    payload = result_to_dict(run(scenario, RunOptions()))
    del payload["manifest"], payload["profile"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def trace_digest(path: Path) -> str:
    tracer = Tracer(NdjsonSink(path))
    try:
        run(TINY, tracer=tracer)
    finally:
        tracer.close()
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def _mismatch(name: str, want: str, got: str) -> str:
    return (
        f"result digest of {name!r} changed: pinned {want[:12]}, got "
        f"{got[:12]}.  If the change in simulated behaviour is intended, "
        f"regenerate {TABLE.name} (see this module's docstring) in the same "
        "change and explain the shift in CHANGES.md."
    )


def test_table_covers_every_case(table):
    assert set(table) == set(CASES) | {TRACE_CASE}


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_digest_is_pinned(name, table):
    got = result_digest(CASES[name])
    assert got == table[name], _mismatch(name, table[name], got)


def test_tiny_trace_digest_is_pinned(table, tmp_path):
    got = trace_digest(tmp_path / "tiny.ndjson")
    assert got == table[TRACE_CASE], _mismatch(TRACE_CASE, table[TRACE_CASE], got)


if __name__ == "__main__":
    import tempfile

    digests = {name: result_digest(CASES[name]) for name in sorted(CASES)}
    with tempfile.TemporaryDirectory() as tmp:
        digests[TRACE_CASE] = trace_digest(Path(tmp) / "tiny.ndjson")
    TABLE.parent.mkdir(parents=True, exist_ok=True)
    TABLE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}")
