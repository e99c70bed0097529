"""Dataset resolution: the CSV content-hash memo and strict ref parsing.

A CSV ref resolves to its dataset digest through a memo in the stage
namespace keyed by the SHA-256 of both files, so a stored scenario is
served without parsing a row, and rows are built only when a job misses
the results store.  Runs on every storage backend via
``REPRO_TEST_STORE_BACKEND`` (the CI matrix): the memo rides whichever
backend holds the stage namespace.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.service.service as service_module
from repro.data import MobyDataset
from repro.exceptions import ServiceError
from repro.pipeline.fingerprint import dataset_digest
from repro.service import DatasetRef, ExpansionService, ScenarioSpec, make_server

BACKEND = os.environ.get("REPRO_TEST_STORE_BACKEND") or "dir"

#: A CSV dataset directory checked into the store-format goldens.
TINY_CSV = Path(__file__).parent / "goldens" / "store_format" / "datasets" / "tiny"

#: An override that changes the result but not the dataset.
OTHER_SCENARIO = {"community.seed": 31337}


@pytest.fixture()
def csv_dir(small_raw, tmp_path):
    directory = tmp_path / "export"
    small_raw.to_csv(directory)
    return directory


#: Tests that reopen a store: a memory store dies with its service.
reopens_store = pytest.mark.skipif(
    BACKEND == "memory", reason="a memory store does not outlive its service"
)


@pytest.fixture()
def open_service(tmp_path):
    """Opens services over one store, each as a fresh process would."""
    root = None if BACKEND == "memory" else tmp_path / "store"
    return lambda: ExpansionService(store_dir=root, store_backend=BACKEND)


def csv_spec(directory: Path, overrides: dict | None = None) -> ScenarioSpec:
    return ScenarioSpec(
        dataset=DatasetRef.csv(directory), overrides=overrides or {}
    )


def run(service: ExpansionService, spec: ScenarioSpec):
    job = service.submit(spec)
    job.wait(300)
    return job


class ParseLog:
    """Counts row builds and digests, and the threads they ran on."""

    def __init__(self, monkeypatch, forbid: bool = False) -> None:
        self.threads: list[str] = []
        self.digests = 0
        from_records = MobyDataset.from_records.__func__
        digest = service_module.dataset_digest

        def logged_from_records(cls, *args, **kwargs):
            if forbid:
                raise AssertionError("rows were parsed")
            self.threads.append(threading.current_thread().name)
            return from_records(cls, *args, **kwargs)

        def logged_digest(dataset):
            if forbid:
                raise AssertionError("a dataset was digested")
            self.digests += 1
            return digest(dataset)

        def no_csv(*_args, **_kwargs):
            raise AssertionError("a CSV file was parsed")

        monkeypatch.setattr(
            MobyDataset, "from_records", classmethod(logged_from_records)
        )
        monkeypatch.setattr(service_module, "dataset_digest", logged_digest)
        if forbid:
            for name in ("read_locations", "read_rentals"):
                monkeypatch.setattr(service_module, name, no_csv)


def memo_keys(service: ExpansionService, digest: str) -> list[str]:
    """Stage keys whose entry is the source memo for ``digest``."""
    namespace = service.cache.namespace
    entry = pickle.dumps(digest, protocol=pickle.HIGHEST_PROTOCOL)
    return [key for key in namespace.keys() if namespace.peek(key) == entry]


class TestCsvMemo:
    @reopens_store
    def test_stored_scenario_served_without_parse_or_digest(
        self, csv_dir, open_service, monkeypatch
    ):
        spec = csv_spec(csv_dir)
        with open_service() as first:
            cold = run(first, spec)
        ParseLog(monkeypatch, forbid=True)
        with open_service() as second:
            warm = run(second, spec)
            assert second.pipeline_executions == 0
        assert warm.fingerprint == cold.fingerprint
        assert warm.payload == cold.payload

    def test_same_size_edit_with_restored_mtime_recomputes(
        self, csv_dir, open_service
    ):
        rentals = csv_dir / "rentals.csv"
        spec = csv_spec(csv_dir)
        with open_service() as service:
            before = run(service, spec)
            stat = rentals.stat()
            # One bike_id digit of the first trip, bytes otherwise intact.
            header, first, rest = rentals.read_bytes().split(b"\r\n", 2)
            cells = first.split(b",")
            digit = int(cells[1][-1:])
            cells[1] = cells[1][:-1] + b"%d" % ((digit + 1) % 10)
            rentals.write_bytes(b"\r\n".join([header, b",".join(cells), rest]))
            os.utime(rentals, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            assert rentals.stat().st_size == stat.st_size
            assert rentals.stat().st_mtime_ns == stat.st_mtime_ns
            after = run(service, spec)
            assert service.pipeline_executions == 2
        edited = dataset_digest(MobyDataset.from_csv(csv_dir))
        assert json.loads(after.payload)["dataset_digest"] == edited
        assert json.loads(before.payload)["dataset_digest"] != edited
        assert after.fingerprint != before.fingerprint
        with open_service() as later:
            _, digest = later._resolve_ref(spec.dataset)
        assert digest == edited

    @reopens_store
    @pytest.mark.parametrize(
        "tamper", ["deleted", "not-a-pickle", "not-a-digest"]
    )
    def test_lost_or_garbled_memo_entry_is_a_miss(
        self, csv_dir, open_service, monkeypatch, tamper
    ):
        spec = csv_spec(csv_dir)
        with open_service() as first:
            cold = run(first, spec)
            digest = json.loads(cold.payload)["dataset_digest"]
            (key,) = memo_keys(first, digest)
            namespace = first.cache.namespace
            if tamper == "deleted":
                namespace.delete(key)
            elif tamper == "not-a-pickle":
                namespace.put(key, b"\x00garbled")
            else:
                namespace.put(key, pickle.dumps("z" * 64))
        log = ParseLog(monkeypatch)
        with open_service() as second:
            warm = run(second, spec)
            assert second.pipeline_executions == 0
            assert memo_keys(second, digest) == [key]  # rewritten
        assert len(log.threads) == 1 and log.digests == 1
        assert warm.payload == cold.payload

    @reopens_store
    def test_memo_hit_with_results_miss_parses_once_in_the_job(
        self, csv_dir, open_service, monkeypatch
    ):
        with open_service() as first:
            run(first, csv_spec(csv_dir))
        spec = csv_spec(csv_dir, OTHER_SCENARIO)
        log = ParseLog(monkeypatch)
        with open_service() as second:
            job = run(second, spec)
            assert second.pipeline_executions == 1
        assert log.digests == 0
        assert len(log.threads) == 1
        assert log.threads[0].startswith("repro-service")
        resolve = next(
            section
            for section in job.timings["sections"]
            if section["name"] == "resolve"
        )
        children = {child["name"] for child in resolve["children"]}
        assert {"read", "hash", "memo", "parse"} <= children
        assert "digest" not in children
        with ExpansionService() as cold:
            reference = run(cold, spec)
        assert job.payload == reference.payload

    def test_cold_submission_times_parse_and_digest(self, csv_dir, open_service):
        with open_service() as service:
            job = run(service, csv_spec(csv_dir))
        resolve = job.timings["sections"][0]
        assert resolve["name"] == "resolve"
        children = {child["name"] for child in resolve["children"]}
        assert {"read", "hash", "memo", "parse", "digest"} <= children

    @reopens_store
    @pytest.mark.parametrize("source", ["tiny-fixture", "small-export"])
    def test_memo_digest_equals_the_parsed_digest(
        self, source, csv_dir, open_service
    ):
        directory = TINY_CSV if source == "tiny-fixture" else csv_dir
        expected = dataset_digest(MobyDataset.from_csv(directory))
        ref = DatasetRef.csv(directory)
        with open_service() as first:
            miss = first._resolve_ref(ref)
        with open_service() as second:
            hit = second._resolve_ref(ref)
        assert miss[1] == hit[1] == expected
        assert not isinstance(hit[0], MobyDataset)  # rows not built


@pytest.mark.slow
def test_paper_export_memo_digest_equals_the_parsed_digest(tmp_path):
    pytest.importorskip("numpy")
    from repro.synth import generate_paper_dataset

    export = tmp_path / "export"
    generate_paper_dataset(seed=7).to_csv(export)
    expected = dataset_digest(MobyDataset.from_csv(export))
    ref = DatasetRef.csv(export)
    with ExpansionService(store_dir=tmp_path / "store") as first:
        assert first._resolve_ref(ref)[1] == expected
    with ExpansionService(store_dir=tmp_path / "store") as second:
        rows, digest = second._resolve_ref(ref)
    assert digest == expected
    assert not isinstance(rows, MobyDataset)  # served from the memo


# ---------------------------------------------------------------------------
# Failures at submit, in-process and over HTTP
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    service = ExpansionService(
        store_dir=(
            None if BACKEND == "memory" else tmp_path_factory.mktemp("store")
        ),
        store_backend=BACKEND,
    )
    http_server = make_server(service, port=0).start_background()
    yield http_server
    http_server.stop()
    service.close()


def post_run(server, body) -> tuple[int, dict]:
    req = urllib.request.Request(
        server.url + "/v1/runs",
        data=json.dumps(body).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def broken_csv_dir(root: Path, fault: str) -> Path:
    """A CSV directory with one kind of fault."""
    directory = root / fault
    directory.mkdir()
    if fault == "missing-dir":
        return root / "never-written"
    (directory / "locations.csv").write_text(
        "location_id,lat,lon,is_station,name\n1,53.3,-6.2,1,s1\n"
    )
    if fault == "missing-file":
        return directory
    started = "not-a-date" if fault == "bad-date" else "2021-07-01T08:00:00"
    (directory / "rentals.csv").write_text(
        "rental_id,bike_id,started_at,ended_at,rental_location_id,"
        f"return_location_id\n1,1,{started},2021-07-01T08:09:00,1,1\n"
    )
    return directory


FAULTS = ["missing-dir", "missing-file", "bad-date"]


class TestSubmitFailures:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_in_process(self, fault, tmp_path, open_service):
        directory = broken_csv_dir(tmp_path, fault)
        with open_service() as service:
            with pytest.raises(ServiceError, match="cannot load csv"):
                service.submit(csv_spec(directory))
            assert service.jobs() == []

    @pytest.mark.parametrize("fault", FAULTS)
    def test_over_http(self, fault, tmp_path, server):
        directory = broken_csv_dir(tmp_path, fault)
        status, body = post_run(
            server, {"dataset": {"kind": "csv", "path": str(directory)}}
        )
        assert status == 400
        assert "cannot load csv" in body["error"]


# ---------------------------------------------------------------------------
# Strict DatasetRef parsing
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def is_seed(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_name(value) -> bool:
    return isinstance(value, str) and value != ""


#: Refs with one wrongly typed field.  ``null`` path/name reads as
#: absent, which a csv/named ref rejects as missing.
WRONG_REFS = st.one_of(
    st.builds(
        lambda kind, seed: {"kind": kind, "seed": seed},
        st.sampled_from(["synthetic", "csv", "named"]),
        JSON_VALUES.filter(lambda value: not is_seed(value)),
    ),
    st.builds(
        lambda value: {"kind": "csv", "path": value},
        JSON_VALUES.filter(lambda value: not is_name(value)),
    ),
    st.builds(
        lambda value: {"kind": "named", "name": value},
        JSON_VALUES.filter(lambda value: not is_name(value)),
    ),
    st.builds(
        lambda field, value: {"kind": "synthetic", field: value},
        st.sampled_from(["path", "name"]),
        JSON_VALUES.filter(lambda value: value is not None and not is_name(value)),
    ),
)

#: ``ScenarioSpec(dataset=...).fingerprint("ab" * 32)`` for any valid
#: ref: the data identity is the digest, never the ref's spelling.
PINNED_FINGERPRINT = (
    "a953d21d425cd6c09ab30471d3a4b1635688c62b2ff7357f5f60231734a1e270"
)

VALID_REFS = st.one_of(
    st.builds(lambda seed: {"kind": "synthetic", "seed": seed}, st.integers()),
    st.builds(
        lambda path: {"kind": "csv", "path": path}, st.text(min_size=1)
    ),
    st.builds(
        lambda name: {"kind": "named", "name": name}, st.text(min_size=1)
    ),
)


class TestStrictRefs:
    @pytest.mark.parametrize(
        "payload",
        [
            {"seed": "x"},
            {"seed": 1.5},
            {"seed": True},
            {"kind": "csv", "path": 123},
            {"kind": "named", "name": ["a"]},
        ],
    )
    def test_known_offenders_rejected(self, payload):
        with pytest.raises(ServiceError):
            DatasetRef.from_dict(payload)

    @given(WRONG_REFS)
    @settings(max_examples=200, deadline=None)
    def test_wrong_types_rejected_in_process(self, payload):
        with pytest.raises(ServiceError):
            DatasetRef.from_dict(payload)
        with pytest.raises(ServiceError):
            ScenarioSpec.from_dict({"dataset": payload})

    @given(payload=WRONG_REFS)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_wrong_types_answer_400(self, server, payload):
        status, body = post_run(server, {"dataset": payload})
        assert status == 400, body
        assert "error" in body

    @given(VALID_REFS)
    @settings(max_examples=100, deadline=None)
    def test_valid_refs_keep_their_fingerprints(self, payload):
        spec = ScenarioSpec.from_dict({"dataset": payload})
        assert spec.dataset.to_dict() == payload
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert spec.fingerprint("ab" * 32) == PINNED_FINGERPRINT
