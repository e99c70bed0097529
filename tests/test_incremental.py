"""Append-mode datasets and delta-aware incremental recompute.

Three layers under test:

* **store** — ``DatasetStore.append`` rolls the content digest forward
  as a chain, re-chains exactly the temporal slices the delta touches,
  keeps history, enforces id monotonicity, and leaves torn entries
  reading as *absent* (anchor-first deletion);
* **runner** — an incremental re-run over the appended dataset produces
  results byte-identical to a cold run, across the append edge cases
  (slice-boundary starts, out-of-order timestamps, first trips landing
  in a previously empty slice);
* **service/HTTP** — ``PATCH /v1/datasets/<name>`` with 409/413/400
  mapping, moved ``ETag``s, ranged ``Content-Range`` uploads, the
  ``ingestion`` healthz block, and the pinned byte-identity of an
  incremental envelope against a cold recompute of the same job.
"""

import hashlib
import json
import time
import urllib.error
import urllib.request
from dataclasses import replace
from datetime import datetime, timedelta

import pytest

from repro.data.dataset import MobyDataset
from repro.data.records import RentalRecord
from repro.exceptions import DatasetConflictError, ServiceError
from repro.pipeline.cache import StageCache
from repro.pipeline.fingerprint import (
    chain_digest,
    dataset_digest,
    rentals_digest,
)
from repro.pipeline.runner import PipelineRunner
from repro.service import ExpansionService, make_server
from repro.service.datasets import DatasetStore

EMPTY_SLICE = hashlib.sha256().hexdigest()


def _delta_rows(
    raw,
    count,
    *,
    start=None,
    step_s=90,
    duration_s=600,
    pickup=None,
    dropoff=None,
):
    """``count`` well-formed delta records with ids above the stored max.

    Endpoints default to the busiest stored trip's so cleaning keeps
    them; ``start`` anchors the first trip's timestamp.
    """
    template = next(
        rental
        for rental in raw.rentals()
        if rental.rental_location_id is not None
        and rental.return_location_id is not None
    )
    base = (raw.max_rental_id() or 0) + 1
    first = start if start is not None else template.started_at
    rows = []
    for index in range(count):
        started = first + timedelta(seconds=step_s * index)
        rows.append(
            RentalRecord(
                rental_id=base + index,
                bike_id=template.bike_id,
                started_at=started,
                ended_at=started + timedelta(seconds=duration_s),
                rental_location_id=(
                    pickup if pickup is not None
                    else template.rental_location_id
                ),
                return_location_id=(
                    dropoff if dropoff is not None
                    else template.return_location_id
                ),
            )
        )
    return rows


def _merged_copy(raw, delta):
    merged = raw.copy()
    for record in delta:
        merged.add_rental(record)
    return merged


def _assert_incremental_matches_cold(prefix, delta):
    """Cold run vs delta-aware re-run over the stored appended dataset.

    Returns the runner's incremental report so callers can also assert
    *how* the result was produced (merged stages, reused slices).
    """
    store = DatasetStore()
    meta = store.put("d", prefix)
    appended = store.append("d", delta)
    assert appended is not None
    merged, digest = store.get_with_digest("d")
    assert digest == appended["digest"]

    cache = StageCache()
    PipelineRunner(prefix, cache=cache, raw_digest=meta["digest"]).run()
    cold = PipelineRunner(
        merged, cache=StageCache(), raw_digest=digest
    ).run()
    runner = PipelineRunner(
        merged, cache=cache, raw_digest=digest, lineage=store.lineage("d")
    )
    incremental = runner.run()

    cold_doc, incremental_doc = cold.to_dict(), incremental.to_dict()
    cold_doc.pop("timings", None)
    incremental_doc.pop("timings", None)
    assert json.dumps(cold_doc, sort_keys=True) == json.dumps(
        incremental_doc, sort_keys=True
    )
    report = runner.incremental_report()
    assert report["mode"] == "incremental"
    return report


class TestAppendStore:
    """DatasetStore.append: digests, lineage, conflicts, crash shape."""

    def test_append_chains_digest_and_tracks_history(self, small_raw):
        store = DatasetStore()
        meta = store.put("city", small_raw)
        delta = _delta_rows(small_raw, 5)
        appended = store.append("city", delta)
        assert appended["digest"] == chain_digest(
            meta["digest"], rentals_digest(delta)
        )
        assert appended["appends"] == 1
        assert appended["n_rentals"] == meta["n_rentals"] + 5
        assert appended["max_rental_id"] == delta[-1].rental_id
        assert appended["history"][-1]["digest"] == meta["digest"]
        lineage = store.lineage("city")
        assert lineage["digest"] == appended["digest"]
        assert lineage["history"][-1]["max_rental_id"] == (
            meta["max_rental_id"]
        )

    def test_appended_log_reads_back_as_the_merged_dataset(self, small_raw):
        store = DatasetStore()
        store.put("city", small_raw)
        delta = _delta_rows(small_raw, 7)
        store.append("city", delta)
        merged, _ = store.get_with_digest("city")
        # Byte-compatible append: the streamed log parses to exactly
        # the rows a one-shot ingest of prefix+delta would hold.
        assert dataset_digest(merged) == dataset_digest(
            _merged_copy(small_raw, delta)
        )

    def test_append_rechains_only_touched_slices(self, small_raw):
        store = DatasetStore()
        meta = store.put("city", small_raw)
        start = datetime(2024, 6, 3, 7, 0, 0)  # one Monday, hour 7 only
        appended = store.append(
            "city", _delta_rows(small_raw, 4, start=start, step_s=30)
        )
        before, after = meta["slices"], appended["slices"]
        assert after["day"][0] != before["day"][0]
        assert after["day"][1:] == before["day"][1:]
        changed_hours = [
            hour for hour in range(24)
            if after["hour"][hour] != before["hour"][hour]
        ]
        assert changed_hours == [7]

    def test_stale_and_duplicate_ids_conflict(self, small_raw):
        store = DatasetStore()
        store.put("city", small_raw)
        stale = [replace(_delta_rows(small_raw, 1)[0], rental_id=1)]
        with pytest.raises(DatasetConflictError):
            store.append("city", stale)
        twice = _delta_rows(small_raw, 1) * 2
        with pytest.raises(DatasetConflictError):
            store.append("city", twice)
        with pytest.raises(ServiceError):
            store.append("city", [])

    def test_append_to_absent_dataset_returns_none(self, small_raw):
        store = DatasetStore()
        assert store.append("ghost", _delta_rows(small_raw, 1)) is None

    def test_pre_append_era_meta_upgrades_on_first_append(self, small_raw):
        store = DatasetStore()
        fresh = store.put("city", small_raw)
        # Rewrite the metadata document as a v1 (pre-append) service
        # would have stored it: no slices, no max_rental_id.
        legacy = {
            key: value
            for key, value in json.loads(
                store.namespace.get_part("city", "meta.json").decode()
            ).items()
            if key not in (
                "schema", "slices", "max_rental_id", "appends", "history"
            )
        }
        store.namespace.put_part(
            "city", "meta.json", json.dumps(legacy).encode()
        )
        store._meta_bytes.invalidate("city")
        delta = _delta_rows(small_raw, 3)
        appended = store.append("city", delta)
        # The upgrade scan reproduced ingest-time slice digests, so the
        # append chains off the same values a v2 put would have stored.
        assert appended["digest"] == chain_digest(
            legacy["digest"], rentals_digest(delta)
        )
        untouched = [
            hour for hour in range(24)
            if appended["slices"]["hour"][hour] == fresh["slices"]["hour"][hour]
        ]
        assert len(untouched) >= 22  # delta touches at most a couple

    def test_torn_append_reads_as_absent_and_re_push_recovers(
        self, small_raw, tmp_path
    ):
        store = DatasetStore(tmp_path / "datasets")
        store.put("city", small_raw)
        # Simulate a crash at the worst point: anchor deleted, log
        # half-rewritten.  The entry must read as absent everywhere.
        store.namespace.delete_part("city", "meta.json")
        log = store.namespace.get_part("city", "rentals.csv")
        store.namespace.put_part("city", "rentals.csv", log[: len(log) // 2])
        store._meta_bytes.invalidate("city")
        assert store.digest("city") is None
        assert store.get("city") is None
        assert store.lineage("city") is None
        assert store.append("city", _delta_rows(small_raw, 1)) is None
        # Recovery is a plain re-push.
        meta = store.put("city", small_raw)
        assert store.digest("city") == meta["digest"]


class TestIncrementalExactness:
    """Append edge cases: incremental results must equal cold results."""

    def test_slice_boundary_trips(self, small_raw):
        # Starts exactly on an hour boundary and one second before it:
        # the two trips must land in different hour slices, and the
        # incremental merge must agree with the cold run about both.
        boundary = datetime(2024, 6, 3, 8, 0, 0)
        delta = _delta_rows(small_raw, 1, start=boundary) + _delta_rows(
            _merged_copy(small_raw, _delta_rows(small_raw, 1, start=boundary)),
            1,
            start=boundary - timedelta(seconds=1),
        )
        report = _assert_incremental_matches_cold(small_raw, delta)
        assert report["slices_recomputed"] >= 3  # day 0, hours 7 and 8

    def test_out_of_order_timestamps_in_append(self, small_raw):
        # Ids are monotonic but the timestamps rewind into the middle
        # of the stored log — legal, and must merge exactly.
        earliest = min(r.started_at for r in small_raw.rentals())
        delta = _delta_rows(
            small_raw, 6, start=earliest + timedelta(hours=1), step_s=45
        )
        report = _assert_incremental_matches_cold(small_raw, delta)
        assert report["slices_recomputed"] >= 1

    def test_append_creating_new_slices(self, small_raw):
        # First trips in an hour slice that held none: the slice's
        # digest chains off the empty digest and the pipeline grows a
        # new temporal slice, identically to a cold run.  The small
        # synthetic city is busy around the clock, so carve the target
        # hour out of the prefix first.
        hours = [r.started_at.hour for r in small_raw.rentals()]
        target = min(range(24), key=hours.count)
        doc = small_raw.to_dict()
        doc["rentals"] = [
            row for row in doc["rentals"]
            if datetime.fromisoformat(row[2]).hour != target
        ]
        prefix = MobyDataset.from_dict(doc)
        store = DatasetStore()
        meta = store.put("probe", prefix)
        assert meta["slices"]["hour"][target] == EMPTY_SLICE
        start = datetime(2024, 6, 5, target, 10, 0)
        delta = _delta_rows(prefix, 3, start=start, step_s=60,
                            duration_s=300)
        report = _assert_incremental_matches_cold(prefix, delta)
        assert report["slices_recomputed"] >= 2  # the new hour + its day


@pytest.fixture(scope="module")
def inc_server(small_raw, tmp_path_factory):
    service = ExpansionService(max_workers=2)
    service.register_dataset("inc", small_raw)
    server = make_server(service, port=0).start_background()
    yield server, service
    server.stop()
    service.close()


def _http(server, path, body=None, method=None, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    base_headers = {"Content-Type": "application/json"} if data else {}
    base_headers.update(headers or {})
    request = urllib.request.Request(
        server.url + path, data=data, method=method, headers=base_headers
    )
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


class TestAppendHTTP:
    def test_patch_appends_and_moves_the_etag(self, inc_server, small_raw):
        server, service = inc_server
        _, meta_body, before_headers = _http(server, "/v1/datasets/inc")
        before = json.loads(meta_body)
        delta = _delta_rows(service.datasets.get("inc"), 3)
        rows = [
            [r.rental_id, r.bike_id, r.started_at.isoformat(),
             r.ended_at.isoformat(), r.rental_location_id,
             r.return_location_id]
            for r in delta
        ]
        status, body, _ = _http(
            server, "/v1/datasets/inc", {"rentals": rows}, method="PATCH"
        )
        assert status == 200
        meta = json.loads(body)
        assert meta["digest"] != before["digest"]
        assert meta["appends"] >= 1
        status, _, after_headers = _http(server, "/v1/datasets/inc")
        assert status == 200
        assert after_headers["ETag"] != before_headers["ETag"]
        # The old validator no longer matches: a conditional GET gets
        # fresh bytes, not a stale 304.
        status, body, _ = _http(
            server, "/v1/datasets/inc",
            headers={"If-None-Match": before_headers["ETag"]},
        )
        assert status == 200
        assert json.loads(body)["digest"] == meta["digest"]

    def test_patch_error_mapping(self, inc_server):
        server, _ = inc_server
        status, _, _ = _http(
            server, "/v1/datasets/inc",
            {"rentals": [[1, 1, "2024-01-01T07:00:00",
                          "2024-01-01T07:10:00", 1, 2]]},
            method="PATCH",
        )
        assert status == 409  # stale id
        status, _, _ = _http(
            server, "/v1/datasets/inc", {"rentals": [[1, 2]]}, method="PATCH"
        )
        assert status == 400  # malformed row
        status, _, _ = _http(
            server, "/v1/datasets/ghost", {"rentals": [[10**9, 1,
             "2024-01-01T07:00:00", "2024-01-01T07:10:00", 1, 2]]},
            method="PATCH",
        )
        assert status == 404

    def test_integrity_header_is_verified(self, inc_server, small_raw):
        server, service = inc_server
        delta = _delta_rows(service.datasets.get("inc"), 1)
        rows = [[r.rental_id, r.bike_id, r.started_at.isoformat(),
                 r.ended_at.isoformat(), r.rental_location_id,
                 r.return_location_id] for r in delta]
        body = {"rentals": rows}
        status, _, _ = _http(
            server, "/v1/datasets/inc", body, method="PATCH",
            headers={"X-Repro-Content-SHA256": "0" * 64},
        )
        assert status == 400
        digest = hashlib.sha256(json.dumps(body).encode()).hexdigest()
        status, _, _ = _http(
            server, "/v1/datasets/inc", body, method="PATCH",
            headers={"X-Repro-Content-SHA256": digest},
        )
        assert status == 200

    def test_ranged_upload_roundtrip(self, inc_server, small_raw):
        server, _ = inc_server
        body = json.dumps(small_raw.to_dict()).encode()
        half = len(body) // 2

        def fragment(data, start, end):
            request = urllib.request.Request(
                server.url + "/v1/datasets/ranged", data=data, method="PUT",
                headers={
                    "Content-Range": f"bytes {start}-{end}/{len(body)}"
                },
            )
            try:
                with urllib.request.urlopen(request, timeout=300) as resp:
                    return resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        status, doc = fragment(body[:half], 0, half - 1)
        assert status == 202
        assert doc == {
            "type": "DatasetUpload", "name": "ranged",
            "received": half, "total": len(body), "complete": False,
        }
        # A gap is refused with 416 and does not disturb the session.
        status, doc = fragment(body[half + 9:], half + 9, len(body) - 1)
        assert status == 416
        status, doc = fragment(body[half:], half, len(body) - 1)
        assert status == 201
        assert doc["complete"] is True
        assert doc["body_sha256"] == hashlib.sha256(body).hexdigest()
        assert doc["n_rentals"] == small_raw.n_rentals

    def test_healthz_reports_ingestion_block(self, inc_server):
        server, _ = inc_server
        _, body, _ = _http(server, "/v1/healthz")
        ingestion = json.loads(body)["ingestion"]
        assert ingestion["appends"] >= 1
        assert ingestion["bytes_appended"] > 0
        assert ingestion["slices_invalidated"] >= 1
        assert "incremental_runs" in ingestion

    def test_append_racing_inflight_run_serves_no_stale_views(
        self, inc_server, small_raw
    ):
        server, service = inc_server
        service.register_dataset("race", small_raw)
        _, body, _ = _http(server, "/v1/datasets/race")
        old_digest = json.loads(body)["digest"]
        status, body, _ = _http(
            server, "/v1/runs",
            {"dataset": {"kind": "named", "name": "race"}, "wait": False},
        )
        assert status == 202
        job_id = json.loads(body)["job_id"]
        delta = _delta_rows(small_raw, 2)
        rows = [[r.rental_id, r.bike_id, r.started_at.isoformat(),
                 r.ended_at.isoformat(), r.rental_location_id,
                 r.return_location_id] for r in delta]
        status, body, _ = _http(
            server, "/v1/datasets/race", {"rentals": rows}, method="PATCH"
        )
        assert status == 200
        new_digest = json.loads(body)["digest"]
        # Wait the in-flight run out; its completion must not resurrect
        # the pre-append metadata view.
        start = time.monotonic()
        while True:
            _, job_body, _ = _http(server, f"/v1/jobs/{job_id}")
            job = json.loads(job_body)
            if job["status"] in ("done", "failed"):
                break
            assert time.monotonic() - start < 300
            time.sleep(0.05)
        assert job["status"] == "done"
        # The run resolved one consistent snapshot — the dataset as it
        # was before or after the append, never a torn mix.
        _, result, _ = _http(server, job["result_url"])
        assert json.loads(result)["dataset_digest"] in (
            old_digest, new_digest
        )
        # Its completion must not resurrect stale views: every dataset
        # read serves the appended content.
        _, body, headers = _http(server, "/v1/datasets/race")
        assert json.loads(body)["digest"] == new_digest
        assert headers["ETag"].strip('"') == new_digest


class TestIncrementalService:
    def test_incremental_envelope_is_byte_identical_to_cold(
        self, small_raw, tmp_path, monkeypatch
    ):
        """The pinned byte-identity test.

        One service, one fingerprint: after the append, the job is
        computed twice — first through the delta-aware merge (stage
        cache warm with prefix values only), then cold (lineage
        withheld, stage cache emptied) — and the two stored canonical
        envelopes must match byte for byte, fingerprint and digest
        included.
        """
        service = ExpansionService(store_dir=tmp_path / "store")
        try:
            service.register_dataset("city", small_raw)
            spec = {"dataset": {"kind": "named", "name": "city"}}
            service.run(spec, timeout=600)  # warm the prefix stages
            delta = _delta_rows(small_raw, 4)
            assert service.append_dataset("city", delta) is not None

            incremental_envelope = service.run(spec, timeout=600)
            fingerprint = incremental_envelope["fingerprint"]
            incremental_job = next(
                job for job in service.jobs()
                if job.fingerprint == fingerprint
            )
            block = (incremental_job.timings or {}).get("incremental")
            assert block is not None
            assert block["mode"] == "incremental"
            assert block["stages_merged"]
            assert block["slices_reused"] > 0
            assert block["slices_recomputed"] >= 1
            assert service.incremental_runs == 1
            assert service.stats()["ingestion"]["incremental_runs"] == 1
            incremental_payload = incremental_job.payload

            # The in-flight entry is cleared moments *after* waiters
            # unblock; drain it so the next submission cannot join the
            # finished job instead of recomputing.
            deadline = time.monotonic() + 30
            while fingerprint in service._inflight:
                assert time.monotonic() < deadline
                time.sleep(0.01)

            # Drop the stored result so the same fingerprint recomputes
            # — this time genuinely cold: lineage withheld and the
            # stage cache emptied of every merged-dataset value.
            monkeypatch.setattr(
                service.datasets, "lineage", lambda name: None
            )
            monkeypatch.setattr(service, "cache", StageCache())
            service.results.namespace.delete(fingerprint)
            service.results.bytes_cache.invalidate(fingerprint)
            cold_envelope = service.run(spec, timeout=600)
            cold_job = [
                job for job in service.jobs()
                if job.fingerprint == fingerprint
            ][-1]  # jobs() is oldest-first; the recompute is the newest
            cold_block = (cold_job.timings or {}).get("incremental") or {}
            assert cold_block.get("mode") != "incremental"
            assert not cold_block.get("stages_merged")

            assert cold_job.payload == incremental_payload
            assert cold_envelope == incremental_envelope
        finally:
            service.close()
