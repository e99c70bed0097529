"""Restart durability: one ``--store-dir``, many service processes.

The acceptance path of the storage unification: a service stopped and
reconstructed over the same store directory must come back with its
jobs listed, results served byte-identically, datasets resolvable and
the stage cache warm — and jobs that were still pending (or
interrupted mid-run) at shutdown must be re-queued and complete.
"""

import json

import pytest

from repro.exceptions import ServiceError
from repro.pipeline.fingerprint import dataset_digest
from repro.serialize import canonical_json
from repro.service import (
    DatasetRef,
    ExpansionService,
    JobStore,
    ScenarioSpec,
)
from repro.pipeline.cache import stage_namespace
from repro.service.jobs import jobs_namespace
from repro.service.store import verdict_key
from repro.store import Store


def make_service(store_dir, backend=None, **kwargs):
    kwargs.setdefault("max_workers", 2)
    return ExpansionService(
        store_dir=store_dir, store_backend=backend, **kwargs
    )


@pytest.mark.parametrize("backend", ["dir", "sharded"])
def test_everything_survives_a_restart(small_raw, tmp_path, backend):
    store_dir = tmp_path / "store"
    with make_service(store_dir, backend) as first:
        meta = first.register_dataset("small", small_raw)
        spec = ScenarioSpec(dataset=DatasetRef.named("small"))
        job = first.submit(spec)
        envelope = job.wait(timeout=300)
        fingerprint = job.fingerprint
        payload = job.payload
        executions = first.pipeline_executions
        assert executions == 1

    with make_service(store_dir, backend) as second:
        # Jobs: listed with their terminal status and original ids.
        restored = {j.job_id: j for j in second.jobs()}
        assert job.job_id in restored
        assert restored[job.job_id].status == "done"
        assert restored[job.job_id].fingerprint == fingerprint
        assert second.jobs_restored == 1 and second.jobs_requeued == 0
        # Results: the stored canonical bytes are served unchanged.
        assert second.results.raw_entry(fingerprint).payload == payload
        # Datasets: resolvable by name with the same content digest.
        assert second.datasets.digest("small") == meta["digest"]
        # Stage cache + results store: resubmitting is pure lookup.
        again = second.submit(spec).wait(timeout=300)
        assert second.pipeline_executions == 0
        assert canonical_json(again).encode() == payload
        # New work re-uses the warm stage prefix: only the community
        # cone recomputes, so clean/candidates/network never re-run.
        warm = second.submit(
            ScenarioSpec(
                dataset=DatasetRef.named("small"),
                overrides={"community.seed": 99},
            )
        ).wait(timeout=300)
        assert warm["outputs"]["run"]["headline"] != {}
        assert second.pipeline_executions == 1
        stats = second.stats()
        assert stats["store"]["backend"] == backend
        assert stats["store"]["stage"]["entries"] > 0
        assert stats["store"]["results"]["entries"] >= 2
        assert stats["store"]["jobs"]["entries"] >= 1
        assert stats["store"]["datasets"]["entries"] == 1


@pytest.mark.parametrize("backend", ["dir", "sharded"])
def test_restarted_service_checks_stored_bytes_once(
    small_raw, tmp_path, backend, envelope_parses
):
    """The schema check of a published envelope is the memo's: a new
    process reading the stored bytes back parses none of them."""
    store_dir = tmp_path / "store"
    spec = ScenarioSpec(dataset=DatasetRef.named("small"))
    with make_service(store_dir, backend) as first:
        first.register_dataset("small", small_raw)
        stored = first.submit(spec).wait_bytes(timeout=300)
    del envelope_parses[:]
    with make_service(store_dir, backend) as second:
        for _ in range(5):
            assert second.submit(spec).wait_bytes(timeout=300) == stored
        assert second.pipeline_executions == 0
    assert envelope_parses == []


@pytest.mark.parametrize("backend", ["dir", "sharded"])
def test_restarted_service_without_verdict_memo_parses_once(
    small_raw, tmp_path, backend, envelope_parses
):
    """Without its memo entry the stored bytes are parsed once per
    backend read, as before the memo existed."""
    store_dir = tmp_path / "store"
    spec = ScenarioSpec(dataset=DatasetRef.named("small"))
    with make_service(store_dir, backend) as first:
        first.register_dataset("small", small_raw)
        stored = first.submit(spec).wait_bytes(timeout=300)
    stage = stage_namespace(Store(store_dir, backend).backend("stage"))
    assert stage.delete(verdict_key(stored))
    del envelope_parses[:]
    with make_service(store_dir, backend) as second:
        for _ in range(5):
            assert second.submit(spec).wait_bytes(timeout=300) == stored
        assert second.pipeline_executions == 0
    assert envelope_parses == [len(stored)]


@pytest.mark.parametrize("damage", ["truncated", "not-json"])
def test_garbled_stored_envelope_is_recomputed(small_raw, tmp_path, damage):
    store_dir = tmp_path / "store"
    spec = ScenarioSpec(dataset=DatasetRef.named("small"))
    with make_service(store_dir) as first:
        first.register_dataset("small", small_raw)
        job = first.submit(spec)
        stored = job.wait_bytes(timeout=300)
        garbled = stored[: len(stored) // 2] if damage == "truncated" else b"\xff"
        first.results.namespace.put(job.fingerprint, garbled)
    with make_service(store_dir) as second:
        assert second.submit(spec).wait_bytes(timeout=300) == stored
        assert second.pipeline_executions == 1
        assert second.results.namespace.get(job.fingerprint) == stored


def test_queued_and_running_jobs_are_requeued(small_raw, tmp_path):
    """Jobs a killed process left pending/running run on the next start.

    A hard kill is simulated by journalling the documents directly —
    exactly the bytes a service that died mid-flight leaves behind.
    """
    store_dir = tmp_path / "store"
    with make_service(store_dir) as first:
        first.register_dataset("small", small_raw)
        done = first.submit(ScenarioSpec(dataset=DatasetRef.named("small")))
        done.wait(timeout=300)

    # Forge the interrupted backlog: one queued, one mid-run.
    jobstore = JobStore(jobs_namespace(Store(store_dir).backend("jobs")))
    queued_spec = ScenarioSpec(
        dataset=DatasetRef.named("small"), overrides={"community.seed": 41}
    )
    running_spec = ScenarioSpec(
        dataset=DatasetRef.named("small"), overrides={"community.seed": 42}
    )
    for job_id, status, spec in (
        ("job-000002", "pending", queued_spec),
        ("job-000003", "running", running_spec),
    ):
        jobstore.namespace.put(
            job_id,
            canonical_json(
                {
                    "type": "Job",
                    "job_id": job_id,
                    "fingerprint": "ab" * 32,  # stale; recomputed on requeue
                    "status": status,
                    "spec": spec.to_dict(),
                    "subscribers": 1,
                    "created_at": 1.0,
                    "started_at": 2.0 if status == "running" else None,
                    "finished_at": None,
                    "cancel_requested": False,
                }
            ).encode(),
        )

    with make_service(store_dir) as second:
        assert second.jobs_requeued == 2
        for job_id in ("job-000002", "job-000003"):
            job = second.job(job_id)
            assert job is not None
            job._event.wait(300)
            assert job.status == "done", job.error
            assert second.results.raw(job.fingerprint) is not None
        # The id counter moved past the journalled ids: no collisions.
        fresh = second.submit(
            ScenarioSpec(dataset=DatasetRef.named("small"))
        )
        assert int(fresh.job_id.split("-")[1]) > 3


def test_one_shot_embedders_do_not_hijack_the_backlog(small_raw, tmp_path):
    store_dir = tmp_path / "store"
    with make_service(store_dir) as first:
        first.register_dataset("small", small_raw)
    jobstore = JobStore(jobs_namespace(Store(store_dir).backend("jobs")))
    jobstore.namespace.put(
        "job-000001",
        canonical_json(
            {
                "type": "Job",
                "job_id": "job-000001",
                "fingerprint": "ab" * 32,
                "status": "pending",
                "spec": ScenarioSpec(
                    dataset=DatasetRef.named("small")
                ).to_dict(),
                "subscribers": 1,
                "created_at": 1.0,
                "started_at": None,
                "finished_at": None,
            }
        ).encode(),
    )
    with make_service(store_dir, resume_jobs=False) as one_shot:
        assert one_shot.jobs_requeued == 0
        assert one_shot.job("job-000001").status == "pending"
    # Still pending in the journal for the next resuming service.
    doc = json.loads(jobstore.namespace.get("job-000001").decode())
    assert doc["status"] == "pending"


def test_requeued_job_with_vanished_dataset_fails_cleanly(tmp_path):
    store_dir = tmp_path / "store"
    make_service(store_dir).close()  # lay the store tree down
    jobstore = JobStore(jobs_namespace(Store(store_dir).backend("jobs")))
    jobstore.namespace.put(
        "job-000001",
        canonical_json(
            {
                "type": "Job",
                "job_id": "job-000001",
                "fingerprint": "ab" * 32,
                "status": "pending",
                "spec": ScenarioSpec(
                    dataset=DatasetRef.named("gone")
                ).to_dict(),
                "subscribers": 1,
                "created_at": 1.0,
                "started_at": None,
                "finished_at": None,
            }
        ).encode(),
    )
    with make_service(store_dir) as service:
        job = service.job("job-000001")
        job._event.wait(60)
        assert job.status == "failed"
        assert "gone" in job.error
    # The failure is journalled, so the next restart does not retry.
    with make_service(store_dir) as after:
        assert after.jobs_requeued == 0
        assert after.job("job-000001").status == "failed"


def test_garbled_journal_documents_are_skipped(small_raw, tmp_path):
    store_dir = tmp_path / "store"
    with make_service(store_dir) as first:
        first.register_dataset("small", small_raw)
        first.submit(
            ScenarioSpec(dataset=DatasetRef.named("small"))
        ).wait(timeout=300)
    (store_dir / "jobs" / "job-000999.json").write_text("{torn")
    with make_service(store_dir) as second:
        assert {j.job_id for j in second.jobs()} == {"job-000001"}


def test_datasets_keep_working_across_restarts(small_raw, tmp_path):
    store_dir = tmp_path / "store"
    with make_service(store_dir) as first:
        first.register_dataset("small", small_raw)
    with make_service(store_dir) as second:
        listed = second.datasets.list()
        assert [meta["name"] for meta in listed] == ["small"]
        resolved, digest = second.datasets.get_with_digest("small")
        assert dataset_digest(resolved) == digest
        assert second.delete_dataset("small") is True
        with pytest.raises(ServiceError):
            second.submit(ScenarioSpec(dataset=DatasetRef.named("small")))
    with make_service(store_dir) as third:
        assert len(third.datasets) == 0


def test_cancel_of_queued_job_survives_restart(small_raw, tmp_path):
    """A cancelled-while-queued job must not be resurrected and run."""
    store_dir = tmp_path / "store"
    with make_service(store_dir) as first:
        first.register_dataset("small", small_raw)
    # A queued job whose cancel was requested just before the kill.
    jobstore = JobStore(jobs_namespace(Store(store_dir).backend("jobs")))
    jobstore.namespace.put(
        "job-000001",
        canonical_json(
            {
                "type": "Job",
                "job_id": "job-000001",
                "fingerprint": "ab" * 32,
                "status": "pending",
                "spec": ScenarioSpec(
                    dataset=DatasetRef.named("small")
                ).to_dict(),
                "subscribers": 1,
                "created_at": 1.0,
                "started_at": None,
                "finished_at": None,
                "cancel_requested": True,
            }
        ).encode(),
    )
    with make_service(store_dir) as second:
        job = second.job("job-000001")
        job._event.wait(60)
        assert job.status == "cancelled"
        assert second.pipeline_executions == 0
    # The terminal state was journalled: no further restarts requeue it.
    with make_service(store_dir) as third:
        assert third.jobs_requeued == 0
        assert third.job("job-000001").status == "cancelled"


def test_cancel_request_is_journalled(small_raw, tmp_path):
    store_dir = tmp_path / "store"
    with make_service(store_dir, max_workers=1) as service:
        service.register_dataset("small", small_raw)
        # Fill the single worker lane, then queue a second job.
        service.submit(
            ScenarioSpec(
                dataset=DatasetRef.named("small"),
                overrides={"community.seed": 71},
            )
        )
        queued = service.submit(
            ScenarioSpec(
                dataset=DatasetRef.named("small"),
                overrides={"community.seed": 72},
            )
        )
        service.cancel(queued.job_id)
        doc = json.loads(
            (store_dir / "jobs" / f"{queued.job_id}.json").read_text()
        )
        assert doc["cancel_requested"] is True or doc["status"] == "cancelled"
