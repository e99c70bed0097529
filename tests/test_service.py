"""ExpansionService: jobs, deduplication, persistence, failure paths."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.exceptions import JobFailedError, ServiceError
from repro.perf import PerfReport
from repro.service import (
    DONE,
    DatasetRef,
    ExpansionService,
    ScenarioSpec,
    make_server,
)
from repro.service.store import verdict_key


@pytest.fixture(scope="module")
def stage_cache_dir(tmp_path_factory):
    """One disk stage cache shared by every service in this module.

    The first pipeline run warms it; later services recompute nothing,
    keeping the module fast while still counting executions per service.
    """
    return tmp_path_factory.mktemp("service-stage-cache")


@pytest.fixture()
def service(small_raw, stage_cache_dir):
    with ExpansionService(cache_dir=stage_cache_dir, max_workers=4) as svc:
        svc.register_dataset("small", small_raw)
        yield svc


def small_spec(**kwargs) -> ScenarioSpec:
    kwargs.setdefault("dataset", DatasetRef.named("small"))
    return ScenarioSpec(**kwargs)


class TestRun:
    def test_run_returns_envelope(self, service, small_result):
        envelope = service.run(small_spec(), timeout=300)
        assert envelope["type"] == "ResultEnvelope"
        assert envelope["outputs"]["run"]["headline"] == small_result.headline()
        assert envelope["spec"]["outputs"] == ["run"]
        assert envelope["fingerprint"]

    def test_job_lifecycle_document(self, service):
        job = service.submit(small_spec())
        job.wait(300)
        assert job.status == DONE
        payload = job.to_dict()
        assert payload["result_url"].endswith(job.fingerprint)
        assert service.job(job.job_id) is job
        assert service.job("job-999999") is None

    def test_rebalance_and_report_outputs(self, service):
        envelope = service.run(
            small_spec(
                outputs=("run", "rebalance", "report"),
                fleet_size=40,
                report_title="svc",
            ),
            timeout=300,
        )
        plan = envelope["outputs"]["rebalance"]["plan"]
        assert plan["type"] == "RebalancingPlan"
        assert envelope["outputs"]["rebalance"]["fleet_size"] == 40
        assert envelope["outputs"]["report"]["markdown"].startswith("# svc")

    def test_sweep_output(self, service):
        envelope = service.run(
            small_spec(
                outputs=("sweep",),
                sweep_axes={"temporal.coupling": [0.05, 0.25]},
            ),
            timeout=300,
        )
        sweep = envelope["outputs"]["sweep"]
        assert [s["label"] for s in sweep["scenarios"]] == [
            "temporal.coupling=0.05",
            "temporal.coupling=0.25",
        ]
        assert "SCENARIO SWEEP (2 configs)" in sweep["table"]

    def test_submit_accepts_spec_dicts(self, service):
        envelope = service.run(
            {
                "type": "ScenarioSpec",
                "dataset": {"kind": "named", "name": "small"},
                "outputs": ["run"],
            },
            timeout=300,
        )
        assert envelope["outputs"]["run"]["type"] == "ExpansionResult"


class TestDeduplication:
    N_CLIENTS = 8

    def test_concurrent_identical_requests_run_once(self, small_raw, stage_cache_dir):
        # A fresh service has a private in-memory results store, so
        # nothing is pre-computed for this fingerprint; the shared stage
        # cache does not matter here — executions are counted per job,
        # not per stage.
        with ExpansionService(cache_dir=stage_cache_dir, max_workers=4) as svc:
            svc.register_dataset("small", small_raw)
            spec = small_spec(overrides={"community.seed": 1234})
            barrier = threading.Barrier(self.N_CLIENTS)
            jobs = []

            def client():
                barrier.wait()
                jobs.append(svc.submit(spec))

            threads = [
                threading.Thread(target=client) for _ in range(self.N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            envelopes = [job.wait(300) for job in jobs]

            assert svc.pipeline_executions == 1
            assert len({job.job_id for job in jobs}) == 1
            assert jobs[0].subscribers == self.N_CLIENTS
            assert all(env == envelopes[0] for env in envelopes)

    def test_resubmission_after_completion_serves_stored_result(self, service):
        first = service.run(small_spec(), timeout=300)
        executions = service.pipeline_executions
        second = service.run(small_spec(), timeout=300)
        assert second == first
        assert service.pipeline_executions == executions

    def test_distinct_specs_execute_separately(self, service):
        spec_a = small_spec(overrides={"community.seed": 1})
        spec_b = small_spec(overrides={"community.seed": 2})
        job_a = service.submit(spec_a)
        job_b = service.submit(spec_b)
        assert job_a.fingerprint != job_b.fingerprint
        env_a = job_a.wait(300)
        env_b = job_b.wait(300)
        assert env_a["fingerprint"] != env_b["fingerprint"]


class TestResultsStore:
    def test_envelopes_survive_service_restarts(self, small_raw, stage_cache_dir, tmp_path):
        store_dir = tmp_path / "store"
        spec = small_spec()
        with ExpansionService(
            cache_dir=stage_cache_dir, store_dir=store_dir
        ) as first:
            first.register_dataset("small", small_raw)
            envelope = first.run(spec, timeout=300)
        with ExpansionService(
            cache_dir=stage_cache_dir, store_dir=store_dir
        ) as second:
            second.register_dataset("small", small_raw)
            again = second.run(spec, timeout=300)
            assert again == envelope
            assert second.pipeline_executions == 0

    def test_bad_fingerprint_rejected(self, service):
        with pytest.raises(ValueError):
            service.results.raw("../../etc/passwd")

    def test_stale_envelope_schema_is_recomputed_not_served(self, service):
        """A persisted envelope from an older schema reads as a miss."""
        spec = small_spec(overrides={"community.seed": 31337})
        raw, digest = service._resolve_ref(spec.dataset)
        fingerprint = spec.fingerprint(digest)
        service.results.put(
            fingerprint,
            {"type": "ResultEnvelope", "envelope_version": 1, "outputs": {}},
        )
        executions = service.pipeline_executions
        envelope = service.run(spec, timeout=300)
        assert service.pipeline_executions == executions + 1  # recomputed
        from repro.serialize import ENVELOPE_VERSION

        assert envelope["envelope_version"] == ENVELOPE_VERSION
        stored = service.results.get(fingerprint)
        assert stored["envelope_version"] == ENVELOPE_VERSION  # overwritten


def holds_no_envelope(job) -> bool:
    """Whether ``job`` keeps neither a parsed envelope nor its text."""
    for value in vars(job).values():
        if isinstance(value, dict) and value.get("type") == "ResultEnvelope":
            return False
        if isinstance(value, str) and "ResultEnvelope" in value:
            return False
    return True


class TestStoredBytes:
    """A store-served job completes with the byte cache's own payload."""

    def test_replays_parse_once_and_hold_the_cached_bytes(
        self, service, envelope_parses
    ):
        spec = small_spec(overrides={"community.seed": 4242})
        computed = service.submit(spec)
        computed.wait_bytes(300)
        cache = service.results.bytes_cache
        assert computed.payload is cache.get(computed.fingerprint, "full").payload
        # Drop the cached body: the first replay reads the backend and
        # finds its verdict in the memo `put` wrote, the other nineteen
        # are byte-cache hits — none parses.
        cache.invalidate(computed.fingerprint)
        del envelope_parses[:]
        executions = service.pipeline_executions
        replays = []
        for _ in range(20):
            job = service.submit(spec)
            job.wait_bytes(300)
            replays.append(job)
        assert service.pipeline_executions == executions
        assert len(envelope_parses) == 0
        cached = cache.get(computed.fingerprint, "full").payload
        assert cached == computed.payload
        assert all(job.payload is cached for job in replays)
        assert all(holds_no_envelope(job) for job in [computed, *replays])
        assert "results" in {s["name"] for s in replays[-1].timings["sections"]}

    def test_replay_without_verdict_memo_parses_once(
        self, service, envelope_parses
    ):
        spec = small_spec(overrides={"community.seed": 4343})
        computed = service.submit(spec)
        payload = computed.wait_bytes(300)
        # Evict the memo entry and the cached body: the next backend
        # read judges the bytes by one parse and memoises the verdict.
        key = verdict_key(payload)
        service.cache.clear_memory()
        assert service.cache.namespace.delete(key)
        service.results.bytes_cache.invalidate(computed.fingerprint)
        del envelope_parses[:]
        for _ in range(5):
            assert service.submit(spec).wait_bytes(300) == payload
        assert envelope_parses == [len(payload)]
        assert service.cache.get(key) is True


class TestFailures:
    def test_missing_named_dataset(self, service):
        with pytest.raises(ServiceError):
            service.submit(ScenarioSpec(dataset=DatasetRef.named("nope")))

    def test_missing_csv_dataset(self, service, tmp_path):
        with pytest.raises(ServiceError):
            service.submit(
                ScenarioSpec(dataset=DatasetRef.csv(tmp_path / "nope"))
            )

    def test_failed_job_raises_on_wait(self, small_raw, tmp_path):
        # An unclusterable config: degree_threshold so high that no
        # candidate survives is fine, but an empty-cleaned dataset is a
        # guaranteed PipelineError; simulate by registering a dataset
        # whose rentals were all stripped.
        from repro.data import MobyDataset

        empty = MobyDataset.from_records(
            list(small_raw.locations())[:5], []
        )
        with ExpansionService() as svc:
            svc.register_dataset("empty", empty)
            job = svc.submit(ScenarioSpec(dataset=DatasetRef.named("empty")))
            with pytest.raises(JobFailedError):
                job.wait(300)
            assert job.status == "failed"
            assert job.error

    def test_stats_shape(self, service):
        service.run(small_spec(), timeout=300)
        stats = service.stats()
        assert stats["status"] == "ok"
        assert stats["jobs"] >= 1
        assert "cache" in stats and "evictions" in stats["cache"]


class TestJobRetention:
    def test_terminal_jobs_pruned_oldest_first(self, small_raw, tmp_path):
        with ExpansionService(
            cache_dir=tmp_path / "cache", retain_jobs=3, max_workers=1
        ) as service:
            service.register_dataset("small", small_raw)
            jobs = []
            for seed_fleet in range(6):
                job = service.submit(
                    ScenarioSpec(
                        dataset=DatasetRef.named("small"),
                        outputs=("rebalance",),
                        fleet_size=10 + seed_fleet,
                    )
                )
                job.wait(600)
                jobs.append(job)
            # trigger one more submission so pruning sees terminal jobs
            final = service.submit(
                ScenarioSpec(
                    dataset=DatasetRef.named("small"),
                    outputs=("rebalance",),
                    fleet_size=99,
                )
            )
            final.wait(600)
            stats = service.stats()
            assert stats["jobs"] <= 3 + 1  # retained + possibly in-flight row
            assert stats["jobs_pruned"] >= 3
            assert stats["retain_jobs"] == 3
            # oldest pruned, newest retained
            assert service.job(jobs[0].job_id) is None
            assert service.job(final.job_id) is final
            # pruning a job never loses its result envelope
            assert service.results.raw(jobs[0].fingerprint) is not None

    def test_in_flight_jobs_never_pruned(self, small_raw):
        with ExpansionService(retain_jobs=1, max_workers=2) as service:
            service.register_dataset("small", small_raw)
            job = service.submit(ScenarioSpec(dataset=DatasetRef.named("small")))
            job.wait(600)
            assert service.job(job.job_id) is job  # newest terminal retained

    def test_rejects_bad_retention(self):
        with pytest.raises(Exception):
            ExpansionService(retain_jobs=0)


class TestJobTimings:
    def test_job_document_carries_stage_timings(self, small_raw, tmp_path):
        with ExpansionService(cache_dir=tmp_path / "cache") as service:
            service.register_dataset("small", small_raw)
            job = service.submit(ScenarioSpec(dataset=DatasetRef.named("small")))
            envelope = job.wait(600)
        payload = job.to_dict()
        assert "timings" in payload
        report = PerfReport.from_dict(payload["timings"])
        assert report.section("stage:hour") is not None
        assert report.total_s >= 0
        # timings never leak into the canonical result envelope
        assert "timings" not in envelope["outputs"]["run"]


class TestHeadlineFields:
    @pytest.fixture()
    def server(self, small_raw, tmp_path):
        service = ExpansionService(cache_dir=tmp_path / "cache")
        service.register_dataset("small", small_raw)
        server = make_server(service, port=0).start_background()
        try:
            yield server
        finally:
            server.stop()
            service.close()

    def _post(self, server, path, body):
        request = urllib.request.Request(
            server.url + path,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=600) as response:
            return response.status, json.loads(response.read())

    def _get(self, server, path):
        with urllib.request.urlopen(server.url + path, timeout=600) as response:
            return response.status, json.loads(response.read())

    def test_headline_view_skips_bulk_payloads(self, server):
        status, envelope = self._post(
            server, "/v1/runs", {"dataset": {"kind": "named", "name": "small"}}
        )
        assert status == 200
        fingerprint = envelope["fingerprint"]
        status, slim = self._get(
            server, f"/v1/results/{fingerprint}?fields=headline"
        )
        assert status == 200
        assert slim["fields"] == "headline"
        assert slim["fingerprint"] == fingerprint
        run_view = slim["outputs"]["run"]
        assert run_view == {"headline": envelope["outputs"]["run"]["headline"]}
        assert "network" not in run_view
        assert len(json.dumps(slim)) < len(json.dumps(envelope)) / 10

    def test_unsupported_fields_selection_is_rejected(self, server):
        status, envelope = self._post(
            server, "/v1/runs", {"dataset": {"kind": "named", "name": "small"}}
        )
        url = f"{server.url}/v1/results/{envelope['fingerprint']}?fields=everything"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url, timeout=60)
        assert excinfo.value.code == 400
