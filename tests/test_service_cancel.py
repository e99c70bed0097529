"""Cooperative job cancellation: runner boundaries, races, cache safety."""

import threading

import pytest

from repro.exceptions import JobCancelledError, PipelineCancelledError
from repro.pipeline import PipelineRunner, run_sweep
from repro.pipeline.cache import StageCache
from repro.service import CANCELLED, DONE, DatasetRef, ExpansionService, ScenarioSpec


class TestRunnerCancel:
    def test_cancel_before_start_runs_nothing(self, small_raw):
        runner = PipelineRunner(small_raw, cancel=lambda: True)
        with pytest.raises(PipelineCancelledError):
            runner.run()
        assert runner.executions == {}

    def test_cancel_mid_run_keeps_completed_stages_cached(self, small_raw):
        cache = StageCache()
        seen: list[str] = []
        original = PipelineRunner.stage

        def cancel() -> bool:
            return len(seen) >= 2  # abort at the third stage boundary

        runner = PipelineRunner(small_raw, cache=cache, cancel=cancel)

        def tracking_stage(self, name):
            value = original(self, name)
            seen.append(name)
            return value

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(PipelineRunner, "stage", tracking_stage)
            with pytest.raises(PipelineCancelledError):
                runner.run()
        executed = set(runner.executions)
        assert executed  # something ran before the boundary fired

        # Every stage that ran is warm: a fresh uncancelled runner on the
        # same cache recomputes only the stages the aborted run never
        # reached — the cache was not corrupted, only truncated.
        clean = PipelineRunner(small_raw, cache=cache)
        result = clean.run()
        assert result.basic.n_communities >= 1
        assert not (executed & set(clean.executions))

    def test_sweep_cancel_before_start(self, small_raw):
        from repro.config import PAPER_CONFIG

        with pytest.raises(PipelineCancelledError):
            run_sweep(small_raw, [PAPER_CONFIG], cancel=lambda: True)


class TestServiceCancel:
    def test_cancel_queued_job_is_deterministic(self, small_raw):
        """A job parked behind a busy worker cancels before it starts."""
        with ExpansionService(max_workers=1) as service:
            service.register_dataset("small", small_raw)
            blocker = service.submit(
                ScenarioSpec(
                    dataset=DatasetRef.named("small"),
                    overrides={"community.seed": 41},
                )
            )
            queued = service.submit(
                ScenarioSpec(
                    dataset=DatasetRef.named("small"),
                    overrides={"community.seed": 42},
                )
            )
            returned = service.cancel(queued.job_id)
            assert returned is queued
            blocker.wait(300)
            with pytest.raises(JobCancelledError):
                queued.wait(300)
            assert queued.status == CANCELLED
            assert queued.payload is None
            assert queued.finished

    def test_cancel_unknown_job_returns_none(self, small_raw):
        with ExpansionService() as service:
            assert service.cancel("job-424242") is None

    def test_cancel_racing_a_finishing_job_loses_gracefully(self, small_raw):
        """A cancel that arrives after completion never voids the result."""
        with ExpansionService(max_workers=2) as service:
            service.register_dataset("small", small_raw)
            job = service.submit(ScenarioSpec(dataset=DatasetRef.named("small")))
            envelope = job.wait(300)
            returned = service.cancel(job.job_id)
            assert returned is job
            assert job.status == DONE
            assert job.cancel_requested is False  # terminal: flag is moot
            assert job.wait(1) == envelope  # result still served
            document = job.to_dict()
            assert document["status"] == DONE
            assert document["result_url"].endswith(job.fingerprint)

    def test_cancelled_job_does_not_corrupt_the_stage_cache(self, small_raw, tmp_path):
        """After a cancel, resubmitting the same spec completes cleanly."""
        with ExpansionService(max_workers=1, cache_dir=tmp_path / "cache") as service:
            service.register_dataset("small", small_raw)
            spec = ScenarioSpec(
                dataset=DatasetRef.named("small"),
                overrides={"community.seed": 77},
            )
            blocker = service.submit(
                ScenarioSpec(
                    dataset=DatasetRef.named("small"),
                    overrides={"community.seed": 78},
                )
            )
            victim = service.submit(spec)
            service.cancel(victim.job_id)
            blocker.wait(300)
            with pytest.raises(JobCancelledError):
                victim.wait(300)
            # The fingerprint is free again: a resubmission is a new job
            # (the cancelled one never produced an envelope) and runs to
            # completion over the shared cache.
            envelope = service.run(spec, timeout=300)
            assert envelope["outputs"]["run"]["type"] == "ExpansionResult"

    def test_cancelled_jobs_count_as_terminal_for_retention(self, small_raw):
        with ExpansionService(max_workers=1, retain_jobs=1) as service:
            service.register_dataset("small", small_raw)
            blocker = service.submit(
                ScenarioSpec(
                    dataset=DatasetRef.named("small"),
                    overrides={"community.seed": 51},
                )
            )
            victim = service.submit(
                ScenarioSpec(
                    dataset=DatasetRef.named("small"),
                    overrides={"community.seed": 52},
                )
            )
            service.cancel(victim.job_id)
            blocker.wait(300)
            with pytest.raises(JobCancelledError):
                victim.wait(300)
            # A later submission prunes the cancelled document once the
            # retention budget (1) is exceeded by terminal jobs.
            third = service.submit(
                ScenarioSpec(
                    dataset=DatasetRef.named("small"),
                    overrides={"community.seed": 53},
                )
            )
            third.wait(300)
            service.submit(
                ScenarioSpec(
                    dataset=DatasetRef.named("small"),
                    overrides={"community.seed": 51},
                )
            ).wait(300)
            assert service.jobs_pruned >= 1

    def test_waiters_of_a_shared_job_all_see_cancellation(self, small_raw):
        with ExpansionService(max_workers=1) as service:
            service.register_dataset("small", small_raw)
            blocker = service.submit(
                ScenarioSpec(
                    dataset=DatasetRef.named("small"),
                    overrides={"community.seed": 61},
                )
            )
            spec = ScenarioSpec(
                dataset=DatasetRef.named("small"),
                overrides={"community.seed": 62},
            )
            first = service.submit(spec)
            second = service.submit(spec)  # dedup joins the same job
            assert second is first
            assert first.subscribers == 2
            errors: list[Exception] = []

            def waiter():
                try:
                    first.wait(300)
                except Exception as error:  # noqa: BLE001 - recorded for assert
                    errors.append(error)

            threads = [threading.Thread(target=waiter) for _ in range(2)]
            for thread in threads:
                thread.start()
            service.cancel(first.job_id)
            blocker.wait(300)
            for thread in threads:
                thread.join(300)
            assert len(errors) == 2
            assert all(isinstance(e, JobCancelledError) for e in errors)
