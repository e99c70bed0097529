"""DatasetStore: naming, digests, overwrite/eviction, service wiring."""

import json

import pytest

from repro.data import MobyDataset
from repro.exceptions import ServiceError
from repro.pipeline.fingerprint import dataset_digest
from repro.service import DatasetRef, DatasetStore, ExpansionService, ScenarioSpec
from repro.service.datasets import check_dataset_name


def tiny_dataset(n_rentals: int, seed: int = 0) -> MobyDataset:
    """A minimal dataset whose serialised size scales with ``n_rentals``."""
    from datetime import datetime, timedelta

    from repro.data.records import LocationRecord, RentalRecord

    locations = [
        LocationRecord(location_id=i, lat=53.3 + i * 1e-3, lon=-6.2, is_station=True, name=f"s{i}")
        for i in range(1, 4)
    ]
    start = datetime(2021, 7, 1, 8, 0, 0)
    rentals = [
        RentalRecord(
            rental_id=seed * 100_000 + i,
            bike_id=i % 7,
            started_at=start + timedelta(minutes=i),
            ended_at=start + timedelta(minutes=i + 9),
            rental_location_id=1 + (i % 3),
            return_location_id=1 + ((i + 1) % 3),
        )
        for i in range(n_rentals)
    ]
    return MobyDataset.from_records(locations, rentals)


class TestNames:
    def test_accepts_reasonable_names(self):
        for name in ("dublin", "q1-2024", "a.b_c-7", "X" * 64):
            assert check_dataset_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "../etc", "a/b", "a b", ".hidden", "-lead", "x" * 65, 7]
    )
    def test_rejects_path_hostile_names(self, name):
        with pytest.raises(ServiceError):
            check_dataset_name(name)


class TestRoundTrip:
    @pytest.mark.parametrize("disk", [False, True])
    def test_put_get_meta_delete(self, disk, tmp_path):
        store = DatasetStore(tmp_path / "ds" if disk else None)
        dataset = tiny_dataset(50)
        meta = store.put("tiny", dataset)
        assert meta["digest"] == dataset_digest(dataset)
        assert meta["n_rentals"] == 50 and meta["bytes"] > 0
        assert store.digest("tiny") == meta["digest"]
        back = store.get("tiny")
        assert dataset_digest(back) == meta["digest"]
        assert [m["name"] for m in store.list()] == ["tiny"]
        assert "tiny" in store and len(store) == 1
        assert store.delete("tiny") is True
        assert store.delete("tiny") is False
        assert store.get("tiny") is None and store.digest("tiny") is None

    def test_disk_store_is_a_csv_dataset_directory(self, tmp_path):
        """A stored dataset doubles as a ``repro run --data`` input."""
        store = DatasetStore(tmp_path)
        dataset = tiny_dataset(20)
        store.put("tiny", dataset)
        loaded = MobyDataset.from_csv(tmp_path / "tiny")
        assert dataset_digest(loaded) == dataset_digest(dataset)

    def test_restart_adopts_existing_datasets(self, tmp_path):
        first = DatasetStore(tmp_path)
        meta = first.put("persisted", tiny_dataset(30))
        second = DatasetStore(tmp_path)
        assert second.digest("persisted") == meta["digest"]
        assert dataset_digest(second.get("persisted")) == meta["digest"]

    def test_restart_ignores_partial_directories(self, tmp_path):
        (tmp_path / "broken").mkdir()
        (tmp_path / "broken" / "meta.json").write_text("{not json")
        (tmp_path / "foreign").mkdir()
        store = DatasetStore(tmp_path)
        assert len(store) == 0


class TestOverwrite:
    @pytest.mark.parametrize("disk", [False, True])
    def test_overwrite_replaces_content_and_digest(self, disk, tmp_path):
        store = DatasetStore(tmp_path / "ds" if disk else None)
        old_meta = store.put("city", tiny_dataset(10, seed=1))
        new = tiny_dataset(25, seed=2)
        new_meta = store.put("city", new)
        assert new_meta["digest"] != old_meta["digest"]
        assert new_meta["bytes"] != old_meta["bytes"]
        assert len(store) == 1
        assert dataset_digest(store.get("city")) == new_meta["digest"]


class TestCaps:
    def test_oversized_upload_rejected_store_unchanged(self, tmp_path):
        store = DatasetStore(tmp_path, max_dataset_bytes=512)
        with pytest.raises(ServiceError, match="cap"):
            store.put("big", tiny_dataset(200))
        assert len(store) == 0
        assert not (tmp_path / "big").exists()

    def test_count_cap_evicts_least_recently_used(self):
        store = DatasetStore(max_datasets=2)
        store.put("a", tiny_dataset(5, seed=1))
        store.put("b", tiny_dataset(5, seed=2))
        store.get("a")  # refresh: b is now the LRU entry
        store.put("c", tiny_dataset(5, seed=3))
        assert sorted(m["name"] for m in store.list()) == ["a", "c"]
        assert store.evictions == 1

    def test_byte_cap_evicts_until_it_fits(self, tmp_path):
        store = DatasetStore(tmp_path)
        small = tiny_dataset(10, seed=1)
        meta = store.put("first", small)
        store.max_total_bytes = meta["bytes"] * 2 + 10
        store.put("second", tiny_dataset(10, seed=2))
        store.put("third", tiny_dataset(10, seed=3))  # pushes `first` out
        assert sorted(m["name"] for m in store.list()) == ["second", "third"]
        assert not (tmp_path / "first").exists()
        assert store.total_bytes() <= store.max_total_bytes

    def test_upload_larger_than_total_cap_rejected(self):
        store = DatasetStore(max_total_bytes=64)
        with pytest.raises(ServiceError, match="capped"):
            store.put("big", tiny_dataset(100))


class TestJsonPayload:
    def test_to_dict_roundtrips_through_json(self):
        dataset = tiny_dataset(15)
        payload = json.loads(json.dumps(dataset.to_dict()))
        back = MobyDataset.from_dict(payload)
        assert dataset_digest(back) == dataset_digest(dataset)

    def test_none_cells_survive(self):
        from datetime import datetime

        from repro.data.records import LocationRecord, RentalRecord

        dataset = MobyDataset.from_records(
            [LocationRecord(location_id=1, lat=None, lon=None)],
            [
                RentalRecord(
                    rental_id=1,
                    bike_id=1,
                    started_at=datetime(2021, 7, 1),
                    ended_at=datetime(2021, 7, 1, 1),
                    rental_location_id=None,
                    return_location_id=None,
                )
            ],
        )
        back = MobyDataset.from_dict(dataset.to_dict())
        assert dataset_digest(back) == dataset_digest(dataset)

    @pytest.mark.parametrize(
        "payload",
        [
            "rows",
            {"type": "ScenarioSpec"},
            {"locations": [[1, 2]]},
            {"rentals": [[1]]},
            {"rentals": [[1, 1, "not-a-date", "2021-07-01", None, None]]},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises((TypeError, ValueError)):
            MobyDataset.from_dict(payload)


class TestServiceIntegration:
    def test_register_returns_meta_and_resolves(self, small_raw):
        with ExpansionService() as service:
            meta = service.register_dataset("small", small_raw)
            assert meta["digest"] == dataset_digest(small_raw)
            spec = ScenarioSpec(dataset=DatasetRef.named("small"))
            raw, digest = service._resolve_ref(spec.dataset)
            assert digest == meta["digest"]

    def test_overwrite_moves_spec_fingerprints(self):
        with ExpansionService() as service:
            service.register_dataset("city", tiny_dataset(10, seed=1))
            spec = ScenarioSpec(dataset=DatasetRef.named("city"))
            _, digest_a = service._resolve_ref(spec.dataset)
            fp_a = spec.fingerprint(digest_a)
            service.register_dataset("city", tiny_dataset(10, seed=2))
            _, digest_b = service._resolve_ref(spec.dataset)
            assert digest_b != digest_a
            assert spec.fingerprint(digest_b) != fp_a

    @pytest.mark.parametrize("change", ["append", "overwrite", "delete"])
    def test_superseded_rows_leave_the_memo(self, change):
        from datetime import datetime

        from repro.data.records import RentalRecord

        with ExpansionService() as service:
            service.register_dataset("city", tiny_dataset(10, seed=1))
            service.register_dataset("other", tiny_dataset(10, seed=3))
            city = DatasetRef.named("city")
            _, old = service._resolve_ref(city)
            _, other = service._resolve_ref(DatasetRef.named("other"))
            if change == "append":
                start = datetime(2021, 7, 2, 8, 0, 0)
                new = service.append_dataset(
                    "city",
                    [RentalRecord(500_000, 1, start, start, 1, 2)],
                )["digest"]
            elif change == "overwrite":
                new = service.register_dataset(
                    "city", tiny_dataset(10, seed=2)
                )["digest"]
            else:
                assert service.delete_dataset("city") is True
            memo = list(service._datasets)
            assert ("named", "city", old) not in memo
            assert ("named", "other", other) in memo
            if change == "delete":
                with pytest.raises(ServiceError):
                    service._resolve_ref(city)
            else:
                assert new != old
                assert service._resolve_ref(city)[1] == new

    def test_deleted_dataset_fails_submission(self, small_raw):
        with ExpansionService() as service:
            service.register_dataset("small", small_raw)
            assert service.delete_dataset("small") is True
            with pytest.raises(ServiceError):
                service.submit(ScenarioSpec(dataset=DatasetRef.named("small")))

    def test_healthz_counts_datasets(self, small_raw):
        with ExpansionService() as service:
            service.register_dataset("small", small_raw)
            stats = service.stats()
            assert stats["datasets"]["stored"] == 1
            assert stats["datasets"]["bytes"] > 0


class TestConcurrentOverwrite:
    @pytest.mark.parametrize("disk", [False, True])
    def test_resolved_pairs_stay_consistent_under_overwrites(self, disk, tmp_path):
        """(rows, digest) handed out while a writer hammers the name must
        always be mutually consistent — never new rows with an old
        digest, never a torn locations/rentals pair."""
        import threading

        store = DatasetStore(tmp_path / "ds" if disk else None)
        versions = [tiny_dataset(12, seed=s) for s in range(4)]
        digests = {dataset_digest(d) for d in versions}
        store.put("city", versions[0])
        stop = threading.Event()
        mismatches: list[str] = []

        def writer():
            i = 0
            while not stop.is_set():
                store.put("city", versions[i % len(versions)])
                i += 1

        def reader():
            while not stop.is_set():
                resolved = store.get_with_digest("city")
                if resolved is None:
                    continue
                rows, digest = resolved
                if digest not in digests or dataset_digest(rows) != digest:
                    mismatches.append(digest)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join(30)
        assert not mismatches


class TestDatasetSweep:
    """sweep_datasets: one spec, one envelope, a dataset axis."""

    def test_spec_validation(self):
        spec = ScenarioSpec(outputs=("sweep",), sweep_datasets=("a", "b"))
        assert spec.sweep_datasets == ("a", "b")
        with pytest.raises(ServiceError, match="exactly"):
            ScenarioSpec(outputs=("run",), sweep_datasets=("a",))
        with pytest.raises(ServiceError, match="repeat"):
            ScenarioSpec(outputs=("sweep",), sweep_datasets=("a", "a"))
        with pytest.raises(ServiceError, match="dataset name"):
            ScenarioSpec(outputs=("sweep",), sweep_datasets=("../etc",))
        back = ScenarioSpec.from_dict(spec.to_dict())
        assert back == spec

    def test_fingerprint_tracks_content_not_base_ref(self):
        spec_a = ScenarioSpec(outputs=("sweep",), sweep_datasets=("a", "b"))
        spec_b = ScenarioSpec(
            dataset=DatasetRef.synthetic(99),  # ignored: no base dataset
            outputs=("sweep",),
            sweep_datasets=("a", "b"),
        )
        pairs = (("a", "x" * 64), ("b", "y" * 64))
        assert spec_a.fingerprint("", sweep_dataset_digests=pairs) == (
            spec_b.fingerprint("", sweep_dataset_digests=pairs)
        )
        moved = (("a", "x" * 64), ("b", "z" * 64))
        assert spec_a.fingerprint("", sweep_dataset_digests=pairs) != (
            spec_a.fingerprint("", sweep_dataset_digests=moved)
        )
        with pytest.raises(ServiceError, match="name-for-name"):
            spec_a.fingerprint("", sweep_dataset_digests=(("b", "q"),))

    def test_sweep_over_named_datasets_produces_one_envelope(self):
        with ExpansionService() as service:
            service.register_dataset("city-a", tiny_dataset(40, seed=1))
            service.register_dataset("city-b", tiny_dataset(40, seed=2))
            spec = ScenarioSpec(
                outputs=("sweep",), sweep_datasets=("city-a", "city-b")
            )
            envelope = service.run(spec, timeout=300)
            sweep = envelope["outputs"]["sweep"]
            assert [d["name"] for d in sweep["datasets"]] == [
                "city-a", "city-b",
            ]
            assert envelope["dataset_digests"] == {
                d["name"]: d["digest"] for d in sweep["datasets"]
            }
            assert "dataset_digest" not in envelope
            assert [s["dataset"] for s in sweep["scenarios"]] == [
                "city-a", "city-b",
            ]
            assert all(
                s["label"].startswith("dataset=") for s in sweep["scenarios"]
            )
            # Children are complete, individually addressable run
            # envelopes under the equivalent run-spec fingerprint.
            for scenario, name in zip(sweep["scenarios"], ("city-a", "city-b")):
                child = service.results.get(scenario["fingerprint"])
                assert child["spec"]["dataset"] == {
                    "kind": "named", "name": name,
                }
                assert child["outputs"]["run"]["headline"] == (
                    scenario["headline"]
                )
            # Resubmission is served from the results store, no compute.
            executions = service.pipeline_executions
            assert service.run(spec, timeout=300) == envelope
            assert service.pipeline_executions == executions

    def test_dataset_axis_crosses_config_axes(self):
        with ExpansionService() as service:
            service.register_dataset("city-a", tiny_dataset(40, seed=1))
            service.register_dataset("city-b", tiny_dataset(40, seed=2))
            envelope = service.run(
                ScenarioSpec(
                    outputs=("sweep",),
                    sweep_axes={"temporal.coupling": [0.05, 0.25]},
                    sweep_datasets=("city-a", "city-b"),
                ),
                timeout=300,
            )
            scenarios = envelope["outputs"]["sweep"]["scenarios"]
            assert len(scenarios) == 4  # 2 datasets x 2 coupling values
            assert {
                (s["dataset"], s["overrides"]["temporal.coupling"])
                for s in scenarios
            } == {
                ("city-a", 0.05), ("city-a", 0.25),
                ("city-b", 0.05), ("city-b", 0.25),
            }

    def test_overwriting_a_swept_dataset_moves_the_fingerprint(self):
        with ExpansionService() as service:
            service.register_dataset("city", tiny_dataset(30, seed=1))
            spec = ScenarioSpec(outputs=("sweep",), sweep_datasets=("city",))
            first = service.submit(spec)
            first.wait(timeout=300)
            service.register_dataset("city", tiny_dataset(30, seed=2))
            second = service.submit(spec)
            second.wait(timeout=300)
            assert first.fingerprint != second.fingerprint

    def test_unknown_swept_dataset_rejected_at_submit(self):
        with ExpansionService() as service:
            with pytest.raises(ServiceError, match="nope"):
                service.submit(
                    ScenarioSpec(outputs=("sweep",), sweep_datasets=("nope",))
                )
