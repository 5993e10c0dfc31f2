"""Benchmark run metadata: every report records the host it ran on."""

import repro.bench as bench


class TestRunMetadata:
    def test_host_shape_and_seed_recorded(self, monkeypatch):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 8)
        metadata = bench.run_metadata()
        assert metadata["cpu_count"] == 8
        assert metadata["seed"] == bench.BENCH_SEED
        assert "python" in metadata

    def test_unknown_cpu_count_treated_as_one(self, monkeypatch):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: None)
        assert bench.run_metadata()["cpu_count"] == 1
