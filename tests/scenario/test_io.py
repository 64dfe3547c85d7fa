"""Config/result persistence."""

import csv

import pytest

from repro.core import ConfigurationError
from repro.scenario import ScenarioConfig, run_replications, run_sweep
from repro.scenario.io import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    summaries_to_csv,
    sweep_to_csv,
)

SMALL = dict(
    n_nodes=8, field_size=(500.0, 300.0), duration=15.0,
    n_connections=2, traffic_start_window=(0.0, 3.0),
)


class TestConfigRoundtrip:
    def test_dict_roundtrip_identity(self):
        cfg = ScenarioConfig(protocol="dsr", pause_time=30.0, trace=("route",))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = ScenarioConfig(protocol="cbrp", n_nodes=17, seed=99)
        path = tmp_path / "scenario.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"protocoll": "aodv"})

    def test_loaded_config_reproduces_run(self, tmp_path):
        from repro.scenario import run_scenario

        cfg = ScenarioConfig(protocol="aodv", seed=5, **SMALL)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        a = run_scenario(cfg)
        b = run_scenario(load_config(path))
        assert a.data_received == b.data_received
        assert a.avg_delay == b.avg_delay


class TestCsvExport:
    def test_summaries_csv(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 2)
        path = tmp_path / "out.csv"
        summaries_to_csv(summaries, path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 2
        assert rows[0]["protocol"] == "aodv"
        assert float(rows[0]["pdr"]) <= 1.0

    def test_extra_columns(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 2)
        path = tmp_path / "out.csv"
        summaries_to_csv(summaries, path, extra={"label": ["a", "b"]})
        rows = list(csv.DictReader(open(path)))
        assert [r["label"] for r in rows] == ["a", "b"]

    def test_extra_length_mismatch(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 2)
        with pytest.raises(ConfigurationError):
            summaries_to_csv(summaries, tmp_path / "x.csv", extra={"label": ["a"]})

    def test_sweep_csv(self, tmp_path):
        base = ScenarioConfig(seed=3, **SMALL)
        result = run_sweep(base, "pause_time", [0.0, 10.0], ["aodv"],
                           replications=2, processes=1)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(result, path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 4  # 2 values x 2 replications
        assert {r["pause_time"] for r in rows} == {"0.0", "10.0"}
        assert {r["replication"] for r in rows} == {"0", "1"}

    def test_perf_columns_off_by_default(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 1)
        path = tmp_path / "plain.csv"
        summaries_to_csv(summaries, path)
        header = path.read_text().splitlines()[0]
        assert "perf_" not in header
        assert "profile_" not in header

    def test_perf_columns_opt_in(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 2)
        path = tmp_path / "perf.csv"
        summaries_to_csv(summaries, path, include_perf=True)
        rows = list(csv.DictReader(open(path)))
        assert "perf_fanout_cache_hits" in rows[0]
        assert int(rows[0]["perf_fanout_cache_hits"]) > 0
        # Registry order is preserved in the header.
        header = path.read_text().splitlines()[0].split(",")
        hits = header.index("perf_fanout_cache_hits")
        misses = header.index("perf_fanout_cache_misses")
        assert hits < misses

    def test_profile_columns_appear_for_profiled_runs(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, profile=True, **SMALL)
        summaries = run_replications(cfg, 1)
        path = tmp_path / "prof.csv"
        summaries_to_csv(summaries, path, include_perf=True)
        header = path.read_text().splitlines()[0].split(",")
        prof_cols = [c for c in header if c.startswith("profile_")]
        assert "profile_event-loop_s" in prof_cols
        rows = list(csv.DictReader(open(path)))
        assert float(rows[0]["profile_event-loop_s"]) > 0.0

    def test_sweep_csv_perf_flag(self, tmp_path):
        base = ScenarioConfig(seed=3, **SMALL)
        result = run_sweep(base, "pause_time", [0.0], ["aodv"],
                           replications=1, processes=1)
        path = tmp_path / "sweep_perf.csv"
        sweep_to_csv(result, path, include_perf=True)
        header = path.read_text().splitlines()[0]
        assert "perf_fanout_cache_hits" in header

    def test_drops_columns_off_by_default(self, tmp_path):
        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        summaries = run_replications(cfg, 1)
        path = tmp_path / "plain.csv"
        summaries_to_csv(summaries, path)
        assert "drop_" not in path.read_text().splitlines()[0]

    def test_drops_columns_opt_in(self, tmp_path):
        import dataclasses

        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        a, b = run_replications(cfg, 2)
        # Pin a deterministic taxonomy: columns are the sorted union
        # across rows, and rows missing a reason read as zero.
        a = dataclasses.replace(a, drops_by_reason={"no_route": 3})
        b = dataclasses.replace(b, drops_by_reason={"ifq_full": 2})
        path = tmp_path / "drops.csv"
        summaries_to_csv([a, b], path, include_drops=True)
        rows = list(csv.DictReader(open(path)))
        assert [r["drop_no_route"] for r in rows] == ["3", "0"]
        assert [r["drop_ifq_full"] for r in rows] == ["0", "2"]
        header = path.read_text().splitlines()[0].split(",")
        drop_cols = [c for c in header if c.startswith("drop_")]
        assert drop_cols == sorted(drop_cols)

    def test_drops_columns_tolerate_old_pickles(self, tmp_path):
        # Summaries unpickled from a pre-taxonomy cache have no
        # drops_by_reason attribute at all; the exporter treats them
        # as all-zero rather than crashing the whole export.
        class Legacy:
            def __init__(self, summary):
                for col in ("protocol", "duration", "data_sent",
                            "data_received", "pdr", "avg_delay"):
                    setattr(self, col, getattr(summary, col))

            def __getattr__(self, name):
                if name == "drops_by_reason":
                    raise AttributeError(name)
                return 0

        import dataclasses

        cfg = ScenarioConfig(protocol="aodv", seed=2, **SMALL)
        (modern,) = run_replications(cfg, 1)
        modern = dataclasses.replace(
            modern, drops_by_reason={"link_lost": 1}
        )
        path = tmp_path / "mixed.csv"
        summaries_to_csv([modern, Legacy(modern)], path, include_drops=True)
        rows = list(csv.DictReader(open(path)))
        assert [r["drop_link_lost"] for r in rows] == ["1", "0"]

    def test_sweep_csv_drops_flag(self, tmp_path):
        base = ScenarioConfig(seed=3, **SMALL)
        result = run_sweep(base, "pause_time", [0.0], ["aodv"],
                           replications=1, processes=1)
        plain = tmp_path / "sweep_plain.csv"
        sweep_to_csv(result, plain)
        assert "drop_" not in plain.read_text().splitlines()[0]
        opted = tmp_path / "sweep_drops.csv"
        sweep_to_csv(result, opted, include_drops=True)
        rows = list(csv.DictReader(open(opted)))
        # Columns appear iff some row recorded that reason; every cell
        # is a parseable count either way.
        for row in rows:
            for col, value in row.items():
                if col.startswith("drop_"):
                    assert int(value) >= 0
