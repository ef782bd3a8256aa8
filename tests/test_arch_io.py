"""Tests for configuration and topology file I/O."""

import pytest

from repro.arch import ArchConfig, clustered_dist, shared_mesh
from repro.arch.io import (
    config_from_json,
    config_to_json,
    load_config,
    load_topology,
    save_config,
    save_topology,
)
from repro.core.errors import SimConfigError
from repro.network.link import LinkSpec
from repro.network.topology import Topology, clustered_mesh, mesh2d


class TestConfigJson:
    def test_roundtrip_default(self):
        cfg = ArchConfig()
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_roundtrip_preset(self):
        cfg = clustered_dist(64, 8).with_drift(500.0)
        back = config_from_json(config_to_json(cfg))
        assert back == cfg
        assert back.drift_bound == 500.0
        assert back.n_clusters == 8

    def test_roundtrip_speed_factors(self):
        cfg = ArchConfig(n_cores=3, speed_factors=[1.0, 2.0, 0.5])
        back = config_from_json(config_to_json(cfg))
        assert list(back.speed_factors) == [1.0, 2.0, 0.5]

    def test_invalid_json(self):
        with pytest.raises(SimConfigError):
            config_from_json("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(SimConfigError):
            config_from_json("[1, 2, 3]")

    def test_unknown_keys_rejected(self):
        with pytest.raises(SimConfigError):
            config_from_json('{"n_cores": 4, "warp_drive": true}')

    @pytest.mark.parametrize("key,value", [
        ("engine_kernel", '"python"'), ("inbox_heap", "false")])
    def test_retired_fields_rejected(self, key, value):
        with pytest.raises(SimConfigError, match=key):
            config_from_json(f'{{"n_cores": 4, "{key}": {value}}}')

    def test_invalid_values_still_validated(self):
        with pytest.raises(SimConfigError):
            config_from_json('{"memory": "quantum"}')

    def test_file_roundtrip(self, tmp_path):
        cfg = shared_mesh(16)
        path = tmp_path / "arch.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_loaded_config_builds(self, tmp_path):
        from repro.arch import build_machine

        path = tmp_path / "arch.json"
        save_config(shared_mesh(4), path)
        machine = build_machine(load_config(path))
        assert machine.n_cores == 4


class TestTopologyFiles:
    def test_mesh_roundtrip(self, tmp_path):
        topo = mesh2d(3, 3)
        path = tmp_path / "mesh.adj"
        save_topology(topo, path)
        back = load_topology(path)
        assert back.n_cores == topo.n_cores
        assert back.n_edges == topo.n_edges
        for u in range(9):
            assert set(back.neighbors(u)) == set(topo.neighbors(u))

    def test_latencies_preserved(self, tmp_path):
        topo = clustered_mesh(16, 4, intra_latency=0.5, inter_latency=4.0)
        path = tmp_path / "clustered.adj"
        save_topology(topo, path)
        back = load_topology(path)
        latencies = {spec.latency for _, _, spec in back.edges()}
        assert latencies == {0.5, 4.0}

    def test_comment_header(self, tmp_path):
        path = tmp_path / "t.adj"
        save_topology(mesh2d(2, 2), path)
        assert path.read_text().startswith("#")

    def test_zero_latency_rejected_on_save(self, tmp_path):
        topo = Topology(2)
        topo.add_link(0, 1, LinkSpec(latency=0.0))
        with pytest.raises(SimConfigError):
            save_topology(topo, tmp_path / "z.adj")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.adj"
        path.write_text("# nothing\n")
        with pytest.raises(SimConfigError):
            load_topology(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "bad.adj"
        path.write_text("0 1\n1 0\n0 1\n")
        with pytest.raises(SimConfigError):
            load_topology(path)

    def test_name_from_stem(self, tmp_path):
        path = tmp_path / "myring.adj"
        save_topology(mesh2d(2, 1), path)
        assert load_topology(path).name == "myring"
