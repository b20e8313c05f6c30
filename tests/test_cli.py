"""Smoke tests of the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestRoute:
    def test_route_prints_path(self, capsys):
        rc = main(
            ["route", "--scheme", "tz2", "--n", "80", "--target", "33"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "route 0 -> 33" in out
        assert "stretch" in out

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["route", "--scheme", "nope"])


class TestValidate:
    def test_validate_ok(self, capsys):
        rc = main(
            ["validate", "--scheme", "warmup3", "--n", "80",
             "--pairs", "60"]
        )
        assert rc == 0
        assert "validation: OK" in capsys.readouterr().out

    def test_thm10_on_geo_rejected(self):
        with pytest.raises(SystemExit):
            main(["validate", "--scheme", "thm10", "--family", "geo"])


class TestTable1:
    def test_table1_runs(self, capsys):
        rc = main(["table1", "--n", "90", "--pairs", "80"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Thm 11" in out

    def test_table1_reports_shared_substrate(self, capsys):
        rc = main(["table1", "--n", "60", "--pairs", "40"])
        assert rc == 0
        assert "substrate" in capsys.readouterr().out


class TestListSchemes:
    def test_lists_every_registered_scheme(self, capsys):
        from repro.api import scheme_names

        rc = main(["list-schemes"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in scheme_names():
            assert name in out
        assert "stretch" in out

    def test_shows_parameter_defaults(self, capsys):
        rc = main(["list-schemes"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eps=0.6" in out  # thm11 default
        assert "k=4" in out      # thm16 / tz4 default


class TestSaveLoad:
    def test_save_then_route(self, capsys, tmp_path):
        path = str(tmp_path / "session")
        rc = main(
            ["shard", "--scheme", "tz2", "--n", "70", "--out", path]
        )
        assert rc == 0
        assert "sharded to" in capsys.readouterr().out

        rc = main(["load", path, "--source", "2", "--target", "41"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loaded TZ 4k-5 (k=2) [tz2]" in out
        assert "route 2 -> 41" in out
        assert "stretch" in out

    def test_save_then_measure(self, capsys, tmp_path):
        path = str(tmp_path / "session")
        assert main(
            ["shard", "--scheme", "warmup3", "--n", "60", "--out", path]
        ) == 0
        capsys.readouterr()
        rc = main(["load", path, "--measure", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "measured 40 pairs" in out
        assert "max stretch" in out

    def test_load_identical_route_decision(self, capsys, tmp_path):
        path = str(tmp_path / "session")
        args = ["--scheme", "thm11", "--n", "70", "--seed", "4"]
        assert main(["shard", *args, "--out", path]) == 0
        capsys.readouterr()
        assert main(["route", *args, "--source", "5", "--target", "33"]) == 0
        built = capsys.readouterr().out.splitlines()[1]
        assert main(["load", path, "--source", "5", "--target", "33"]) == 0
        loaded = capsys.readouterr().out.splitlines()[1]
        assert built == loaded  # same path line, preprocessing skipped

    def test_load_missing_file_rejected(self):
        with pytest.raises(SystemExit, match="cannot load"):
            main(["load", "/nonexistent/session.json"])

    def test_load_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text('{"format": "wrong"}')
        # a regular file is never parsed: the message names the rebuild
        with pytest.raises(SystemExit, match="cannot load.*repro shard"):
            main(["load", str(path)])

    def test_load_measure_below_one_rejected(self, capsys, tmp_path):
        path = str(tmp_path / "session")
        assert main(
            ["shard", "--scheme", "tz2", "--n", "40", "--out", path]
        ) == 0
        capsys.readouterr()
        for k in ("0", "-5"):
            with pytest.raises(SystemExit, match="--measure must be >= 1"):
                main(["load", path, "--measure", k])
        assert "measured" not in capsys.readouterr().out


class TestShard:
    def test_shard_then_route(self, capsys, tmp_path):
        out = str(tmp_path / "shards")
        args = ["--scheme", "thm11", "--n", "80", "--seed", "4"]
        rc = main(["shard", *args, "--out", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "sharded to" in text
        assert "codec v1" in text
        assert "reconciled" in text

        # same pair through a cold build and through the shards: the
        # path lines must match exactly (route prints the hop list)
        assert main(["route", *args, "--source", "5", "--target", "33"]) == 0
        built = capsys.readouterr().out.splitlines()[1]
        rc = main(
            ["route", "--shards", out, "--source", "5", "--target", "33"]
        )
        assert rc == 0
        served = capsys.readouterr().out
        assert built in served
        assert "served from" in served
        assert "shard loads" in served

    def test_shard_dir_loads_via_load(self, capsys, tmp_path):
        out = str(tmp_path / "shards")
        assert main(
            ["shard", "--scheme", "tz2", "--n", "70", "--out", out]
        ) == 0
        capsys.readouterr()
        rc = main(["load", out, "--measure", "30"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "loaded TZ 4k-5 (k=2) [tz2]" in text
        assert "measured 30 pairs" in text

    def test_route_shards_on_bogus_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot serve"):
            main(["route", "--shards", str(tmp_path / "nope")])

    def test_route_shards_rejects_build_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="--scheme"):
            main(
                ["route", "--shards", str(tmp_path), "--scheme", "thm10"]
            )

    def test_shard_pack_then_route(self, capsys, tmp_path):
        import os

        out = str(tmp_path / "replicated")
        args = ["--scheme", "thm11", "--n", "80", "--seed", "4"]
        rc = main(["shard", *args, "--out", out, "--replicas", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "packed group files" in text
        assert "checksummed, x2 replicas" in text
        for r in (0, 1):
            assert os.path.isdir(os.path.join(out, "replica", str(r), "groups"))
        assert not os.path.isdir(os.path.join(out, "groups"))

        # single-copy and replicated packs must print identical route lines
        single = str(tmp_path / "single")
        assert main(["shard", *args, "--out", single]) == 0
        capsys.readouterr()
        assert main(
            ["route", "--shards", single, "--source", "5", "--target", "33"]
        ) == 0
        single_line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("route ")
        )
        assert main(
            ["route", "--shards", out, "--source", "5", "--target", "33"]
        ) == 0
        served = capsys.readouterr().out
        assert single_line in served
        assert "packed layout" in served
        assert "wire headers" in served

    def test_packed_dir_loads_via_load(self, capsys, tmp_path):
        out = str(tmp_path / "replicated")
        assert main(
            ["shard", "--scheme", "tz2", "--n", "70", "--out", out,
             "--replicas", "2"]
        ) == 0
        capsys.readouterr()
        rc = main(["load", out, "--measure", "30"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "loaded TZ 4k-5 (k=2) [tz2]" in text
        assert "measured 30 pairs" in text

    def test_reshard_pack_removes_stale_per_file_layout(
        self, capsys, tmp_path
    ):
        import json
        import os

        # a directory left by a release that wrote one file per vertex
        out = tmp_path / "shards"
        os.makedirs(out / "shards" / "0000")
        (out / "shards" / "0000" / "0.shard").write_bytes(b"RT\x01\x00")
        (out / "manifest.json").write_text(json.dumps({
            "format": "repro.routing.shards", "version": 1,
            "layout": "files", "fanout": 256, "n": 1,
            "spec": "tz2", "scheme": "X",
        }))
        assert main(
            ["shard", "--scheme", "tz2", "--n", "60", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        # the per-file tree is gone; the packed layout serves
        assert not os.path.isdir(out / "shards")
        assert main(["load", str(out), "--measure", "20"]) == 0

    def test_reshard_removes_stale_shards(self, capsys, tmp_path):
        import os

        out = str(tmp_path / "shards")
        assert main(
            ["shard", "--scheme", "tz2", "--n", "90", "--out", out,
             "--replicas", "2"]
        ) == 0
        assert main(
            ["shard", "--scheme", "tz2", "--n", "40", "--out", out]
        ) == 0
        capsys.readouterr()
        # no orphans from the replicated n=90 run
        assert not os.path.isdir(os.path.join(out, "replica"))
        assert sorted(os.listdir(out)) == ["groups", "manifest.json"]
        assert os.listdir(os.path.join(out, "groups")) == ["0000.pack"]
        assert main(["load", out, "--measure", "20"]) == 0


class TestShardVerify:
    def test_verify_names_the_corrupt_replica(self, capsys, tmp_path):
        import os

        out = str(tmp_path / "replicated")
        assert main(
            ["shard", "--scheme", "tz2", "--n", "70", "--out", out,
             "--replicas", "2"]
        ) == 0
        capsys.readouterr()
        assert main(["shard", "--verify", out]) == 0
        assert "2/2 units intact" in capsys.readouterr().out

        pack = os.path.join(out, "replica", "1", "groups", "0000.pack")
        with open(pack, "rb") as fh:
            buf = bytearray(fh.read())
        buf[-1] ^= 0x01  # the last payload byte
        with open(pack, "wb") as fh:
            fh.write(bytes(buf))
        assert main(["shard", "--verify", out]) == 1
        text = capsys.readouterr().out
        assert "1/2 units intact" in text
        assert "CORRUPT group 0000 replica 1" in text
        assert "replica 0:" not in text

    def test_corrupt_pack_mid_route_exits_cleanly(self, capsys, tmp_path):
        import os

        out = str(tmp_path / "shards")
        assert main(
            ["shard", "--scheme", "tz2", "--n", "70", "--out", out]
        ) == 0
        capsys.readouterr()
        pack = os.path.join(out, "groups", "0000.pack")
        with open(pack, "rb") as fh:
            buf = bytearray(fh.read())
        buf[-1] ^= 0x01  # the last payload byte: vertex 69's shard
        with open(pack, "wb") as fh:
            fh.write(bytes(buf))
        # the store opens fine; the checksum failure surfaces mid-route
        for argv in (
            ["route", "--shards", out, "--source", "69", "--target", "5"],
            ["load", out, "--source", "69", "--target", "5"],
            ["load", out, "--measure", "30"],
        ):
            with pytest.raises(SystemExit, match="cannot serve from"):
                main(argv)

    def test_replicas_below_one_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--replicas"):
            main(["shard", "--scheme", "tz2", "--n", "40",
                  "--out", str(tmp_path / "x"), "--replicas", "0"])


class TestPresets:
    def test_family_preset_applied_automatically(self, capsys):
        rc = main(
            ["route", "--scheme", "warmup3", "--family", "grid",
             "--n", "64", "--target", "21"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[preset grid: alpha=1.5]" in out

    def test_preset_none_disables(self, capsys):
        rc = main(
            ["route", "--scheme", "warmup3", "--family", "grid",
             "--n", "64", "--target", "21", "--preset", "none"]
        )
        assert rc == 0
        assert "[preset" not in capsys.readouterr().out

    def test_er_preset_is_silent_noop(self, capsys):
        rc = main(
            ["route", "--scheme", "warmup3", "--n", "60", "--target", "9"]
        )
        assert rc == 0
        assert "[preset" not in capsys.readouterr().out

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit, match="unknown preset"):
            main(
                ["route", "--scheme", "warmup3", "--n", "60",
                 "--preset", "torus"]
            )

    def test_table1_applies_family_preset(self, capsys):
        rc = main(["table1", "--family", "grid", "--n", "49",
                   "--pairs", "30"])
        assert rc == 0
        assert "[preset grid]" in capsys.readouterr().out

    def test_table1_preset_none_and_unknown(self, capsys):
        rc = main(["table1", "--family", "grid", "--n", "49",
                   "--pairs", "30", "--preset", "none"])
        assert rc == 0
        assert "[preset" not in capsys.readouterr().out
        with pytest.raises(SystemExit, match="unknown preset"):
            main(["table1", "--n", "49", "--pairs", "30",
                  "--preset", "torus"])
