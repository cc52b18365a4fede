import configparser
import csv
import os
import threading

import numpy as np
import pytest

from flowdpp import cli, fileio, sim
from flowdpp.cli import main
from flowdpp.config import ConfigError, RunConfig, load_config, parse_config, save_config
from flowdpp.detection import ConfidenceGrid
from flowdpp.policies import PolicyKind, make_policy
from flowdpp.sim import GPU_LATENCY


BASIC_CONFIG = """\
[run]
policy = dpp

[scenario]
horizon = 80
seed = 3
flow_rows = 16
flow_cols = 16
grid_rows = 4
grid_cols = 4

[controller]
tie_break = T
"""


def write_config(tmp_path, text=BASIC_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestFlo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        flow = rng.standard_normal((6, 9, 2)).astype(np.float32)
        path = tmp_path / "field.flo"
        fileio.write_flo(path, flow)
        back = fileio.read_flo(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, flow)
        fileio.write_flo(tmp_path / "copy.flo", back)
        assert (tmp_path / "copy.flo").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            fileio.read_flo(path)

    def test_truncated_payload(self, tmp_path):
        flow = np.ones((4, 4, 2), dtype=np.float32)
        path = tmp_path / "trunc.flo"
        fileio.write_flo(path, flow)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            fileio.read_flo(path)

    def test_reads_into_one_writable_array(self, tmp_path):
        flow = np.random.default_rng(1).standard_normal((375, 1242, 2)).astype(np.float32)
        path = tmp_path / "camera.flo"
        fileio.write_flo(path, flow)
        back = fileio.read_flo(path)
        assert back.dtype == np.float32 and back.shape == flow.shape
        assert back.flags.writeable and back.flags.c_contiguous and back.flags.owndata
        assert np.array_equal(back, flow)
        for cut in (1, 8, flow.nbytes):
            path.write_bytes(path.read_bytes()[:-cut] if cut < flow.nbytes else path.read_bytes()[:12])
            with pytest.raises(ValueError, match="truncated .flo payload"):
                fileio.read_flo(path)

    def test_header_larger_than_file(self, tmp_path):
        path = tmp_path / "huge.flo"
        path.write_bytes(fileio.FLO_MAGIC.tobytes() + np.array([2**31 - 1] * 2, dtype="<i4").tobytes()
                         + b"\x00" * 64)
        with pytest.raises(ValueError, match="truncated .flo payload"):
            fileio.read_flo(path)

    # a file shorter than the header, cut inside the magic, the width or the
    # height: the error names the file, as every other .flo error does
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 6, 7, 9, 10, 11])
    def test_short_header(self, tmp_path, capsys, size):
        path = tmp_path / "short.flo"
        fileio.write_flo(path, np.ones((2, 3, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:size])
        error = "not a .flo file (bad magic)" if size < 4 else "truncated or invalid .flo header"
        with pytest.raises(ValueError) as info:
            fileio.read_flo(path)
        assert str(info.value) == f"{path}: {error}"
        assert main(["process-flow", str(path), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {error}\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_through_a_named_pipe(self, tmp_path):
        # a pipe has no size to check up front; the payload is larger than
        # the pipe buffer, so it arrives in several chunks
        flow = np.random.default_rng(2).standard_normal((375, 1242, 2)).astype(np.float32)
        fileio.write_flo(tmp_path / "camera.flo", flow)
        payload = (tmp_path / "camera.flo").read_bytes()
        for data, error in ((payload, None), (payload[:-8], "truncated .flo payload")):
            pipe = tmp_path / "pipe.flo"
            os.mkfifo(pipe)
            writer = threading.Thread(target=pipe.write_bytes, args=(data,))
            writer.start()
            try:
                if error is None:
                    assert np.array_equal(fileio.read_flo(pipe), flow)
                else:
                    with pytest.raises(ValueError, match=error):
                        fileio.read_flo(pipe)
            finally:
                writer.join()
                pipe.unlink()

    def test_magnitude(self):
        flow = np.zeros((1, 2, 2))
        flow[0, 0] = (3.0, 4.0)
        np.testing.assert_allclose(fileio.flow_magnitude(flow), [[5.0, 0.0]])


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((3, 5))
        path = tmp_path / "m.csv"
        fileio.write_matrix_csv(path, arr)
        np.testing.assert_array_equal(fileio.read_matrix_csv(path), arr)

    def test_load_flow_map_dispatch(self, tmp_path):
        # a .flo file loads as its float32 field, which process takes as
        # its magnitude map; a CSV loads as a float64 matrix
        flow = np.zeros((2, 2, 2), dtype=np.float32)
        flow[..., 0] = 1.5
        fileio.write_flo(tmp_path / "f.flo", flow)
        field = fileio.load_flow_map(tmp_path / "f.flo")
        assert field.dtype == np.float32 and np.array_equal(field, flow)
        np.testing.assert_allclose(fileio.flow_magnitude(field), 1.5)
        fileio.write_matrix_csv(tmp_path / "f.csv", fileio.flow_magnitude(field))
        matrix = fileio.load_flow_map(tmp_path / "f.csv")
        assert matrix.dtype == np.float64 and np.array_equal(matrix, np.full((2, 2), 1.5))


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        conf = rng.random((2, 3, 2))
        boxes = rng.random((2, 3, 2, 4))
        from flowdpp.detection import ConfidenceGrid

        grid = ConfidenceGrid(conf, boxes)
        path = tmp_path / "grid.csv"
        fileio.save_grid_csv(path, grid)
        back = fileio.load_grid_csv(path)
        np.testing.assert_array_equal(back.conf, grid.conf)
        np.testing.assert_array_equal(back.boxes, grid.boxes)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            fileio.load_grid_csv(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        # a repeated (i, j, k) would otherwise silently replace the first entry
        path = tmp_path / "grid.csv"
        path.write_text(",".join(fileio.GRID_HEADER) + "\n0,0,0,0.9,1,1,2,2\n"
                        "0,1,0,0.5,1,1,2,2\n0,0,0,0.2,1,1,2,2\n")
        with pytest.raises(ValueError, match=r"grid\.csv: line 4: duplicate entry i, j, k = \(0, 0, 0\)"):
            fileio.load_grid_csv(path)


class TestConfig:
    def test_parse_basic(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.policy is PolicyKind.DPP
        assert cfg.scenario.horizon == 80
        assert cfg.scenario.seed == 3
        assert cfg.controller.tie_break.value == "T"

    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        out = tmp_path / "saved.ini"
        save_config(cfg, out)
        assert load_config(out) == cfg

    def test_defaults_round_trip(self, tmp_path):
        out = tmp_path / "defaults.ini"
        save_config(RunConfig(), out)
        assert load_config(out) == RunConfig()

    def test_unknown_key_reports_location(self):
        parser = configparser.ConfigParser()
        parser.read_string("[scenario]\nbogus_knob = 1\n")
        with pytest.raises(ConfigError, match=r"\[scenario\] bogus_knob"):
            parse_config(parser, source="test.ini")

    def test_unknown_section_rejected(self):
        parser = configparser.ConfigParser()
        parser.read_string("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"\[mystery\]"):
            parse_config(parser)

    def test_bad_value_reports_location(self):
        parser = configparser.ConfigParser()
        parser.read_string("[scenario]\nhorizon = soon\n")
        with pytest.raises(ConfigError, match=r"\[scenario\] horizon"):
            parse_config(parser)

    def test_latency_profile_shorthand(self):
        parser = configparser.ConfigParser()
        parser.read_string("[scenario]\nlatency_profile = gpu\n")
        cfg = parse_config(parser)
        assert cfg.scenario.base_latency_h == GPU_LATENCY[0]
        assert cfg.scenario.base_latency_t == GPU_LATENCY[1]

    def test_invalid_latency_profile(self):
        parser = configparser.ConfigParser()
        parser.read_string("[scenario]\nlatency_profile = tpu\n")
        with pytest.raises(ConfigError, match="latency_profile"):
            parse_config(parser)

    @pytest.mark.parametrize("key", ["base_latency_h", "base_latency_t"])
    @pytest.mark.parametrize("profile_first", [True, False])
    def test_latency_profile_excludes_base_latency(self, tmp_path, capsys, key, profile_first):
        # either order would otherwise let one key silently override the other
        lines = ["latency_profile = gpu", f"{key} = 0.2"]
        if not profile_first:
            lines.reverse()
        text = "[scenario]\n" + "\n".join(lines) + "\n"
        parser = configparser.ConfigParser()
        parser.read_string(text)
        with pytest.raises(ConfigError, match=rf"\[scenario\] latency_profile: .*{key}"):
            parse_config(parser, source="test.ini")
        cfg_path = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "latency_profile" in err and key in err
        assert not (tmp_path / "o").exists()


class TestProcessFlowCommand:
    def test_csv_input_worked_example(self, tmp_path, capsys):
        src = tmp_path / "flow.csv"
        src.write_text("1,3\n5,7\n")
        out = tmp_path / "thresholds.csv"
        rc = main(["process-flow", str(src), "--grid", "2x2", "--k", "1", "--out", str(out)])
        assert rc == 0
        values = [float(line) for line in out.read_text().splitlines()]
        np.testing.assert_allclose(
            values, [0.064766, 0.094068, 0.094068, 0.064766], atol=1e-5
        )
        assert "n=4" in capsys.readouterr().out

    def test_flo_input_constant_field(self, tmp_path):
        flow = np.zeros((8, 8, 2), dtype=np.float32)
        flow[..., 0] = 2.0
        src = tmp_path / "flow.flo"
        fileio.write_flo(src, flow)
        out = tmp_path / "t.csv"
        assert main(["process-flow", str(src), "--grid", "4x4", "--k", "2", "--out", str(out)]) == 0
        values = [float(line) for line in out.read_text().splitlines()]
        assert len(values) == 32
        np.testing.assert_allclose(values, 0.5 / (1 + np.e))

    @pytest.mark.parametrize("suffix", [".FLO", ".Flo"])
    def test_flo_suffix_in_any_case(self, tmp_path, capsys, suffix):
        flow = np.random.default_rng(2).normal(size=(9, 13, 2)).astype(np.float32)
        outputs = []
        for name in ("flow.flo", "flow" + suffix):
            fileio.write_flo(tmp_path / name, flow)
            out = tmp_path / (name + ".csv")
            assert main(["process-flow", str(tmp_path / name), "--grid", "3x5", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_truncated_flo_exits_2_without_partial_output(self, tmp_path, capsys):
        src = tmp_path / "broken.flo"
        fileio.write_flo(src, np.ones((4, 4, 2), dtype=np.float32))
        src.write_bytes(src.read_bytes()[:-4])
        out = tmp_path / "t.csv"
        assert main(["process-flow", str(src), "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_matrix_csv_not_utf8_exits_2(self, tmp_path, capsys):
        # a UTF-16 byte order mark, as some editors save a CSV file
        src = tmp_path / "flow.csv"
        src.write_bytes(b"\xff\xfe" + "1,2\n3,4\n".encode("utf-16-le"))
        out = tmp_path / "t.csv"
        assert main(["process-flow", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {src}: not UTF-8 text")
        assert not out.exists()

    def test_matrix_csv_parse_error_names_the_file(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("0,1,x\n")
        with pytest.raises(ValueError) as parse_error:  # numpy's own wording
            np.loadtxt(src, delimiter=",", ndmin=2, dtype=np.float64, encoding="utf-8")
        out = tmp_path / "t.csv"
        assert main(["process-flow", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {src}: {parse_error.value}\n"
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = main(["process-flow", str(tmp_path / "nope.flo"), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        capsys.readouterr()

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        src = tmp_path / "flow.csv"
        src.write_text("1,2\n3,4\n")
        assert main(["process-flow", str(src), "--grid", "4by4", "--out", str(tmp_path / "o.csv")]) == 2
        capsys.readouterr()

    def test_missing_output_directory_exits_2(self, tmp_path, capsys):
        src = tmp_path / "flow.csv"
        src.write_text("1,2\n3,4\n")
        out = tmp_path / "missing_dir" / "t.csv"
        assert main(["process-flow", str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}" in err and ".flowdpp-" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["flow.csv"]

    def test_output_path_is_a_directory_exits_2(self, tmp_path, capsys):
        src = tmp_path / "flow.csv"
        src.write_text("1,2\n3,4\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["process-flow", str(src), "--out", str(out)]) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err
        # the temp file is removed, and nothing is written into the directory
        assert sorted(p.name for p in tmp_path.iterdir()) == ["flow.csv", "out"]
        assert list(out.iterdir()) == []


class TestOutputModes:
    """Outputs get the mode open(path, "w") gives a new file, 0o666 & ~umask,
    although they are written through a 0o600 temp file."""

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_outputs_follow_umask(self, tmp_path, capsys, umask):
        src = tmp_path / "flow.csv"
        src.write_text("1,2\n3,4\n")
        cfg_path = write_config(
            tmp_path,
            "[run]\nreinforce_train_episodes = 2\nreinforce_episode_len = 5\n\n"
            "[scenario]\nhorizon = 20\nflow_rows = 8\nflow_cols = 8\ngrid_rows = 4\n"
            "grid_cols = 4\n",
        )
        old = os.umask(umask)
        try:
            assert main(["process-flow", str(src), "--grid", "2x2",
                         "--out", str(tmp_path / "thresholds.csv")]) == 0
            for command in ("simulate", "compare"):
                out = str(tmp_path / command)
                assert main([command, "--config", str(cfg_path), "--out", out]) == 0
            assert os.umask(umask) == umask  # no write left the umask changed
        finally:
            os.umask(old)
        capsys.readouterr()
        outputs = [tmp_path / "thresholds.csv"]
        outputs += [tmp_path / "simulate" / f for f in ("timeseries.csv", "summary.csv")]
        outputs += [tmp_path / "compare" / f for f in (
            "timeseries.csv", "summary.csv", "queue_backlog.dat", "accuracy.dat")]
        modes = {str(p.relative_to(tmp_path)): oct(p.stat().st_mode & 0o777) for p in outputs}
        assert modes == {name: oct(0o666 & ~umask) for name in modes}
        assert not [p for p in tmp_path.rglob(".flowdpp-*")]


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
            outputs.append(
                {
                    f: (out_dir / f).read_bytes()
                    for f in ("timeseries.csv", "summary.csv")
                }
            )
        assert outputs[0] == outputs[1]
        header = outputs[0]["timeseries.csv"].decode().splitlines()[0]
        assert header == "t,policy,alpha,Q,a,b,P,p,tpr,flops"
        assert len(outputs[0]["timeseries.csv"].decode().splitlines()) == 81
        capsys.readouterr()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        files = []
        for seed in (1, 2):
            out_dir = tmp_path / f"s{seed}"
            assert main(["simulate", "--config", str(cfg_path), "--seed", str(seed),
                         "--out", str(out_dir)]) == 0
            files.append((out_dir / "timeseries.csv").read_bytes())
        assert files[0] != files[1]
        capsys.readouterr()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "[scenario]\nwarp_speed = 9\n")
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert "warp_speed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_zero_horizon_exits_2_without_output(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, "[scenario]\nhorizon = 0\n")
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "horizon must be >= 1" in err
        assert not out_dir.exists()

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        # a UTF-16 byte order mark, as some editors save an INI file
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_bytes(b"\xff\xfe" + "[run]\n".encode("utf-16-le"))
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(cfg_path)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: not UTF-8 text")
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8_names_no_chunk_offset(self, tmp_path):
        # a bad byte past the decoder's first chunk, 15,011 bytes in
        head = b"[run]\n" + b"".join(b"# %04d " % i + b"x" * 92 + b"\n" for i in range(150))
        head += b"# " + b"x" * (15011 - len(head) - 2)
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_bytes(head + b"\xff\n")
        with pytest.raises(ConfigError) as info:
            load_config(cfg_path)
        assert str(info.value) == f"{cfg_path}: not UTF-8 text: invalid start byte"

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "none.ini")]) == 2
        capsys.readouterr()

    def test_out_is_an_existing_file_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err
        assert out.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini", "taken"]

    @pytest.mark.parametrize("where,key,value", [
        ("scenario", "base_latency_h", "nan"),
        ("controller", "v", "nan"),
        ("controller", "w1", "inf"),
        ("scenario", "overflow_cap", "inf"),
        ("scenario", "flow_noise", "nan"),
        ("scenario", "false_positive_rate", "-1"),
        ("scenario", "per_object_latency_t", "-1"),
        ("scenario", "mean_objects_driving", "-0.5"),
        ("scenario", "seed", "-1"),
        ("--seed", "seed", "-3"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, where, key, value):
        if where == "--seed":
            cfg_path, flags = write_config(tmp_path), [where, value]
        else:
            cfg_path, flags = write_config(tmp_path, f"[{where}]\n{key} = {value}\n"), []
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), *flags]) == 2
        assert f"{key} must" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key,value", [
        ("reinforce_lr", "nan"),
        ("reinforce_lr", "inf"),
        ("reinforce_lr", "0"),
        ("reinforce_gamma", "5"),
        ("reinforce_gamma", "-0.1"),
        ("reinforce_gamma", "nan"),
        ("reinforce_train_episodes", "-2"),
        ("reinforce_episode_len", "0"),
    ])
    def test_out_of_range_run_key_exits_2(self, tmp_path, capsys, key, value):
        cfg_path = write_config(tmp_path, f"[run]\n{key} = {value}\n")
        out_dir = tmp_path / "out"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        assert f"[run] {key} must" in capsys.readouterr().err
        assert not out_dir.exists()


class TestInternalError:
    def test_traceback_and_exit_1(self, tmp_path, capsys, monkeypatch):
        # a defect, unlike an input error, is reported with its traceback
        def broken(args):
            raise RuntimeError("boom")

        # the cached parser holds cmd_run itself, so break its first call
        monkeypatch.setattr(cli, "_load_run_config", broken)
        assert main(["simulate", "--config", str(write_config(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert "Traceback" in err and "boom" in err


class TestRepeatedMain:
    """main called again and again in one process, as the benchmark
    harness and library callers do, with its parser built once."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_seed_override_does_not_persist(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)  # seed = 3
        runs = {}
        for name, flags in (("five", ["--seed", "5"]), ("config", []), ("three", ["--seed", "3"])):
            out_dir = tmp_path / name
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), *flags]) == 0
            runs[name] = (out_dir / "timeseries.csv").read_bytes()
        capsys.readouterr()
        assert runs["config"] == runs["three"] != runs["five"]

    def test_grid_default_after_an_explicit_grid(self, tmp_path, capsys):
        src = tmp_path / "flow.csv"
        fileio.write_matrix_csv(src, np.random.default_rng(3).random((16, 16)))
        counts = []
        for flags in (["--grid", "2x2"], []):
            out = tmp_path / "t.csv"
            assert main(["process-flow", str(src), "--out", str(out), *flags]) == 0
            counts.append(len(out.read_text().splitlines()))
        capsys.readouterr()
        assert counts == [2 * 2 * 2, 8 * 8 * 2]

    def test_valid_call_after_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["process-flow", "--grid"])
        assert exc.value.code == 2
        src = tmp_path / "flow.csv"
        src.write_text("1,3\n5,7\n")
        out = tmp_path / "t.csv"
        assert main(["process-flow", str(src), "--grid", "2x2", "--k", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4
        capsys.readouterr()

    def test_identical_process_flow_calls_write_identical_files(self, tmp_path, capsys):
        src = tmp_path / "flow.flo"
        fileio.write_flo(src, np.random.default_rng(4).normal(size=(37, 53, 2)).astype(np.float32))
        outputs = []
        for name in ("a.csv", "b.csv"):
            assert main(["process-flow", str(src), "--grid", "4x6", "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name).read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def compare_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("compare")
    cfg_path = tmp_path / "run.ini"
    # keep REINFORCE training cheap
    cfg_path.write_text(
        "[run]\npolicy = dpp\nreinforce_train_episodes = 3\n"
        "reinforce_episode_len = 8\n\n"
        "[scenario]\nhorizon = 40\nseed = 3\nflow_rows = 16\nflow_cols = 16\n"
        "grid_rows = 4\ngrid_cols = 4\n\n[controller]\ntie_break = T\n"
    )
    out_dir = tmp_path / "out"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    return out_dir


class TestCompareCommand:
    def test_summary_has_all_policies(self, compare_dir, capsys):
        lines = (compare_dir / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == [
            "policy", "dpp", "comp1", "comp2", "comp3",
        ]
        capsys.readouterr()

    def test_gnuplot_files(self, compare_dir):
        for name in ("queue_backlog.dat", "accuracy.dat"):
            lines = (compare_dir / name).read_text().splitlines()
            assert lines[0] == "# t dpp comp1 comp2 comp3"
            assert len(lines) == 41
            assert all(len(line.split()) == 5 for line in lines[1:])

    def test_accuracy_is_running_average(self, compare_dir):
        lines = (compare_dir / "accuracy.dat").read_text().splitlines()[1:]
        for line in lines:
            for v in line.split()[1:]:
                assert 0.0 <= float(v) <= 1.0 + 1e-12

    def test_timeseries_covers_all_policies(self, compare_dir):
        lines = (compare_dir / "timeseries.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 40

    def test_curves_match_timeseries_and_summary(self, compare_dir):
        def rows(name, sep):
            return [line.split(sep) for line in (compare_dir / name).read_text().splitlines()[1:]]

        timeseries, summary = rows("timeseries.csv", ","), rows("summary.csv", ",")
        queue, accuracy = rows("queue_backlog.dat", None), rows("accuracy.dat", None)
        for column, (label, avg_accuracy) in enumerate([(r[0], r[4]) for r in summary], start=1):
            assert [row[column] for row in queue] == [
                row[3] for row in timeseries if row[1] == label
            ]
            assert float(accuracy[-1][column]) == pytest.approx(float(avg_accuracy))


class TestTraceReplay:
    def write_trace(self, tmp_path):
        """A run config replaying 60 generated frames from files; returns the
        config path, the loaded config and the frames, with their truth boxes."""
        cfg_path = tmp_path / "run.ini"
        trace_path = tmp_path / "trace" / "trace.csv"
        cfg_path.write_text(
            f"[run]\npolicy = dpp\ntrace = {trace_path}\nreinforce_train_episodes = 2\n"
            "reinforce_episode_len = 5\n\n"
            "[scenario]\nhorizon = 60\nseed = 7\nflow_rows = 12\nflow_cols = 20\n"
            "grid_rows = 4\ngrid_cols = 5\nmean_objects_stationary = 0.8\n\n"
            "[controller]\ntie_break = T\n"
        )
        cfg = load_config(cfg_path)
        gen = sim.FrameGenerator(cfg.scenario)
        frames = [gen.next(t) for t in range(cfg.scenario.horizon)]

        trace_path.parent.mkdir()
        rows = [",".join(fileio.TRACE_HEADER)]
        for frame in frames:
            flow_file, conf_file = f"flow{frame.t}.csv", f"conf{frame.t}.csv"
            fileio.write_matrix_csv(trace_path.parent / flow_file, frame.flow)
            fileio.save_grid_csv(trace_path.parent / conf_file, frame.grid)
            rows.append(f"{frame.t},{frame.regime},{frame.num_objects},{flow_file},{conf_file}")
        trace_path.write_text("\n".join(rows) + "\n")
        return cfg_path, cfg, frames

    def test_round_trip_matches_in_memory_run(self, tmp_path, monkeypatch, capsys):
        """Frames written to files and replayed through a trace give DPP the
        same decisions and backlog as the in-memory run on those frames."""
        cfg_path, cfg, frames = self.write_trace(tmp_path)
        policy = make_policy(PolicyKind.DPP)
        memory = sim.run(cfg.scenario, policy, cfg=cfg.controller, frames=frames)
        assert {alpha.value for alpha in memory.alpha} == {"H", "T"}

        loads = []
        load_trace = fileio.load_trace
        monkeypatch.setattr(fileio, "load_trace", lambda p: loads.append(p) or load_trace(p))
        out_dir = tmp_path / "out"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert loads == [str(cfg.trace)]

        lines = (out_dir / "timeseries.csv").read_text().splitlines()
        header = lines[0].split(",")
        replay = [dict(zip(header, line.split(","))) for line in lines[1:]]
        replay = [row for row in replay if row["policy"] == "dpp"]
        assert [row["alpha"] for row in replay] == [alpha.value for alpha in memory.alpha]
        assert [float(row["Q"]) for row in replay] == memory.q.tolist()

    def test_unlabeled_trace_reports_accuracy_as_nan(self, tmp_path, capsys):
        """A trace declares object counts but carries no truth boxes, so its
        accuracy is not available: nan, not a score of 0."""
        cfg_path, cfg, frames = self.write_trace(tmp_path)
        labeled = sim.summarize(
            sim.run(cfg.scenario, make_policy(PolicyKind.DPP), cfg=cfg.controller, frames=frames)
        )
        assert np.isfinite(labeled.avg_tpr) and labeled.avg_accuracy > 0.9
        out_dir = tmp_path / "out"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        with open(out_dir / "summary.csv", newline="") as f:
            summary = list(csv.DictReader(f))
        assert [row["policy"] for row in summary] == ["dpp", "comp1", "comp2", "comp3"]
        for row in summary:
            assert (row["avg_tpr"], row["avg_accuracy"]) == ("nan", "nan")
            assert row["steps"] == "60" and float(row["avg_q"]) >= 0.0
        with open(out_dir / "timeseries.csv", newline="") as f:
            assert {row["tpr"] for row in csv.DictReader(f)} == {"nan"}
        accuracy = (out_dir / "accuracy.dat").read_text().splitlines()[1:]
        assert {value for line in accuracy for value in line.split()[1:]} == {"nan"}


class TestTraceInputErrors:
    """A bad replay trace is an input error (exit 2) for simulate and compare,
    reported before any output is written."""

    def write_trace(self, tmp_path, flow_text="0,1\n2,3\n", header=",".join(fileio.TRACE_HEADER),
                    grid_shape=(2, 2, 1), row="0,stationary,0,flow0.csv,conf0.csv\n"):
        trace_dir = tmp_path / "trace"
        trace_dir.mkdir()
        (trace_dir / "flow0.csv").write_text(flow_text)
        # an all-zero grid: the simulator never needs this frame's flow map
        fileio.save_grid_csv(
            trace_dir / "conf0.csv",
            ConfidenceGrid(np.zeros(grid_shape), np.zeros(grid_shape + (4,))),
        )
        trace_path = trace_dir / "trace.csv"
        trace_path.write_text(f"{header}\n{row}")
        return trace_path

    def write_run_config(self, tmp_path, trace_path):
        return write_config(
            tmp_path,
            f"[run]\ntrace = {trace_path}\nreinforce_train_episodes = 1\n"
            "reinforce_episode_len = 3\n\n"
            "[scenario]\nflow_rows = 2\nflow_cols = 2\ngrid_rows = 2\ngrid_cols = 2\n"
            "boxes_per_cell = 1\n",
        )

    def assert_exits_2(self, tmp_path, trace_path, capsys, message):
        cfg_path = self.write_run_config(tmp_path, trace_path)
        for command in ("simulate", "compare"):
            out_dir = tmp_path / command
            assert main([command, "--config", str(cfg_path), "--out", str(out_dir)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err
            assert not (out_dir / "timeseries.csv").exists()

    def test_valid_trace_runs(self, tmp_path, capsys):
        cfg_path = self.write_run_config(tmp_path, self.write_trace(tmp_path))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    def test_flo_flow_file_in_upper_case(self, tmp_path):
        trace_path = self.write_trace(tmp_path, row="0,stationary,0,flow0.FLO,conf0.csv\n")
        field = np.zeros((2, 2, 2), dtype=np.float32)
        field[..., 1] = 3.0
        fileio.write_flo(trace_path.parent / "flow0.FLO", field)
        (frame,) = fileio.load_trace(trace_path)
        assert frame.flow.dtype == np.float32 and np.array_equal(frame.flow, field)

    def test_missing_trace_file(self, tmp_path, capsys):
        self.assert_exits_2(tmp_path, tmp_path / "none.csv", capsys, "none.csv")

    def test_missing_flow_file(self, tmp_path, capsys):
        trace_path = self.write_trace(tmp_path)
        (trace_path.parent / "flow0.csv").unlink()
        self.assert_exits_2(tmp_path, trace_path, capsys, "flow0.csv")

    def test_bad_header(self, tmp_path, capsys):
        trace_path = self.write_trace(tmp_path, header="t,regime,objects,flow,conf")
        self.assert_exits_2(tmp_path, trace_path, capsys, "expected header")

    @pytest.mark.parametrize("name,row", [
        ("trace.csv", "0,stationary,0,flow0.csv"),
        ("trace.csv", "0,stationary,0,flow0.csv,conf0.csv,extra"),
        ("conf0.csv", "0,0,0,0.5,0.5,0.5,0.1"),
    ])
    def test_row_of_another_width(self, tmp_path, capsys, name, row):
        trace_path = self.write_trace(tmp_path)
        path = trace_path.parent / name
        path.write_text(path.read_text().splitlines()[0] + f"\n{row}\n")
        self.assert_exits_2(tmp_path, trace_path, capsys, f"{name}: line 2: expected")

    @pytest.mark.parametrize("grid_shape", [(2, 2, 2), (2, 3, 1)])
    def test_grid_of_another_shape(self, tmp_path, capsys, grid_shape):
        trace_path = self.write_trace(tmp_path, grid_shape=grid_shape)
        self.assert_exits_2(tmp_path, trace_path, capsys, "frame 0: grid shape")

    @pytest.mark.parametrize("flow_text", ["0,nan\n2,3\n", "0,inf\n2,3\n", "-1e308,0\n1e308,3\n"])
    def test_non_finite_flow_map_on_empty_grid(self, tmp_path, capsys, flow_text):
        trace_path = self.write_trace(tmp_path, flow_text=flow_text)
        message = "flow0.csv: flow map contains non-finite"
        self.assert_exits_2(tmp_path, trace_path, capsys, message)

    def assert_exact_error(self, tmp_path, trace_path, capsys, message):
        cfg_path = self.write_run_config(tmp_path, trace_path)
        for command in ("simulate", "compare"):
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / command)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_short_flo_header_names_the_file_once(self, tmp_path, capsys):
        # a 5-byte .flo file, cut inside its header after the magic "PIEH"
        trace_path = self.write_trace(tmp_path, row="0,stationary,0,f.flo,conf0.csv\n")
        flo = trace_path.parent / "f.flo"
        flo.write_bytes(b"PIEH\x02")
        self.assert_exact_error(tmp_path, trace_path, capsys,
                                f"{flo}: truncated or invalid .flo header")

    def test_flow_csv_parse_error_names_the_file_once(self, tmp_path, capsys):
        trace_path = self.write_trace(tmp_path, flow_text="0,x\n2,3\n")
        flow = trace_path.parent / "flow0.csv"
        with pytest.raises(ValueError) as parse_error:  # numpy's own wording
            np.loadtxt(flow, delimiter=",", ndmin=2, dtype=np.float64, encoding="utf-8")
        self.assert_exact_error(tmp_path, trace_path, capsys, f"{flow}: {parse_error.value}")

    def test_trace_not_utf8(self, tmp_path, capsys):
        # a Latin-1 regime label after a valid header
        trace_path = self.write_trace(tmp_path)
        trace_path.write_bytes(trace_path.read_bytes().replace(b"stationary", b"arr\xeat"))
        self.assert_exits_2(tmp_path, trace_path, capsys, f"{trace_path}: not UTF-8 text")

    def test_grid_csv_not_utf8(self, tmp_path, capsys):
        trace_path = self.write_trace(tmp_path)
        grid = trace_path.parent / "conf0.csv"
        grid.write_bytes(b"\xff\xfe" + grid.read_text().encode("utf-16-le"))
        self.assert_exits_2(tmp_path, trace_path, capsys, f"{grid}: not UTF-8 text")

    def test_trace_without_rows(self, tmp_path, capsys):
        trace_path = self.write_trace(tmp_path, row="")
        self.assert_exits_2(tmp_path, trace_path, capsys, "trace.csv: no trace rows")

    def test_negative_object_count(self, tmp_path, capsys):
        trace_path = self.write_trace(tmp_path, row="0,stationary,-3,flow0.csv,conf0.csv\n")
        self.assert_exits_2(tmp_path, trace_path, capsys,
                            "trace.csv: line 2: num_objects must be >= 0")

    def test_negative_grid_index(self, tmp_path, capsys):
        # a negative index would wrap around to the grid's last row
        trace_path = self.write_trace(tmp_path)
        grid = trace_path.parent / "conf0.csv"
        grid.write_text(grid.read_text().replace("\n1,1,0,", "\n-1,1,0,"))
        self.assert_exits_2(tmp_path, trace_path, capsys, "conf0.csv: line 5: i must be >= 0")

    @pytest.mark.parametrize("value", ["x", "1.5"])
    @pytest.mark.parametrize("column", ["t", "num_objects"])
    def test_non_integer_field(self, tmp_path, capsys, column, value):
        fields = dict(t="0", num_objects="0")
        fields[column] = value
        row = f"{fields['t']},stationary,{fields['num_objects']},flow0.csv,conf0.csv\n"
        trace_path = self.write_trace(tmp_path, row=row)
        self.assert_exits_2(tmp_path, trace_path, capsys,
                            f"trace.csv: line 2: {column} must be an integer, got '{value}'")

    @pytest.mark.parametrize("column", ["conf", "cx", "cy", "w", "h"])
    def test_non_numeric_grid_field(self, tmp_path, capsys, column):
        trace_path = self.write_trace(tmp_path)
        grid = trace_path.parent / "conf0.csv"
        header, first, *rest = grid.read_text().splitlines()
        fields = first.split(",")
        fields[fileio.GRID_HEADER.index(column)] = "x"
        grid.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        self.assert_exits_2(tmp_path, trace_path, capsys,
                            f"conf0.csv: line 2: {column} must be a number, got 'x'")
