import builtins
import dataclasses
import logging
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from omctrack import cli, frame_io, recheck
from omctrack.association import PipelineConfig, Tracker
from omctrack.cli import main
from omctrack.frame_io import (
    iter_container,
    read_mot_boxes,
    read_omcf,
    write_mot_results,
    write_omcf,
)
from omctrack.recheck import RefineWeights

from test_frame_io import _DiskFullAfter


README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            values[key] = value
    return values


def readme_default(text):
    """A default as the README's flag table writes it, parsed."""
    text = text.strip().strip("`")
    if text in ("—", "off"):
        return {"—": None, "off": False}[text]
    try:
        return float(text)
    except ValueError:
        return text


def help_default(action):
    """The default a flag's help names, parsed as the flag parses it.

    A flag whose help names none (a path or a switch) defaults to what
    argparse gives it.
    """
    shown = re.search(r"\(default (.+)\)$", action.help or "")
    return action.default if shown is None else (action.type or str)(shown.group(1))


TRACK_ON_THE_SEARCH_HELPER = """
import sys
import threading
from omctrack import recheck
from omctrack.cli import main

walkers = set()
search = recheck._search

def recording(*args):
    walkers.add(threading.current_thread().name)
    search(*args)

recheck._search = recording
recheck.SEARCH_BLOCK_VALUES = 20000
code = main(["track", *sys.argv[1:]])
assert "omctrack-search" in walkers, f"no search ran on a helper thread: {walkers}"
sys.exit(code)
"""


class InlineThread:
    """Stands in for the search's helper thread: runs its target when started."""

    def __init__(self, target, name):
        self.target = target

    def start(self):
        self.target()

    def join(self):
        pass


def write_random_weights(path, seed=0):
    """A learned-refine weight file for 256-channel feat, drawn at random."""
    rng = np.random.default_rng(seed)
    shapes = {
        "conv1.w": (2, 1, 3, 3), "conv1.b": (2,),
        "conv2.w": (1, 2, 3, 3), "conv2.b": (1,),
        "head1.w": (2, 256, 3, 3), "head1.b": (2,),
        "head2.w": (1, 2, 3, 3), "head2.b": (1,),
    }
    write_omcf(path, [{name: rng.normal(size=shape).astype(np.float32)
                       for name, shape in shapes.items()}])
    return path


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """One small synthetic scenario shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli-scenario")
    container = root / "scene.omcf"
    gt = root / "gt.txt"
    dropped = root / "dropped.csv"
    code = main([
        "synth", "--out", str(container), "--gt", str(gt),
        "--dropped", str(dropped), "--targets", "3", "--frames", "25",
        "--grid", "14x14", "--dropout", "0.2", "--seed", "3",
    ])
    assert code == 0
    return {"container": container, "gt": gt, "dropped": dropped, "root": root}


class TestSynthCommand:
    def test_outputs_exist(self, scenario):
        assert scenario["container"].stat().st_size > 0
        assert len(read_mot_boxes(scenario["gt"])) == 3 * 25
        header, *rows = scenario["dropped"].read_text().splitlines()
        assert header == "frame,id"
        assert rows

    def test_same_seed_reproduces_container(self, scenario, tmp_path, capsys):
        out2 = tmp_path / "again.omcf"
        code, _, _ = run(
            capsys, "synth", "--out", str(out2), "--gt", str(tmp_path / "gt.txt"),
            "--targets", "3", "--frames", "25", "--grid", "14x14",
            "--dropout", "0.2", "--seed", "3",
        )
        assert code == 0
        assert out2.read_bytes() == scenario["container"].read_bytes()

    def test_infeasible_scenario_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--out", str(tmp_path / "x.omcf"),
            "--gt", str(tmp_path / "gt.txt"), "--grid", "2x2",
        )
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("targets", ["512", "600"])
    def test_no_spare_embedding_dimension_is_usage_error(self, targets, tmp_path, capsys):
        # 512 targets fill the 512-d embedding space: no background direction.
        out = tmp_path / "x.omcf"
        code, _, err = run(
            capsys, "synth", "--out", str(out), "--gt", str(tmp_path / "gt.txt"),
            "--targets", targets, "--grid", "24x24", "--size", "1:2", "--frames", "2",
        )
        assert code == 1
        assert "usage error" in err and "embed_dim" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--noise", "nan", "embedding_noise must be finite, got nan"),
        ("--noise", "inf", "embedding_noise must be finite, got inf"),
        ("--hscale", "nan", "bar_h_scale must be finite, got nan"),
        ("--hscale", "inf", "bar_h_scale must be finite, got inf"),
        ("--speed", "0.1:inf", "speed_max must be finite, got inf"),
    ])
    def test_value_that_is_not_finite_is_usage_error(self, flag, value, message,
                                                     tmp_path, capsys):
        out = tmp_path / "x.omcf"
        code, _, err = run(capsys, "synth", "--out", str(out), "--gt",
                           str(tmp_path / "gt.txt"), "--frames", "2", flag, value)
        assert (code, err) == (1, f"usage error: {message}\n")
        assert not out.exists()


    @pytest.mark.parametrize("given, message", [
        (["--targets", "0"], "need at least one target"),
        (["--frames", "0"], "need at least one frame"),
        (["--dropout", "1"], "dropout_prob must lie in [0, 1)"),
        (["--clutter", "1"], "clutter_similarity must lie in [0, 1)"),
        (["--noise", "-0.1"], "embedding_noise must be >= 0"),
        (["--size", "3:2"], "sizes must satisfy 1 <= size_min <= size_max"),
        (["--size", "2:21"], "targets of size 21.0 cannot fit a 20x20 grid"),
        (["--speed", "0:0.3"], "speeds must satisfy 0 < speed_min <= speed_max"),
        (["--hscale", "4"], "bar_h_scale too small for the target sizes"),
        (["--stride", "0"], "stride must be >= 1"),
        (["--grid", "2x2", "--size", "1:2"], "clutter boxes must fit the grid"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_scenario_refusal_is_usage_error(self, given, message, tmp_path, capsys):
        out = tmp_path / "x.omcf"
        code, stdout, err = run(capsys, "synth", "--out", str(out),
                                "--gt", str(tmp_path / "gt.txt"), *given)
        assert (code, stdout, err) == (1, "", f"usage error: {message}\n")
        assert list(tmp_path.iterdir()) == []


class TestTrackCommand:
    def test_track_then_eval(self, scenario, tmp_path, capsys):
        results = tmp_path / "results.txt"
        code, out, _ = run(
            capsys, "track", "--container", str(scenario["container"]),
            "--out", str(results),
        )
        assert code == 0
        summary = parse_kv(out)
        assert summary["frames"] == "25"
        assert int(summary["boxes"]) > 0
        assert int(summary["restored"]) > 0
        assert float(summary["fps"]) > 0

        code, out, _ = run(
            capsys, "eval", "--gt", str(scenario["gt"]),
            "--results", str(results),
            "--csv", str(tmp_path / "report.csv"),
        )
        assert code == 0
        assert "MOTA" in out
        header, row = (tmp_path / "report.csv").read_text().splitlines()
        assert header.startswith("mota,idf1")
        mota = float(row.split(",")[0])
        assert mota > 0.8

    def test_disable_recheck_zero_restored(self, scenario, tmp_path, capsys):
        code, out, _ = run(
            capsys, "track", "--container", str(scenario["container"]),
            "--out", str(tmp_path / "r.txt"), "--disable-recheck",
        )
        assert code == 0
        assert parse_kv(out)["restored"] == "0"

    def test_determinism_byte_identical_results(self, scenario, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run(
                capsys, "track", "--container", str(scenario["container"]),
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("tensor, value", [("embed", np.nan), ("prob", 1.5)])
    def test_frame_with_bad_values_is_all_miss(self, scenario, tmp_path, capsys,
                                                caplog, tensor, value):
        frames = read_omcf(scenario["container"])
        frames[4][tensor][2, 3, 0] = value
        bad = tmp_path / "bad.omcf"
        write_omcf(bad, frames)
        clean, out_path = tmp_path / "clean.txt", tmp_path / "r.txt"
        assert run(capsys, "track", "--container", str(scenario["container"]),
                   "--out", str(clean))[0] == 0
        with caplog.at_level(logging.WARNING, logger="omctrack"):
            code, out, _ = run(capsys, "track", "--container", str(bad),
                               "--out", str(out_path))
        assert code == 0
        assert parse_kv(out)["frames"] == "25"
        assert any("frame 5 failed validation" in r.getMessage() for r in caplog.records)
        rows, clean_rows = read_mot_boxes(out_path), read_mot_boxes(clean)
        assert not [r for r in rows if r.frame == 5]
        assert [r for r in rows if r.frame < 5] == [r for r in clean_rows if r.frame < 5]
        assert {r.frame for r in rows} == set(range(1, 26)) - {5}

    def test_overflowing_feat_under_learned_refine_is_all_miss(self, tmp_path, capsys,
                                                                caplog):
        # A finite feat value whose product with the bottleneck output
        # overflows float32: that frame is all-miss, the run keeps going.
        container = tmp_path / "world.omcf"
        assert main(["synth", "--out", str(container), "--gt", str(tmp_path / "gt.txt"),
                     "--targets", "2", "--frames", "6", "--grid", "8x8",
                     "--seed", "0"]) == 0
        frames = read_omcf(container)
        frames[2]["feat"][4, 4, 0] = 3e38
        bad = tmp_path / "bad.omcf"
        write_omcf(bad, frames)
        learned = ["--weights", str(write_random_weights(tmp_path / "w.omcf"))]
        clean, out_path = tmp_path / "clean.txt", tmp_path / "r.txt"
        assert run(capsys, "track", "--container", str(container),
                   "--out", str(clean), *learned)[0] == 0
        with caplog.at_level(logging.WARNING, logger="omctrack"):
            code, out, _ = run(capsys, "track", "--container", str(bad),
                               "--out", str(out_path), *learned)
        assert code == 0
        assert parse_kv(out)["frames"] == "6"
        assert any("frame 3 failed validation" in r.getMessage() for r in caplog.records)
        rows, clean_rows = read_mot_boxes(out_path), read_mot_boxes(clean)
        assert [r for r in rows if r.frame < 3] == [r for r in clean_rows if r.frame < 3]
        assert {r.frame for r in rows} == {1, 2, 4, 5, 6}

    def test_truncated_container_keeps_rows_of_complete_frames(self, tmp_path, capsys):
        container = tmp_path / "world.omcf"
        assert run(capsys, "synth", "--out", str(container), "--gt", str(tmp_path / "gt.txt"),
                   "--targets", "2", "--frames", "20", "--grid", "10x10",
                   "--seed", "0")[0] == 0
        data = container.read_bytes()
        cut = tmp_path / "cut.omcf"
        cut.write_bytes(data[:len(data) * 7 // 10])
        clean, out_path = tmp_path / "clean.txt", tmp_path / "r.txt"
        assert run(capsys, "track", "--container", str(container),
                   "--out", str(clean))[0] == 0
        out_path.write_text("an earlier run\n")
        code, out, err = run(capsys, "track", "--container", str(cut),
                             "--out", str(out_path))
        assert code == 2
        assert "truncated" in err
        done = int(parse_kv(out)["frames"])
        assert 0 < done < 20
        rows = read_mot_boxes(out_path)
        assert {r.frame for r in rows} == set(range(1, done + 1))
        assert rows == [r for r in read_mot_boxes(clean) if r.frame <= done]
        assert int(parse_kv(out)["boxes"]) == len(rows)

    @pytest.mark.parametrize("fault", ["appended bytes", "lowered count"])
    def test_bytes_after_the_last_counted_frame_keep_every_frames_rows(self, tmp_path,
                                                                       capsys, fault):
        container = tmp_path / "world.omcf"
        assert run(capsys, "synth", "--out", str(container), "--gt", str(tmp_path / "gt.txt"),
                   "--targets", "2", "--frames", "4", "--grid", "10x10",
                   "--seed", "0")[0] == 0
        data = bytearray(container.read_bytes())
        if fault == "appended bytes":
            data += bytes(5)
            frames = 4
        else:
            frames = 3
            data[8:12] = struct.pack("<I", frames)
        bad, clean, out_path = tmp_path / "bad.omcf", tmp_path / "clean.txt", tmp_path / "r.txt"
        bad.write_bytes(bytes(data))
        assert run(capsys, "track", "--container", str(container),
                   "--out", str(clean))[0] == 0
        code, out, err = run(capsys, "track", "--container", str(bad), "--out", str(out_path))
        assert code == 2
        assert "bytes after the last frame the header counts" in err
        assert parse_kv(out)["frames"] == str(frames)
        assert read_mot_boxes(out_path) == [r for r in read_mot_boxes(clean)
                                            if r.frame <= frames]

    def test_container_cut_in_its_first_frame_leaves_out_intact(self, tmp_path, capsys):
        container = tmp_path / "world.omcf"
        assert run(capsys, "synth", "--out", str(container), "--gt", str(tmp_path / "gt.txt"),
                   "--targets", "2", "--frames", "3", "--grid", "10x10",
                   "--seed", "0")[0] == 0
        cut = tmp_path / "cut.omcf"
        cut.write_bytes(container.read_bytes()[:200])
        out_path = tmp_path / "r.txt"
        out_path.write_text("an earlier run\n")
        code, out, err = run(capsys, "track", "--container", str(cut),
                             "--out", str(out_path))
        assert code == 2
        assert "truncated" in err
        assert out == ""
        assert out_path.read_text() == "an earlier run\n"
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_split_search_gives_the_serial_rows_and_exits_clean(self, scenario, tmp_path,
                                                               capsys, monkeypatch):
        # 14x14x512 embed grids in blocks of at most 20000 values: six blocks,
        # each cut in half between the main thread and the search's helper.
        split, serial = tmp_path / "split.txt", tmp_path / "serial.txt"
        src = str(Path(recheck.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", TRACK_ON_THE_SEARCH_HELPER,
             "--container", str(scenario["container"]), "--out", str(split)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert parse_kv(done.stdout)["frames"] == "25"
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", 20000)
        monkeypatch.setattr(recheck, "Thread", InlineThread)
        assert run(capsys, "track", "--container", str(scenario["container"]),
                   "--out", str(serial))[0] == 0
        assert split.read_bytes() == serial.read_bytes()

    def test_container_cut_mid_embed_under_split_search_keeps_complete_frames(
        self, scenario, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", 20000)
        embed = list(iter_container(scenario["container"]))[14].held()["embed"]
        cut = tmp_path / "cut.omcf"
        cut.write_bytes(scenario["container"].read_bytes()[:embed.offset + 50000])
        clean, out_path = tmp_path / "clean.txt", tmp_path / "r.txt"
        assert run(capsys, "track", "--container", str(scenario["container"]),
                   "--out", str(clean))[0] == 0
        code, out, err = run(capsys, "track", "--container", str(cut), "--out", str(out_path))
        assert code == 2
        assert "truncated" in err
        assert parse_kv(out)["frames"] == "14"
        rows = read_mot_boxes(out_path)
        assert rows == [r for r in read_mot_boxes(clean) if r.frame <= 14]

    def test_missing_container_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "track", "--container", str(tmp_path / "nope.omcf"),
            "--out", str(tmp_path / "r.txt"),
        )
        assert code == 2
        assert "data error" in err

    def test_public_mode(self, tmp_path, capsys):
        # crossing-free scenario so every public ground-truth box is tracked
        container = tmp_path / "sparse.omcf"
        gt_path = tmp_path / "gt.txt"
        code, _, _ = run(
            capsys, "synth", "--out", str(container), "--gt", str(gt_path),
            "--targets", "3", "--frames", "20", "--grid", "24x24",
            "--speed", "0.05:0.15", "--seed", "12",
        )
        assert code == 0
        gt_boxes = read_mot_boxes(gt_path)
        dets = tmp_path / "public.txt"
        with open(dets, "w", encoding="utf-8") as f:
            for b in gt_boxes:
                f.write(f"{b.frame},-1,{b.x:.2f},{b.y:.2f},{b.w:.2f},{b.h:.2f},1.0\n")
        results = tmp_path / "pub.txt"
        code, out, _ = run(
            capsys, "track", "--container", str(container),
            "--out", str(results), "--public", str(dets),
        )
        assert code == 0
        rows = read_mot_boxes(results)
        assert len(rows) == len(gt_boxes)
        assert len({r.id for r in rows}) == 3

    def test_public_rows_of_a_frame_the_container_lacks_are_data_error(self, tmp_path,
                                                                         capsys):
        container, gt_path = tmp_path / "five.omcf", tmp_path / "gt.txt"
        assert run(capsys, "synth", "--out", str(container), "--gt", str(gt_path),
                   "--targets", "2", "--frames", "5", "--grid", "10x10", "--seed", "4")[0] == 0
        rows = [f"{b.frame},-1,{b.x:.2f},{b.y:.2f},{b.w:.2f},{b.h:.2f},1.0"
                for b in read_mot_boxes(gt_path)]
        clean, extra = tmp_path / "clean.txt", tmp_path / "extra.txt"
        clean.write_text("\n".join(rows) + "\n")
        extra.write_text("\n".join(rows + ["99,-1,8.00,8.00,16.00,16.00,1.0"]) + "\n")

        def track(dets, out):
            return run(capsys, "track", "--container", str(container), "--out", str(out),
                       "--public", str(dets))

        assert track(clean, tmp_path / "want.txt")[0] == 0
        code, out, err = track(extra, tmp_path / "got.txt")
        assert code == 2
        assert parse_kv(out)["frames"] == "5"
        assert err == ("data error: public detections of frames the sequence does not "
                       "hold: 99\n")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_config_file_and_flag_precedence(self, scenario, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=0.7\nradius=5\ndisable_recheck=false\n")
        results = tmp_path / "r.txt"
        code, _, _ = run(
            capsys, "track", "--container", str(scenario["container"]),
            "--out", str(results), "--config", str(cfg), "--epsilon", "0.5",
        )
        assert code == 0

        def rows(*argv):
            out = tmp_path / "rows.txt"
            assert run(capsys, "track", "--container", str(scenario["container"]),
                       "--out", str(out), *argv)[0] == 0
            return out.read_bytes()

        assert results.read_bytes() == rows("--epsilon", "0.5", "--radius", "5")
        # On this world epsilon 1.0 and recheck off each change the rows.
        default = rows()
        strict, no_recheck = tmp_path / "strict.cfg", tmp_path / "no-recheck.cfg"
        strict.write_text("epsilon=1.0\n")
        no_recheck.write_text("disable_recheck=true\n")
        assert rows("--config", str(strict)) == rows("--epsilon", "1.0") != default
        assert rows("--config", str(strict), "--epsilon", "0.5") == default
        assert rows("--config", str(no_recheck)) == rows("--disable-recheck") != default

    def test_bad_epsilon_is_usage_error(self, scenario, tmp_path, capsys):
        code, _, err = run(
            capsys, "track", "--container", str(scenario["container"]),
            "--out", str(tmp_path / "r.txt"), "--epsilon", "1.5",
        )
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("given", [["--refine", "learned"], ["--disable-shrink"],
                                       ["--embedding-mode", "first"], ["--decode", "bar"],
                                       "refine=learned", "disable_shrink=true",
                                       "embedding_mode=first", "decode=bar"])
    def test_removed_spelling_is_usage_error(self, scenario, tmp_path, capsys, given):
        # --weights alone turns learned refinement on, --radius inf (or
        # none) alone turns the shrink window off, --alpha alone sets the
        # embedding update (1 keeps the birth embedding, 0 replaces it), and
        # the tracker decodes boundary-aware offsets only.
        if isinstance(given, str):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(given + "\n")
            given = ["--config", str(cfg)]
        results = tmp_path / "r.txt"
        code, out, err = run(capsys, "track", "--container", str(scenario["container"]),
                             "--out", str(results), *given)
        assert code == 1
        assert "usage error" in err
        assert out == ""
        assert not results.exists()

    @pytest.mark.parametrize("command", ["track", "sweep"])
    def test_hscale_that_is_not_finite_is_usage_error(self, scenario, tmp_path, capsys,
                                                      command):
        # sweep's --hscale sets the world's scale too, which is checked first.
        results = tmp_path / "r.txt"
        args, message = {
            "track": (["--container", str(scenario["container"]), "--out", str(results)],
                      "h_scale must be finite and positive, got inf"),
            "sweep": (["--param", "epsilon", "--values", "0.5", "--frames", "2",
                       "--out", str(results)], "bar_h_scale must be finite, got inf"),
        }[command]
        code, out, err = run(capsys, command, *args, "--hscale", "inf")
        assert (code, out, err) == (1, "", f"usage error: {message}\n")
        assert not results.exists()

    def test_bias_that_does_not_match_its_kernel_is_data_error(self, scenario, tmp_path,
                                                               capsys):
        # Learned refinement first runs at frame 2; the weights are refused
        # when they load, before --out is opened.
        weights = write_random_weights(tmp_path / "w.omcf")
        tensors = read_omcf(weights)[0]
        tensors["conv1.b"] = np.zeros(3, dtype=np.float32)
        write_omcf(weights, [tensors])
        results = tmp_path / "r.txt"
        code, out, err = run(capsys, "track", "--container", str(scenario["container"]),
                             "--out", str(results), "--weights", str(weights))
        assert (code, out) == (2, "")
        assert err == ("data error: weight 'conv1.b' must have shape (2,) "
                       "to match conv1.w, got (3,)\n")
        assert not results.exists()

    @pytest.mark.parametrize("changed, message", [
        ({"conv2.b": np.array([np.nan], np.float32)},
         "weight 'conv2.b' contains non-finite values"),
        ({"head1.w": np.zeros((2, 256, 1, 1), np.float32)},
         "weight 'head1.w' must have shape (Cout, Cin, 3, 3), got (2, 256, 1, 1)"),
        ({"conv1.w": np.zeros((2, 2, 3, 3), np.float32)}, "conv1 must take 1 input channel"),
        ({"conv2.w": np.zeros((2, 2, 3, 3), np.float32), "conv2.b": np.zeros(2, np.float32)},
         "conv2 must produce 1 output channel"),
        ({"head2.w": np.zeros((1, 3, 3, 3), np.float32)},
         "head2 input channels must match head1 output"),
        ({"head2.w": np.zeros((2, 2, 3, 3), np.float32), "head2.b": np.zeros(2, np.float32)},
         "head2 must produce 1 output channel"),
        (None, "weight file must hold exactly one frame, got 2"),
    ], ids=["non-finite", "kernel", "conv1-inputs", "conv2-outputs", "head2-inputs",
            "head2-outputs", "two-frames"])
    def test_bad_weight_file_is_data_error(self, scenario, tmp_path, capsys, changed,
                                           message):
        weights = write_random_weights(tmp_path / "w.omcf")
        tensors = read_omcf(weights)[0]
        write_omcf(weights, [tensors, tensors] if changed is None else [{**tensors, **changed}])
        results = tmp_path / "r.txt"
        code, out, err = run(capsys, "track", "--container", str(scenario["container"]),
                             "--out", str(results), "--weights", str(weights))
        assert (code, out, err) == (2, "", f"data error: {message}\n")
        assert not results.exists()

    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    def test_radius_minus_inf_is_usage_error(self, scenario, tmp_path, capsys, by_config):
        # -inf is not "no shrink": only inf (or none) turns the window off.
        if by_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("radius=-inf\n")
            given = ["--config", str(cfg)]
        else:
            given = ["--radius=-inf"]
        results = tmp_path / "r.txt"
        code, out, err = run(capsys, "track", "--container", str(scenario["container"]),
                             "--out", str(results), *given)
        assert (code, out, err) == (1, "", "usage error: shrink_radius must be >= 0 or inf\n")
        assert not results.exists()

    def test_weights_alone_run_learned_refinement(self, scenario, tmp_path, capsys):
        weights = write_random_weights(tmp_path / "w.omcf")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"weights={weights}\n")
        outs = {name: tmp_path / f"{name}.txt" for name in ("flag", "file", "bypass")}
        for name, extra in (("flag", ["--weights", str(weights)]),
                            ("file", ["--config", str(cfg)]), ("bypass", [])):
            assert run(capsys, "track", "--container", str(scenario["container"]),
                       "--out", str(outs[name]), *extra)[0] == 0
        tracker = Tracker(PipelineConfig(), RefineWeights.load(weights))
        assert tracker.weights is not None and Tracker().weights is None
        write_mot_results([b for rows in tracker.run(iter_container(scenario["container"]))
                           for b in rows], tmp_path / "api.txt")
        assert outs["flag"].read_bytes() == (tmp_path / "api.txt").read_bytes()
        assert outs["file"].read_bytes() == outs["flag"].read_bytes()
        assert outs["bypass"].read_bytes() != outs["flag"].read_bytes()

    def test_corrupt_ndim_is_data_error_without_traceback(self, scenario, tmp_path, capsys):
        # ndim 0xFFFFFFFF would ask the file for 16 GiB of dims.
        data = bytearray(scenario["container"].read_bytes())
        data[24:28] = b"\xff\xff\xff\xff"  # frame 1's first tensor's ndim
        bad = tmp_path / "bad.omcf"
        bad.write_bytes(bytes(data))
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "omctrack.cli", "track", "--container", str(bad),
             "--out", str(tmp_path / "r.txt")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2
        assert done.stderr.startswith("data error: truncated file while reading dims")
        assert "Traceback" not in done.stderr
        code, _, err = run(capsys, "track", "--container", str(scenario["container"]),
                           "--out", str(tmp_path / "r.txt"), "--weights", str(bad))
        assert code == 2
        assert err.startswith("data error: truncated file while reading dims")

    def test_public_row_with_zero_width_is_data_error(self, scenario, tmp_path, capsys):
        dets = tmp_path / "public.txt"
        dets.write_text("1,-1,8.00,8.00,16.00,16.00,1.0\n2,-1,8.00,8.00,0.00,16.00,1.0\n")
        results = tmp_path / "r.txt"
        code, _, err = run(
            capsys, "track", "--container", str(scenario["container"]),
            "--out", str(results), "--public", str(dets),
        )
        assert code == 2
        assert "line 2" in err
        assert not results.exists()


    @pytest.mark.parametrize("row", ["1.5,-1,8,8,16,16,1.0", "0,-1,8,8,16,16,1.0"])
    def test_public_row_with_fractional_or_zero_frame_is_data_error(
        self, scenario, tmp_path, capsys, row
    ):
        dets = tmp_path / "public.txt"
        dets.write_text(f"1,-1,8.00,8.00,16.00,16.00,1.0\n{row}\n")
        results = tmp_path / "r.txt"
        code, _, err = run(
            capsys, "track", "--container", str(scenario["container"]),
            "--out", str(results), "--public", str(dets),
        )
        assert code == 2
        assert err.startswith("data error: line 2: ")
        assert not results.exists()


class TestConfigFile:
    def test_public_key_gives_the_public_flag_rows(self, scenario, tmp_path, capsys):
        dets = tmp_path / "public.txt"
        with open(dets, "w", encoding="utf-8") as f:
            for b in read_mot_boxes(scenario["gt"]):
                if b.id == 1:
                    f.write(f"{b.frame},-1,{b.x:.2f},{b.y:.2f},{b.w:.2f},{b.h:.2f},1.0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"public={dets}\n")
        outs = {name: tmp_path / f"{name}.txt" for name in ("file", "flag", "private")}
        for name, extra in (("file", ["--config", str(cfg)]),
                            ("flag", ["--public", str(dets)]),
                            ("private", [])):
            assert run(capsys, "track", "--container", str(scenario["container"]),
                       "--out", str(outs[name]), *extra)[0] == 0
        assert outs["file"].read_bytes() == outs["flag"].read_bytes()
        assert outs["file"].read_bytes() != outs["private"].read_bytes()

    @pytest.mark.parametrize("line", ["epsilom=0.9", "container=x.omcf",
                                      "config=other.cfg", "decode=banana",
                                      "disable_recheck=maybe"])
    def test_bad_key_or_value_is_usage_error_naming_file_line_key(
        self, scenario, tmp_path, capsys, line
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\nk=30\n{line}\n")
        results = tmp_path / "r.txt"
        code, out, err = run(
            capsys, "track", "--container", str(scenario["container"]),
            "--out", str(results), "--config", str(cfg),
        )
        assert code == 1
        assert f"{cfg}:3:" in err
        assert line.partition("=")[0] in err
        assert out == ""
        assert not results.exists()

    def test_key_given_twice_is_usage_error_naming_both_lines(
        self, scenario, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("score_thr=0.3\n# a comment\nscore_thr=0.9\n")
        results = tmp_path / "r.txt"
        code, out, err = run(
            capsys, "track", "--container", str(scenario["container"]),
            "--out", str(results), "--config", str(cfg),
        )
        assert code == 1
        assert f"{cfg}:3: key 'score_thr' already set on line 1" in err
        assert out == ""
        assert not results.exists()

    @pytest.mark.parametrize("command, key", [
        ("eval", "csv"), ("synth", "dropped"), ("sweep", "out"),
    ])
    def test_output_keys_write_their_file(self, scenario, tmp_path, capsys,
                                          command, key):
        world = ["--frames", "3", "--grid", "8x8", "--targets", "1"]
        argv = {
            "eval": ["--gt", str(scenario["gt"]), "--results", str(scenario["gt"])],
            "synth": ["--out", str(tmp_path / "w.omcf"), "--gt", str(tmp_path / "gt.txt"),
                      *world],
            "sweep": ["--param", "epsilon", "--values", "0.5", *world],
        }[command]
        written = tmp_path / f"{key}.out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={written}\n")
        assert run(capsys, command, *argv, "--config", str(cfg))[0] == 0
        assert written.read_text()


class TestEvalCommand:
    def test_gt_vs_gt_perfect(self, scenario, tmp_path, capsys):
        # rewrite gt with ids intact as a results file
        rows = read_mot_boxes(scenario["gt"])
        results = tmp_path / "echo.txt"
        write_mot_results(rows, results)
        code, out, _ = run(
            capsys, "eval", "--gt", str(scenario["gt"]), "--results", str(results),
        )
        assert code == 0
        assert "1.0000" in out

    def test_missing_results_no_partial_csv(self, scenario, tmp_path, capsys):
        csv = tmp_path / "report.csv"
        code, _, err = run(
            capsys, "eval", "--gt", str(scenario["gt"]),
            "--results", str(tmp_path / "missing.txt"), "--csv", str(csv),
        )
        assert code == 2
        assert not csv.exists()

    def test_empty_gt_is_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("")
        res = tmp_path / "res.txt"
        res.write_text("1,1,0,0,10,10,1.0,-1,-1,-1\n")
        code, out, err = run(capsys, "eval", "--gt", str(gt), "--results", str(res))
        assert code == 2 and out == ""
        assert err == "data error: ground truth is empty; the metrics are undefined\n"

    def test_repeated_frame_and_id_is_data_error(self, tmp_path, capsys):
        gt, res, csv = tmp_path / "gt.txt", tmp_path / "res.txt", tmp_path / "r.csv"
        gt.write_text("1,1,0,0,10,10,1.0,-1,-1,-1\n")
        res.write_text("1,7,0,0,10,10,1.0,-1,-1,-1\n1,7,300,0,10,10,1.0,-1,-1,-1\n")
        code, out, err = run(capsys, "eval", "--gt", str(gt), "--results", str(res),
                             "--csv", str(csv))
        assert code == 2
        assert out == ""
        assert err == "data error: predictions: frame 1 holds id 7 more than once\n"
        assert not csv.exists()

    @pytest.mark.parametrize("gate", ["-5", "0", "nan", "1.5", "half"])
    @pytest.mark.parametrize("given", ["flag", "key"])
    def test_gate_outside_unit_interval_is_usage_error(self, tmp_path, capsys, gate, given):
        gt, res = tmp_path / "gt.txt", tmp_path / "res.txt"
        gt.write_text("1,1,0,0,10,10,1.0,-1,-1,-1\n")
        res.write_text("1,1,500,500,10,10,1.0,-1,-1,-1\n")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"iou_thr={gate}\n")
        extra = ["--iou-thr", gate] if given == "flag" else ["--config", str(cfg)]
        code, out, err = run(capsys, "eval", "--gt", str(gt), "--results", str(res), *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and "iou" in err


class TestSweepCommand:
    def test_single_value_single_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            capsys, "sweep", "--param", "epsilon", "--values", "0.5",
            "--out", str(out), "--targets", "3", "--frames", "15",
            "--grid", "12x12", "--dropout", "0.2", "--seed", "1",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value,mota,fp,fn,restored"
        assert len(lines) == 2
        assert lines[1].startswith("0.5,")

    def test_radius_sweep_accepts_inf(self, tmp_path, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "--param", "r", "--values", "3,inf",
            "--targets", "3", "--frames", "15", "--grid", "12x12",
            "--dropout", "0.2", "--clutter", "0.6", "--seed", "1",
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[-1].startswith("inf,")

    def test_readme_epsilon_check_passes(self, tmp_path, capsys):
        # The quick start's epsilon sweep, as the README writes it.
        text = README.read_text(encoding="utf-8")
        command = re.search(r"omctrack (sweep --param epsilon.*?--check)", text, re.S).group(1)
        argv = command.replace("\\", " ").split()
        argv[argv.index("--out") + 1] = str(tmp_path / "sweep.csv")
        code, stdout, err = run(capsys, *argv)
        assert code == 0, err
        restored = [int(line.split(",")[-1]) for line in stdout.splitlines()[1:]]
        assert len(restored) == 6 and restored[-1] < restored[0]

    def test_epsilon_check_fails_when_nothing_is_restored(self, capsys):
        code, _, err = run(capsys, "sweep", "--param", "epsilon", "--values", "0.1,0.9",
                           "--check", "--disable-recheck", "--targets", "2", "--frames", "4",
                           "--grid", "8x8")
        assert code == 3
        assert "restored count" in err and "[0, 0]" in err

    RADIUS_CHECK = ("sweep", "--param", "r", "--values",
                    f"{PipelineConfig().shrink_radius:g},inf", "--check", "--targets", "2",
                    "--frames", "6", "--grid", "10x10", "--dropout", "0.3")

    def test_radius_check_passes(self, capsys):
        code, stdout, err = run(capsys, *self.RADIUS_CHECK)
        assert code == 0, err
        assert len(stdout.splitlines()) == 3

    def test_radius_check_fails_when_shrinking_adds_fp(self, capsys, monkeypatch):
        # The first run, at the default radius, reads 100 more FP than it has.
        evaluate, runs = cli.evaluate, []

        def more_fp_at_first(*args, **kwargs):
            report = evaluate(*args, **kwargs)
            runs.append(report.fp)
            return dataclasses.replace(report, fp=report.fp + 100 * (len(runs) == 1))

        monkeypatch.setattr(cli, "evaluate", more_fp_at_first)
        code, _, err = run(capsys, *self.RADIUS_CHECK)
        assert code == 3
        r = PipelineConfig().shrink_radius
        assert f"FP at r={r} ({runs[0] + 100}) exceeds no-shrink ({runs[1]})" in err

    @pytest.mark.parametrize("given, message", [
        (["--param", "epsilon", "--values", "abc"],
         "bad --values: could not convert string to float: 'abc'"),
        (["--param", "epsilon", "--values", ","], "--values is empty"),
        (["--param", "epsilon", "--values", "2"], "fusion_epsilon must lie in [0, 1], got 2.0"),
        (["--param", "r", "--values=-inf"], "shrink_radius must be >= 0 or inf"),
        (["--param", "r", "--values", "3,nan"], "shrink_radius must be >= 0 or inf"),
    ])
    def test_bad_values_are_usage_error(self, tmp_path, capsys, given, message):
        out = tmp_path / "sweep.csv"
        code, stdout, err = run(capsys, "sweep", *given, "--frames", "2", "--out", str(out))
        assert (code, stdout, err) == (1, "", f"usage error: {message}\n")
        assert not out.exists()

    def test_bad_param_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--param", "banana", "--values", "1")
        assert code == 1

    # A value equal to the default conflicts too: r's 3 and epsilon's 0.5.
    @pytest.mark.parametrize("param,flag,value", [
        ("r", "--radius", "3"),
        ("epsilon", "--epsilon", "0.9"),
        ("epsilon", "--epsilon", "0.5"),
    ])
    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    def test_flag_the_sweep_overrides_is_usage_error(self, tmp_path, capsys,
                                                    param, flag, value, by_config):
        if by_config:
            config = tmp_path / "sweep.cfg"
            key = flag[2:].replace("-", "_")
            config.write_text(f"{key}={value or 'true'}\n")
            extra = ["--config", str(config)]
        else:
            extra = [flag] + ([value] if value else [])
        code, stdout, err = run(capsys, "sweep", "--param", param, "--values", "0.5",
                                "--frames", "2", *extra)
        assert code == 1
        assert flag in err and f"--param {param}" in err
        assert stdout == ""

    def test_flag_of_the_other_parameter_is_kept(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "--param", "r", "--values", "3", "--epsilon", "0.9",
            "--disable-recheck", "--targets", "1", "--frames", "2", "--grid", "8x8",
        )
        assert code == 0
        assert stdout.splitlines()[-1].startswith("3,")


def disk_full_beside(monkeypatch, path, limit=5):
    """frame_io's files opened beside path fail to write after limit characters."""
    def opener(file, *args, **kwargs):
        f = builtins.open(file, *args, **kwargs)
        return _DiskFullAfter(f, limit) if os.fspath(file).startswith(str(path)) else f

    monkeypatch.setattr(frame_io, "open", opener, raising=False)


class TestAtomicOutputs:
    """A failed write of an output file leaves the earlier file and no temporary."""

    def test_eval_csv(self, scenario, tmp_path, capsys, monkeypatch):
        results = tmp_path / "echo.txt"
        write_mot_results(read_mot_boxes(scenario["gt"])[:20], results)
        csv = tmp_path / "report.csv"
        assert run(capsys, "eval", "--gt", str(scenario["gt"]), "--results",
                   str(scenario["gt"]), "--csv", str(csv))[0] == 0
        before = csv.read_bytes()
        disk_full_beside(monkeypatch, csv)
        code, _, err = run(capsys, "eval", "--gt", str(scenario["gt"]), "--results",
                           str(results), "--csv", str(csv))
        assert code == 2 and "No space" in err
        assert csv.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["echo.txt", "report.csv"]

    def test_synth_dropped(self, tmp_path, capsys, monkeypatch):
        dropped = tmp_path / "dropped.csv"

        def synth(seed):
            return run(capsys, "synth", "--out", str(tmp_path / "w.omcf"),
                       "--gt", str(tmp_path / "gt.txt"), "--dropped", str(dropped),
                       "--targets", "2", "--frames", "6", "--grid", "8x8",
                       "--dropout", "0.5", "--seed", str(seed))

        assert synth(0)[0] == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        disk_full_beside(monkeypatch, dropped)
        code, _, err = synth(1)
        assert code == 2 and "No space" in err
        # The seed-0 world, ground truth and drops stay together.
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dropped.csv", "gt.txt",
                                                              "w.omcf"]

    def test_sweep_out(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sweep.csv"

        def sweep(values):
            return run(capsys, "sweep", "--param", "epsilon", "--values", values,
                       "--out", str(out), "--targets", "2", "--frames", "4",
                       "--grid", "8x8", "--seed", "1")

        assert sweep("0.5")[0] == 0
        before = out.read_bytes()
        disk_full_beside(monkeypatch, out)
        code, _, err = sweep("0.3,0.5")
        assert code == 2 and "No space" in err
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


class TestRepeatedPaths:
    """An output path may not name the file of another path flag of its command."""

    SYNTH = ("--targets", "2", "--frames", "3", "--grid", "8x8")

    @pytest.mark.parametrize("argv, flags", [
        (("synth", "--out", "{same}", "--gt", "{same}", *SYNTH), ("--out", "--gt")),
        (("synth", "--out", "{same}", "--gt", "{other}", "--dropped", "{same}", *SYNTH),
         ("--out", "--dropped")),
        (("synth", "--out", "{other}", "--gt", "{dir}/../same.txt", "--dropped", "{same}",
          *SYNTH), ("--gt", "--dropped")),
        (("track", "--container", "{same}", "--out", "{same}"), ("--out", "--container")),
        (("eval", "--gt", "{other}", "--results", "{same}", "--csv", "{same}"),
         ("--csv", "--results")),
        (("sweep", "--param", "epsilon", "--values", "0.5", "--out", "{same}",
          "--config", "{same}"), ("--out", "--config")),
    ], ids=["synth-out-gt", "synth-out-dropped", "synth-gt-dropped-via-dotdot",
            "track-out-container", "eval-csv-results", "sweep-out-config"])
    def test_is_usage_error_naming_both_flags_and_writing_nothing(self, tmp_path, capsys,
                                                                  argv, flags):
        same, other = tmp_path / "same.txt", tmp_path / "other.txt"
        (tmp_path / "sub").mkdir()
        same.write_text("# before\n")
        names = dict(same=same, other=other, dir=tmp_path / "sub")
        code, out, err = run(capsys, *(a.format(**names) for a in argv))
        assert code == 1 and out == ""
        assert err == (f"usage error: {flags[0]} and {flags[1]} name the same file "
                       f"{os.path.realpath(same)}\n")
        assert same.read_text() == "# before\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["same.txt", "sub"]

    def test_two_inputs_may_share_a_path(self, scenario, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        code, _, _ = run(capsys, "eval", "--gt", str(scenario["gt"]),
                         "--results", str(scenario["gt"]), "--csv", str(csv))
        assert code == 0 and csv.exists()


class TestGradcheckCommand:
    def test_defaults_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck")
        assert code == 0
        summary = parse_kv(out)
        assert summary["status"] == "pass"
        assert float(summary["max_rel_err"]) < 1e-4

    def test_fixed_seed_reproducible(self, capsys):
        _, out1, _ = run(capsys, "gradcheck", "--seed", "5", "--instances", "3")
        _, out2, _ = run(capsys, "gradcheck", "--seed", "5", "--instances", "3")
        assert out1 == out2

    def test_zero_instances_usage_error(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--instances", "0")
        assert code == 1
        assert "usage error" in err

    def test_wrong_gradient_fails_the_check(self, capsys, monkeypatch):
        right = cli.loss_gradient
        monkeypatch.setattr(cli, "loss_gradient",
                            lambda m_p, target, n: 2.0 * right(m_p, target, n))
        code, out, err = run(capsys, "gradcheck", "--instances", "1")
        assert code == 3
        assert parse_kv(out)["status"] == "fail"
        assert err.startswith("check failed: gradient check failed: max_rel_err=")


class TestParserBehaviour:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "track", "--frobnicate")
        assert code == 1

    def test_track_seed_is_usage_error_naming_the_flag(self, scenario, tmp_path, capsys):
        results = tmp_path / "r.txt"
        code, out, err = run(capsys, "track", "--container", str(scenario["container"]),
                             "--out", str(results), "--seed", "3")
        assert code == 1
        assert "--seed" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\n")
        code, out, err = run(capsys, "track", "--container", str(scenario["container"]),
                             "--out", str(results), "--config", str(cfg))
        assert code == 1
        assert f"{cfg}:1: unknown key 'seed'" in err
        assert not results.exists()

    @pytest.mark.parametrize("command, given, message", [
        ("synth", ["--out", "x.omcf", "--gt", "gt.txt"], "seed must be >= 0, got -1"),
        ("sweep", ["--param", "epsilon", "--values", "0.5", "--frames", "2"],
         "seed must be >= 0, got -1"),
        ("gradcheck", [], "--seed must be >= 0, got -1"),
    ])
    def test_negative_seed_is_usage_error_naming_seed(self, tmp_path, capsys, monkeypatch,
                                                      command, given, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, command, *given, "--seed", "-1")
        assert (code, out, err) == (1, "", f"usage error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_grid_that_is_not_h_by_w_is_usage_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "synth", "--out", str(tmp_path / "x.omcf"),
                             "--gt", str(tmp_path / "gt.txt"), "--grid", "20")
        assert (code, out) == (1, "")
        assert err == "usage error: argument --grid: must look like 20x20, got '20'\n"

    @pytest.mark.parametrize("flag, value, form", [("--grid", "axb", "20x20"),
                                                   ("--speed", "a:b", "LO:HI")])
    def test_pair_of_non_numbers_is_usage_error(self, tmp_path, capsys, flag, value, form):
        code, out, err = run(capsys, "synth", "--out", str(tmp_path / "x.omcf"),
                             "--gt", str(tmp_path / "gt.txt"), flag, value)
        assert (code, out) == (1, "")
        assert err == f"usage error: argument {flag}: must look like {form}, got '{value}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_unreadable_config_is_usage_error(self, scenario, tmp_path, capsys):
        results = tmp_path / "r.txt"
        code, out, err = run(capsys, "track", "--container", str(scenario["container"]),
                             "--out", str(results), "--config", str(tmp_path / "none.cfg"))
        assert (code, out) == (1, "")
        assert err.startswith("usage error: cannot read config file: ")
        assert "none.cfg" in err
        assert not results.exists()

    def test_config_line_without_equals_is_usage_error(self, scenario, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# radius\nradius 3\n")
        results = tmp_path / "r.txt"
        code, out, err = run(capsys, "track", "--container", str(scenario["container"]),
                             "--out", str(results), "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"usage error: {cfg}:2: expected key=value, got 'radius 3'\n"
        assert not results.exists()

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_help_lists_flags_and_exits_clean(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["track", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--epsilon", "--radius", "--hscale", "--k", "--alpha",
                     "--stride", "--disable-recheck",
                     "--config", "--public", "--weights"):
            assert flag in out
        for removed in ("--refine", "--disable-shrink", "--embedding-mode", "--decode"):
            assert removed not in out

    # A value other than the default for each optional flag of track and
    # sweep that takes a value; a switch is given bare.
    NON_DEFAULT = {
        "epsilon": "0.9", "radius": "2", "hscale": "9", "k": "7", "alpha": "0.5",
        "stride": "4", "score_thr": "0.3", "iou_thr": "0.3", "emb_match_thr": "0.3",
        "iou_match_thr": "0.1", "weights": "w.omcf", "public": "det.txt",
        "targets": "3", "frames": "9", "dropout": "0.2", "clutter": "0.5",
        "noise": "0.1", "seed": "4", "grid": "12x16", "speed": "0.2:0.3",
        "size": "1.5:2.5", "out": "o.csv",
    }

    @pytest.mark.parametrize("command, required", [
        ("track", ["--container", "c", "--out", "o"]),
        ("sweep", ["--param", "epsilon", "--values", "0.5"]),
    ])
    def test_no_config_field_is_set_by_two_flags(self, command, required):
        parser = cli._build_parser()[1][command]

        def fields(argv):
            args = parser.parse_args(required + argv)
            configs = [cli._build_pipeline(args)]
            if command == "sweep":
                configs.append(cli._build_scenario(args))
            return {(type(c).__name__, f.name): getattr(c, f.name)
                    for c in configs for f in dataclasses.fields(c)}

        default = fields([])
        set_by: dict[tuple[str, str], list[str]] = {}
        for dest, action in parser._flags().items():
            value = [] if action.nargs == 0 else [self.NON_DEFAULT[dest]]
            moved = fields([action.option_strings[0], *value])
            for key in moved:
                if moved[key] != default[key]:
                    set_by.setdefault(key, []).append(action.option_strings[0])
        assert {key: flags for key, flags in set_by.items() if len(flags) > 1} == {}
        scenario = cli._SCENARIO_FLAGS if command == "sweep" else ()
        for flag in cli._TRACKING_FLAGS + scenario:
            assert set_by[flag.owner.__name__, flag.field] == [f"--{flag.flag}"]
            action = parser._flags()[flag.flag.replace("-", "_")]
            assert help_default(action) == default[flag.owner.__name__, flag.field], flag.flag
        for f in dataclasses.fields(PipelineConfig):
            assert len(set_by.get(("PipelineConfig", f.name), [])) == 1, f.name

    def test_readme_flag_defaults_are_the_config_defaults(self):
        # Each tracking flag's help names its config field's default, and
        # each default in the README's flag table is the one track's help
        # names.
        track = cli._build_parser()[1]["track"]
        defaults = {a.dest: help_default(a) for a in track._actions if a.option_strings}
        for flag in cli._TRACKING_FLAGS:
            field = {f.name: f for f in dataclasses.fields(flag.owner)}[flag.field]
            assert defaults[flag.flag.replace("-", "_")] == field.default, flag.flag
        table = README.read_text(encoding="utf-8").split("### Main flags and defaults")[1]
        rows = table.strip().split("\n\n")[0].splitlines()[2:]
        flags_seen = 0
        for row in rows:
            flag_col, _, default_col = row.strip("|").split("|")
            flags = re.findall(r"`--([a-z-]+)`", flag_col)
            texts = default_col.split(" / ")
            for flag, text in zip(flags, texts * len(flags) if len(texts) == 1 else texts):
                assert defaults[flag.replace("-", "_")] == readme_default(text), flag
                flags_seen += 1
        assert flags_seen >= len(rows) > 10

    def test_log_env_var_accepted(self, scenario, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OMC_LOG", "debug")
        code, _, _ = run(
            capsys, "track", "--container", str(scenario["container"]),
            "--out", str(tmp_path / "r.txt"),
        )
        assert code == 0


# argv that reaches each command's function; the functions are replaced.
_TRACKING_ARGV = {
    "track": ("track", "--container", "in.omcf", "--out", "r.txt"),
    "sweep": ("sweep", "--param", "epsilon", "--values", "0.5"),
}


class TestBlasThreads:
    """While any command runs, numpy's OpenBLAS is held at one thread."""

    @pytest.fixture
    def blas(self, monkeypatch):
        calls = cli._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy is not linked against its bundled OpenBLAS")
        get, set_threads = calls
        before = get()
        set_threads(2)
        for name in cli._OPENBLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        seen = []

        def command(args):
            seen.append(get())
            return cli.EXIT_OK

        for name in ("_cmd_track", "_cmd_sweep", "_cmd_gradcheck", "_cmd_synth", "_cmd_eval"):
            monkeypatch.setattr(cli, name, command)
        yield get, seen
        set_threads(before)

    @pytest.mark.parametrize("command", sorted(_TRACKING_ARGV))
    def test_one_thread_while_tracking(self, blas, command, capsys):
        get, seen = blas
        assert run(capsys, *_TRACKING_ARGV[command])[0] == 0
        assert seen == [1]
        assert get() == 2

    @pytest.mark.parametrize("argv", [("gradcheck",), ("synth", "--out", "c", "--gt", "g"),
                                      ("eval", "--gt", "g", "--results", "r")])
    def test_other_commands_held_too(self, blas, argv, capsys):
        get, seen = blas
        assert run(capsys, *argv)[0] == 0
        assert seen == [1]
        assert get() == 2

    def test_count_restored_when_the_command_fails(self, blas, monkeypatch, capsys):
        get, seen = blas

        def failing(args):
            seen.append(get())
            raise ValueError("bad data")

        monkeypatch.setattr(cli, "_cmd_track", failing)
        assert run(capsys, *_TRACKING_ARGV["track"])[0] == cli.EXIT_DATA
        assert seen == [1]
        assert get() == 2

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                      "OMP_NUM_THREADS"])
    def test_explicit_setting_left_alone(self, blas, name, monkeypatch, capsys):
        get, seen = blas
        monkeypatch.setenv(name, "2")
        assert run(capsys, *_TRACKING_ARGV["track"])[0] == 0
        assert seen == [2]

    def test_missing_symbol_does_nothing(self, blas, monkeypatch, capsys):
        get, seen = blas
        monkeypatch.setattr(cli, "_OPENBLAS_SET", "no_such_symbol")
        assert cli._openblas_thread_calls() is None
        assert run(capsys, *_TRACKING_ARGV["track"])[0] == 0
        assert seen == [2]

    def test_library_that_cannot_load_does_nothing(self, blas, monkeypatch, capsys):
        get, seen = blas

        def cannot_load(path):
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(cli.ctypes, "CDLL", cannot_load)
        assert cli._openblas_thread_calls() is None
        assert run(capsys, *_TRACKING_ARGV["track"])[0] == 0
        assert seen == [2]

    def test_track_subprocess_runs_on_one_thread(self, scenario, tmp_path):
        # omctrack track as users run it, in a fresh interpreter.
        script = (
            "import sys\n"
            "from omctrack import association, cli\n"
            "get, _ = cli._openblas_thread_calls()\n"
            "step = association.Tracker.step\n"
            "def counted(self, frame, *rest):\n"
            "    print('blas_threads', get(), file=sys.stderr)\n"
            "    return step(self, frame, *rest)\n"
            "association.Tracker.step = counted\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in cli._OPENBLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        argv = [sys.executable, "-c", script, "track", "--container",
                str(scenario["container"]), "--out", str(tmp_path / "r.txt")]
        # OpenBLAS caps an environment-set count at the CPUs the process may use.
        explicit = str(min(2, len(os.sched_getaffinity(0))))
        for extra, want in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, explicit)):
            done = subprocess.run(argv, env={**env, **extra}, capture_output=True,
                                  text=True, check=True)
            counts = {line.split()[1] for line in done.stderr.splitlines()
                      if line.startswith("blas_threads")}
            assert counts == {want}
