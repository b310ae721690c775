import contextlib
import copy
import json
import os
import re
import struct
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hypersfda import (
    AdaptConfig,
    EmaState,
    EmbeddingDataset,
    GradientSet,
    adapt,
    init_model,
    load_checkpoint,
    load_dataset,
    load_model,
    save_checkpoint,
    save_dataset,
)
from hypersfda import cli
from hypersfda.cli import _COMMAND_FIELDS, main

from helpers import adapt_for, cli_options

STREAM_KEYS = {
    "iter", "total", "l_ada_pull", "l_ada_push", "l_reg", "lambda",
    "acc", "neighbor_agreement",
}

GEN_ARGS = [
    "gen", "--classes", "3", "--dim", "8", "--n-source", "60", "--n-target", "60",
    "--rotate-deg", "25", "--noise-sigma", "0.4", "--separation", "3.0",
]
ADAPT_FLAGS = [
    "--k", "4", "--h", "3", "--m-prime", "4", "--batch-size", "32",
    "--epochs", "2", "--t-in", "2",
]


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared gen + pretrain outputs for the adapt/eval tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run_cli(*GEN_ARGS, "--seed", "0", "--out", root, "--quiet") == 0
    assert run_cli(
        "pretrain", "--source", root / "source.csv", "--pretrain-epochs", "30",
        "--lr", "0.01", "--seed", "0", "--out", root, "--quiet",
    ) == 0
    return root


class TestGen:
    def test_writes_datasets_and_manifest(self, tmp_path, capsys):
        assert run_cli(*GEN_ARGS, "--seed", "1", "--out", tmp_path) == 0
        out = capsys.readouterr().out
        assert "source.csv" in out and "target.csv" in out
        source = load_dataset(tmp_path / "source.csv")
        target = load_dataset(tmp_path / "target.csv")
        assert source.n == 60 and source.dim == 8 and source.class_count == 3
        assert target.domain_tag == "target" and target.labels is not None
        manifest = json.loads((tmp_path / "gen_manifest.json").read_text())
        assert manifest["command"] == "gen" and manifest["seed"] == 1
        assert manifest["config"]["rotate_deg"] == 25.0
        assert manifest["outputs"]["target"].endswith("target.csv")

    def test_deterministic_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(*GEN_ARGS, "--seed", "7", "--out", tmp_path / sub, "--quiet") == 0
        for name in ("source.csv", "target.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_two_moons_kind(self, tmp_path):
        assert run_cli(
            "gen", "--kind", "two-moons", "--dim", "5", "--n-source", "40",
            "--n-target", "40", "--seed", "2", "--out", tmp_path, "--quiet",
        ) == 0
        source = load_dataset(tmp_path / "source.csv")
        assert source.class_count == 2 and source.dim == 5

    def test_quiet_silences_progress(self, tmp_path, capsys):
        assert run_cli(*GEN_ARGS, "--out", tmp_path, "--quiet") == 0
        assert capsys.readouterr().out == ""

    def test_records_flags_as_given(self, tmp_path):
        assert run_cli("gen", "--kind", "two-moons", "--dim", "5", "--n-source", "40",
                       "--n-target", "40", "--seed", "2", "--out", tmp_path, "--quiet") == 0
        manifest = json.loads((tmp_path / "gen_manifest.json").read_text())
        assert manifest["config"]["seed"] == 2 and manifest["config"]["classes"] == 4
        assert manifest["config"]["kind"] == "two-moons" and manifest["inputs"] == {}

    def test_failure_leaves_unfinished_manifest(self, tmp_path, capsys):
        # a write that fails once the work has started; refused inputs never
        # get this far (TestAdapt.test_refused_run_leaves_previous_outputs_alone)
        (tmp_path / "source.csv").mkdir()
        assert run_cli("gen", "--out", tmp_path, "--quiet") == 2
        assert "source.csv" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "gen_manifest.json").read_text())
        assert manifest["finished_at"] == "" and manifest["config"]["classes"] == 4
        assert not (tmp_path / "target.csv").exists()


class TestPretrain:
    def test_reports_accuracy_and_saves_model(self, workspace, capsys):
        capsys.readouterr()
        assert run_cli(
            "pretrain", "--source", workspace / "source.csv", "--seed", "0",
            "--out", workspace / "re", "--pretrain-epochs", "30", "--lr", "0.01",
            "--quiet",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["source_accuracy"] <= 1.0
        model = load_model(workspace / "re" / "source_model.ckpt")
        assert model.dim == 8 and model.class_count == 3
        manifest = json.loads((workspace / "re" / "pretrain_manifest.json").read_text())
        assert manifest["command"] == "pretrain"
        assert manifest["config"]["lr"] == 0.01
        assert manifest["finished_at"] != ""

    def test_manifest_reproduces_checkpoint(self, workspace, tmp_path):
        manifest_path = workspace / "pretrain_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert list(manifest["config"]) == list(_COMMAND_FIELDS["pretrain"])
        assert manifest["inputs"] == {"source": str(workspace / "source.csv"),
                                      "pretrain_epochs": 30}
        inputs = manifest["inputs"]
        assert run_cli(
            "pretrain", "--config", manifest_path, "--source", inputs["source"],
            "--pretrain-epochs", inputs["pretrain_epochs"], "--out", tmp_path, "--quiet",
        ) == 0
        assert ((tmp_path / "source_model.ckpt").read_bytes()
                == (workspace / "source_model.ckpt").read_bytes())

    def test_rejects_unlabeled_source(self, tmp_path, workspace, capsys):
        ds = load_dataset(workspace / "target.csv")
        bare = EmbeddingDataset(ds.features, None, "source", ds.class_count)
        save_dataset(bare, tmp_path / "unlabeled.csv")
        code = run_cli("pretrain", "--source", tmp_path / "unlabeled.csv",
                       "--out", tmp_path, "--quiet")
        assert code == 2
        assert "labeled" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = run_cli("pretrain", "--source", tmp_path / "nope.csv",
                       "--out", tmp_path, "--quiet")
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exits_3_and_saves_last_finite_model(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli(
            "pretrain", "--source", workspace / "source.csv", "--pretrain-epochs", "5",
            "--lr", "1e300", "--seed", "0", "--out", tmp_path, "--quiet",
        ) == 3
        err = capsys.readouterr().err
        assert re.search(r"pretraining aborted at epoch \d+, step \d+: non-finite", err)
        assert "Traceback" not in err
        assert f"saved to {tmp_path / 'source_model.ckpt'}" in err
        model = load_model(tmp_path / "source_model.ckpt")
        assert all(np.isfinite(t).all() for t in model.tensors())
        manifest = json.loads((tmp_path / "pretrain_manifest.json").read_text())
        assert manifest["finished_at"] == ""


class TestAdapt:
    def test_end_to_end_outputs(self, workspace):
        out = workspace / "run"
        code = run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", *ADAPT_FLAGS,
            "--seed", "0", "--out", out, "--quiet",
        )
        assert code == 0
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4
        for t, line in enumerate(lines):
            record = json.loads(line)
            assert set(record) == STREAM_KEYS
            assert record["iter"] == t
            assert np.isfinite(record["total"])
            assert 0.0 <= record["acc"] <= 1.0
        state = load_checkpoint(out / "adapted.ckpt")
        assert state.iteration == 4
        manifest = json.loads((out / "adapt_manifest.json").read_text())
        assert manifest["command"] == "adapt"
        assert manifest["config"]["k"] == 4 and manifest["config"]["epochs"] == 2
        assert manifest["inputs"]["model"].endswith("source_model.ckpt")
        assert manifest["finished_at"] != ""

    def test_manifest_reproduces_run(self, workspace, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", *ADAPT_FLAGS,
            "--seed", "3", "--out", first, "--quiet",
        ) == 0
        manifest = json.loads((first / "adapt_manifest.json").read_text())
        assert list(manifest["config"]) == list(_COMMAND_FIELDS["adapt"])
        assert "d_z" not in manifest["config"]
        assert "label_smoothing" not in manifest["config"]
        assert manifest["inputs"] == {"model": str(workspace / "source_model.ckpt"),
                                      "target": str(workspace / "target.csv"),
                                      "resume": None}
        assert manifest["seed"] == 3
        assert run_cli(
            "adapt", "--config", first / "adapt_manifest.json",
            "--model", manifest["inputs"]["model"], "--target", manifest["inputs"]["target"],
            "--out", second, "--quiet",
        ) == 0
        for name in ("adapted.ckpt", "metrics.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_unlabeled_target_omits_accuracy(self, workspace, tmp_path):
        ds = load_dataset(workspace / "target.csv")
        bare = EmbeddingDataset(ds.features, None, "target", ds.class_count)
        save_dataset(bare, tmp_path / "bare.csv")
        assert run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", tmp_path / "bare.csv", *ADAPT_FLAGS,
            "--seed", "0", "--out", tmp_path, "--quiet",
        ) == 0
        for line in (tmp_path / "metrics.jsonl").read_text().strip().splitlines():
            record = json.loads(line)
            assert record["acc"] is None and record["neighbor_agreement"] is None
            assert np.isfinite(record["total"])

    def test_artifacts_byte_identical_across_reruns(self, workspace):
        blobs = []
        for sub in ("det_a", "det_b"):
            out = workspace / sub
            assert run_cli(
                "adapt", "--model", workspace / "source_model.ckpt",
                "--target", workspace / "target.csv", *ADAPT_FLAGS,
                "--seed", "3", "--out", out, "--quiet",
            ) == 0
            blobs.append(
                ((out / "metrics.jsonl").read_bytes(), (out / "adapted.ckpt").read_bytes())
            )
        assert blobs[0] == blobs[1]

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "k": 8, "h": 3, "m_prime": 4, "batch_size": 32, "epochs": 1, "t_in": 2,
        }))
        out = tmp_path / "run"
        assert run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", "--config", cfg_path,
            "--k", "4", "--seed", "0", "--out", out, "--quiet",
        ) == 0
        manifest = json.loads((out / "adapt_manifest.json").read_text())
        assert manifest["config"]["k"] == 4       # flag wins
        assert manifest["config"]["epochs"] == 1  # file wins over default
        # a manifest is itself an accepted config file
        resolved = AdaptConfig.from_json(out / "adapt_manifest.json")
        assert resolved.k == 4 and resolved.epochs == 1

    def test_unknown_config_fields_rejected(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"k": 4, "learning_rate": 0.1}))
        code = run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", "--config", cfg_path,
            "--out", tmp_path, "--quiet",
        )
        assert code == 2
        assert "unknown config fields" in capsys.readouterr().err

    def test_dim_mismatch_is_usage_error(self, workspace, tmp_path, capsys):
        assert run_cli(
            "gen", "--classes", "3", "--dim", "5", "--n-source", "30",
            "--n-target", "30", "--seed", "0", "--out", tmp_path, "--quiet",
        ) == 0
        code = run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", tmp_path / "target.csv", "--out", tmp_path, "--quiet",
        )
        assert code == 2
        assert "dim" in capsys.readouterr().err

    @pytest.fixture
    def partial_ckpt(self, workspace, tmp_path):
        model = load_model(workspace / "source_model.ckpt")
        target = load_dataset(workspace / "target.csv")
        cfg = AdaptConfig(seed=0, k=4, h=3, m_prime=4, batch_size=32, epochs=2, t_in=2)
        _, _, state = adapt_for(model, target, cfg, 2)
        save_checkpoint(state, tmp_path / "partial.ckpt")
        return tmp_path / "partial.ckpt"

    def test_resume_matches_uninterrupted_run(self, workspace, partial_ckpt, tmp_path):
        full = workspace / "run"  # written by test_end_to_end_outputs
        out = tmp_path / "resumed"
        assert run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", "--resume", partial_ckpt,
            *ADAPT_FLAGS, "--seed", "0", "--out", out, "--quiet",
        ) == 0
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert json.loads(lines[0])["iter"] == 2 and len(lines) == 2
        assert (out / "adapted.ckpt").read_bytes() == (full / "adapted.ckpt").read_bytes()

    def test_resume_into_same_directory_appends(self, workspace, partial_ckpt, tmp_path):
        full, out = tmp_path / "full", tmp_path / "same"
        args = ["adapt", "--model", workspace / "source_model.ckpt",
                "--target", workspace / "target.csv", *ADAPT_FLAGS, "--seed", "0", "--quiet"]
        assert run_cli(*args, "--out", full) == 0
        stream = (full / "metrics.jsonl").read_bytes()
        out.mkdir()
        (out / "metrics.jsonl").write_bytes(b"".join(stream.splitlines(keepends=True)[:2]))
        assert run_cli(*args, "--resume", partial_ckpt, "--out", out) == 0
        assert (out / "metrics.jsonl").read_bytes() == stream
        assert (out / "adapted.ckpt").read_bytes() == (full / "adapted.ckpt").read_bytes()
        manifest = json.loads((out / "adapt_manifest.json").read_text())
        assert manifest["inputs"]["resume"] == str(partial_ckpt)
        # resuming the finished run adds nothing and keeps every record
        assert run_cli(*args, "--resume", out / "adapted.ckpt", "--out", out) == 0
        assert (out / "metrics.jsonl").read_bytes() == stream

    def test_resume_against_other_sample_count_is_refused(
            self, workspace, partial_ckpt, tmp_path, capsys):
        ds = load_dataset(workspace / "target.csv")
        save_dataset(EmbeddingDataset(ds.features[:50], ds.labels[:50], "target",
                                      ds.class_count), tmp_path / "short.csv")
        code = run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", tmp_path / "short.csv", "--resume", partial_ckpt,
            *ADAPT_FLAGS, "--seed", "0", "--out", tmp_path / "out", "--quiet",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "60 target samples" in err and "Traceback" not in err

    def test_resume_with_other_h_is_refused(self, workspace, partial_ckpt, tmp_path, capsys):
        code = run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", "--resume", partial_ckpt,
            *ADAPT_FLAGS, "--h", "2", "--seed", "0", "--out", tmp_path / "out", "--quiet",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "h=3" in err and "Traceback" not in err

    def test_refused_run_leaves_previous_outputs_alone(
            self, workspace, partial_ckpt, tmp_path, capsys):
        out = tmp_path / "out"
        gen = [*GEN_ARGS, "--seed", "0", "--out", out, "--quiet"]
        pretrain = ["pretrain", "--source", workspace / "source.csv", "--pretrain-epochs", "30",
                    "--lr", "0.01", "--seed", "0", "--out", out, "--quiet"]
        args = ["adapt", "--model", workspace / "source_model.ckpt",
                "--target", workspace / "target.csv", *ADAPT_FLAGS, "--seed", "0",
                "--out", out, "--quiet"]
        for command in (gen, pretrain, args):
            assert run_cli(*command) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # gen refuses its flags, pretrain its source and epochs, before --out
        source = load_dataset(workspace / "source.csv")
        save_dataset(replace(source, labels=None), tmp_path / "unlabeled.csv")
        save_dataset(replace(source, labels=np.zeros(source.n, dtype=np.int64), class_count=1),
                     tmp_path / "one_class.csv")
        refused = [
            ([*gen, "--classes", "1"], "class_count must be >= 2"),
            ([*gen, "--noise-sigma", "-1"], "noise_sigma must be >= 0"),
            ([*pretrain, "--source", tmp_path / "unlabeled.csv"], "labeled source"),
            ([*pretrain, "--pretrain-epochs", "-1"], "epochs must be >= 0"),
            ([*pretrain, "--source", tmp_path / "one_class.csv"], "class_count >= 2"),
        ]
        # checkpoints each refused only once loaded: no samples, EMA stamps
        # at or past the checkpoint's iteration (2), and a model of input
        # dim 7 where the target and --model have dim 8
        state = load_checkpoint(partial_ckpt)
        d, d_z, c = state.model.dims
        empty = replace(state, bank=SimpleNamespace(features=np.empty((0, d_z)),
                                                    predictions=np.empty((0, c))),
                        ema=EmaState.initial(0, c), clusters=np.empty((0, 3), dtype=np.int64),
                        known_mask=np.empty(0, dtype=bool))
        late = copy.deepcopy(state)
        late.ema.last_update_iter[:] = 5
        narrow = init_model(d - 1, c, seed=0, d_z=d_z)
        narrow = replace(state, model=narrow, velocity=GradientSet.zeros_like(narrow))
        # the target has 60 rows
        cases = [("--k", "700", "k-1=699"), ("--m-prime", "60", "m_prime=60")]
        for broken, reason in [(empty, "holds 0 target samples"),
                               (late, "EMA stamps outside [-1, 2)"),
                               (narrow, f"dim {d - 1} but target has dim {d}")]:
            save_checkpoint(broken, tmp_path / f"{len(cases)}.ckpt")
            cases.append(("--resume", tmp_path / f"{len(cases)}.ckpt", reason))
        refused += [([*args, flag, value], reason) for flag, value, reason in cases]
        for argv, reason in refused:
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert reason in err and "Traceback" not in err, err
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_stream_holds_every_completed_iteration(self, workspace, tmp_path, monkeypatch):
        metrics_path, lines = tmp_path / "metrics.jsonl", []

        def watched(*args, iteration_callback, **kwargs):
            def callback(state, record):
                iteration_callback(state, record)
                lines.append((state.iteration, metrics_path.read_bytes().count(b"\n")))
            return adapt(*args, iteration_callback=callback, **kwargs)

        monkeypatch.setattr(cli, "adapt", watched)
        assert run_cli("adapt", "--model", workspace / "source_model.ckpt",
                       "--target", workspace / "target.csv", *ADAPT_FLAGS, "--seed", "0",
                       "--out", tmp_path, "--quiet") == 0
        assert lines == [(t, t) for t in range(1, 5)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_run_state_resumes(self, workspace, tmp_path):
        args = ["adapt", "--model", workspace / "source_model.ckpt",
                "--target", workspace / "target.csv", *ADAPT_FLAGS, "--seed", "0", "--quiet"]
        assert run_cli(*args, "--lr", "1e300", "--out", tmp_path / "bad") == 3
        saved = load_checkpoint(tmp_path / "bad" / "adapted.ckpt")
        assert np.isfinite(saved.bank.predictions).all()
        assert run_cli(*args, "--resume", tmp_path / "bad" / "adapted.ckpt",
                       "--out", tmp_path / "good") == 0
        assert load_checkpoint(tmp_path / "good" / "adapted.ckpt").iteration == 4

    # the stream already in --out: the whole run's, or its first two records
    # and a line cut short
    @pytest.mark.parametrize("cut", [None, 20])
    def test_resume_trims_records_past_the_checkpoint(
            self, workspace, partial_ckpt, tmp_path, cut):
        full, out = tmp_path / "full", tmp_path / "over"
        args = ["adapt", "--model", workspace / "source_model.ckpt",
                "--target", workspace / "target.csv", *ADAPT_FLAGS, "--seed", "0", "--quiet"]
        assert run_cli(*args, "--out", full) == 0
        stream = (full / "metrics.jsonl").read_bytes()
        out.mkdir()
        lines = stream.splitlines(keepends=True)
        (out / "metrics.jsonl").write_bytes(
            stream if cut is None else b"".join(lines[:2]) + lines[2][:cut])
        assert run_cli(*args, "--resume", partial_ckpt, "--out", out) == 0
        assert (out / "metrics.jsonl").read_bytes() == stream

    def test_resume_past_the_run_end_is_refused(self, workspace, tmp_path, capsys):
        args = ["adapt", "--model", workspace / "source_model.ckpt",
                "--target", workspace / "target.csv", *ADAPT_FLAGS, "--seed", "0", "--quiet"]
        assert run_cli(*args, "--out", tmp_path / "full") == 0
        code = run_cli(*args, "--epochs", "1", "--resume", tmp_path / "full" / "adapted.ckpt",
                       "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "past the run's end at 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, message", [
        ("clusters", "cluster indices outside [0, 60)"),
        ("iteration", "refresh iteration 0 outside [0, -5]"),
    ])
    def test_resume_from_corrupted_checkpoint_is_refused(
            self, workspace, partial_ckpt, tmp_path, capsys, field, message):
        state = load_checkpoint(partial_ckpt)
        if field == "clusters":
            state.clusters[0, 0] = 10**6
        else:
            state.iteration = -5
        save_checkpoint(state, tmp_path / "bad.ckpt")
        assert run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", "--resume", tmp_path / "bad.ckpt",
            *ADAPT_FLAGS, "--seed", "0", "--out", tmp_path / "out", "--quiet",
        ) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exits_3_and_saves_state(self, workspace, tmp_path, capsys):
        code = run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", *ADAPT_FLAGS,
            "--lr", "1e300", "--seed", "0", "--out", tmp_path, "--quiet",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "aborted at iteration" in err and "last good state" in err
        rescued = load_checkpoint(tmp_path / "adapted.ckpt")
        for t in rescued.model.tensors():
            assert np.isfinite(t).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_keeps_completed_records(self, workspace, tmp_path, capsys):
        # 1e300 now aborts at iteration 0, on the post-step outputs; this rate
        # keeps iteration 0 finite and overflows at iteration 1
        assert run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", *ADAPT_FLAGS,
            "--lr", "2.5e152", "--seed", "0", "--out", tmp_path, "--quiet",
        ) == 3
        aborted = load_checkpoint(tmp_path / "adapted.ckpt").iteration
        assert aborted >= 1
        assert f"aborted at iteration {aborted}:" in capsys.readouterr().err
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["iter"] for line in lines] == list(range(aborted))
        manifest = json.loads((tmp_path / "adapt_manifest.json").read_text())
        assert manifest["finished_at"] == ""

    # steps at these rates leave finite weights whose outputs overflow the
    # iteration-2 refresh: in its PCA (the first two) or in the features
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lr", ["9e151", "1e152", "1.1e152", "1.3e152"])
    def test_divergence_at_a_refresh_exits_3_and_saves_state(
            self, workspace, tmp_path, capsys, lr):
        assert run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", *ADAPT_FLAGS,
            "--lr", lr, "--seed", "0", "--out", tmp_path, "--quiet",
        ) == 3
        err = capsys.readouterr().err
        assert "aborted at iteration 2:" in err and "Traceback" not in err
        saved = load_checkpoint(tmp_path / "adapted.ckpt")
        assert saved.iteration == 2 and saved.refreshed_at == 0


class TestEval:
    def test_reports_metrics_json(self, workspace, capsys):
        capsys.readouterr()
        code = run_cli(
            "eval", "--model", workspace / "source_model.ckpt",
            "--data", workspace / "target.csv", "--quiet",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == STREAM_KEYS | {"misleading_ratio"}
        assert 0.0 <= payload["acc"] <= 1.0
        assert len(payload["misleading_ratio"]) == 3

    def test_reads_adapted_trainer_checkpoint(self, workspace, capsys):
        capsys.readouterr()
        code = run_cli(
            "eval", "--model", workspace / "run" / "adapted.ckpt",
            "--data", workspace / "target.csv", "--quiet",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["acc"] <= 1.0

    def test_rejects_unlabeled_data(self, workspace, tmp_path, capsys):
        ds = load_dataset(workspace / "target.csv")
        bare = EmbeddingDataset(ds.features, None, "target", ds.class_count)
        save_dataset(bare, tmp_path / "bare.csv")
        code = run_cli(
            "eval", "--model", workspace / "source_model.ckpt",
            "--data", tmp_path / "bare.csv", "--quiet",
        )
        assert code == 2
        assert "labeled" in capsys.readouterr().err

    def test_rejects_a_single_sample(self, workspace, tmp_path, capsys):
        ds = load_dataset(workspace / "target.csv")
        save_dataset(replace(ds, features=ds.features[:1], labels=ds.labels[:1]),
                     tmp_path / "one.csv")
        code = run_cli("eval", "--model", workspace / "source_model.ckpt",
                       "--data", tmp_path / "one.csv", "--quiet")
        assert code == 2
        assert "error: evaluation needs at least 2 samples, got 1" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_piped_data_is_a_usage_error(self, workspace, tmp_path, capsys):
        # the loader reads a dataset twice, so it needs a file it can rewind
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        text = (workspace / "target.csv").read_bytes()[:4000]

        def feed():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
                fh.write(text)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            capsys.readouterr()
            code = run_cli("eval", "--model", workspace / "source_model.ckpt",
                           "--data", fifo, "--quiet")
        finally:  # a reader that never came would leave the writer blocked in open()
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert code == 2
        err = capsys.readouterr().err
        assert "Illegal seek" not in err and "Errno" not in err
        assert f"error: {fifo} is not seekable: save a pipe's data to a file first" in err


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("--version")
        assert exc_info.value.code == 0
        assert "hypersfda" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            run_cli()
        assert exc_info.value.code == 2

    def test_invalid_flag_value_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("adapt", "--model", "m", "--target", "t", "--k", "four")
        assert exc_info.value.code == 2

    def test_config_error_maps_to_exit_2(self, workspace, capsys):
        code = run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", "--k", "2",
            "--out", workspace / "bad", "--quiet",
        )
        assert code == 2
        assert "k must be > 2" in capsys.readouterr().err


class TestOptions:
    """Each command registers only the settings it reads."""

    OPTIONS = {
        "gen": {"--seed", "--out", "--quiet", "--kind", "--classes", "--dim",
                "--n-source", "--n-target", "--rotate-deg", "--translate",
                "--noise-sigma", "--shift-seed", "--separation", "--sigma",
                "--moon-noise"},
        "pretrain": {"--out", "--quiet", "--source", "--pretrain-epochs", "--config",
                     "--batch-size", "--lr", "--momentum", "--d-z", "--seed",
                     "--label-smoothing"},
        "adapt": {"--out", "--quiet", "--model", "--target", "--resume", "--config",
                  "--k", "--t-in", "--alpha", "--h", "--gamma", "--delta", "--eta",
                  "--beta", "--batch-size", "--lr", "--momentum", "--epochs",
                  "--m-prime", "--seed", "--open-set", "--use-self-loops",
                  "--high-order"},
        "eval": {"--quiet", "--model", "--data", "--config", "--h"},
    }

    @pytest.mark.parametrize("command", ["gen", "pretrain", "adapt", "eval"])
    def test_option_set(self, command):
        assert cli_options(command) == self.OPTIONS[command]

    @pytest.mark.parametrize("argv", [
        ["pretrain", "--source", "s.csv", "--epochs", "200"],
        ["pretrain", "--source", "s.csv", "--k", "9"],
        ["adapt", "--model", "m", "--target", "t", "--d-z", "3"],
        ["adapt", "--model", "m", "--target", "t", "--label-smoothing", "0.5"],
        ["eval", "--model", "m", "--data", "d", "--k", "4"],
        ["eval", "--model", "m", "--data", "d", "--seed", "1"],
        ["gen", "--config", "x.json"],
        # abbreviations of real flags are not accepted either
        ["adapt", "--model", "m", "--target", "t", "--ep", "3"],
        ["pretrain", "--source", "s.csv", "--label", "0.3"],
        ["pretrain", "--source", "s.csv", "--pre", "7"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_removed_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(*argv)
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class TestBadInputs:
    """Every malformed setting or input file exits 2 with an error line."""

    def adapt(self, workspace, tmp_path, *extra):
        return run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "target.csv", *ADAPT_FLAGS, *extra,
            "--out", tmp_path / "out", "--quiet",
        )

    @pytest.mark.parametrize("payload", [
        b'{"k": "four"}', b'{"h": true}', b'{"k": 4.5}', b'{"epochs": 1.5}',
        b'{"open_set": "no"}', b'{"lr": NaN}', b'{"alpha": Infinity}', b'{"k": 4',
        b'{"k": "\xff"}',
    ])
    def test_bad_config_file(self, workspace, tmp_path, capsys, payload):
        (tmp_path / "cfg.json").write_bytes(payload)
        assert self.adapt(workspace, tmp_path, "--config", tmp_path / "cfg.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--alpha", "inf")])
    def test_non_finite_flag(self, workspace, tmp_path, capsys, flag, value):
        assert self.adapt(workspace, tmp_path, flag, value) == 2
        err = capsys.readouterr().err
        assert f"{flag[2:]} must be a finite number" in err and "Traceback" not in err

    def test_binary_file_as_target(self, workspace, tmp_path, capsys):
        assert run_cli(
            "adapt", "--model", workspace / "source_model.ckpt",
            "--target", workspace / "source_model.ckpt", "--out", tmp_path, "--quiet",
        ) == 2
        err = capsys.readouterr().err
        assert "not UTF-8 text" in err and "Traceback" not in err

    def test_non_finite_model_tensor(self, workspace, tmp_path, capsys):
        raw = bytearray((workspace / "source_model.ckpt").read_bytes())
        raw[18:26] = struct.pack("<d", float("nan"))  # W_f[0, 0], after the 18-byte header
        (tmp_path / "nan.ckpt").write_bytes(raw)
        assert run_cli("eval", "--model", tmp_path / "nan.ckpt",
                       "--data", workspace / "target.csv") == 2
        err = capsys.readouterr().err
        assert "non-finite values" in err and "Traceback" not in err

    def test_header_promising_more_than_the_file_holds(self, workspace, tmp_path, capsys):
        # d = d_z = 65535 asks for a 34 GB W_f from an 82-byte file
        raw = b"HSFD" + struct.pack("<HIII", 1, 65535, 65535, 2) + bytes(64)
        (tmp_path / "huge.ckpt").write_bytes(raw)
        assert run_cli("eval", "--model", tmp_path / "huge.ckpt",
                       "--data", workspace / "target.csv") == 2
        err = capsys.readouterr().err
        assert "truncated" in err and "Traceback" not in err
