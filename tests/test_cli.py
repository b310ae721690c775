import json

import numpy as np
import pytest

from hypersfda import (
    AdaptConfig,
    EmbeddingDataset,
    adapt,
    load_checkpoint,
    load_dataset,
    load_model,
    save_checkpoint,
    save_dataset,
)
from hypersfda.cli import main

from helpers import cli_options

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
        _, _, state = adapt(model, target, cfg, stop_after=2)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
