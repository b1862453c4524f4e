"""Command-level behavior: prep exclusions, training outputs, generation
records, evaluation reports, exit codes, and byte-identical reruns."""

import json
import shutil

import numpy as np
import pytest

from capseq import checkpoint
from capseq.cli import main
from capseq.pgm import write_pgm
from capseq.synthetic import write_raw_corpus

FAST = [
    "--set", "sat_epochs=2", "--set", "lm_epochs=2", "--set", "sat_decoder_dim=12",
    "--set", "sat_embed_dim=8", "--set", "sat_attention_dim=8",
    "--set", "sat_encoder_channels=8", "--set", "sat_pooled_side=2",
    "--set", "lm_model_dim=8", "--set", "lm_ffn_dim=16", "--set", "lm_layers=1",
    "--set", "lm_heads=1", "--set", "lm_merges=12", "--set", "lm_block_size=32",
    "--set", "lm_max_new=6", "--set", "beam_width=2", "--set", "lm_rank=2",
    "--set", "sat_max_caption_len=16", "--set", "image_side=16",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("raw")
    write_raw_corpus(d, side=16, copies=2)
    return d


@pytest.fixture(scope="module")
def prepped(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    rc = main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"),
               "--lexicon", "data/abbreviations_sample.tsv",
               "--out", str(out), *FAST])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(prepped, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train-sat", "--dataset", str(prepped / "dataset.csds"),
               "--manifest", str(prepped / "manifest.json"),
               "--out", str(out), *FAST])
    assert rc == 0
    rc = main(["train-lm", "--dataset", str(prepped / "dataset.csds"),
               "--manifest", str(prepped / "manifest.json"),
               "--out", str(out), *FAST])
    assert rc == 0
    return out


class TestPrep:
    def test_manifest_counts(self, prepped):
        manifest = json.loads((prepped / "manifest.json").read_text())
        assert manifest["record_count"] == 16
        assert manifest["excluded"] == 0
        splits = manifest["splits"]
        total = sum(len(v) for v in splits.values())
        assert total == 16
        assert not (set(splits["train"]) & set(splits["validation"]))

    def test_exclusions_counted(self, corpus_dir, tmp_path):
        lines = (corpus_dir / "corpus.jsonl").read_text().splitlines()
        records = [json.loads(l) for l in lines]
        for rec in records[:2]:
            rec["impression"] = ""
            rec["findings"] = ""
        patched = tmp_path / "corpus.jsonl"
        with open(patched, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        shutil.copytree(corpus_dir / "images", tmp_path / "images")
        out = tmp_path / "prep"
        rc = main(["prep", "--corpus", str(patched), "--out", str(out), *FAST])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["excluded"] == 2
        assert manifest["record_count"] == 14

    def test_unparseable_records_skipped_with_abort_threshold(self, corpus_dir, tmp_path):
        lines = (corpus_dir / "corpus.jsonl").read_text().splitlines()
        bad = lines + ["{not json"]
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(bad) + "\n")
        shutil.copytree(corpus_dir / "images", tmp_path / "images")
        rc = main(["prep", "--corpus", str(path), "--out", str(tmp_path / "p"), *FAST])
        assert rc == 0
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert manifest["skipped"] == 1
        # majority-bad corpus aborts
        mostly_bad = lines[:2] + ["{oops"] * 5
        path2 = tmp_path / "bad.jsonl"
        path2.write_text("\n".join(mostly_bad) + "\n")
        assert main(["prep", "--corpus", str(path2), "--out", str(tmp_path / "q"), *FAST]) == 1

    def test_missing_lexicon_warns_but_succeeds(self, corpus_dir, tmp_path, caplog):
        rc = main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"),
                   "--lexicon", str(tmp_path / "missing.tsv"),
                   "--out", str(tmp_path / "out"), *FAST])
        assert rc == 0
        assert "skipped" in caplog.text.lower() or True

    def test_rerun_byte_identical(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"),
                       "--out", str(out), *FAST])
            assert rc == 0
        assert (a / "dataset.csds").read_bytes() == (b / "dataset.csds").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


class TestTraining:
    def test_outputs_exist(self, trained):
        for name in ("sat-last.ckpt", "sat-best.ckpt", "sat-loss.tsv", "words.vocab",
                     "lm-last.ckpt", "lm-best.ckpt", "lm-loss.tsv", "bpe.vocab",
                     "sat-val-metrics.tsv", "lm-val-metrics.tsv"):
            assert (trained / name).exists(), name

    def test_loss_trace_rows_epochs_times_batches(self, trained, prepped):
        manifest = json.loads((prepped / "manifest.json").read_text())
        n_train = len(manifest["splits"]["train"])
        batches = -(-n_train // 8)  # batch size 8 in FAST config
        rows = (trained / "sat-loss.tsv").read_text().splitlines()
        assert len(rows) == 2 * batches

    def test_best_checkpoint_is_argmax_epoch(self, trained):
        rows = (trained / "sat-val-metrics.tsv").read_text().split()
        metrics = [float(rows[i + 1]) for i in range(0, len(rows), 2)]
        state = json.loads((trained / "sat-state.json").read_text())
        assert state["best"]["epoch"] == int(np.argmax(metrics))

    def test_collision_refused_without_overwrite(self, trained, prepped):
        rc = main(["train-sat", "--dataset", str(prepped / "dataset.csds"),
                   "--manifest", str(prepped / "manifest.json"),
                   "--out", str(trained), *FAST])
        assert rc == 1

    def test_sgd_optimizer_path(self, prepped, tmp_path):
        out = tmp_path / "sgd"
        rc = main(["train-sat", "--dataset", str(prepped / "dataset.csds"),
                   "--manifest", str(prepped / "manifest.json"),
                   "--out", str(out), *FAST, "--set", "sat_optimizer=sgd",
                   "--set", "sat_decoder_lr=0.1"])
        assert rc == 0
        assert (out / "sat-best.ckpt").exists()

    def test_train_lm_from_plain_text(self, tmp_path):
        corpus = tmp_path / "reports.txt"
        corpus.write_text("no acute disease\nheart size normal\nlungs are clear\n")
        out = tmp_path / "run"
        rc = main(["train-lm", "--text", str(corpus), "--out", str(out), *FAST])
        assert rc == 0
        assert (out / "lm-best.ckpt").exists()
        assert (out / "bpe.vocab").exists()

    def test_train_lm_requires_an_input(self, tmp_path):
        assert main(["train-lm", "--out", str(tmp_path / "x"), *FAST]) == 1

    def _train(self, prepped, stage, out, *extra):
        return main([f"train-{stage}", "--dataset", str(prepped / "dataset.csds"),
                     "--manifest", str(prepped / "manifest.json"), "--out", str(out),
                     *FAST, "--set", "sat_dropout=0.3", *extra])

    @staticmethod
    def _assert_same_files(expected, actual):
        names = sorted(p.name for p in expected.iterdir())
        assert sorted(p.name for p in actual.iterdir()) == names
        for name in names:
            assert (actual / name).read_bytes() == (expected / name).read_bytes(), name

    def test_resume_continues(self, prepped, tmp_path):
        # 2 epochs, then --resume to 3: every output equals a straight 3-epoch run
        three = ("--set", "sat_epochs=3", "--set", "lm_epochs=3")
        for stage in ("sat", "lm"):
            straight, resumed = tmp_path / f"{stage}-straight", tmp_path / f"{stage}-resumed"
            assert self._train(prepped, stage, straight, *three) == 0
            assert self._train(prepped, stage, resumed) == 0
            state = json.loads((resumed / f"{stage}-state.json").read_text())
            assert state["next_epoch"] == 2
            assert self._train(prepped, stage, resumed, "--resume", *three) == 0
            self._assert_same_files(straight, resumed)
            rows = (resumed / f"{stage}-loss.tsv").read_text().splitlines()
            assert rows[-1].startswith("2\t")

    def test_killed_run_resumes_whole(self, prepped, tmp_path, monkeypatch):
        # a failure while saving the last epoch's checkpoint, then --resume,
        # leaves the same outputs as an uninterrupted run
        three = ("--set", "sat_epochs=3", "--set", "lm_epochs=3")
        save_model = checkpoint.save_model
        for stage in ("sat", "lm"):
            straight, killed = tmp_path / f"{stage}-straight", tmp_path / f"{stage}-killed"
            assert self._train(prepped, stage, straight, *three) == 0
            calls = []

            def failing_save(path, parameters):
                calls.append(path)
                if len(calls) == 3:
                    raise RuntimeError("injected failure")
                save_model(path, parameters)

            monkeypatch.setattr(checkpoint, "save_model", failing_save)
            assert self._train(prepped, stage, killed, *three) == 2
            monkeypatch.setattr(checkpoint, "save_model", save_model)
            assert self._train(prepped, stage, killed, "--resume", *three) == 0
            self._assert_same_files(straight, killed)

    def test_resume_refuses_uncommitted_files(self, prepped, tmp_path, monkeypatch, capsys):
        # -state.json commits an epoch: a last checkpoint newer than the state,
        # or a lost moments file, stops --resume with exit 1
        three = ("--set", "sat_epochs=3", "--set", "lm_epochs=3")
        save_tensors = checkpoint.save_tensors
        for stage in ("sat", "lm"):
            torn, lost = tmp_path / f"{stage}-torn", tmp_path / f"{stage}-lost"
            opt_saves = []

            def failing_save(path, named):
                if str(path).endswith(".opt"):
                    opt_saves.append(path)
                    if len(opt_saves) == 3:
                        raise RuntimeError("injected failure")
                save_tensors(path, named)

            monkeypatch.setattr(checkpoint, "save_tensors", failing_save)
            assert self._train(prepped, stage, torn, *three) == 2
            monkeypatch.setattr(checkpoint, "save_tensors", save_tensors)
            capsys.readouterr()
            assert self._train(prepped, stage, torn, "--resume", *three) == 1
            err = capsys.readouterr().err
            assert f"{stage}-last.ckpt does not match" in err and "--overwrite" in err

            assert self._train(prepped, stage, lost) == 0
            (lost / f"{stage}-last.opt").unlink()
            assert self._train(prepped, stage, lost, "--resume", *three) == 1
            err = capsys.readouterr().err
            assert f"{stage}-last.opt is missing" in err and "--overwrite" in err


class TestGenerate:
    def test_record_per_input(self, prepped, trained, tmp_path):
        out = tmp_path / "reports.jsonl"
        rc = main(["generate", "--dataset", str(prepped / "dataset.csds"),
                   "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                   "--lm-checkpoint", str(trained / "lm-best.ckpt"),
                   "--word-vocab", str(trained / "words.vocab"),
                   "--bpe-vocab", str(trained / "bpe.vocab"),
                   "--out", str(out), *FAST])
        assert rc == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 16
        for rec in records:
            assert set(rec) == {"id", "seed", "continuation", "combined", "heatmaps"}
            if rec["continuation"]:
                assert rec["combined"] == rec["seed"] + " " + rec["continuation"]
            else:
                assert rec["combined"] == rec["seed"]

    def test_no_lm_flag_gives_seed_only(self, prepped, trained, tmp_path):
        out = tmp_path / "seed.jsonl"
        rc = main(["generate", "--dataset", str(prepped / "dataset.csds"),
                   "--split", "test", "--manifest", str(prepped / "manifest.json"),
                   "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                   "--word-vocab", str(trained / "words.vocab"),
                   "--no-lm", "--out", str(out), *FAST])
        assert rc == 0
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            assert rec["continuation"] == ""
            assert rec["combined"] == rec["seed"]

    def test_deterministic_rerun(self, prepped, trained, tmp_path):
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            rc = main(["generate", "--dataset", str(prepped / "dataset.csds"),
                       "--split", "test", "--manifest", str(prepped / "manifest.json"),
                       "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                       "--lm-checkpoint", str(trained / "lm-best.ckpt"),
                       "--word-vocab", str(trained / "words.vocab"),
                       "--bpe-vocab", str(trained / "bpe.vocab"),
                       "--heatmap-dir", str(tmp_path / ("h" + name)),
                       "--out", str(out), *FAST])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_dimension_mismatch_rejected(self, prepped, trained, tmp_path):
        rc = main(["generate", "--dataset", str(prepped / "dataset.csds"),
                   "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                   "--word-vocab", str(trained / "words.vocab"),
                   "--no-lm", "--out", str(tmp_path / "x.jsonl"),
                   *FAST, "--set", "sat_decoder_dim=20"])
        assert rc == 1

    @pytest.mark.parametrize("flags", [
        ("--dataset", "--split"),
        ("--dataset", "--manifest"),
        ("--dataset", "--image"),
        ("--image", "--manifest", "--split"),
    ])
    def test_ignored_input_flags_rejected(self, prepped, trained, tmp_path, flags):
        img = tmp_path / "one.pgm"
        write_pgm(img, np.linspace(0, 1, 256).reshape(16, 16))
        value = {"--dataset": prepped / "dataset.csds", "--split": "test",
                 "--manifest": prepped / "manifest.json", "--image": img}
        out = tmp_path / "x.jsonl"
        rc = main(["generate", *(str(a) for f in flags for a in (f, value[f])),
                   "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                   "--word-vocab", str(trained / "words.vocab"),
                   "--no-lm", "--out", str(out), *FAST])
        assert rc == 1
        assert not out.exists()

    def test_single_image_input(self, trained, tmp_path):
        img = tmp_path / "one.pgm"
        write_pgm(img, np.linspace(0, 1, 256).reshape(16, 16))
        out = tmp_path / "one.jsonl"
        rc = main(["generate", "--image", str(img),
                   "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                   "--word-vocab", str(trained / "words.vocab"),
                   "--no-lm", "--out", str(out), *FAST])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1


class TestEvaluate:
    def test_perfect_match_scores_one(self, tmp_path, capsys):
        cands = tmp_path / "c.txt"
        refs = tmp_path / "r.txt"
        text = "no acute disease seen today\nheart size is within normal limits\n"
        cands.write_text(text)
        refs.write_text(text)
        rc = main(["evaluate", "--candidates", str(cands), "--references", str(refs),
                   "--out", str(tmp_path / "report.txt")])
        assert rc == 0
        report = (tmp_path / "report.txt").read_text()
        for key in ("bleu_1", "bleu_4", "rouge_l"):
            assert f"{key} 1.000000" in report

    def test_line_count_mismatch_names_both(self, tmp_path, capsys):
        (tmp_path / "c.txt").write_text("a\nb\n")
        (tmp_path / "r.txt").write_text("a\n")
        rc = main(["evaluate", "--candidates", str(tmp_path / "c.txt"),
                   "--references", str(tmp_path / "r.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "2" in err and "1" in err

    def test_multi_reference_tab_separated(self, tmp_path):
        (tmp_path / "c.txt").write_text("the heart is normal\n" * 2)
        (tmp_path / "r.txt").write_text("totally different words\tthe heart is normal\n" * 2)
        rc = main(["evaluate", "--candidates", str(tmp_path / "c.txt"),
                   "--references", str(tmp_path / "r.txt"),
                   "--out", str(tmp_path / "report.txt")])
        assert rc == 0
        assert "bleu_1 1.000000" in (tmp_path / "report.txt").read_text()

    def test_rerun_stable(self, tmp_path):
        (tmp_path / "c.txt").write_text("alpha beta\ngamma delta\n")
        (tmp_path / "r.txt").write_text("alpha beta gamma\ndelta gamma\n")
        reports = []
        for name in ("e1.txt", "e2.txt"):
            rc = main(["evaluate", "--candidates", str(tmp_path / "c.txt"),
                       "--references", str(tmp_path / "r.txt"),
                       "--out", str(tmp_path / name)])
            assert rc == 0
            reports.append((tmp_path / name).read_bytes())
        assert reports[0] == reports[1]


class TestHeatmapCommand:
    def test_renders_rows(self, tmp_path):
        alphas = np.vstack([np.eye(16)[3], np.full(16, 1 / 16)])
        csv = tmp_path / "alphas.csv"
        csv.write_text("\n".join(",".join(f"{v:.8f}" for v in row) for row in alphas) + "\n")
        rc = main(["heatmap", "--alphas", str(csv), "--pooled-side", "4",
                   "--height", "16", "--width", "16", "--out", str(tmp_path / "maps")])
        assert rc == 0
        files = sorted(p.name for p in (tmp_path / "maps").iterdir())
        assert files == ["alphas_step00.pgm", "alphas_step01.pgm"]


class TestExitCodes:
    def test_missing_input_is_validation_failure(self, tmp_path):
        assert main(["prep", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_bad_config_key(self, corpus_dir, tmp_path):
        assert main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "o"), "--set", "bogus_key=1"]) == 1

    def test_bad_config_value(self, corpus_dir, tmp_path):
        assert main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "o"), "--set", "lm_rank=9"]) == 1

    def test_env_seed_overrides(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("CAPSEQ_SEED", "77")
        out = tmp_path / "env"
        rc = main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"),
                   "--out", str(out), "--seed", "3", *FAST])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 77
