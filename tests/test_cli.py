"""Command-level behavior: prep exclusions, training outputs, generation
records, evaluation reports, exit codes, and byte-identical reruns."""

import hashlib
import json
import shutil

import numpy as np
import pytest

from capseq import checkpoint, cli
from capseq.captioner import CaptionModel
from capseq.cli import main
from capseq.pgm import read_pgm, write_pgm
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
        assert "abbreviation expansion skipped" in caplog.text

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

    def test_invalid_setting_exits_one_with_its_message(self, tmp_path, capsys):
        corpus = tmp_path / "reports.txt"
        corpus.write_text("lungs are clear\n")
        assert main(["train-lm", "--text", str(corpus), "--out", str(tmp_path / "x"), *FAST,
                     "--set", "lm_heads=3"]) == 1
        assert capsys.readouterr().err == "error: lm_model_dim 8 must divide evenly into 3 heads\n"

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

    @pytest.mark.parametrize("fine_tune, encodes", [("false", [2, 0, 0]), ("true", [2, 2, 2])])
    def test_validation_encodes(self, prepped, tmp_path, monkeypatch, fine_tune, encodes):
        # a frozen encoder's validation annotations are encoded in the first
        # epoch only; a fine-tuned one's every epoch
        assert len(json.loads((prepped / "manifest.json").read_text())["splits"]["validation"]) == 2
        calls, per_epoch = [], []
        encode, train_stage = CaptionModel.encode, cli._train_stage

        def counting_encode(model, images):
            calls.append(images)
            return encode(model, images)

        def counting_stage(*args):
            *head, validate = args

            def counted(model):
                start = len(calls)
                pairs = validate(model)
                per_epoch.append(len(calls) - start)
                return pairs

            return train_stage(*head, counted)

        monkeypatch.setattr(CaptionModel, "encode", counting_encode)
        monkeypatch.setattr(cli, "_train_stage", counting_stage)
        assert self._train(prepped, "sat", tmp_path / "run", "--set", "sat_epochs=3",
                           "--set", f"sat_fine_tune_encoder={fine_tune}") == 0
        assert per_epoch == encodes

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

    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],
        lambda text: "[]",
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "rng"}),
        lambda text: json.dumps(dict(json.loads(text), next_epoch="x")),
    ], ids=["cut-short", "not-an-object", "no-rng", "epoch-not-int"])
    def test_damaged_state_stops_resume(self, prepped, tmp_path, capsys, damage):
        # a state file that is not the epoch commit exits 1, names the file
        # and leaves the run directory as it was
        run = tmp_path / "run"
        assert self._train(prepped, "sat", run, "--set", "sat_epochs=1") == 0
        state = run / "sat-state.json"
        state.write_text(damage(state.read_text()))
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert self._train(prepped, "sat", run, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {state}: ") and err.endswith("pass --overwrite to start over\n")
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("tsv", ["sat-loss.tsv", "sat-val-metrics.tsv"])
    @pytest.mark.parametrize("damage, refused", [
        (lambda text: text + "\n", False),
        (lambda text: "x" + text[1:], True),
    ], ids=["blank-row", "epoch-not-int"])
    def test_damaged_tsv_stops_resume(self, prepped, tmp_path, capsys, tsv, damage, refused):
        # -state.json commits each TSV's length and digest: bytes after the
        # commit are cut and the run equals an uninterrupted one; a changed
        # committed byte exits 1, names the file and leaves the run directory as it was
        run, straight = tmp_path / "run", tmp_path / "straight"
        assert self._train(prepped, "sat", run, "--set", "sat_epochs=1") == 0
        path = run / tsv
        path.write_text(damage(path.read_text()))
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        if not refused:
            assert self._train(prepped, "sat", run, "--resume") == 0
            assert self._train(prepped, "sat", straight) == 0
            self._assert_same_files(straight, run)
            return
        assert self._train(prepped, "sat", run, "--resume") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot resume: {path} does not match ")
        assert err.endswith("pass --overwrite to start over\n")
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_torn_row_is_cut_on_resume(self, prepped, tmp_path):
        # a run killed while appending epoch 10's first loss row leaves "1"
        # after the commit: --resume cuts it, and every output equals an
        # uninterrupted 11-epoch run's
        straight, torn = tmp_path / "straight", tmp_path / "torn"
        assert self._train(prepped, "sat", straight, "--set", "sat_epochs=11") == 0
        assert self._train(prepped, "sat", torn, "--set", "sat_epochs=10") == 0
        with open(torn / "sat-loss.tsv", "a", encoding="utf-8") as fh:
            fh.write("1")
        assert self._train(prepped, "sat", torn, "--resume", "--set", "sat_epochs=11") == 0
        self._assert_same_files(straight, torn)

    def test_lost_committed_rows_stop_resume(self, prepped, tmp_path, capsys):
        # a TSV shorter than its commit exits 1, names the file and leaves
        # the run directory as it was
        run = tmp_path / "run"
        assert self._train(prepped, "sat", run, "--set", "sat_epochs=3") == 0
        path = run / "sat-val-metrics.tsv"
        path.write_text(path.read_text().splitlines(True)[0])
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert self._train(prepped, "sat", run, "--resume", "--set", "sat_epochs=4") == 1
        assert capsys.readouterr().err == (
            f"error: cannot resume: {path} does not match its length and digest in "
            "sat-state.json; pass --overwrite to start over\n")
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_resume_on_other_data_stops(self, tmp_path, capsys):
        # train-lm --resume on a corpus that builds another vocabulary exits 1,
        # names the vocabulary and leaves the run directory as it was
        first, other, run = tmp_path / "first.txt", tmp_path / "other.txt", tmp_path / "run"
        first.write_text("no acute disease\nheart size normal\nlungs are clear\n")
        other.write_text("no acute disease\nheart size normal\nlungs are clean\n")
        assert main(["train-lm", "--text", str(first), "--out", str(run), *FAST,
                     "--set", "lm_epochs=1"]) == 0
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert main(["train-lm", "--text", str(other), "--out", str(run), "--resume", *FAST]) == 1
        assert capsys.readouterr().err == (
            "error: cannot resume: this run's data builds a vocabulary that does not match "
            f"{run / 'bpe.vocab'}; pass --overwrite to start over\n")
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_resume_with_fine_tuning_switched_on_stops(self, prepped, tmp_path, capsys):
        # a frozen run's -last.opt holds no encoder moments: --resume with
        # fine-tuning on exits 1, names the file and leaves the run as it was
        run = tmp_path / "run"
        assert self._train(prepped, "sat", run, "--set", "sat_epochs=1") == 0
        assert not any(k.startswith("enc.") for k in checkpoint.load_tensors(run / "sat-last.opt"))
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert self._train(prepped, "sat", run, "--resume",
                           "--set", "sat_fine_tune_encoder=true") == 1
        assert capsys.readouterr().err == (
            f"error: cannot resume: {run / 'sat-last.opt'} holds no moments for optimizer "
            "'enc.'; pass --overwrite to start over\n")
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_commit_names_every_file_of_the_run(self, trained):
        # every file train-sat and train-lm leave, bar the two state files, is
        # in exactly one stage's commit, with its current length and digest
        commits = [json.loads((trained / f"{stage}-state.json").read_text())["files"]
                   for stage in ("sat", "lm")]
        files = {p.name: p.read_bytes() for p in trained.iterdir()
                 if not p.name.endswith("-state.json")}
        assert sorted(files) == sorted(name for commit in commits for name in commit)
        for commit in commits:
            for name, entry in commit.items():
                assert entry == [len(files[name]), hashlib.sha256(files[name]).hexdigest()], name


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

    def test_heatmaps_take_the_image_size(self, prepped, trained, tmp_path):
        # images prepped at 16 px, generated under image_side=32: the heatmaps
        # are 16x16, the size of the image they explain
        heatmaps = tmp_path / "heatmaps"
        rc = main(["generate", "--dataset", str(prepped / "dataset.csds"),
                   "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                   "--word-vocab", str(trained / "words.vocab"), "--no-lm",
                   "--heatmap-dir", str(heatmaps), "--out", str(tmp_path / "reports.jsonl"),
                   *FAST, "--set", "image_side=32"])
        assert rc == 0
        maps = sorted(heatmaps.glob("*.pgm"))
        assert maps
        for path in maps:
            assert read_pgm(path)[0].shape == (16, 16), path

    def test_failing_study_leaves_previous_reports_and_heatmaps(
            self, prepped, trained, tmp_path, monkeypatch):
        out, heatmaps = tmp_path / "reports.jsonl", tmp_path / "heatmaps"
        argv = ["generate", "--dataset", str(prepped / "dataset.csds"),
                "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                "--word-vocab", str(trained / "words.vocab"),
                "--no-lm", "--out", str(out), "--heatmap-dir", str(heatmaps), *FAST]
        assert main(argv) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert len(before) > 2
        generate = cli.two_stage_generate
        studies = []

        def failing_third(*args, **kwargs):
            studies.append(kwargs["study_id"])
            if len(studies) == 3:
                raise ValueError("forced failure")
            return generate(*args, **kwargs)

        monkeypatch.setattr(cli, "two_stage_generate", failing_third)
        assert main(argv + ["--set", "sat_max_caption_len=3"]) == 1
        assert len(studies) == 3
        # same bytes, and no reports.jsonl.tmp or staged heatmaps left behind
        assert sorted(tmp_path.rglob("*")) == sorted([heatmaps, *before])
        for path, data in before.items():
            assert path.read_bytes() == data, path


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

    @pytest.mark.parametrize("bad_row", [
        ",".join(["nan"] + ["0.0625"] * 15), ",".join(["inf"] + ["0"] * 15), "0.5,0.5",
        ",".join(["x"] + ["0.0625"] * 15),
    ])
    def test_bad_row_leaves_no_pgm(self, tmp_path, capsys, bad_row):
        csv = tmp_path / "alphas.csv"
        csv.write_text(",".join(["0.0625"] * 16) + "\n" + bad_row + "\n")
        rc = main(["heatmap", "--alphas", str(csv), "--pooled-side", "4",
                   "--height", "16", "--width", "16", "--out", str(tmp_path / "maps")])
        assert rc == 1
        assert "row 2 is not 16 finite weights" in capsys.readouterr().err
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("text", ["", "\n", "  \n\n\t\n"])
    def test_no_rows_is_validation_failure(self, tmp_path, capsys, text):
        csv = tmp_path / "alphas.csv"
        csv.write_text(text)
        rc = main(["heatmap", "--alphas", str(csv), "--pooled-side", "4",
                   "--height", "16", "--width", "16", "--out", str(tmp_path / "maps")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {csv}: attention CSV has no rows\n"
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--pooled-side", "--height", "--width"])
    def test_size_below_one_names_the_flag(self, tmp_path, capsys, flag, value):
        csv = tmp_path / "alphas.csv"
        csv.write_text(",".join(["0.0625"] * 16) + "\n")
        sizes = {"--pooled-side": "4", "--height": "16", "--width": "16", flag: value}
        rc = main(["heatmap", "--alphas", str(csv), *(a for item in sizes.items() for a in item),
                   "--out", str(tmp_path / "maps")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"


class TestExitCodes:
    @pytest.mark.parametrize("splits", [
        {"train": [], "validation": []},
        ["train", "validation", "test"],
        {"train": "abc", "validation": [], "test": []},
        {"train": [["a"]], "validation": [], "test": []},
    ])
    def test_malformed_manifest_is_validation_failure(self, prepped, trained, tmp_path, capsys,
                                                      splits):
        manifest = json.loads((prepped / "manifest.json").read_text())
        manifest["splits"] = splits
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(manifest))
        dataset = ["--dataset", str(prepped / "dataset.csds"), "--manifest", str(bad)]
        assert main(["train-sat", *dataset, "--out", str(tmp_path / "sat"), *FAST]) == 1
        assert not (tmp_path / "sat").exists()
        assert main(["generate", *dataset, "--split", "test", "--no-lm",
                     "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                     "--word-vocab", str(trained / "words.vocab"),
                     "--out", str(tmp_path / "reports.jsonl"), *FAST]) == 1
        message = (f"error: {bad}: manifest 'splits' must map train, validation, test "
                   "to lists of study ids\n")
        assert capsys.readouterr().err == message * 2

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--no-lm"], "generate needs --dataset or --image"),
        (["generate", "--no-lm", "--image", "one.pgm", "--dataset", "d.csds"],
         "generate --image captions one image; drop --dataset, --manifest and --split"),
        (["generate", "--no-lm", "--dataset", "d.csds", "--split", "test"],
         "generate needs --manifest and --split together"),
        (["generate", "--dataset", "d.csds", "--lm-checkpoint", "lm.ckpt"],
         "generate needs --lm-checkpoint and --bpe-vocab unless --no-lm is set"),
        (["train-lm", "--dataset", "d.csds"],
         "train-lm needs --dataset and --manifest, or --text"),
    ], ids=["no-input", "image-and-dataset", "split-alone", "lm-half-named", "lm-no-input"])
    def test_cross_flag_check_writes_nothing(self, tmp_path, capsys, argv, message):
        generate = ["--sat-checkpoint", "sat.ckpt", "--word-vocab", "words.vocab"]
        rc = main([*argv, *(generate if argv[0] == "generate" else []),
                   "--out", str(tmp_path / "out"), *FAST])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_manifest_id_missing_from_dataset(self, prepped, trained, tmp_path, capsys):
        manifest = json.loads((prepped / "manifest.json").read_text())
        manifest["splits"]["train"].insert(1, "nosuchstudy")
        manifest["splits"]["test"].insert(1, "nosuchstudy")
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(manifest))
        dataset = ["--dataset", str(prepped / "dataset.csds"), "--manifest", str(bad)]
        assert main(["train-sat", *dataset, "--out", str(tmp_path / "sat"), *FAST]) == 1
        assert not (tmp_path / "sat").exists()
        assert main(["generate", *dataset, "--split", "test", "--no-lm",
                     "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                     "--word-vocab", str(trained / "words.vocab"),
                     "--out", str(tmp_path / "reports.jsonl"), *FAST]) == 1
        message = f"error: {bad}: manifest ids missing from dataset: ['nosuchstudy']\n"
        assert capsys.readouterr().err == message * 2
        assert not (tmp_path / "reports.jsonl").exists()

    def test_empty_text_corpus_writes_nothing(self, tmp_path, capsys):
        corpus = tmp_path / "reports.txt"
        corpus.write_text("\n  \n")
        out = tmp_path / "run"
        assert main(["train-lm", "--text", str(corpus), "--out", str(out), *FAST]) == 1
        assert capsys.readouterr().err == f"error: {corpus}: corpus is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, line, reason", [
        ("", 1, "Expecting value"),
        ("not json", 1, "Expecting value"),
        ('{\n  "splits": {,\n}', 2, "Expecting property name enclosed in double quotes"),
    ])
    def test_manifest_that_is_not_json_names_the_file(self, prepped, tmp_path, capsys,
                                                      text, line, reason):
        bad = tmp_path / "manifest.json"
        bad.write_text(text)
        assert main(["train-sat", "--dataset", str(prepped / "dataset.csds"),
                     "--manifest", str(bad), "--out", str(tmp_path / "sat"), *FAST]) == 1
        assert capsys.readouterr().err == f"error: {bad}:{line}: manifest is not JSON ({reason})\n"

    @pytest.mark.parametrize("kept", [1, 2, 9, 100, -1])
    def test_truncated_bpe_vocabulary_is_validation_failure(self, prepped, trained, tmp_path,
                                                            capsys, kept):
        lines = (trained / "bpe.vocab").read_text().splitlines()
        cut = tmp_path / "bpe.vocab"
        cut.write_text("\n".join(lines[:kept]) + "\n")
        rc = main(["generate", "--dataset", str(prepped / "dataset.csds"),
                   "--sat-checkpoint", str(trained / "sat-best.ckpt"),
                   "--lm-checkpoint", str(trained / "lm-best.ckpt"),
                   "--word-vocab", str(trained / "words.vocab"), "--bpe-vocab", str(cut),
                   "--out", str(tmp_path / "reports.jsonl"), *FAST])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cut}: vocabulary is cut short\n"

    def test_missing_input_is_validation_failure(self, tmp_path):
        assert main(["prep", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_bad_config_key(self, corpus_dir, tmp_path):
        assert main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "o"), "--set", "bogus_key=1"]) == 1

    def test_bad_config_value(self, corpus_dir, tmp_path):
        assert main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "o"), "--set", "lm_rank=9"]) == 1

    def test_negative_seed_writes_nothing(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"),
                   "--out", str(out), "--seed", "-1", *FAST])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("settings", [
        ["train_ratio=nan"],
        ["train_ratio=-0.5", "val_ratio=1.0", "test_ratio=0.5"],
    ])
    def test_bad_split_ratio_writes_nothing(self, corpus_dir, tmp_path, capsys, settings):
        out = tmp_path / "o"
        rc = main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"), "--out", str(out),
                   *FAST, *[arg for item in settings for arg in ("--set", item)]])
        assert rc == 1
        value = settings[0].partition("=")[2]
        assert capsys.readouterr().err == f"error: train_ratio must be at least 0.0, got {value}\n"
        assert not out.exists()

    def test_infinite_lm_lr_writes_no_vocabulary(self, prepped, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train-lm", "--dataset", str(prepped / "dataset.csds"),
                   "--manifest", str(prepped / "manifest.json"), "--out", str(out),
                   *FAST, "--set", "lm_lr=inf"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: lm_lr must be at most 1.7976931348623157e+308, got inf\n"
        assert not (out / "bpe.vocab").exists()

    def test_key_named_twice_in_a_config_file(self, corpus_dir, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "o"
        cfg.write_text("seed = 1\n# again\nseed = 2\n")
        rc = main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"), "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: seed is already set on line 1\n"
        assert not out.exists()

    def test_repeated_set_keeps_the_last(self, corpus_dir, tmp_path):
        out = tmp_path / "o"
        rc = main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"), "--out", str(out),
                   *FAST, "--set", "seed=4", "--set", "seed=5"])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 5

    def test_env_seed_overrides(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("CAPSEQ_SEED", "77")
        out = tmp_path / "env"
        rc = main(["prep", "--corpus", str(corpus_dir / "corpus.jsonl"),
                   "--out", str(out), "--seed", "3", *FAST])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 77
