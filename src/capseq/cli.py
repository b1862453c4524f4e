"""Command-line surface: prep, train-sat, train-lm, generate, evaluate,
heatmap.

Exit codes: 0 on success, 1 when inputs or configuration fail validation,
2 on unexpected runtime failure. Every command is deterministic for a fixed
seed: primary outputs carry no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import checkpoint
from .captioner import (CaptionExample, CaptionModel, attention_heatmap, make_optimizers,
                        train_teacher_forcing)
from .config import RunConfig, load_run_config
from .decoding import decode, lm_seed, two_stage_generate
from .lm import TransformerLm, build_token_stream, make_optimizer, train_lm
from .metrics import EvalPair, evaluate_corpus, geometric_mean_bleu, bleu_n
from .pgm import read_pgm, write_pgm
from .reportprep import (PackedRecord, load_dataset, load_lexicon,
                         normalize_text, pack_dataset, preprocess_image,
                         process_study, read_raw_corpus, split_dataset)
from .tokenizers import BpeVocabulary, WordVocabulary

logger = logging.getLogger(__name__)


class CliValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliValidationError(message)


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliValidationError(f"{what} not found: {p}")
    return p


def _config_from(args) -> RunConfig:
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise CliValidationError(f"--set expects key=value, got {item!r}")
        overrides[key.strip()] = value
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return load_run_config(args.config, overrides)


SPLITS = ("train", "validation", "test")


def _load_manifest(path) -> dict:
    try:
        manifest = json.loads(_require_file(path, "split manifest").read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliValidationError(f"{path}:{exc.lineno}: manifest is not JSON ({exc.msg})") from None
    if not isinstance(manifest, dict):
        raise CliValidationError(f"{path}: manifest is not a JSON object")
    for key in ("splits", "seed", "ratios"):
        if key not in manifest:
            raise CliValidationError(f"{path}: manifest missing {key!r}")
    splits = manifest["splits"]
    if not (isinstance(splits, dict) and all(
            isinstance(splits.get(part), list) and all(isinstance(i, str) for i in splits[part])
            for part in SPLITS)):
        raise CliValidationError(
            f"{path}: manifest 'splits' must map {', '.join(SPLITS)} to lists of study ids")
    return manifest


def _split_ids(path, dataset_ids, parts=SPLITS) -> dict[str, list[str]]:
    """The study ids of each split in ``parts`` of the manifest at ``path``;
    an id not in ``dataset_ids`` stops the command and names the manifest."""
    splits = _load_manifest(path)["splits"]
    for part in parts:
        missing = [i for i in splits[part] if i not in dataset_ids]
        if missing:
            raise CliValidationError(f"{path}: manifest ids missing from dataset: {missing[:5]}")
    return {part: splits[part] for part in parts}


def _detok(tokens: list[str]) -> str:
    return " ".join(tokens)


# ---------------------------------------------------------------------------
# prep


def cmd_prep(args) -> int:
    cfg = _config_from(args)
    corpus_path = _require_file(args.corpus, "raw corpus")
    lexicon = None
    if args.lexicon:
        if Path(args.lexicon).is_file():
            lexicon = load_lexicon(args.lexicon)
        else:
            logger.warning("lexicon %s not found; abbreviation expansion skipped", args.lexicon)
    studies, skipped = read_raw_corpus(corpus_path)
    total = len(studies) + len(skipped)
    if total == 0:
        raise CliValidationError(f"{corpus_path}: corpus contains no records")
    if len(skipped) > 0.1 * total:
        raise CliValidationError(
            f"{corpus_path}: {len(skipped)} of {total} records unparseable (>10%); aborting"
        )
    records = []
    excluded = 0
    for study in studies:
        rec = process_study(study, lexicon, cfg.image_side)
        if rec is None:
            excluded += 1
            logger.info("excluded study %s: both report sections empty", study.study_id)
        else:
            records.append(rec)
    if not records:
        raise CliValidationError("all studies were excluded; nothing to pack")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    container = out_dir / "dataset.csds"
    pack_dataset(records, container)
    split = split_dataset([r.study_id for r in records],
                          (cfg.train_ratio, cfg.val_ratio, cfg.test_ratio), cfg.seed)
    manifest = {
        "record_count": len(records),
        "excluded": excluded,
        "skipped": len(skipped),
        "ratios": list(split.ratios),
        "seed": cfg.seed,
        "splits": {
            "train": split.train,
            "validation": split.validation,
            "test": split.test,
        },
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                             encoding="utf-8")
    print(f"packed {len(records)} records -> {container}")
    print(f"splits train/val/test = {len(split.train)}/{len(split.validation)}/{len(split.test)}, "
          f"excluded {excluded}, skipped {len(skipped)}")
    return 0


# ---------------------------------------------------------------------------
# training commands


def _out_dir(args, stem: str) -> Path:
    """``--out``, checked only: ``_train_stage`` creates it after every check."""
    out_dir = Path(args.out)
    last = out_dir / f"{stem}-last.ckpt"
    if last.exists() and not (args.overwrite or args.resume):
        raise CliValidationError(
            f"{last} already exists; pass --overwrite to replace it or --resume to continue"
        )
    return out_dir


def _split_records(args) -> tuple[list[PackedRecord], list[PackedRecord]]:
    """Training and validation records; an empty validation split falls back
    to the training split."""
    records = load_dataset(_require_file(args.dataset, "packed dataset"))
    by_id = {r.study_id: r for r in records}
    out = {part: [by_id[i] for i in ids]
           for part, ids in _split_ids(args.manifest, by_id).items()}
    if not out["train"]:
        raise CliValidationError("training split is empty")
    return out["train"], out["validation"] or out["train"]


def _caption_examples(records, vocab: WordVocabulary, max_len: int) -> list[CaptionExample]:
    examples = []
    for rec in records:
        content = min(len(rec.tokens), max_len - 2)
        examples.append(CaptionExample(
            study_id=rec.study_id,
            image=rec.image,
            caption=np.asarray(vocab.encode(rec.tokens, max_len), dtype=np.int64),
            decode_len=content + 1,
        ))
    return examples


def _caption_references(records, max_len: int) -> dict[str, list[str]]:
    return {r.study_id: r.tokens[: max_len - 2] for r in records}


def _entry(data: bytes) -> list:
    """A committed file's ``[length, sha256]`` in ``{stage}-state.json``."""
    return [len(data), hashlib.sha256(data).hexdigest()]


def _read_state(path: Path, rngs: dict, owned) -> dict:
    """The epoch commit in ``{stage}-state.json``, checked field by field
    before --resume trusts it; a damaged one names the file."""
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(state, dict):
            raise ValueError("not a JSON object")
        if not (type(state["next_epoch"]) is int and state["next_epoch"] >= 0):
            raise ValueError("next_epoch is not an integer >= 0")
        best = state["best"]
        if not (type(best["epoch"]) is int and type(best["gm_bleu"]) in (int, float)):
            raise ValueError("best needs an integer epoch and a number gm_bleu")
        files = state["files"]
        if not (isinstance(files, dict) and sorted(files) == sorted(owned) and all(
                type(n) is int and n >= 0 and isinstance(d, str) for n, d in files.values())):
            raise ValueError("files does not map each file of the run to [length, sha256]")
        for name, rng in rngs.items():  # numpy refuses a state it cannot restore
            type(rng.bit_generator)().state = state["rng"][name]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliValidationError(f"{path}: damaged training state ({type(exc).__name__}: "
                                 f"{exc}); pass --overwrite to start over") from None
    return state


def _train_stage(args, out_dir: Path, stage: str, vocab_file: str, vocab, model,
                 optimizers: dict, cfg: RunConfig, train, validate) -> int:
    """Epoch driver shared by train-sat and train-lm.

    ``train(epoch_callback=, shuffle_rng=, trace=, start_epoch=)`` runs the
    epochs from ``start_epoch`` up to ``cfg.{stage}_epochs``; after each one
    ``validate(model)`` returns the validation pairs, scored by
    geometric-mean BLEU. Each epoch appends its rows to ``{stage}-loss.tsv``
    and ``{stage}-val-metrics.tsv``, saves ``{stage}-last.ckpt``, the Adam
    moments (``{stage}-last.opt``, keys prefixed per entry of ``optimizers``)
    and, on a new best score, ``{stage}-best.ckpt``. ``{stage}-state.json``
    is written last and commits the epoch: the next epoch, the best epoch,
    the shuffle and model RNG states, and ``files``, the length and SHA-256
    of every other file the run owns (the five above and ``vocab_file``).
    --resume checks all of them before it writes anything: each must exist
    and its committed prefix must match, ``vocab`` must be the committed
    vocabulary, and ``{stage}-last.opt`` must hold moments for each entry of
    ``optimizers`` (others are ignored). Bytes past a prefix are an
    uncommitted epoch's and are cut; the run then continues bit for bit.
    ``out_dir`` is created only once every check has passed.
    """
    path = {name: out_dir / f"{stage}-{name}" for name in (
        "last.ckpt", "best.ckpt", "last.opt", "state.json", "loss.tsv", "val-metrics.tsv")}
    owned = {p.name: p for p in (out_dir / vocab_file, *path.values()) if p != path["state.json"]}
    vocab_bytes = vocab.text().encode("utf-8")
    epochs = getattr(cfg, f"{stage}_epochs")
    rngs = {"shuffle": np.random.default_rng(cfg.seed), "model": model._rng}
    start_epoch = 0
    best = {"epoch": -1, "gm_bleu": -1.0}
    files = {}
    if args.resume and path["state.json"].exists():
        state = _read_state(path["state.json"], rngs, owned)
        files = state["files"]
        for name, p in owned.items():
            if not p.exists():
                raise CliValidationError(
                    f"cannot resume: {p} is missing; pass --overwrite to start over")
            with open(p, "rb") as fh:
                if _entry(fh.read(files[name][0])) != files[name]:
                    raise CliValidationError(
                        f"cannot resume: {p} does not match its length and digest in "
                        f"{path['state.json'].name}; pass --overwrite to start over")
        if _entry(vocab_bytes) != files[vocab_file]:
            raise CliValidationError(
                "cannot resume: this run's data builds a vocabulary that does not match "
                f"{owned[vocab_file]}; pass --overwrite to start over")
        start_epoch, best = state["next_epoch"], state["best"]
        checkpoint.load_into_model(path["last.ckpt"], model.parameters())
        arrays = checkpoint.load_tensors(path["last.opt"])
        for prefix, opt in optimizers.items():
            held = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
            if not held:
                raise CliValidationError(
                    f"cannot resume: {path['last.opt']} holds no moments for optimizer "
                    f"{prefix!r}; pass --overwrite to start over")
            opt.load_state_arrays(held)
        for name, rng in rngs.items():
            rng.bit_generator.state = state["rng"][name]
        logger.info("resuming from epoch %d", start_epoch)
    if start_epoch >= epochs:
        print(f"nothing to do: {start_epoch} epochs already trained")
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    owned[vocab_file].write_bytes(vocab_bytes)
    for name in ("loss.tsv", "val-metrics.tsv"):  # cut to the committed rows
        with open(path[name], "ab") as fh:
            fh.truncate(files.get(path[name].name, [0])[0])
    trace: list[float] = []

    def on_epoch(epoch: int, model) -> None:
        pairs = validate(model)
        gm = geometric_mean_bleu([bleu_n(pairs, n) for n in range(1, 5)])
        with open(path["loss.tsv"], "a", encoding="utf-8") as fh:
            fh.writelines(f"{epoch}\t{i}\t{v:.12g}\n" for i, v in enumerate(trace))
        with open(path["val-metrics.tsv"], "a", encoding="utf-8") as fh:
            fh.write(f"{epoch} {gm:.6f}\n")
        trace.clear()
        checkpoint.save_model(path["last.ckpt"], model.parameters())
        checkpoint.save_tensors(path["last.opt"], {
            prefix + k: v for prefix, opt in optimizers.items()
            for k, v in opt.state_arrays().items()})
        if gm > best["gm_bleu"]:
            best.update(epoch=epoch, gm_bleu=gm)
            checkpoint.write_atomic(path["best.ckpt"], path["last.ckpt"].read_bytes())
        state = {"next_epoch": epoch + 1, "best": best,
                 "rng": {name: rng.bit_generator.state for name, rng in rngs.items()},
                 "files": {name: _entry(p.read_bytes()) for name, p in owned.items()}}
        checkpoint.write_atomic(path["state.json"],
                                (json.dumps(state, sort_keys=True) + "\n").encode("utf-8"))

    train(epoch_callback=on_epoch, shuffle_rng=rngs["shuffle"], trace=trace,
          start_epoch=start_epoch)
    print(f"trained {epochs - start_epoch} epochs; best epoch {best['epoch']} "
          f"(GM-BLEU {best['gm_bleu']:.6f})")
    print(f"checkpoints: {path['last.ckpt']} (last), {path['best.ckpt']} (best)")
    return 0


def cmd_train_sat(args) -> int:
    cfg = _config_from(args)
    out_dir = _out_dir(args, "sat")
    train_records, val_records = _split_records(args)
    vocab = WordVocabulary.build([r.tokens for r in train_records], cfg.min_word_freq)
    examples = _caption_examples(train_records, vocab, cfg.sat_max_caption_len)
    refs = _caption_references(val_records, cfg.sat_max_caption_len)

    model = CaptionModel(cfg.caption_config(), len(vocab), cfg.seed)
    optimizers = make_optimizers(model, cfg)

    # a frozen encoder cannot change a validation image's annotations, so
    # each image is then encoded once per run, not once per epoch
    annotations = {}

    def validate(model: CaptionModel) -> list[EvalPair]:
        pairs = []
        for i, rec in enumerate(val_records):
            if model.config.fine_tune_encoder or i not in annotations:
                annotations[i] = model.encode(rec.image)
            ids, _ = model.decode_caption(annotations[i], strategy="greedy")
            pairs.append(EvalPair(vocab.decode(ids) or [""], [refs[rec.study_id]]))
        return pairs

    train = functools.partial(train_teacher_forcing, model, examples, cfg,
                              optimizers=optimizers)
    return _train_stage(args, out_dir, "sat", "words.vocab", vocab, model, optimizers, cfg,
                        train, validate)


def cmd_train_lm(args) -> int:
    cfg = _config_from(args)
    out_dir = _out_dir(args, "lm")
    if args.text:
        # plain UTF-8 corpus, one report per line; also used for validation
        lines = [l for l in _require_file(args.text, "text corpus")
                 .read_text(encoding="utf-8").splitlines() if l.strip()]
        if not lines:
            raise CliValidationError(f"{args.text}: corpus is empty")
        train_lines = lines
        val_tokens = [normalize_text(l) for l in lines]
    else:
        train_records, val_records = _split_records(args)
        train_lines = [_detok(r.tokens) for r in train_records]
        val_tokens = [r.tokens for r in val_records]
    vocab = BpeVocabulary.train("\n".join(train_lines), cfg.lm_merges)
    stream = build_token_stream(train_lines, vocab)
    model = TransformerLm(cfg.lm_config(), vocab, cfg.seed)
    optimizer = make_optimizer(model, cfg)

    def validate(model: TransformerLm) -> list[EvalPair]:
        # continue the first half of each held-out report, score the
        # continuation against the second half
        pairs = []
        for tokens in val_tokens:
            mid = max(1, len(tokens) // 2)
            seed_ids = lm_seed(_detok(tokens[:mid]), vocab, model.config.block_size)
            cont = decode(model.step_function(seed_ids), cfg.lm_max_new, vocab.end_of_text_id)
            candidate = normalize_text(vocab.decode(cont)) or [""]
            pairs.append(EvalPair(candidate, [tokens[mid:] or ["."]]))
        return pairs

    train = functools.partial(train_lm, model, stream, cfg, optimizer=optimizer)
    return _train_stage(args, out_dir, "lm", "bpe.vocab", vocab, model, {"": optimizer}, cfg,
                        train, validate)


# ---------------------------------------------------------------------------
# generation


def _load_caption_model(cfg: RunConfig, ckpt_path, vocab: WordVocabulary) -> CaptionModel:
    model = CaptionModel(cfg.caption_config(), len(vocab), cfg.seed)
    checkpoint.load_into_model(_require_file(ckpt_path, "caption checkpoint"),
                               model.parameters())
    return model


def _load_lm(cfg: RunConfig, ckpt_path, vocab: BpeVocabulary) -> TransformerLm:
    model = TransformerLm(cfg.lm_config(), vocab, cfg.seed)
    checkpoint.load_into_model(_require_file(ckpt_path, "lm checkpoint"), model.parameters())
    return model


def _write_heatmaps(out_dir: Path, stem: str, steps, pooled_side: int, height: int,
                    width: int) -> list[str]:
    """Render each ``(t, alpha)`` of ``steps`` as ``{stem}_step{t:02d}.pgm``
    in ``out_dir``; returns the file names in order."""
    names = []
    for t, alpha in steps:
        names.append(f"{stem}_step{t:02d}.pgm")
        write_pgm(out_dir / names[-1], attention_heatmap(alpha, pooled_side, height, width))
    return names


def cmd_generate(args) -> int:
    cfg = _config_from(args)
    word_vocab = WordVocabulary.load(_require_file(args.word_vocab, "word vocabulary"))
    bpe_vocab = lm = None
    if not args.no_lm:
        bpe_vocab = BpeVocabulary.load(_require_file(args.bpe_vocab, "BPE vocabulary"))
        lm = _load_lm(cfg, args.lm_checkpoint, bpe_vocab)
    model = _load_caption_model(cfg, args.sat_checkpoint, word_vocab)

    inputs: list[tuple[str, np.ndarray]] = []
    if args.image:
        pixels, maxval = read_pgm(_require_file(args.image, "input image"))
        inputs.append((Path(args.image).stem, preprocess_image(pixels, maxval, cfg.image_side)))
    else:
        records = load_dataset(_require_file(args.dataset, "packed dataset"))
        if args.split:
            dataset_ids = {r.study_id for r in records}
            wanted = set(_split_ids(args.manifest, dataset_ids, [args.split])[args.split])
            records = [r for r in records if r.study_id in wanted]
        inputs.extend((r.study_id, r.image) for r in records)
    if not inputs:
        raise CliValidationError("no inputs to generate from")

    heatmap_dir = Path(args.heatmap_dir) if args.heatmap_dir else None
    stage = None
    if heatmap_dir:
        heatmap_dir.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".generate-", dir=heatmap_dir))
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # the heatmaps and reports go into place after the last study, so a
    # failing study leaves the previous ones whole and matching each other
    lines = []
    try:
        for study_id, image in inputs:
            result = two_stage_generate(image, model, word_vocab, lm, bpe_vocab,
                                        cfg, study_id=study_id)
            heatmap_files = []
            if stage and result.attention_weights:
                heatmap_files = _write_heatmaps(
                    stage, study_id, enumerate(result.attention_weights),
                    cfg.sat_pooled_side, *image.shape)
                csv_rows = [",".join(f"{v:.12g}" for v in alpha)
                            for alpha in result.attention_weights]
                (stage / f"{study_id}_alphas.csv").write_text(
                    "\n".join(csv_rows) + "\n", encoding="utf-8")
            record = {
                "id": study_id,
                "seed": result.seed_text,
                "continuation": result.continuation_text,
                "combined": result.combined_text,
                "heatmaps": heatmap_files,
            }
            lines.append(json.dumps(record, sort_keys=True) + "\n")
        if stage:
            for path in sorted(stage.iterdir()):
                os.replace(path, heatmap_dir / path.name)
    finally:
        if stage:
            shutil.rmtree(stage)
    checkpoint.write_atomic(out_path, "".join(lines).encode("utf-8"))
    print(f"wrote {len(inputs)} report records -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# evaluation


def cmd_evaluate(args) -> int:
    cand_lines = _require_file(args.candidates, "candidates file").read_text(
        encoding="utf-8").splitlines()
    ref_lines = _require_file(args.references, "references file").read_text(
        encoding="utf-8").splitlines()
    if len(cand_lines) != len(ref_lines):
        raise CliValidationError(
            f"line counts differ: {len(cand_lines)} candidates vs {len(ref_lines)} references"
        )
    if not cand_lines:
        raise CliValidationError("empty evaluation corpus")
    pairs = []
    for cand, refs in zip(cand_lines, ref_lines):
        references = [normalize_text(r) for r in refs.split("\t")]
        references = [r for r in references if r]
        if not references:
            raise CliValidationError("a reference line normalized to nothing")
        pairs.append(EvalPair(normalize_text(cand) or [""], references))
    report = evaluate_corpus(pairs)
    text = report.format()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def cmd_heatmap(args) -> int:
    for flag in ("pooled_side", "height", "width"):
        if getattr(args, flag) < 1:
            raise CliValidationError(
                f"--{flag.replace('_', '-')} must be at least 1, got {getattr(args, flag)}")
    rows = _require_file(args.alphas, "attention CSV").read_text(
        encoding="utf-8").splitlines()
    weights = args.pooled_side * args.pooled_side
    steps = []
    for t, row in enumerate(rows):  # every row is checked before --out is made
        if not row.strip():
            continue  # blank rows still count as steps
        try:
            alpha = np.array([float(v) for v in row.split(",")])
            valid = alpha.shape == (weights,) and np.isfinite(alpha).all()
        except ValueError:
            valid = False
        if not valid:
            raise CliValidationError(f"{args.alphas}: row {t + 1} is not {weights} finite weights")
        steps.append((t, alpha))
    if not steps:
        raise CliValidationError(f"{args.alphas}: attention CSV has no rows")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = _write_heatmaps(out_dir, Path(args.alphas).stem, steps,
                            args.pooled_side, args.height, args.width)
    print(f"wrote {len(names)} heatmaps -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="capseq",
                     description="Two-stage chest X-ray report generation pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one configuration value (repeatable)")
        p.add_argument("--seed", type=int, help="override the run seed")

    p = sub.add_parser("prep", help="preprocess a raw corpus into a packed dataset")
    common(p)
    p.add_argument("--corpus", required=True, help="JSONL corpus of raw studies")
    p.add_argument("--lexicon", help="abbreviation lexicon (abbr<TAB>expansion)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train-sat", help="train the caption model")
    common(p)
    p.add_argument("--dataset", required=True, help="packed dataset (.csds)")
    p.add_argument("--manifest", required=True, help="split manifest JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--overwrite", action="store_true")
    p.add_argument("--resume", action="store_true", help="continue from the last checkpoint")
    p.set_defaults(func=cmd_train_sat)

    p = sub.add_parser("train-lm", help="train the language model")
    common(p)
    p.add_argument("--dataset")
    p.add_argument("--manifest")
    p.add_argument("--text", help="plain UTF-8 corpus, one report per line "
                                  "(alternative to --dataset/--manifest)")
    p.add_argument("--out", required=True)
    p.add_argument("--overwrite", action="store_true")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("generate", help="generate reports (and heatmaps)")
    common(p)
    p.add_argument("--dataset", help="packed dataset to caption")
    p.add_argument("--manifest", help="optional manifest to pick a split from")
    p.add_argument("--split", choices=SPLITS)
    p.add_argument("--image", help="caption a single PGM image instead")
    p.add_argument("--sat-checkpoint", required=True)
    p.add_argument("--lm-checkpoint")
    p.add_argument("--word-vocab", required=True)
    p.add_argument("--bpe-vocab")
    p.add_argument("--no-lm", action="store_true",
                   help="emit caption-only reports (skip the language model)")
    p.add_argument("--heatmap-dir", help="write per-token attention heatmaps here")
    p.add_argument("--out", required=True, help="output JSONL records")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score candidates against references")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True,
                   help="aligned references; multiple references tab-separated")
    p.add_argument("--out", help="write the score report here as well")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("heatmap", help="render heatmap PGMs from an attention CSV")
    p.add_argument("--alphas", required=True, help="CSV of per-step attention weights")
    p.add_argument("--pooled-side", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_heatmap)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) == "generate":
            if not args.image and not args.dataset:
                raise CliValidationError("generate needs --dataset or --image")
            if args.image and (args.dataset or args.manifest or args.split):
                raise CliValidationError(
                    "generate --image captions one image; drop --dataset, --manifest and --split"
                )
            if bool(args.manifest) != bool(args.split):
                raise CliValidationError("generate needs --manifest and --split together")
            if not args.no_lm and not (args.lm_checkpoint and args.bpe_vocab):
                raise CliValidationError(
                    "generate needs --lm-checkpoint and --bpe-vocab unless --no-lm is set"
                )
        if getattr(args, "command", None) == "train-lm":
            if not args.text and not (args.dataset and args.manifest):
                raise CliValidationError(
                    "train-lm needs --dataset and --manifest, or --text"
                )
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        # CliValidationError, ConfigError and BinaryFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected failure path
        logger.exception("command failed")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
