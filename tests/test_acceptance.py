"""Acceptance suite: one test (or class) per criterion, each at its stated
tolerance. The conftest hook prints one PASS/FAIL line per criterion at the
end of the run.

Finite-difference checks screen candidate instances for relu kink margin
first: central differences are only a valid oracle when no relu input sits
within the perturbation window, so the instance search walks a fixed seed
sequence and keeps the first margin-safe draw (deterministic, and the
gradient comparison itself is never loosened).
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from capseq import autodiff as ad
from capseq.captioner import (CaptionExample, CaptionModel, make_optimizers,
                              train_teacher_forcing)
from capseq.cli import main
from capseq.config import RunConfig
from capseq.decoding import beam_search, decode, greedy_decode, select_beam
from capseq.lm import LmConfig, TransformerLm, build_token_stream, chunk_stream, train_lm
from capseq.metrics import (EvalPair, bleu_components, bleu_n, cider,
                            lcs_length, rouge_l)
from capseq.synthetic import overfit_pairs, write_raw_corpus
from capseq.tokenizers import BpeVocabulary, WordVocabulary

from oracles import (brute_bleu, brute_cider, brute_rouge_l,
                     enumerate_sequences, finite_difference_gradients,
                     relu_kink_margin, replay_merges, sliding_pair_counts,
                     worst_relative_error)

KINK_MARGIN = 4e-4  # safe headroom over the 1e-5 finite-difference step


def _caption_fd_instance():
    """First seed whose loss keeps every relu input clear of the FD window."""
    caption = np.array([[1, 4, 5, 6, 2, 0, 0]])
    for seed in range(200):
        cfg = dataclasses.replace(RunConfig().caption_config(),
                                  embed_dim=4, decoder_dim=5, attention_dim=4, dropout=0.0,
                                  doubly_stochastic_weight=0.5, pooled_side=2,
                                  encoder_channels=3, fine_tune_encoder=True,
                                  max_caption_len=8)
        model = CaptionModel(cfg, vocab_size=8, seed=seed)
        image = np.random.default_rng(1000 + seed).random((8, 8))

        def compute():
            return model.sequence_loss(model.encode(image[None]), caption)

        if relu_kink_margin(compute) > KINK_MARGIN:
            return model, compute
    raise AssertionError("no kink-safe caption instance found")


def _lm_fd_instance():
    vocab = BpeVocabulary.train("abcab", 2)
    ids = np.array([5, 97, 98, 99, vocab.end_of_text_id])
    for seed in range(200):
        model = TransformerLm(LmConfig(layers=2, heads=2, model_dim=4,
                                       ffn_dim=8, block_size=8), vocab, seed=seed)

        def compute():
            return model.loss(ids)

        if relu_kink_margin(compute) > KINK_MARGIN:
            return model, compute
    raise AssertionError("no kink-safe lm instance found")


@pytest.mark.acceptance(1, "end-to-end gradients match finite differences (rel <= 1e-4)")
class TestCriterion1GradientFidelity:
    def test_caption_model_full_chain(self):
        start = time.monotonic()
        model, compute = _caption_fd_instance()
        with ad.Tape() as tape:
            loss = compute()
        tape.backward(loss)
        held = {id(p) for opt in make_optimizers(model, RunConfig()).values() for p in opt.params}
        params = [(n, p) for n, p in model.parameters().items() if id(p) in held]
        assert sum(p.data.size for _, p in params) >= 400  # whole trainable chain
        ad_grads = {n: p.grad.copy() for n, p in params}
        fd = finite_difference_gradients(compute, params, eps=1e-5)
        worst, where = worst_relative_error(ad_grads, fd)
        elapsed = time.monotonic() - start
        assert worst <= 1e-4, (where, worst)
        assert elapsed <= 60.0, elapsed

    def test_toy_lm(self):
        start = time.monotonic()
        model, compute = _lm_fd_instance()
        with ad.Tape() as tape:
            loss = compute()
        tape.backward(loss)
        params = list(model.parameters().items())
        ad_grads = {n: p.grad.copy() for n, p in params}
        fd = finite_difference_gradients(compute, params, eps=1e-5)
        worst, where = worst_relative_error(ad_grads, fd)
        elapsed = time.monotonic() - start
        assert worst <= 1e-4, (where, worst)
        assert elapsed <= 60.0, elapsed


    def test_batched_matmul_and_embedding_chain(self):
        # (B, T) ids, a (K, N) weight shared across the batch, a 2-D left
        # operand broadcast over it and a per-sequence (B, K, N) weight: the
        # shared gradients are sums over the batch axis
        rng = np.random.default_rng(21)
        ids = rng.integers(0, 6, size=(3, 4))
        params = [(name, ad.Parameter(rng.normal(size=shape) * 0.5, name))
                  for name, shape in (("table", (6, 5)), ("shared", (5, 4)),
                                      ("mixer", (2, 4)), ("stacked", (3, 4, 2)))]
        table, shared, mixer, stacked = (p for _, p in params)

        def compute():
            h = ad.tanh(ad.embedding_lookup(table, ids) @ shared)   # (3, 4, 4)
            z = ad.tanh(mixer @ h) @ stacked                         # (3, 2, 2)
            return ad.log_softmax(z, axis=-1).mean()

        with ad.Tape() as tape:
            loss = compute()
        tape.backward(loss)
        ad_grads = {n: p.grad.copy() for n, p in params}
        fd = finite_difference_gradients(compute, params, eps=1e-5)
        worst, where = worst_relative_error(ad_grads, fd)
        assert worst <= 1e-4, (where, worst)


@pytest.mark.acceptance(2, "attention weights are a distribution; context in region hull")
def test_criterion2_attention_laws():
    rng = np.random.default_rng(77)
    draws = 0
    while draws < 1000:
        r = int(rng.integers(1, 4))
        f = int(rng.integers(2, 6))
        n = int(rng.integers(2, 8))
        model = CaptionModel(
            dataclasses.replace(RunConfig().caption_config(),
                                embed_dim=3, decoder_dim=n,
                                attention_dim=int(rng.integers(2, 6)),
                                dropout=0.0, pooled_side=r, encoder_channels=f,
                                max_caption_len=4),
            vocab_size=6, seed=int(rng.integers(0, 10 ** 6)))
        batch = int(rng.integers(1, 3))
        regions = ad.Tensor(rng.normal(scale=3.0, size=(batch, r * r, f)))
        hidden = ad.Tensor(rng.normal(scale=3.0, size=(batch, n)))
        alpha, context = model.attend(regions, hidden)
        assert np.all(alpha.data >= 0)
        assert np.all(np.abs(alpha.data.sum(axis=1) - 1.0) <= 1e-9)
        # alpha is itself the convex-combination certificate
        recon = np.einsum("br,brf->bf", alpha.data, regions.data)
        assert np.max(np.abs(context.data - recon)) <= 1e-9
        draws += batch
    assert draws >= 1000


@pytest.mark.acceptance(3, "coverage penalty: off is bit-exact CE; on matches closed form")
class TestCriterion3DoublyStochastic:
    def _instance(self, weight, seed=21):
        cfg = dataclasses.replace(RunConfig().caption_config(),
                                  embed_dim=5, decoder_dim=6, attention_dim=5, dropout=0.0,
                                  doubly_stochastic_weight=weight, pooled_side=2,
                                  encoder_channels=4, max_caption_len=8)
        model = CaptionModel(cfg, vocab_size=9, seed=seed)
        image = np.random.default_rng(seed).random((10, 10))
        captions = np.array([[1, 4, 7, 5, 2, 0]])
        lengths = np.array([4])
        return model, image, captions, lengths

    def test_weight_zero_equals_plain_cross_entropy_bit_exact(self):
        model, image, captions, lengths = self._instance(0.0)
        annotations = model.encode(image[None])
        loss = model.sequence_loss(annotations, captions).item()
        h, c = model.init_state(annotations)
        total = 0.0
        for t in range(int(lengths[0])):
            alpha, ctx = model.attend(annotations, h)
            h, c = model.lstm_step(captions[:, t], h, c, ctx)
            probs = model.output_distribution(h, ctx, captions[:, t])
            total += -math.log(max(probs.data[0, captions[0, t + 1]], 1e-12))
        assert loss == total / int(lengths[0])  # bit-exact

    def test_positive_weight_matches_independent_penalty(self):
        weight = 0.35
        model, image, captions, lengths = self._instance(weight)
        annotations = model.encode(image[None])
        with_pen = model.sequence_loss(annotations, captions).item()
        model.config.doubly_stochastic_weight = 0.0
        without = model.sequence_loss(annotations, captions).item()
        # collect the per-step attention maps independently
        h, c = model.init_state(annotations)
        alphas = []
        for t in range(int(lengths[0])):
            alpha, ctx = model.attend(annotations, h)
            alphas.append(alpha.data[0].copy())
            h, c = model.lstm_step(captions[:, t], h, c, ctx)
        coverage = np.sum(alphas, axis=0)
        expected_penalty = weight * float(np.sum((1.0 - coverage) ** 2))
        assert abs((with_pen - without) - expected_penalty) <= 1e-12


def _prefix_random_step(seed, vocab):
    def step(prefix):
        h = np.random.default_rng((seed, len(prefix), *[t + 1 for t in prefix])).random(vocab)
        return np.log(h / h.sum())
    return step


@pytest.mark.acceptance(4, "beam(K=1) == greedy; exhaustive beam matches enumeration; monotone in K")
class TestCriterion4Decoding:
    def test_beam1_equals_greedy_on_100_models(self):
        for trial in range(100):
            step = _prefix_random_step(trial, 5)
            greedy = greedy_decode(step, 4, end_token=0)
            beams = beam_search(step, 1, 4, end_token=0)
            assert select_beam(beams, 1, end_token=0) == greedy, trial

    def test_exhaustive_beam_matches_brute_force(self):
        step = _prefix_random_step(424242, 5)
        scored = enumerate_sequences(step, 5, 3)
        assert len(scored) == 125
        best_tokens, best_score = max(scored, key=lambda s: s[1])
        beams = beam_search(step, 125, 3, end_token=None, length_normalize=False)
        assert beams[0].tokens == best_tokens
        assert abs(beams[0].logprob - best_score) <= 1e-12

    def test_top_beam_score_monotone_in_k(self):
        for trial in range(20):
            step = _prefix_random_step(31337 + trial, 6)
            previous = -np.inf
            for k in range(1, 10):
                top = beam_search(step, k, 5, end_token=0)[0].score(True)
                assert top >= previous - 1e-12, (trial, k)
                previous = top


@pytest.mark.acceptance(5, "BPE: byte round trips, first merge, greedy == merge replay")
class TestCriterion5Bpe:
    def test_round_trip_1000_random_byte_strings(self):
        rng = np.random.default_rng(5150)
        vocab = BpeVocabulary.train("the lungs are clear. no pleural effusion.", 50)
        for _ in range(1000):
            raw = rng.bytes(int(rng.integers(0, 257)))
            assert vocab.decode_bytes(vocab.encode_bytes(raw)) == raw

    def test_first_merge_on_reference_string(self):
        vocab = BpeVocabulary.train("aaabdaaabac", 1)
        assert vocab.merges[0] == (b"a", b"a")
        counts = sliding_pair_counts([bytes([b]) for b in b"aaabdaaabac"])
        assert counts[(b"a", b"a")] == max(counts.values()) == 4

    def test_greedy_encoder_matches_replay_oracle_100_corpora(self):
        rng = np.random.default_rng(99)
        letters = list("abcdef ")
        for trial in range(100):
            corpus = "".join(rng.choice(letters, size=int(rng.integers(20, 80))))
            vocab = BpeVocabulary.train(corpus, int(rng.integers(0, 15)))
            text = "".join(rng.choice(letters, size=int(rng.integers(0, 60))))
            expect = replay_merges(text, vocab.merges)
            got = [vocab.symbol(i) for i in vocab.encode(text)]
            assert got == expect, trial


@pytest.mark.acceptance(6, "metrics match brute-force oracles and fixed hand cases")
class TestCriterion6Metrics:
    def test_twenty_randomized_corpora_within_1e9(self):
        rng = np.random.default_rng(314)
        words = ["the", "cat", "sat", "mat", "dog", "ran", "on", "a", "big", "red"]
        for trial in range(20):
            pairs = []
            for _ in range(int(rng.integers(2, 8))):
                cand = [words[i] for i in rng.integers(0, 10, int(rng.integers(1, 9)))]
                refs = [[words[i] for i in rng.integers(0, 10, int(rng.integers(1, 10)))]
                        for _ in range(int(rng.integers(1, 3)))]
                pairs.append(EvalPair(cand, refs))
            raw = [(p.candidate, p.references) for p in pairs]
            for n in range(1, 5):
                assert abs(bleu_n(pairs, n) - brute_bleu(raw, n)) <= 1e-9, trial
            assert abs(rouge_l(pairs) - brute_rouge_l(raw)) <= 1e-9, trial
            assert abs(cider(pairs) - brute_cider(raw)) <= 1e-9, trial

    def test_fixed_clipped_precision(self):
        pairs = [EvalPair("the the the the".split(), ["the cat on the mat".split()])]
        assert bleu_components(pairs, 1)["precisions"][0] == 2 / 4

    def test_fixed_brevity_penalty(self):
        pairs = [EvalPair(["a", "b"], [["a", "b", "c", "d"]])]
        assert bleu_n(pairs, 1) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_fixed_rouge_case(self):
        cand = "the cat sat".split()
        ref = "the cat on the mat".split()
        assert lcs_length(cand, ref) == 2
        r, p, beta = 2 / 5, 2 / 3, 1.2
        expect = (1 + beta ** 2) * p * r / (r + beta ** 2 * p)
        assert rouge_l([EvalPair(cand, [ref])]) == pytest.approx(expect, abs=1e-12)


@pytest.mark.acceptance(7, "caption model overfits 8 pairs to BLEU-4 >= 0.95; LM CE <= 0.1")
class TestCriterion7Trainability:
    def test_caption_overfit(self):
        start = time.monotonic()
        pairs = overfit_pairs(side=32)
        vocab = WordVocabulary.build([toks for _, _, toks in pairs])
        max_len = max(len(t) for _, _, t in pairs) + 2
        examples = [CaptionExample(sid, img, np.asarray(vocab.encode(toks, max_len)))
                    for sid, img, toks in pairs]
        cfg = dataclasses.replace(RunConfig().caption_config(),
                                  embed_dim=24, decoder_dim=64, attention_dim=32, dropout=0.0,
                                  pooled_side=4, encoder_channels=32, fine_tune_encoder=False,
                                  max_caption_len=max_len)
        model = CaptionModel(cfg, vocab_size=len(vocab), seed=5)
        train_teacher_forcing(model, examples,
                              RunConfig(sat_epochs=400, sat_batch_size=8,
                                        sat_decoder_lr=5e-3, sat_clip_norm=5.0, seed=0))
        eval_pairs = []
        for (sid, img, toks) in pairs:
            ids, _ = model.decode_caption(img, strategy="greedy", max_len=max_len)
            eval_pairs.append(EvalPair(vocab.decode(ids) or [""], [toks]))
        score = bleu_n(eval_pairs, 4)
        elapsed = time.monotonic() - start
        assert score >= 0.95, score
        assert elapsed <= 600.0, elapsed
        # the overfit model reproduces training captions as generation seeds
        assert any(p.candidate == p.references[0] for p in eval_pairs)

    def test_lm_overfit(self):
        lines = [
            "no acute cardiopulmonary abnormality .",
            "pleural effusion present . small left effusion with adjacent atelectasis .",
            "cardiomegaly present . heart size is enlarged but stable .",
            "no pneumothorax . lungs are clear without focal consolidation .",
            "support devices present . lines and tubes in standard position .",
            "uncertain pneumonia . patchy opacity at the right lung base .",
            "no edema . pulmonary vascularity is within normal limits .",
        ]
        vocab = BpeVocabulary.train(" ".join(lines), 60)
        stream = build_token_stream(lines, vocab)
        assert len(stream) >= 200
        lm = TransformerLm(LmConfig(layers=2, heads=2, model_dim=32,
                                    ffn_dim=64, block_size=64), vocab, seed=3)
        train_lm(lm, stream, RunConfig(lm_epochs=150, lm_batch_size=1, lm_lr=3e-3,
                                       lm_clip_norm=1.0, seed=0))
        losses = [lm.loss(w).item() for w in chunk_stream(stream, 64)]
        assert float(np.mean(losses)) <= 0.1, losses


@pytest.mark.acceptance(8, "pipeline: combined = seed + continuation; termination; rank-2 selection")
class TestCriterion8Pipeline:
    def _stack(self):
        pairs = overfit_pairs(side=16)[:4]
        captions = [toks for _, _, toks in pairs]
        word_vocab = WordVocabulary.build(captions)
        max_len = max(len(t) for t in captions) + 2
        examples = [CaptionExample(sid, img, np.asarray(word_vocab.encode(t, max_len)))
                    for (sid, img, t) in pairs]
        model = CaptionModel(dataclasses.replace(RunConfig().caption_config(),
                                                 embed_dim=12, decoder_dim=24, attention_dim=12,
                                                 dropout=0.0, pooled_side=2, encoder_channels=12,
                                                 max_caption_len=max_len),
                             vocab_size=len(word_vocab), seed=4)
        train_teacher_forcing(model, examples,
                              RunConfig(sat_epochs=60, sat_batch_size=4,
                                        sat_decoder_lr=5e-3, seed=0))
        text = "\n".join(" ".join(t) for t in captions)
        bpe = BpeVocabulary.train(text + " <start>", 30)
        lm = TransformerLm(LmConfig(1, 1, 16, 32, 48), bpe, seed=4)
        train_lm(lm, build_token_stream([" ".join(t) for t in captions], bpe),
                 RunConfig(lm_epochs=10, lm_lr=3e-3, seed=0))
        return pairs, model, word_vocab, lm, bpe

    def test_contracts(self):
        from capseq.decoding import two_stage_generate
        pairs, model, word_vocab, lm, bpe = self._stack()
        cfg = RunConfig(decode_strategy="greedy", beam_width=3, lm_rank=2, lm_max_new=8)
        for sid, img, _ in pairs:
            out = two_stage_generate(img, model, word_vocab, lm, cfg, sid)
            if out.continuation_text:
                assert out.combined_text == out.seed_text + " " + out.continuation_text
            else:
                assert out.combined_text == out.seed_text
            assert len(out.attention_weights) == len(out.seed_tokens)
            # termination: continuation token count respects the cap after
            # terminator stripping
            cont_ids = bpe.encode(out.continuation_text)
            assert len(cont_ids) <= cfg.lm_max_new

    def test_rank2_picks_second_highest_scoring_beam(self):
        _, model, word_vocab, lm, bpe = self._stack()
        seed_ids = list(bpe.encode("no acute findings <start>"))[:16]
        beams = beam_search(lm.step_function(seed_ids), 4, 6, end_token=bpe.end_of_text_id)
        scores = [b.score(True) for b in beams]
        assert scores == sorted(scores, reverse=True)
        chosen = select_beam(beams, 2, end_token=bpe.end_of_text_id)
        expect = list(beams[1].tokens)
        if expect and expect[-1] == bpe.end_of_text_id:
            expect = expect[:-1]
        assert chosen == expect

    def test_termination_on_forced_end(self):
        _, model, word_vocab, lm, bpe = self._stack()
        eot = lm.vocab.end_of_text_id

        def instant(prefix):
            lp = np.full(lm.vocab_size, -40.0)
            lp[eot] = -0.01
            return lp

        assert decode(instant, 6, eot, strategy="greedy") == []


@pytest.mark.acceptance(9, "LM logits bit-invariant to later-token perturbations")
def test_criterion9_causality_100_trials():
    rng = np.random.default_rng(909)
    vocab = BpeVocabulary.train("xy", 0)
    for trial in range(100):
        lm = TransformerLm(LmConfig(layers=2, heads=2, model_dim=8, ffn_dim=16,
                                    block_size=12), vocab, seed=trial)
        length = int(rng.integers(2, 10))
        ids = rng.integers(0, 256, size=length)
        t = int(rng.integers(0, length - 1))
        perturbed = ids.copy()
        perturbed[t + 1] = (perturbed[t + 1] + 1 + rng.integers(0, 254)) % 256
        base = lm.forward(ids).data
        changed = lm.forward(perturbed).data
        assert np.array_equal(base[: t + 1], changed[: t + 1]), trial


@pytest.mark.acceptance(10, "CLI commands byte-identical across reruns with a fixed seed")
def test_criterion10_cli_reproducibility(tmp_path):
    raw = tmp_path / "raw"
    write_raw_corpus(raw, side=16, copies=2)
    fast = ["--seed", "11",
            "--set", "sat_epochs=2", "--set", "lm_epochs=2",
            "--set", "sat_decoder_dim=12", "--set", "sat_embed_dim=8",
            "--set", "sat_attention_dim=8", "--set", "sat_encoder_channels=8",
            "--set", "sat_pooled_side=2", "--set", "lm_model_dim=8",
            "--set", "lm_ffn_dim=16", "--set", "lm_layers=1", "--set", "lm_heads=1",
            "--set", "lm_merges=12", "--set", "lm_block_size=32",
            "--set", "lm_max_new=6", "--set", "beam_width=2", "--set", "lm_rank=2",
            "--set", "sat_max_caption_len=16", "--set", "image_side=16"]

    def run(base: Path):
        prep = base / "prep"
        run_dir = base / "run"
        assert main(["prep", "--corpus", str(raw / "corpus.jsonl"),
                     "--out", str(prep), *fast]) == 0
        assert main(["train-sat", "--dataset", str(prep / "dataset.csds"),
                     "--manifest", str(prep / "manifest.json"),
                     "--out", str(run_dir), *fast]) == 0
        assert main(["train-lm", "--dataset", str(prep / "dataset.csds"),
                     "--manifest", str(prep / "manifest.json"),
                     "--out", str(run_dir), *fast]) == 0
        assert main(["generate", "--dataset", str(prep / "dataset.csds"),
                     "--manifest", str(prep / "manifest.json"), "--split", "test",
                     "--sat-checkpoint", str(run_dir / "sat-best.ckpt"),
                     "--lm-checkpoint", str(run_dir / "lm-best.ckpt"),
                     "--word-vocab", str(run_dir / "words.vocab"),
                     "--bpe-vocab", str(run_dir / "bpe.vocab"),
                     "--heatmap-dir", str(base / "heat"),
                     "--out", str(base / "reports.jsonl"), *fast]) == 0
        assert main(["evaluate", "--candidates", str(raw / "corpus.jsonl"),
                     "--references", str(raw / "corpus.jsonl"),
                     "--out", str(base / "eval.txt")]) == 0
        csvs = sorted((base / "heat").glob("*_alphas.csv"))
        assert csvs
        assert main(["heatmap", "--alphas", str(csvs[0]), "--pooled-side", "2",
                     "--height", "8", "--width", "8",
                     "--out", str(base / "maps")]) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    compared = 0
    for rel in ["prep/dataset.csds", "prep/manifest.json", "run/words.vocab",
                "run/bpe.vocab", "run/sat-last.ckpt", "run/sat-best.ckpt",
                "run/lm-last.ckpt", "run/lm-best.ckpt", "run/sat-loss.tsv",
                "run/lm-loss.tsv", "run/sat-val-metrics.tsv", "run/lm-val-metrics.tsv",
                "reports.jsonl", "eval.txt"]:
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, rel
        compared += 1
    for sub in ("heat", "maps"):
        names_a = sorted(p.name for p in (tmp_path / "a" / sub).iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b" / sub).iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / sub / name).read_bytes() == \
                (tmp_path / "b" / sub / name).read_bytes(), name
            compared += 1
    assert compared >= 14
