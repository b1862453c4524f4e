"""Greedy/beam decoding contracts: greedy equivalence at K=1, the exhaustive
enumeration oracle, monotonicity in K, and the two-stage pipeline wiring."""

import numpy as np
import pytest

from capseq.captioner import CaptionConfig, CaptionModel
from capseq.config import RunConfig
from capseq.decoding import (Beam, beam_search, greedy_decode, select_beam,
                             two_stage_generate)
from capseq.lm import LmConfig, TransformerLm
from capseq.tokenizers import BpeVocabulary, WordVocabulary

from oracles import enumerate_sequences


def random_table_step(seed, vocab, depth=8):
    """Prefix-dependent random log-probabilities, deterministic per prefix."""
    def step(prefix):
        h = np.random.default_rng((seed, len(prefix), *[t + 1 for t in prefix])).random(vocab)
        logits = np.log(h / h.sum())
        return logits
    return step


class TestGreedy:
    def test_deterministic(self):
        step = random_table_step(0, 6)
        assert greedy_decode(step, 5) == greedy_decode(step, 5)

    def test_immediate_end_gives_empty(self):
        def step(prefix):
            lp = np.full(4, -10.0)
            lp[2] = -0.01
            return lp
        assert greedy_decode(step, 5, end_token=2) == []

    def test_cap_respected(self):
        step = random_table_step(1, 5)
        assert len(greedy_decode(step, 3)) == 3

    def test_tie_breaks_to_lowest_id(self):
        def step(prefix):
            return np.zeros(4)
        assert greedy_decode(step, 2) == [0, 0]


class TestBeamSearch:
    def test_k1_equals_greedy_100_random_models(self):
        for trial in range(100):
            step = random_table_step(trial, 5)
            greedy = greedy_decode(step, 4, end_token=0)
            beams = beam_search(step, 1, 4, end_token=0)
            assert select_beam(beams, 1, end_token=0) == greedy, trial

    def test_exhaustive_oracle_vocab5_len3(self):
        step = random_table_step(99, 5)
        scored = enumerate_sequences(step, 5, 3)
        best = max(scored, key=lambda s: s[1])
        beams = beam_search(step, 125, 3, end_token=None, length_normalize=False)
        assert beams[0].tokens == best[0]
        assert beams[0].logprob == pytest.approx(best[1], abs=1e-12)
        # every enumerated sequence is present exactly once, in score order
        assert len(beams) == 125
        scores = [b.logprob for b in beams]
        assert scores == sorted(scores, reverse=True)

    def test_top_score_monotone_in_k(self):
        for trial in range(25):
            step = random_table_step(1000 + trial, 6)
            last = -np.inf
            for k in range(1, 9):
                beams = beam_search(step, k, 5, end_token=0)
                top = beams[0].score(True)
                assert top >= last - 1e-12, (trial, k)
                last = top

    def test_beam_dominates_greedy(self):
        for trial in range(50):
            step = random_table_step(2000 + trial, 5)
            greedy_tokens = greedy_decode(step, 4, end_token=None)
            greedy_score = 0.0
            for i, tok in enumerate(greedy_tokens):
                greedy_score += float(step(tuple(greedy_tokens[:i]))[tok])
            greedy_score /= max(len(greedy_tokens), 1)
            beams = beam_search(step, 4, 4, end_token=None)
            assert beams[0].score(True) >= greedy_score - 1e-12

    def test_scores_non_increasing(self):
        step = random_table_step(7, 5)
        beams = beam_search(step, 6, 4, end_token=0)
        scores = [b.score(True) for b in beams]
        assert scores == sorted(scores, reverse=True)

    def test_no_tokens_after_terminator(self):
        for trial in range(20):
            step = random_table_step(3000 + trial, 4)
            for beam in beam_search(step, 4, 6, end_token=1):
                if beam.finished:
                    assert beam.tokens[-1] == 1
                    assert 1 not in beam.tokens[:-1]

    def test_beam_logprob_is_sum_of_steps(self):
        step = random_table_step(11, 4)
        for beam in beam_search(step, 5, 4, end_token=1):
            total = 0.0
            for i, tok in enumerate(beam.tokens):
                total += float(step(beam.tokens[:i])[tok])
            assert beam.logprob == pytest.approx(total, abs=1e-12)

    def test_unreachable_width_clamped(self, caplog):
        step = random_table_step(13, 2)
        beams = beam_search(step, 100, 2, end_token=None)  # only 4 sequences exist
        assert len(beams) == 4
        assert "clamping" in caplog.text

    def test_argument_domains(self):
        step = random_table_step(0, 3)
        with pytest.raises(ValueError):
            beam_search(step, 0, 3)
        with pytest.raises(ValueError):
            beam_search(step, 2, 0)
        with pytest.raises(ValueError):
            greedy_decode(step, 0)


class TestSelectBeam:
    def _beams(self):
        return [Beam((1,), -0.1, True), Beam((2,), -0.5, True), Beam((3,), -0.9, True)]

    def test_rank_one_is_top(self):
        assert select_beam(self._beams(), 1) == [1]

    def test_rank_two_is_second(self):
        assert select_beam(self._beams(), 2) == [2]

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            select_beam(self._beams(), 4)


def _tiny_models():
    captions = [["alpha", "beta", "gamma"], ["delta", "beta", "gamma"]]
    word_vocab = WordVocabulary.build(captions)
    model = CaptionModel(
        CaptionConfig(embed_dim=6, decoder_dim=8, attention_dim=6, dropout=0.0,
                      pooled_side=2, encoder_channels=4, max_caption_len=8),
        vocab_size=len(word_vocab), seed=0)
    bpe = BpeVocabulary.train("alpha beta gamma delta <start>", 10)
    lm = TransformerLm(LmConfig(n_layers=1, n_heads=1, model_dim=8, ffn_dim=16,
                                block_size=32), bpe, seed=0)
    return model, word_vocab, lm, bpe


class TestTwoStage:
    def test_combined_is_seed_plus_continuation(self):
        model, word_vocab, lm, bpe = _tiny_models()
        image = np.random.default_rng(0).random((8, 8))
        out = two_stage_generate(image, model, word_vocab, lm, bpe,
                                 RunConfig(decode_strategy="greedy", beam_width=2,
                                           lm_rank=2, lm_max_new=6), "s0")
        if out.continuation_text:
            assert out.combined_text == out.seed_text + " " + out.continuation_text
        else:
            assert out.combined_text == out.seed_text

    def test_attention_weights_match_seed_length(self):
        model, word_vocab, lm, bpe = _tiny_models()
        image = np.random.default_rng(1).random((8, 8))
        out = two_stage_generate(image, model, word_vocab, lm, bpe,
                                 RunConfig(decode_strategy="greedy", beam_width=2,
                                           lm_rank=2, lm_max_new=4), "s1")
        assert len(out.attention_weights) == len(out.seed_tokens)

    def test_no_lm_keeps_seed_only(self):
        model, word_vocab, lm, bpe = _tiny_models()
        image = np.random.default_rng(2).random((8, 8))
        out = two_stage_generate(image, model, word_vocab, None, None,
                                 RunConfig(decode_strategy="greedy"), "s2")
        assert out.continuation_text == ""
        assert out.combined_text == out.seed_text

    def test_immediate_terminator_keeps_seed(self):
        model, word_vocab, lm, bpe = _tiny_models()

        class InstantStop:
            config = lm.config
            def continuation_beams(self, seed_ids, k, max_new, length_normalize=True):
                return [Beam((bpe.end_of_text_id,), -0.1, True),
                        Beam((bpe.end_of_text_id,), -0.2, True)]

        image = np.random.default_rng(3).random((8, 8))
        out = two_stage_generate(image, model, word_vocab, InstantStop(), bpe,
                                 RunConfig(decode_strategy="greedy", beam_width=2,
                                           lm_rank=2, lm_max_new=4), "s3")
        assert out.continuation_text == ""
        assert out.combined_text == out.seed_text

    def test_empty_caption_returns_seed_only_with_diagnostic(self, caplog):
        model, word_vocab, lm, bpe = _tiny_models()
        model.decode_caption = lambda *a, **k: ([], [])
        out = two_stage_generate(np.zeros((8, 8)), model, word_vocab, lm, bpe,
                                 RunConfig(decode_strategy="greedy", beam_width=2,
                                           lm_rank=2), "s4")
        assert out.seed_tokens == []
        assert out.combined_text == "" and out.continuation_text == ""
        assert "empty seed" in caplog.text
