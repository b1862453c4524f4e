"""Greedy/beam decoding contracts: greedy equivalence at K=1, the exhaustive
enumeration oracle, monotonicity in K, and the two-stage pipeline wiring."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capseq.captioner import CaptionModel
from capseq.config import RunConfig
from capseq.decoding import (Beam, _advance, _shortlists, beam_search, decode, deferred_step,
                             greedy_decode, lm_seed, select_beam, two_stage_generate)
from capseq.lm import LmConfig, TransformerLm
from capseq.tokenizers import BpeVocabulary, WordVocabulary

from oracles import enumerate_sequences, lockstep_step_prefixes, pooled_beam_search


def random_table_step(seed, vocab, depth=8):
    """Prefix-dependent random log-probabilities, deterministic per prefix."""
    def step(prefix):
        h = np.random.default_rng((seed, len(prefix), *[t + 1 for t in prefix])).random(vocab)
        logits = np.log(h / h.sum())
        return logits
    return step


def tied_table_step(seed, vocab, values):
    """Prefix-dependent log-probabilities drawn from a few values, so that
    candidate scores tie often; -0.1 + -0.2 != -0.3 keeps sums order-sensitive."""
    def step(prefix):
        rng = np.random.default_rng((seed, len(prefix), *[t + 1 for t in prefix]))
        return rng.choice(np.array(values), size=vocab)
    return step


# the tie-heavy cases: few distinct log-probabilities, so scores tie often
TIED_CASES = dict(
    seed=st.integers(0, 2**32 - 1), vocab=st.integers(2, 6),
    values=st.lists(st.sampled_from([-0.1, -0.2, -0.3, -0.7, -1.0]),
                    min_size=1, max_size=3, unique=True),
    end_token=st.one_of(st.none(), st.integers(0, 5)),
    k=st.integers(1, 6), max_len=st.integers(1, 5),
    length_normalize=st.booleans(),
)


def _bits(beams):
    """(tokens, finished, score bytes) per beam: bitwise-equal scores, not
    merely close ones."""
    return [(b.tokens, b.finished, np.float64(b.logprob).tobytes()) for b in beams]


def reference_beams(*args):
    """``pooled_beam_search``'s (tokens, logprob, finished) triples as beams."""
    return [Beam(*triple) for triple in pooled_beam_search(*args)]


def deferring(eager, batches):
    """``deferred_step`` over an eager step function, logging each batch of
    prefixes it evaluates."""
    def evaluate(prefixes):
        batches.append(list(prefixes))
        return [eager(prefix) for prefix in prefixes]
    return deferred_step(evaluate)


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

    @settings(max_examples=300)
    @given(**TIED_CASES)
    def test_matches_per_candidate_reference(self, seed, vocab, values, end_token, k,
                                             max_len, length_normalize):
        step = tied_table_step(seed, vocab, values)
        if end_token is not None:
            end_token %= vocab
        expected = reference_beams(step, k, max_len, end_token, length_normalize)
        beams = beam_search(step, k, max_len, end_token, length_normalize)
        assert _bits(beams) == _bits(expected)

    @settings(max_examples=300)
    @given(**TIED_CASES)
    def test_deferred_step_batches_each_step(self, seed, vocab, values, end_token, k,
                                             max_len, length_normalize):
        eager = tied_table_step(seed, vocab, values)
        if end_token is not None:
            end_token %= vocab
        batches = []
        beams = beam_search(deferring(eager, batches), k, max_len, end_token, length_normalize)
        assert _bits(beams) == _bits(reference_beams(eager, k, max_len, end_token,
                                                     length_normalize))
        queued = [prefix for batch in batches for prefix in batch]
        assert len(queued) == len(set(queued))
        assert all(len({len(prefix) for prefix in batch}) == 1 for batch in batches)
        assert len(batches) <= max_len
        # the same prefixes an eager search evaluates
        calls = []
        beam_search(lambda prefix: calls.append(prefix) or eager(prefix), k, max_len,
                    end_token, length_normalize)
        assert set(queued) == set(calls)

    @settings(max_examples=300)
    @given(**TIED_CASES)
    def test_step_calls_follow_the_lockstep_order(self, seed, vocab, values, end_token, k,
                                                  max_len, length_normalize):
        # the LM batches one step's prefixes into one forward, and the
        # benchmark's tracer counts the calls: both rest on this sequence
        step = tied_table_step(seed, vocab, values)
        if end_token is not None:
            end_token %= vocab
        calls = []
        beam_search(lambda prefix: calls.append(tuple(prefix)) or step(prefix), k, max_len,
                    end_token, length_normalize)
        assert calls == lockstep_step_prefixes(step, k, max_len, end_token)

    @pytest.mark.parametrize("seed", range(40))
    def test_selection_matches_stable_sort_at_lm_size(self, seed):
        # one pass's candidates in generation order: held finished beams (one
        # score each) and live beams (one tie-heavy row of V scores each),
        # shortlisted for the widest pass of a 5-beam search
        rng = np.random.default_rng(seed)
        vocab = int(rng.integers(330, 350))
        end_token = int(rng.integers(vocab))
        values = rng.choice([-0.1, -0.2, -0.3, -0.7, -1.0], size=int(rng.integers(1, 4)),
                            replace=False)
        for width in range(1, 6):
            for live in range(width + 1):
                beams, rows, candidates = [], {}, []
                for i in rng.permutation(width).tolist():
                    if i >= live:
                        beam = (float(rng.choice(values)), (i, end_token), True)
                        candidates.append(beam)
                    else:
                        beam = (float(rng.choice([0.0, -0.3])), (i,), False)
                        rows[beam[1]] = (rng.choice(values, size=vocab), beam[0])
                        candidates.extend((beam[0] + float(rows[beam[1]][0][t]), (i, t),
                                           t == end_token) for t in range(vocab))
                    beams.append(beam)
                scores = np.array([c[0] for c in candidates])
                expected = [candidates[j] for j in np.argsort(-scores, kind="stable")[:width]]
                got = _advance(beams, width, _shortlists(rows, 5, end_token) if rows else {})
                assert [(c[1], c[2], c[0].hex()) for c in got] == \
                    [(c[1], c[2], c[0].hex()) for c in expected], (width, live)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_candidate_reference_at_lm_size(self, seed):
        step = tied_table_step(seed, 340, [-0.1, -0.2, -0.3])
        end_token = seed % 3 or None
        expected = reference_beams(step, 5, 3, end_token, True)
        assert _bits(beam_search(step, 5, 3, end_token, True)) == _bits(expected)

    def test_each_prefix_evaluated_once(self):
        base = random_table_step(17, 4)
        for end_token in (None, 1):
            calls = []

            def step(prefix):
                calls.append(tuple(prefix))
                return base(prefix)

            beam_search(step, 5, 4, end_token=end_token)
            assert calls and len(calls) == len(set(calls)), end_token

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


class TestDecode:
    def test_greedy_is_greedy_decode(self):
        step = random_table_step(2, 5)
        assert decode(step, 4, 3) == greedy_decode(step, 4, end_token=3)

    def test_beam_selects_ranked_beam_without_terminator(self):
        step = random_table_step(3, 4)
        beams = beam_search(step, 3, 4, end_token=0)
        for rank in (1, 2, 3):
            assert decode(step, 4, 0, strategy="beam", beam_width=3, rank=rank) == \
                select_beam(beams, rank, end_token=0)

    def test_rank_beyond_beams_found_takes_the_last(self):
        # vocab 2, one step: only 2 sequences exist, so a width-3 search finds 2
        def step(prefix):
            return np.log(np.array([0.7, 0.3]))
        beams = beam_search(step, 3, 1)
        assert [b.tokens for b in beams] == [(0,), (1,)]
        assert decode(step, 1, None, strategy="beam", beam_width=3, rank=3) == [1]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown decode strategy"):
            decode(random_table_step(0, 3), 2, 0, strategy="sample")


class TestLmSeed:
    def _vocab(self):
        return BpeVocabulary.train("alpha beta gamma delta <start>", 10)

    def test_text_one_below_block_size_kept_whole(self):
        bpe = self._vocab()
        full = list(bpe.encode("alpha beta gamma <start>"))
        assert lm_seed("alpha beta gamma", bpe, len(full) + 1) == full

    def test_longer_text_keeps_last_block_size_minus_one_ids(self):
        bpe = self._vocab()
        full = list(bpe.encode("alpha beta gamma <start>"))
        assert len(full) > 3
        for block_size in (2, 3, len(full)):
            assert lm_seed("alpha beta gamma", bpe, block_size) == full[-(block_size - 1):]


def _tiny_models():
    captions = [["alpha", "beta", "gamma"], ["delta", "beta", "gamma"]]
    word_vocab = WordVocabulary.build(captions)
    model = CaptionModel(
        dataclasses.replace(RunConfig().caption_config(),
                            embed_dim=6, decoder_dim=8, attention_dim=6, dropout=0.0,
                            pooled_side=2, encoder_channels=4, max_caption_len=8),
        vocab_size=len(word_vocab), seed=0)
    bpe = BpeVocabulary.train("alpha beta gamma delta <start>", 10)
    lm = TransformerLm(LmConfig(layers=1, heads=1, model_dim=8, ffn_dim=16,
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
            """Forces <|endoftext|> with a space as runner-up, so the rank-2
            beam (space, <|endoftext|>) carries no text either."""
            config = lm.config

            def step_function(self, seed_ids):
                def step(prefix):
                    lp = np.full(len(bpe), -50.0)
                    lp[bpe.encode(" ")[0]] = -1.0
                    lp[bpe.end_of_text_id] = -0.001
                    return lp
                return step

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
