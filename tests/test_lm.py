"""Language model contracts: strict causality, the straight-line forward
oracle, loss analytics, training determinism, and generation rules."""

import numpy as np
import pytest

from capseq import autodiff as ad
from capseq.config import RunConfig
from capseq.decoding import decode
from capseq.lm import (LmConfig, TransformerLm, build_token_stream, chunk_stream,
                       sinusoidal_positions, train_lm)
from capseq.optim import global_grad_norm
from capseq.tokenizers import BpeVocabulary

from oracles import straightline_lm_logits


def small_vocab():
    return BpeVocabulary.train("ab", 0)  # 257 ids


def make_lm(seed=0, **overrides):
    cfg = dict(n_layers=2, n_heads=2, model_dim=8, ffn_dim=16, block_size=16)
    cfg.update(overrides)
    return TransformerLm(LmConfig(**cfg), small_vocab(), seed=seed)


class TestConfig:
    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            LmConfig(n_layers=1, n_heads=3, model_dim=8, ffn_dim=16, block_size=8).validate()

    def test_block_size_minimum(self):
        with pytest.raises(ValueError):
            LmConfig(n_layers=1, n_heads=1, model_dim=4, ffn_dim=8, block_size=1).validate()


class TestForward:
    def test_causality_bit_exact(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            lm = make_lm(seed=trial)
            ids = rng.integers(0, 256, size=8)
            t = int(rng.integers(1, 7))
            perturbed = ids.copy()
            perturbed[t + 1:] = rng.integers(0, 256, size=len(ids) - t - 1)
            base = lm.forward(ids).data
            other = lm.forward(perturbed).data
            assert np.array_equal(base[: t + 1], other[: t + 1]), trial

    def test_single_token_input(self):
        lm = make_lm()
        out = lm.forward([42])
        assert out.shape == (1, lm.vocab_size)

    def test_overlong_input_rejected(self):
        lm = make_lm(block_size=4)
        with pytest.raises(ValueError, match="block size"):
            lm.forward([1, 2, 3, 4, 5])

    def test_attention_rows_causal_and_normalized(self):
        lm = make_lm(seed=3)
        captured = []
        orig = ad.softmax

        def spy(x, axis=-1):
            out = orig(x, axis=axis)
            if out.ndim == 2 and out.shape[0] == out.shape[1]:
                captured.append(out.data)
            return out

        ad.softmax = spy
        try:
            lm.forward([5, 6, 7, 8, 9])
        finally:
            ad.softmax = orig
        assert captured
        for rows in captured:
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
            assert np.array_equal(np.triu(rows, k=1), np.zeros_like(rows))

    def test_matches_straightline_oracle(self):
        # 1 layer, 1 head, dim 2, 3-token input, computed two independent ways
        lm = TransformerLm(LmConfig(n_layers=1, n_heads=1, model_dim=2,
                                    ffn_dim=4, block_size=8), small_vocab(), seed=7)
        ids = [10, 20, 30]
        got = lm.forward(ids).data
        want = straightline_lm_logits(lm, ids)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_matches_oracle_multilayer_multihead(self):
        lm = make_lm(seed=11, n_layers=2, n_heads=2, model_dim=8)
        ids = [3, 1, 4, 1, 5]
        np.testing.assert_allclose(lm.forward(ids).data,
                                   straightline_lm_logits(lm, ids), atol=1e-9)

    def test_positions_distinguish_permutations(self):
        lm = make_lm(seed=5)
        a = lm.forward([7, 9]).data
        b = lm.forward([9, 7]).data
        assert not np.allclose(a[-1], b[-1])

    def test_sinusoidal_table_shape_and_range(self):
        table = sinusoidal_positions(10, 6)
        assert table.shape == (10, 6)
        assert np.all(np.abs(table) <= 1.0)
        assert not np.allclose(table[0], table[1])


class TestLoss:
    def test_uniform_logits_log_vocab(self):
        lm = make_lm(seed=0)
        for name, p in lm.parameters().items():
            p.data = np.zeros_like(p.data)
        # zeroed gains keep layernorm output at bias (zero), head logits zero
        loss = lm.loss([1, 2, 3, 4]).item()
        assert loss == pytest.approx(np.log(lm.vocab_size), abs=1e-9)

    def test_perfect_predictor_zero_loss(self):
        lm = make_lm()
        ids = np.array([1, 2, 3])
        orig = lm.forward

        def certain(ids_in):
            logits = np.full((len(ids_in), lm.vocab_size), -1e9)
            for pos in range(len(ids_in) - 1):
                logits[pos, ids[pos + 1]] = 0.0
            logits[-1, 0] = 0.0
            return ad.Tensor(logits)

        lm.forward = certain
        try:
            assert lm.loss(ids).item() == pytest.approx(0.0, abs=1e-12)
        finally:
            lm.forward = orig

    def test_too_short_rejected(self):
        lm = make_lm()
        with pytest.raises(ValueError, match="at least 2"):
            lm.loss([1])


class TestTraining:
    def _stream(self):
        vocab = small_vocab()
        return vocab, build_token_stream(["abab", "baba"], vocab)

    def test_terminator_appended_per_line(self):
        vocab, stream = self._stream()
        assert stream.count(vocab.end_of_text_id) == 2
        assert stream[4] == vocab.end_of_text_id

    def test_chunking_drops_one_token_stub(self):
        windows = chunk_stream(list(range(9)), 4)
        assert [len(w) for w in windows] == [4, 4]
        windows = chunk_stream(list(range(10)), 4)
        assert [len(w) for w in windows] == [4, 4, 2]

    def test_identical_seeds_identical_parameters(self):
        vocab, stream = self._stream()

        def run():
            lm = TransformerLm(LmConfig(1, 1, 4, 8, 8), small_vocab(), seed=1)
            train_lm(lm, stream, RunConfig(lm_epochs=3, lm_lr=1e-2, seed=4))
            return {k: p.data.copy() for k, p in lm.parameters().items()}

        a, b = run(), run()
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_clipping_engaged_above_threshold(self):
        vocab, stream = self._stream()
        lm = TransformerLm(LmConfig(1, 1, 4, 8, 8), small_vocab(), seed=1)
        windows = chunk_stream(stream, 8)
        with ad.Tape() as tape:
            loss = lm.loss(windows[0])
        tape.backward(loss)
        params = list(lm.parameters().values())
        pre = global_grad_norm(params)
        assert pre > 1.0  # untrained model, vocab-size logits: large gradient
        from capseq.optim import clip_gradients
        clip_gradients(params, 1.0)
        assert global_grad_norm(params) == pytest.approx(1.0, rel=1e-9)

    def test_empty_corpus_rejected(self):
        lm = make_lm()
        with pytest.raises(ValueError):
            train_lm(lm, [], RunConfig(lm_epochs=1))


class TestGeneration:
    def test_immediate_terminator_empty_continuation(self):
        lm = make_lm(seed=2)
        eot = lm.vocab.end_of_text_id

        def forced(prefix):
            lp = np.full(lm.vocab_size, -50.0)
            lp[eot] = -0.001
            return lp

        out = decode(forced, 5, eot, strategy="greedy")
        assert out == []

    def test_cap_rule(self):
        lm = make_lm(seed=3)
        eot = lm.vocab.end_of_text_id
        real = lm.step_function([1, 2])

        def never_ends(prefix):
            lp = real(prefix).copy()
            lp[eot] = -1e9
            return lp

        out = decode(never_ends, 3, eot, strategy="greedy")
        assert len(out) == 3

    def test_greedy_equals_beam1_50_random_models(self):
        for seed in range(50):
            lm = TransformerLm(LmConfig(1, 1, 4, 8, 12), small_vocab(), seed=seed)
            seed_ids = [seed % 7 + 1, 3]
            eot = lm.vocab.end_of_text_id
            g = decode(lm.step_function(seed_ids), 4, eot, strategy="greedy")
            b = decode(lm.step_function(seed_ids), 4, eot, strategy="beam",
                       beam_width=1, rank=1)
            assert g == b, seed

    def test_seed_at_block_size_rejected(self):
        lm = make_lm(block_size=4)
        with pytest.raises(ValueError, match="block size"):
            lm.step_function([1, 2, 3, 4])

    def test_seed_one_below_block_size_accepted(self):
        lm = make_lm(block_size=4)
        logprobs = lm.step_function([1, 2, 3])(())
        assert logprobs.shape == (lm.vocab_size,)
        assert np.exp(logprobs).sum() == pytest.approx(1.0)

    def test_window_slides_for_long_generation(self):
        lm = make_lm(block_size=6, seed=8)
        out = decode(lm.step_function([1, 2, 3]), 10, lm.vocab.end_of_text_id,
                     strategy="greedy")
        assert len(out) <= 10  # must not raise despite exceeding the block
