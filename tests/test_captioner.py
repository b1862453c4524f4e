"""Caption model mechanics: encoder pooling, attention laws, LSTM gate
semantics, deep output layer, loss composition, teacher forcing, encoder
fine-tuning, and heatmap export."""

import dataclasses
import re
import threading
import warnings

import numpy as np
import pytest

from capseq import autodiff as ad
from capseq.captioner import (CaptionExample, CaptionModel, attention_heatmap,
                              caption_lengths, effective_batch_sizes, make_optimizers,
                              sort_batch_by_length, train_teacher_forcing, trains_encoder)
from capseq.cli import _caption_examples
from capseq.config import RunConfig, load_run_config
from capseq.decoding import beam_search, greedy_decode
from capseq.optim import Adam
from capseq.reportprep import PackedRecord
from capseq.synthetic import overfit_pairs
from capseq.tokenizers import WordVocabulary

from oracles import eager_caption_step, replay_caption_attention


def tiny_model(seed=0, vocab_size=8, **overrides) -> CaptionModel:
    cfg = dict(embed_dim=4, decoder_dim=5, attention_dim=4, dropout=0.0,
               pooled_side=2, encoder_channels=3, max_caption_len=8)
    cfg.update(overrides)
    return CaptionModel(dataclasses.replace(RunConfig().caption_config(), **cfg),
                        vocab_size=vocab_size, seed=seed)


def zero_params(model, names):
    for name in names:
        p = model.parameters()[name]
        p.data = np.zeros_like(p.data)


class TestEncoder:
    def test_region_count_is_pooled_side_squared(self):
        model = tiny_model()
        for side in (4, 9, 16):
            a = model.encode(np.random.default_rng(0).random((side, side)))
            assert a.shape == (1, 4, 3)

    # even kernels pad their edges unevenly; both invariants must still hold
    @pytest.mark.parametrize("kernel_size", [2, 3, 4])
    def test_constant_input_gives_identical_regions(self, kernel_size):
        model = tiny_model(kernel_size=kernel_size)
        a = model.encode(np.full((8, 8), 0.7)).data[0]
        np.testing.assert_allclose(a, np.broadcast_to(a[0], a.shape), atol=1e-12)

    @pytest.mark.parametrize("fine_tune, kernel_size", [
        pytest.param(False, 3, id="False"), pytest.param(True, 3, id="True"),
        (False, 2), (True, 2), (False, 4), (True, 4)])
    def test_batch_equals_stacked_per_image_encodes(self, fine_tune, kernel_size):
        model = tiny_model(fine_tune_encoder=fine_tune, kernel_size=kernel_size,
                           encoder_channels=4, pooled_side=3)
        images = np.random.default_rng(5).random((3, 10, 9))
        batch = model.encode(images).data
        assert batch.shape == (3, 9, 4)
        want = np.concatenate([model.encode(image).data for image in images])
        assert batch.tobytes() == want.tobytes()

    def test_image_smaller_than_pooled_side_rejected(self):
        model = tiny_model(pooled_side=4)
        with pytest.raises(ad.ShapeMismatchError):
            model.encode(np.ones((2, 2)))


class TestInitState:
    def test_zero_weights_give_zero_state(self):
        model = tiny_model()
        zero_params(model, ["init_h.weight", "init_h.bias", "init_c.weight", "init_c.bias"])
        a = model.encode(np.random.default_rng(1).random((8, 8)))
        h, c = model.init_state(a)
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(c.data, 0.0)

    def test_identical_regions_mean_is_any_region(self):
        model = tiny_model()
        a = ad.Tensor(np.tile(np.array([[1.0, 2.0, 3.0]]), (4, 1))[None])
        np.testing.assert_allclose(a.data.mean(axis=1), a.data[:, 0], atol=1e-15)


class TestAttention:
    def test_constant_scores_give_uniform_weights_and_mean_context(self):
        model = tiny_model()
        zero_params(model, ["attn.score.weight", "attn.score.bias"])
        a = ad.Tensor(np.random.default_rng(2).random((1, 4, 3)))
        h = ad.Tensor(np.random.default_rng(3).random((1, 5)))
        alpha, context = model.attend(a, h)
        np.testing.assert_allclose(alpha.data, 0.25, atol=1e-15)
        np.testing.assert_allclose(context.data[0], a.data[0].mean(axis=0), atol=1e-12)

    def test_analytic_softmax_values(self):
        out = ad.softmax(ad.Tensor([np.log(1.0), np.log(2.0), np.log(3.0)]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_peaked_scores_select_single_region(self):
        # construct a score gap >= 50 by planting a huge region feature
        model = tiny_model(attention_dim=1)
        params = model.parameters()
        params["attn.regions.weight"].data = np.full((3, 1), 1.0)
        params["attn.regions.bias"].data = np.zeros(1)
        params["attn.hidden.weight"].data = np.zeros((5, 1))
        params["attn.hidden.bias"].data = np.zeros(1)
        params["attn.score.weight"].data = np.ones((1, 1))
        params["attn.score.bias"].data = np.zeros(1)
        regions = np.zeros((1, 4, 3))
        regions[0, 2] = 60.0  # score 180 vs 0 elsewhere
        alpha, context = model.attend(ad.Tensor(regions), ad.Tensor(np.zeros((1, 5))))
        assert alpha.data[0, 2] > 1 - 1e-9
        np.testing.assert_allclose(context.data[0], regions[0, 2], atol=1e-9)

    def test_weights_nonnegative_sum_one_and_context_in_hull(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            model = tiny_model(seed=trial)
            a = ad.Tensor(rng.normal(size=(2, 4, 3)))
            h = ad.Tensor(rng.normal(size=(2, 5)))
            alpha, context = model.attend(a, h)
            assert np.all(alpha.data >= 0)
            np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-9)
            recon = np.einsum("br,brf->bf", alpha.data, a.data)
            np.testing.assert_allclose(context.data, recon, atol=1e-9)


    def test_precomputed_region_projection_gives_same_bytes(self):
        rng = np.random.default_rng(5)
        model = tiny_model(seed=3)
        a = ad.Tensor(rng.normal(size=(1, 4, 3)))
        h = ad.Tensor(rng.normal(size=(1, 5)))
        alpha, context = model.attend(a, h)
        alpha2, context2 = model.attend(a, h, model._project_regions(a))
        assert alpha.data.tobytes() == alpha2.data.tobytes()
        assert context.data.tobytes() == context2.data.tobytes()


class TestLstmStep:
    def test_zero_affine_analytics(self):
        model = tiny_model()
        zero_params(model, ["lstm.weight", "lstm.bias"])
        h0 = ad.Tensor(np.zeros((1, 5)))
        c0 = ad.Tensor(np.zeros((1, 5)))
        ctx = ad.Tensor(np.random.default_rng(5).random((1, 3)))
        h, c = model.lstm_step(np.array([1]), h0, c0, ctx)
        np.testing.assert_array_equal(c.data, 0.0)
        np.testing.assert_array_equal(h.data, 0.0)

    def test_memory_carry_when_forget_saturated(self):
        model = tiny_model()
        p = model.parameters()
        p["lstm.weight"].data = np.zeros_like(p["lstm.weight"].data)
        bias = np.zeros(20)
        bias[0:5] = -60.0   # input gate -> 0
        bias[5:10] = 60.0   # forget gate -> 1
        p["lstm.bias"].data = bias
        c_prev = np.random.default_rng(6).random((1, 5))
        h, c = model.lstm_step(np.array([2]), ad.Tensor(np.zeros((1, 5))),
                               ad.Tensor(c_prev), ad.Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(c.data, c_prev, atol=1e-12)


class TestOutputDistribution:
    def test_zero_weights_uniform(self):
        model = tiny_model()
        zero_params(model, ["out.l_h", "out.l_a", "out.l_o", "embedding"])
        probs = model.output_distribution(ad.Tensor(np.ones((2, 5))),
                                          ad.Tensor(np.ones((2, 3))), np.array([1, 2]))
        np.testing.assert_allclose(probs.data, 1.0 / 8, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            model = tiny_model(seed=trial)
            probs = model.output_distribution(ad.Tensor(rng.normal(size=(3, 5))),
                                              ad.Tensor(rng.normal(size=(3, 3))),
                                              np.array([0, 3, 7]))
            np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)


class TestSequenceLoss:
    def test_lambda_zero_equals_plain_cross_entropy_bit_exact(self):
        captions = np.array([[1, 4, 5, 2, 0]])
        image = np.random.default_rng(8).random((8, 8))
        model_a = tiny_model(seed=9, doubly_stochastic_weight=0.0)
        ann = model_a.encode(image)
        loss_a = model_a.sequence_loss(ann, captions).item()

        # identical model, penalty path exercised with weight zero via manual CE
        model_b = tiny_model(seed=9, doubly_stochastic_weight=0.0)
        ann_b = model_b.encode(image)
        h, c = model_b.init_state(ann_b)
        total = 0.0
        count = 0
        for t in range(3):
            alpha, ctx = model_b.attend(ann_b, h)
            h, c = model_b.lstm_step(captions[:, t], h, c, ctx)
            probs = model_b.output_distribution(h, ctx, captions[:, t])
            total += -np.log(max(probs.data[0, captions[0, t + 1]], 1e-12))
            count += 1
        assert loss_a == total / count

    def test_uniform_alpha_penalty_formula(self):
        # uniform attention, T steps: penalty = weight * R * (1 - T/R)^2
        weight = 0.7
        model = tiny_model(seed=10, doubly_stochastic_weight=weight)
        zero_params(model, ["attn.score.weight", "attn.score.bias"])
        captions = np.array([[1, 4, 5, 6, 2, 0]])
        image = np.random.default_rng(11).random((8, 8))
        ann = model.encode(image)
        with_pen = model.sequence_loss(ann, captions).item()
        model.config.doubly_stochastic_weight = 0.0
        without = model.sequence_loss(ann, captions).item()
        r, t = 4.0, 4.0
        expect = weight * r * (1 - t / r) ** 2
        assert with_pen - without == pytest.approx(expect, abs=1e-12)

    def test_perfect_predictions_zero_loss(self):
        model = tiny_model(seed=12)
        captions = np.array([[1, 4, 2, 0]])
        ann = model.encode(np.random.default_rng(12).random((8, 8)))

        real_output = model.output_distribution

        def perfect(h, ctx, tokens, _targets=iter([4, 2])):
            probs = np.full((1, 8), 1e-300)
            probs[0, next(_targets)] = 1.0
            return ad.ops().operand(probs)  # on the executor of the step body

        model.output_distribution = perfect
        try:
            loss = model.sequence_loss(ann, captions).item()
        finally:
            model.output_distribution = real_output
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_unsorted_batch_rejected(self):
        model = tiny_model()
        ann = model.encode(np.random.default_rng(0).random((2, 8, 8)))
        with pytest.raises(ValueError, match="sorted"):
            model.sequence_loss(ann, np.array([[1, 4, 2, 0], [1, 4, 5, 2]]))


class TestCaptionLengths:
    """A caption's prediction count is the position of its last <end>."""

    def test_count_of_every_example_the_cli_builds(self):
        # short, exact-fit and truncated captions, and body tokens that
        # spell <end> (the terminator is the last one)
        bodies = [["heart"], ["heart", "normal", "."], ["heart"] * 9,
                  ["<end>", "heart"], ["heart", "<end>"], ["<end>"] * 12, []]
        vocab = WordVocabulary.build([["heart", "normal", "."]])
        records = [PackedRecord(f"s{i}", [], tokens, np.zeros((4, 4)))
                   for i, tokens in enumerate(bodies)]
        for max_len in (2, 3, 5, 8):
            examples = _caption_examples(records, vocab, max_len)
            got = caption_lengths(np.stack([ex.caption for ex in examples]))
            assert list(got) == [min(len(t), max_len - 2) + 1 for t in bodies], max_len

    @pytest.mark.parametrize("caption", [[1, 4, 5, 0], [2, 4, 5, 0], [1, 0, 0, 0]],
                             ids=["no-end", "end-only-first", "start-only"])
    def test_caption_without_end_rejected(self, caption):
        captions = np.array([[1, 4, 2, 0], caption])
        with pytest.raises(ValueError, match="caption 1 has no <end>"):
            caption_lengths(captions)
        model = tiny_model()
        with pytest.raises(ValueError, match="caption 1 has no <end>"):
            model.sequence_loss(model.encode(np.ones((2, 8, 8))), captions)


class TestTeacherForcing:
    def test_effective_batch_counting(self):
        assert effective_batch_sizes([5, 3, 2]) == [3, 3, 2, 1, 1]

    def test_sorting(self):
        caps = np.array([[1, 4, 2, 0, 0, 0], [1, 4, 4, 4, 4, 2], [1, 4, 4, 2, 0, 0]])
        sorted_caps, order = sort_batch_by_length(caps)
        assert list(caption_lengths(sorted_caps)) == [5, 3, 2]
        assert list(order) == [1, 2, 0]

    def test_loss_decreases_monotonically_first_20_epochs(self):
        pairs = overfit_pairs(side=32)
        vocab = WordVocabulary.build([toks for _, _, toks in pairs])
        max_len = max(len(t) for _, _, t in pairs) + 2
        examples = [CaptionExample(sid, img, np.array(vocab.encode(toks, max_len)))
                    for sid, img, toks in pairs]
        cfg = dataclasses.replace(RunConfig().caption_config(),
                                  embed_dim=24, decoder_dim=64, attention_dim=32, dropout=0.0,
                                  pooled_side=4, encoder_channels=32, max_caption_len=max_len)
        model = CaptionModel(cfg, vocab_size=len(vocab), seed=5)
        trace = train_teacher_forcing(
            model, examples,
            RunConfig(sat_epochs=21, sat_batch_size=8, sat_decoder_lr=5e-3,
                      sat_clip_norm=5.0, seed=0))
        assert all(trace[i + 1] < trace[i] for i in range(20)), trace[:21]


class TestFinetuneToggle:
    def test_disabled_encoder_bit_identical_after_steps(self):
        pairs = overfit_pairs(side=16)[:4]
        vocab = WordVocabulary.build([toks for _, _, toks in pairs])
        max_len = max(len(t) for _, _, t in pairs) + 2
        examples = [CaptionExample(sid, img, np.array(vocab.encode(toks, max_len)))
                    for sid, img, toks in pairs]
        model = CaptionModel(dataclasses.replace(RunConfig().caption_config(),
                                                 embed_dim=8, decoder_dim=12, attention_dim=8,
                                                 dropout=0.0, pooled_side=2, encoder_channels=8,
                                                 fine_tune_encoder=False, max_caption_len=max_len),
                             vocab_size=len(vocab), seed=1)
        before = {n: p.data.copy() for n, p in model.parameters().items()
                  if n.startswith("encoder.")}
        train_teacher_forcing(model, examples,
                              RunConfig(sat_epochs=10, sat_batch_size=4,
                                        sat_decoder_lr=1e-2, seed=0))
        for name, data in before.items():
            assert np.array_equal(data, model.parameters()[name].data), name

    def test_enabled_last_layer_gets_nonzero_grads_and_lower_layers_stay(self):
        # fine-tuning steps change the last conv layer only: no optimizer
        # holds the two lower ones, so they keep their bytes
        model = tiny_model(fine_tune_encoder=True)
        examples = [CaptionExample(f"s{i}", np.random.default_rng(3 + i).random((8, 8)),
                                   np.array([1, 4, 5, 2, 0])) for i in range(2)]
        before = {n: p.data.copy() for n, p in model.parameters().items()
                  if n.startswith("encoder.")}
        train_teacher_forcing(model, examples,
                              RunConfig(sat_epochs=2, sat_batch_size=2, seed=0))
        for name, data in before.items():
            changed = not np.array_equal(data, model.parameters()[name].data)
            assert changed == name.startswith("encoder.conv3."), name

    def test_an_encoder_optimizer_trains_conv3_with_the_flag_off(self):
        # the optimizers alone say whether the encoder trains: annotations
        # are not cached as constants while one holds conv3
        model = tiny_model(fine_tune_encoder=False)
        cfg = RunConfig(sat_epochs=2, sat_batch_size=2, seed=0)
        params = model.parameters()
        conv3 = [params["encoder.conv3.weight"], params["encoder.conv3.bias"]]
        optimizers = {**make_optimizers(model, cfg), "enc.": Adam(conv3, 1e-3, 5.0)}
        assert trains_encoder(optimizers)
        before = [p.data.copy() for p in conv3]
        train_teacher_forcing(model, self._examples(), cfg, optimizers=optimizers)
        for p, data in zip(conv3, before):
            assert not np.array_equal(data, p.data), p.name

    def test_without_an_encoder_optimizer_each_image_is_encoded_once(self, monkeypatch):
        model = tiny_model(fine_tune_encoder=True)
        cfg = RunConfig(sat_epochs=2, sat_batch_size=2, seed=0)
        optimizers = {"dec.": make_optimizers(model, cfg)["dec."]}
        assert not trains_encoder(optimizers)
        encoded = []
        encode = CaptionModel.encode

        def counting_encode(self, images):
            encoded.append(np.asarray(images).tobytes())
            return encode(self, images)

        monkeypatch.setattr(CaptionModel, "encode", counting_encode)
        examples = self._examples()
        train_teacher_forcing(model, examples, cfg, optimizers=optimizers)
        assert encoded == [ex.image.tobytes() for ex in examples]

    @staticmethod
    def _examples():
        return [CaptionExample(f"s{i}", np.random.default_rng(3 + i).random((8, 8)),
                               np.array([1, 4, 5, 2, 0])) for i in range(3)]


class TestHeatmap:
    def test_uniform_alpha_normalizes_to_zeros(self):
        out = attention_heatmap(np.full(16, 1 / 16), 4, 20, 20)
        np.testing.assert_array_equal(out, 0.0)

    def test_one_hot_alpha_peaks_at_cell_center(self):
        alpha = np.zeros(16)
        alpha[5] = 1.0  # grid cell (1, 1)
        out = attention_heatmap(alpha, 4, 32, 32)
        peak = np.unravel_index(np.argmax(out), out.shape)
        # cell (1,1) of a 4x4 grid maps near (12, 12) in a 32x32 upsample
        assert abs(peak[0] - 12) <= 2 and abs(peak[1] - 12) <= 2
        assert out.max() == pytest.approx(1.0)

    def test_output_extents(self):
        out = attention_heatmap(np.linspace(0, 1, 16), 4, 17, 23)
        assert out.shape == (17, 23)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            attention_heatmap(np.ones(15), 4, 8, 8)


class TestDecodeCaption:
    def test_greedy_deterministic_and_alphas_align(self):
        model = tiny_model(seed=3)
        image = np.random.default_rng(4).random((8, 8))
        ids1, alphas1 = model.decode_caption(image, strategy="greedy", max_len=6)
        ids2, alphas2 = model.decode_caption(image, strategy="greedy", max_len=6)
        assert ids1 == ids2
        assert len(alphas1) == len(ids1)
        for a, b in zip(alphas1, alphas2):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_alphas_bitwise_equal_replay_oracle(self, strategy):
        lengths = []
        for seed in range(4):
            model = tiny_model(seed=seed)
            for draw in range(3):
                image = np.random.default_rng((seed, draw)).random((8, 8))
                ids, alphas = model.decode_caption(image, strategy=strategy,
                                                   beam_width=3, max_len=6)
                expect = replay_caption_attention(model, model.encode(image), ids)
                assert len(alphas) == len(expect) == len(ids)
                for got, ref in zip(alphas, expect):
                    assert np.array_equal(got, ref)
                lengths.append(len(ids))
        assert max(lengths) > 1  # later steps, not only the first, are compared

    def test_beam_rank1_scores_at_least_greedy(self):
        for seed in range(10):
            model = tiny_model(seed=seed)
            image = np.random.default_rng(seed).random((8, 8))
            g_ids, _ = model.decode_caption(image, strategy="greedy", max_len=6)
            b_ids, _ = model.decode_caption(image, strategy="beam", beam_width=3, max_len=6)
            assert len(b_ids) <= 6 and len(g_ids) <= 6

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_zero_max_len_is_refused_not_the_config_cap(self, strategy):
        model = tiny_model(seed=1)
        image = np.random.default_rng(1).random((8, 8))
        with pytest.raises(ValueError, match="max_len must be at least 1, got 0"):
            model.decode_caption(image, strategy=strategy, max_len=0)
        ids, _ = model.decode_caption(image, strategy=strategy)
        assert len(ids) <= model.config.max_caption_len

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_dropout_draws_only_while_a_tape_records(self, strategy):
        model, plain = tiny_model(seed=4, dropout=0.5), tiny_model(seed=4)
        image = np.random.default_rng(4).random((8, 8))
        untouched = model._rng.bit_generator.state
        ids, alphas = model.decode_caption(image, strategy=strategy, beam_width=3)
        assert model._rng.bit_generator.state == untouched
        want_ids, want_alphas = plain.decode_caption(image, strategy=strategy, beam_width=3)
        assert ids == want_ids
        assert [a.tobytes() for a in alphas] == [a.tobytes() for a in want_alphas]
        with ad.Tape():
            model.sequence_loss(model.encode(image), np.array([[1, 4, 5, 2]]))
        assert model._rng.bit_generator.state != untouched

    def test_a_tape_records_nothing_of_another_threads_decode(self):
        # a tape records only the ops of the context that entered it: a beam
        # decode in another thread neither lands on it nor draws dropout masks
        model = tiny_model(seed=4, dropout=0.5)
        image = np.random.default_rng(4).random((8, 8))
        want_ids, want_alphas = model.decode_caption(image, strategy="beam", beam_width=3)
        untouched = model._rng.bit_generator.state
        results = []
        with ad.Tape() as tape:
            worker = threading.Thread(target=lambda: results.append(
                model.decode_caption(image, strategy="beam", beam_width=3)))
            worker.start()
            worker.join(60)
            assert not worker.is_alive()
            assert len(tape) == 0
        assert model._rng.bit_generator.state == untouched
        (ids, alphas), = results
        assert ids == want_ids
        assert [a.tobytes() for a in alphas] == [a.tobytes() for a in want_alphas]


class TestDeferredStep:
    """The deferred caption step against the eager one-prefix-per-call
    reference: equal bytes, one batched evaluation per decoding step."""

    # four shapes of products: the tiny model, two odd sizes and the desk
    # profile's dimensions
    MODELS = [
        {},
        dict(vocab_size=11, embed_dim=6, decoder_dim=7, attention_dim=3),
        dict(vocab_size=40, embed_dim=12, decoder_dim=33, attention_dim=17,
             encoder_channels=9, pooled_side=3),
        dict(vocab_size=60, embed_dim=24, decoder_dim=64, attention_dim=32,
             encoder_channels=32, pooled_side=4),
    ]

    @staticmethod
    def _searches(step, strategy, k):
        if strategy == "greedy":
            return greedy_decode(step, 6, end_token=2)
        return beam_search(step, k, 6, end_token=2)

    @pytest.mark.parametrize("strategy, k", [("greedy", 1)] + [("beam", k) for k in range(1, 6)])
    def test_logprobs_and_record_equal_eager_reference_bitwise(self, strategy, k):
        early = 0
        for seed, sizes in enumerate(self.MODELS):
            model = tiny_model(seed=seed, **sizes)
            for draw in range(3):
                annotations = model.encode(np.random.default_rng((seed, draw)).random((8, 8)))
                step, record = model.step_function(annotations, 1)
                handles = {}

                def keeping(prefix):
                    handles[tuple(prefix)] = step(prefix)
                    return handles[tuple(prefix)]

                out = self._searches(keeping, strategy, k)
                ref_step, ref_record = eager_caption_step(model, annotations, 1)
                assert out == self._searches(ref_step, strategy, k)
                assert handles.keys() == record.keys() == ref_record.keys()
                for prefix, handle in handles.items():
                    assert np.asarray(handle).tobytes() == ref_step(prefix).tobytes()
                    for got, want in zip(record[prefix], ref_record[prefix]):
                        assert got.shape == want.shape and got.tobytes() == want.tobytes()
                if strategy == "beam":
                    early += any(b.finished and len(b.tokens) < 6 for b in out)
        if k == 5:
            assert early  # some searches hold beams that finished before the cap

    def test_one_evaluation_per_beam_step(self):
        for seed in range(4):
            model = tiny_model(seed=seed)
            annotations = model.encode(np.random.default_rng(seed).random((8, 8)))
            step, _ = model.step_function(annotations, 1)
            queued, batches = [], []
            attend = model.attend

            def counting_attend(annotations, h_prev, proj_regions=None):
                batches.append(h_prev.shape[0])  # (K, 1, n): K queued prefixes
                return attend(annotations, h_prev, proj_regions)

            model.attend = counting_attend
            beam_search(lambda prefix: queued.append(tuple(prefix)) or step(prefix), 5, 6,
                        end_token=2)
            del model.attend
            assert len(queued) == len(set(queued))   # each prefix queued once
            assert sum(batches) == len(queued)       # and evaluated once
            assert len(batches) <= 6                 # one evaluation per step, max_len steps
            assert max(batches) > 1



class TestStep:
    """``CaptionModel.step``, the one caption step body, gives the same
    bytes on the tape ops and on plain arrays."""

    @pytest.mark.parametrize("seed", range(3))
    def test_tape_and_array_steps_are_byte_identical(self, seed):
        cfg = load_run_config("configs/desk.cfg")
        model = CaptionModel(cfg.caption_config(), vocab_size=60, seed=seed)
        rng = np.random.default_rng(seed)
        annotations = model.encode(rng.random((3, cfg.image_side, cfg.image_side)))
        h, c = model.init_state(annotations)
        single = model.encode(rng.random((cfg.image_side, cfg.image_side)))
        h1, c1 = model.init_state(single)
        beams = 4  # a (K, 1, n) beam state over one image, as decoding stacks it
        cases = [(annotations, rng.integers(0, 60, size=3), h, c, None),
                 (single, rng.integers(0, 60, size=(beams, 1)),
                  ad.operand(np.repeat(h1.data[None], beams, 0)),
                  ad.operand(np.repeat(c1.data[None], beams, 0)), model._project_regions(single))]
        for args in cases:
            on_arrays = model.step(*args)
            with ad.Tape() as tape:
                taped = model.step(*args)
            assert len(tape) > 0
            for got, want in zip(on_arrays, taped, strict=True):
                assert got.shape == want.shape and got.data.tobytes() == want.data.tobytes()


class TestDecodingSafety:
    """Caption decoding runs on plain arrays, yet a non-finite value or a
    bad token id gives the tape ops' warning and error."""

    @staticmethod
    def decode(model, strategy, start_id=1):
        image = np.random.default_rng(8).random((8, 8))
        return model.decode_caption(image, strategy=strategy, beam_width=3, max_len=6,
                                    start_id=start_id)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_nan_parameter_raises_the_tape_error(self, strategy):
        model = tiny_model(seed=1)
        weight = model.parameters()["lstm.weight"]
        weight.data = np.where(np.arange(weight.data.size).reshape(weight.shape) == 3, np.nan,
                               weight.data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteInputError,
                               match=r"^matmul: input contains non-finite values$"):
                self.decode(model, strategy)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_overflowing_activation_warns_and_raises_the_tape_error(self, strategy):
        model = tiny_model(seed=2)
        params = model.parameters()
        for name in ("attn.regions.bias", "attn.hidden.bias"):
            params[name].data = np.full(params[name].shape, 1.7e308)
        with pytest.warns(RuntimeWarning, match="overflow encountered in add"):
            with pytest.raises(ad.NonFiniteInputError,
                               match=r"^relu: input contains non-finite values$"):
                self.decode(model, strategy)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    @pytest.mark.parametrize("start_id", [-1, -8, 8, 100])
    def test_token_id_out_of_range_raises(self, strategy, start_id):
        with pytest.raises(ValueError, match=re.escape("embedding_lookup: index out of range [0, 8)")):
            self.decode(tiny_model(seed=3), strategy, start_id)
