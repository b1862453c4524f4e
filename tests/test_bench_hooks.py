"""The step contract and training hooks that the benchmark reads.

``perfbench.tracer.Tracer`` counts LM steps from outside the package: it
wraps the step that ``TransformerLm.step_function`` returns and the step that
``beam_search`` receives, one count per call, and ``perfbench/run.py``'s
``slides``/``fits`` guards compare ``lm.step.slid`` with ``lm.step.calls``.
These tests run a traced beam decode and check that each of those counts
equals what an untraced spy step sees, so a change to the step contract that
would silently skew the guards fails here. On training, the tracer rewrites
the ``epoch_callback=`` keyword of both training loops to label epochs, and
wraps ``optim._Optimizer.step``; a traced training run checks both. The
tracer is imported read-only.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import capseq.captioner  # noqa: E402
import capseq.cli  # noqa: E402
import capseq.decoding  # noqa: E402
import capseq.lm  # noqa: E402
import capseq.optim  # noqa: E402
from capseq.captioner import CaptionExample, CaptionModel  # noqa: E402
from capseq.config import RunConfig  # noqa: E402
from capseq.lm import LmConfig, TransformerLm  # noqa: E402
from capseq.tokenizers import BpeVocabulary  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

BEAM_WIDTH, MAX_NEW = 3, 12


def tiny_lm(block_size):
    text = "".join(np.random.default_rng(0).choice(list("abcdefgh "), 2000))
    vocab = BpeVocabulary.train(text, 40)
    lm = TransformerLm(LmConfig(layers=1, heads=1, model_dim=8, ffn_dim=16,
                                block_size=block_size), vocab, seed=3)
    return lm, list(vocab.encode(text))[:15]


def beam_decode(lm, seed_ids, wrap=lambda step: step):
    return capseq.decoding.decode(wrap(lm.step_function(seed_ids)), MAX_NEW,
                                  lm.vocab.end_of_text_id, strategy="beam",
                                  beam_width=BEAM_WIDTH)


@pytest.mark.parametrize("block_size, slides", [(16, True), (64, False)])
def test_traced_step_counts_match_an_untraced_spy(block_size, slides):
    lm, seed_ids = tiny_lm(block_size)
    seen = []

    def spy(step):
        def counted(prefix):
            seen.append(tuple(prefix))
            return step(prefix)
        return counted

    expected = beam_decode(lm, seed_ids, spy)
    tracer = Tracer()
    tracer.install()
    try:
        traced = beam_decode(lm, seed_ids)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    slid = sum(len(seed_ids) + len(prefix) > block_size for prefix in seen)
    assert traced == expected
    assert totals["lm.step.calls"] == totals["decoding.step_fn_calls"] == len(seen)
    assert totals.get("lm.step.slid", 0) == slid
    if slides:
        assert slid >= len(seen) / 2
    else:
        assert slid == 0
    assert totals["autodiff.Tape.backward.calls"] == 0


def test_names_the_pipeline_patches_exist():
    assert capseq.cli.two_stage_generate is capseq.decoding.two_stage_generate
    assert "step" in capseq.optim._Optimizer.__dict__


def test_traced_training_labels_epochs_and_keeps_the_callers_callback():
    cfg = RunConfig(sat_epochs=1, sat_batch_size=2, lm_epochs=1, lm_batch_size=2, seed=0)
    captioner = CaptionModel(dataclasses.replace(
        cfg.caption_config(), embed_dim=4, decoder_dim=5, attention_dim=4, pooled_side=2,
        encoder_channels=3, max_caption_len=8, fine_tune_encoder=True), vocab_size=8, seed=0)
    examples = [CaptionExample(f"s{i}", np.random.default_rng(i).random((8, 8)),
                               np.array([1, 4, 5, 2, 0]), 3) for i in range(3)]
    lm, _ = tiny_lm(16)
    stream = list(lm.vocab.encode("abc defg hab cdef gha bcd efgh"))
    seen = []
    tracer = Tracer()
    tracer.install()
    try:
        capseq.captioner.train_teacher_forcing(
            captioner, examples, cfg, epoch_callback=lambda epoch, _: seen.append(("sat", epoch)))
        capseq.lm.train_lm(lm, stream, cfg,
                           epoch_callback=lambda epoch, _: seen.append(("lm", epoch)))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert seen == [("sat", 0), ("lm", 0)]
    assert {"sat:epoch1", "lm:epoch1"} <= set(tracer.contexts)
    assert totals["optim.step.calls"] > 0
    assert totals["autodiff.Tape.backward.calls"] > 0
