"""Language model contracts: strict causality, the straight-line forward
oracle, loss analytics, training determinism, and generation rules."""

import contextlib
import functools
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from capseq import autodiff as ad
from capseq.config import RunConfig, load_run_config
from capseq.decoding import beam_search, decode
from capseq.lm import (KV_CACHE_MIN_TOKENS, WIDE_HEAD_DIM, LmConfig, TransformerLm,
                       build_token_stream, chunk_stream, sinusoidal_positions, train_lm)
from capseq.optim import global_grad_norm
from capseq.tokenizers import BpeVocabulary

from oracles import straightline_lm_logits, tape_lm_logits


def small_vocab():
    return BpeVocabulary.train("ab", 0)  # 257 ids


def make_lm(seed=0, **overrides):
    cfg = dict(layers=2, heads=2, model_dim=8, ffn_dim=16, block_size=16)
    cfg.update(overrides)
    return TransformerLm(LmConfig(**cfg), small_vocab(), seed=seed)


class TestConfig:
    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            LmConfig(layers=1, heads=3, model_dim=8, ffn_dim=16, block_size=8).validate()

    def test_block_size_minimum(self):
        with pytest.raises(ValueError):
            LmConfig(layers=1, heads=1, model_dim=4, ffn_dim=8, block_size=1).validate()


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

    def test_attention_rows_causal_and_normalized(self, monkeypatch):
        # on the tape ops under a recording tape, then on arrays with no tape
        lm = make_lm(seed=3)
        for owner, scope in ((ad, ad.Tape), (ad.ArrayOps, contextlib.nullcontext)):
            captured = []
            orig = owner.softmax

            def spy(x, axis=-1):
                out = orig(x, axis)
                weights = out.data if isinstance(out, ad.Tensor) else out
                if weights.ndim >= 2 and weights.shape[-2] == weights.shape[-1]:
                    captured.append(weights)
                return out

            monkeypatch.setattr(owner, "softmax", spy if owner is ad else staticmethod(spy))
            with scope():
                lm.forward([5, 6, 7, 8, 9])
            monkeypatch.undo()
            # one (heads, T, T) weight stack per layer
            assert [w.shape for w in captured] == [(2, 5, 5)] * 2, owner
            for rows in captured:
                np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-12)
                assert np.array_equal(np.triu(rows, k=1), np.zeros_like(rows))

    def test_matches_straightline_oracle(self):
        # 1 layer, 1 head, dim 2, 3-token input, computed two independent ways
        lm = TransformerLm(LmConfig(layers=1, heads=1, model_dim=2,
                                    ffn_dim=4, block_size=8), small_vocab(), seed=7)
        ids = [10, 20, 30]
        got = lm.forward(ids).data
        want = straightline_lm_logits(lm, ids)
        np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_oracle_multilayer_multihead(self, heads):
        lm = make_lm(seed=11, layers=2, heads=heads, model_dim=8)
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


def perturbed_lm(block_size, seed, heads=2):
    """Desk-sized LM whose parameters are moved off their initial values."""
    lm = make_lm(seed=seed, heads=heads, model_dim=32, ffn_dim=64, block_size=block_size)
    rng = np.random.default_rng(seed + 1000)
    for p in lm.parameters().values():
        p.data = p.data + rng.normal(scale=0.2, size=p.data.shape)
    return lm


def taped(lm, ids, start=0, past=None):
    """``lm.forward`` on the tape ops, under a recording tape."""
    with ad.Tape():
        return lm.forward(ids, start, past).data


def eager_step(lm, seed_ids):
    """Next-token log-probabilities from one forward per prefix window, on
    the tape ops."""
    def step(prefix):
        window = (list(seed_ids) + list(prefix))[-lm.config.block_size:]
        logits = taped(lm, window)[-1]
        shifted = logits - logits.max()
        return shifted - np.log(np.exp(shifted).sum())
    return step


@functools.lru_cache(maxsize=None)
def desk_vocab():
    """256 bytes + end-of-text + 80 merges: the desk BPE size, 337 ids."""
    text = "".join(np.random.default_rng(0).choice(list("abcdefgh "), 3000))
    return BpeVocabulary.train(text, 80)


def desk_lm(block_size, seed):
    """Random-weight LM at desk dims over the desk vocabulary size."""
    return TransformerLm(LmConfig(layers=2, heads=2, model_dim=32, ffn_dim=64,
                                  block_size=block_size), desk_vocab(), seed=seed)


def tail_mismatches(lm, rng, batches=(1, 2, 3, 5, 15), lengths=None):
    """(B, T) cases, for every T in ``lengths`` (by default every T from 2
    up to the block) and B in ``batches``, where the narrowed forward's rows
    differ from the full forward's tail rows, or a forward with no tape
    (narrowed or full) differs from the same forward on the tape ops."""
    bad = []
    for b in batches:
        for t in lengths or range(2, lm.config.block_size + 1):
            ids = rng.integers(0, lm.vocab_size, size=(b, t) if b > 1 else t)
            start = lm._tail_start(t)
            got = lm.forward(ids, start).data.tobytes()
            full = taped(lm, ids)
            if not (got == taped(lm, ids, start).tobytes() == full[..., start:, :].tobytes()
                    and lm.forward(ids).data.tobytes() == full.tobytes()):
                bad.append((b, t))
    return bad


class TestTailForward:
    """Decoding reads only the last row of the logits; a forward from a
    tile-aligned start row computes the tail rows and keeps their bytes."""

    @pytest.mark.parametrize("block_size", [64, 128])
    def test_tail_rows_equal_full_forward_bitwise(self, block_size):
        lm = desk_lm(block_size, seed=block_size)
        assert lm.vocab_size == 337
        assert tail_mismatches(lm, np.random.default_rng(block_size)) == []

    def test_tail_start_rule(self):
        lm = desk_lm(128, seed=0)
        starts = {t: lm._tail_start(t) for t in range(1, 129)}
        for t, start in starts.items():
            assert start % 8 == 0 and 0 <= start < t
            assert start == 0 or t - start >= 2, t  # never a 1-row gemv
        assert [starts[t] for t in (9, 10, 17, 18, 64, 92, 93, 128)] == \
            [0, 8, 8, 16, 56, 88, 88, 120]
        # 93 * 32 * 337 multiply-adds of the head exceed the small-kernel bound:
        # from T = 93 on the head runs at full height and the tail still applies
        assert 92 * 32 * 337 <= ad.SMALL_GEMM_MULADDS < 93 * 32 * 337
        assert all(starts[t] == (t - 2) // 8 * 8 for t in range(93, 129))
        assert [t for t in range(10, 129) if lm._head_needs_full_height(t, starts[t])] == \
            list(range(93, 129))

    def test_tail_shape_and_start_range(self):
        lm = desk_lm(64, seed=1)
        assert lm.forward(np.arange(20), 16).shape == (4, 337)
        assert lm.forward(np.ones((3, 20), dtype=np.int64), 8).shape == (3, 12, 337)
        for start in (-8, 20):
            with pytest.raises(ValueError, match="start row"):
                lm.forward(np.arange(20), start)

    def test_bitwise_at_one_and_two_blas_threads(self):
        assert_bitwise_at_one_and_two_blas_threads("""
            from test_lm import desk_lm, tail_mismatches
            lm = desk_lm(128, seed=7)
            assert tail_mismatches(lm, np.random.default_rng(7), batches=(1, 5)) == []
            assert tail_mismatches(lm, np.random.default_rng(8), batches=(15,),
                                   lengths=range(93, 128)) == []
        """)

    def test_full_cfg_shape_never_narrows(self):
        # 2000 merges: full.cfg's 2,257-token vocabulary; its heads are 32 wide
        cfg = load_run_config(Path(__file__).parent.parent / "configs" / "full.cfg").lm_config()
        merges = [(bytes([i // 256]), bytes([i % 256])) for i in range(256, 2256)]
        lm = TransformerLm(cfg, BpeVocabulary(merges), seed=0)
        assert lm.vocab_size == 2257 and cfg.block_size == 1024
        assert cfg.model_dim // cfg.heads == WIDE_HEAD_DIM
        assert all(lm._tail_start(t) == 0 for t in range(1, 1025))

    def test_wide_heads_run_every_row(self):
        # d_k = 32: narrowed score rows were measured to differ from T = 35 on
        lm = perturbed_lm(64, seed=0, heads=1)
        assert all(lm._tail_start(t) == 0 for t in range(1, 65))
        assert all(perturbed_lm(64, seed=0, heads=2)._tail_start(t) for t in range(10, 65))
        seed_ids = list(range(1, 31))  # windows of 30 to 62 tokens
        eot = lm.vocab.end_of_text_id
        got = beam_search(lm.step_function(seed_ids), 3, 32, end_token=eot)
        want = beam_search(eager_step(lm, seed_ids), 3, 32, end_token=eot)
        assert [(b.tokens, np.float64(b.logprob).tobytes()) for b in got] == \
            [(b.tokens, np.float64(b.logprob).tobytes()) for b in want]


def assert_bitwise_at_one_and_two_blas_threads(check):
    """Run the test code ``check``, after ``import numpy as np``, in a child
    process at 1 and at 2 BLAS threads: OpenBLAS reads its thread count when
    it loads, so each count needs its own process."""
    child = "import numpy as np\n" + textwrap.dedent(check) + "print('bitwise')\n"
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0 and done.stdout == "bitwise\n", (threads, done.stderr)


def path_steps(paths):
    """The prefixes ``path[:i]`` of every path in ``paths``, one decoding
    step per length i."""
    return [[tuple(int(t) for t in path[:i]) for path in paths] for i in range(len(paths[0]) + 1)]


def spied_steps(lm, seed_ids, steps):
    """Run each list of prefixes in ``steps`` as one decoding step of
    ``lm.step_function(seed_ids)``. Returns each forward the steps ran as
    (ids, start, past, logits)."""
    calls = []
    forward = lm.forward

    def spy(ids, start=0, past=None, present=None):
        out = forward(ids, start, past, present)
        calls.append((np.asarray(ids), start, past, out.data))
        return out

    lm.forward = spy
    try:
        step = lm.step_function(seed_ids)
        for prefixes in steps:
            handles = [step(p) for p in prefixes]
            np.asarray(handles[0])
    finally:
        lm.forward = forward
    return calls


def cached_mismatches(lm, rng, batches=(1, 2, 3, 5, 15), seed_len=1):
    """Decode B random paths from a ``seed_len``-token seed up to the block,
    for B in ``batches``. Returns the (B, T) cases whose forward, run with no
    tape, differs from the full forward's rows or from the same forward (with
    the same ``past``) on the tape ops, and the set of T whose forwards ran
    from the cache."""
    bad, cached = [], set()
    block = lm.config.block_size
    for b in batches:
        paths = rng.integers(0, lm.vocab_size, size=(b, block - seed_len))
        seed_ids = [int(rng.integers(256)) for _ in range(seed_len)]
        for ids, start, past, got in spied_steps(lm, seed_ids, path_steps(paths)):
            t = ids.shape[-1]
            if not (got.tobytes() == taped(lm, ids)[..., start:, :].tobytes()
                    == taped(lm, ids, start, past).tobytes()):
                bad.append((b, t))
            if past is not None:
                cached.add(t)
    return bad, cached


class TestCachedDecoding:
    """A decoding step runs every layer on a 2-9 row tail, attending over
    the keys and values its parent prefix kept of whole 8-row tiles, and
    keeps the full forward's bytes."""

    @pytest.mark.parametrize("block_size", [64, 128])
    def test_cached_rows_equal_full_forward_bitwise(self, block_size):
        lm = desk_lm(block_size, seed=block_size + 1)
        bad, cached = cached_mismatches(lm, np.random.default_rng(block_size))
        assert bad == []
        # parents kept from 16 tokens on, past the head's bound at T = 93 too
        assert cached == set(range(KV_CACHE_MIN_TOKENS + 1, block_size + 1))

    def test_bitwise_at_one_and_two_blas_threads(self):
        assert_bitwise_at_one_and_two_blas_threads("""
            from test_lm import desk_lm, cached_mismatches
            lm = desk_lm(128, seed=7)
            bad, cached = cached_mismatches(lm, np.random.default_rng(7), batches=(1, 5))
            assert bad == [] and len(cached) == 128 - 16, (bad, cached)
            # 15 paths from a 92-token seed: windows of 93 to 128 tokens from the cache
            bad, cached = cached_mismatches(lm, np.random.default_rng(8), batches=(15,),
                                            seed_len=92)
            assert bad == [] and cached == set(range(93, 129)), (bad, cached)
        """)

    @staticmethod
    def cached_lengths(lm, seed_len, steps, batch=3):
        paths = np.random.default_rng(seed_len).integers(0, 256, size=(batch, steps))
        calls = spied_steps(lm, list(range(1, seed_len + 1)), path_steps(paths))
        for ids, start, _, got in calls:
            assert got.tobytes() == taped(lm, ids)[..., start:, :].tobytes()
        return [(ids.shape[-1], past is not None) for ids, _, past, _ in calls]

    def test_not_used_once_the_window_slides(self):
        # windows of 62..64 tokens, then the 64-token window slides
        steps = self.cached_lengths(desk_lm(64, seed=2), 62, 4)
        assert steps == [(62, False), (63, True), (64, True), (64, False), (64, False)]

    def test_used_past_the_head_bound(self):
        lm = desk_lm(128, seed=3)
        assert not lm._head_needs_full_height(92, lm._tail_start(92))
        assert lm._head_needs_full_height(93, lm._tail_start(93))
        assert self.cached_lengths(lm, 90, 4) == \
            [(90, False), (91, True), (92, True), (93, True), (94, True)]

    def test_not_used_past_128_tokens(self):
        lm = make_lm(seed=4, model_dim=16, ffn_dim=32, block_size=256)
        assert all(lm._tail_start(t) for t in range(10, 140))  # the tail still applies
        assert self.cached_lengths(lm, 126, 4, batch=2) == \
            [(126, False), (127, True), (128, True), (129, False), (130, False)]

    def test_not_kept_from_windows_under_16_tokens(self):
        lm = make_lm(seed=5, block_size=64)  # d_k = 4, whose short mix rounds unlike a long one
        assert [c for _, c in self.cached_lengths(lm, 12, 7)] == [False] * 5 + [True] * 3

    def test_holds_the_last_step_only(self):
        steps = [[()], [(7,), (8,)], [(9,)], [(7, 1)], [(9, 2), (9, 3)], [(9, 2, 4)]]
        calls = spied_steps(desk_lm(64, seed=6), list(range(1, 21)), steps)
        # (9,) and (7, 1) have parents from two steps back; (9, 2, 4)'s parent is in the last
        assert [past is not None for _, _, past, _ in calls] == [False, True, False, False, False, True]

    def test_past_must_cover_the_rows_before_start(self):
        lm = desk_lm(64, seed=8)
        present = []
        lm.forward(np.arange(24), 0, None, present)
        past = [(k[..., :16], v[..., :16, :]) for k, v in present]
        assert lm.forward(np.arange(25), 16, past).shape == (9, 337)
        for start, layers in ((8, past), (16, past[:1]), (0, past)):
            with pytest.raises(ValueError):
                lm.forward(np.arange(25), start, layers)


class TestBatchedForward:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("block_size", [64, 128])
    def test_rows_equal_per_sequence_forward_bitwise(self, block_size, heads):
        lm = perturbed_lm(block_size, seed=block_size, heads=heads)
        rng = np.random.default_rng(block_size)
        for b in range(1, 6):
            lengths = {1, 2, block_size - 1, block_size, int(rng.integers(3, block_size - 1))}
            for t in sorted(lengths):
                ids = rng.integers(0, lm.vocab_size, size=(b, t))
                got = lm.forward(ids).data
                assert got.shape == (b, t, lm.vocab_size)
                for i in range(b):
                    want = lm.forward(ids[i]).data
                    assert got[i].tobytes() == want.tobytes(), (b, t, i)

    def test_batch_matches_straightline_oracle(self):
        lm = make_lm(seed=11, layers=2, heads=2, model_dim=8)
        ids = np.array([[3, 1, 4, 1, 5], [9, 2, 6, 5, 3], [5, 8, 9, 7, 9]])
        got = lm.forward(ids).data
        for i, row in enumerate(ids):
            np.testing.assert_allclose(got[i], straightline_lm_logits(lm, row), atol=1e-9)

    def test_rank3_ids_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(T,\) or \(B, T\), got shape \(2, 2, 2\)"):
            make_lm().forward(np.ones((2, 2, 2), dtype=np.int64))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match=r"empty batch.*\(0, 3\)"):
            make_lm().forward(np.ones((0, 3), dtype=np.int64))

    def test_overlong_batch_rejected(self):
        lm = make_lm(block_size=4)
        assert lm.forward(np.ones((2, 4), dtype=np.int64)).shape == (2, 4, lm.vocab_size)
        with pytest.raises(ValueError, match="input length 5 exceeds block size 4"):
            lm.forward(np.ones((2, 5), dtype=np.int64))

    def test_loss_takes_one_sequence(self):
        with pytest.raises(ValueError, match=r"one \(T,\) token sequence"):
            make_lm().loss(np.ones((2, 3), dtype=np.int64))


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
            lp = np.array(real(prefix))
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
        logprobs = np.asarray(lm.step_function([1, 2, 3])(()))
        assert logprobs.shape == (lm.vocab_size,)
        assert np.exp(logprobs).sum() == pytest.approx(1.0)

    def test_window_slides_for_long_generation(self):
        lm = make_lm(block_size=6, seed=8)
        out = decode(lm.step_function([1, 2, 3]), 10, lm.vocab.end_of_text_id,
                     strategy="greedy")
        assert len(out) <= 10  # must not raise despite exceeding the block

    def test_queued_windows_of_two_lengths_rejected(self):
        lm = make_lm(block_size=8)
        step = lm.step_function([1, 2])
        short = step(())
        step((3,))  # queued before the shorter window is converted
        with pytest.raises(ValueError):
            np.asarray(short)

    @pytest.mark.parametrize("seed_len, block_size", [(2, 8), (7, 8), (14, 24), (22, 24)],
                             ids=["fits", "slides", "tail-fits", "tail-slides"])
    def test_deferred_step_equals_eager_step_bitwise(self, seed_len, block_size):
        # block 8: a 2-token seed plus 5 new tokens fits; a 7-token seed slides.
        # Block 24: windows of 10 tokens or more, so the step's forwards start
        # at row 8 or 16 while eager_step's run every row, and the steps
        # whose parents' windows held 16 to 23 tokens run from the cache.
        for seed in range(6):
            lm = make_lm(seed=seed, layers=seed % 2 + 1, block_size=block_size)
            eot = lm.vocab.end_of_text_id
            seed_ids = [int(t) for t in np.random.default_rng(seed).integers(0, 256, seed_len)]
            batches, starts, cached = [], [], []
            forward = lm.forward

            def counting(ids, start=0, past=None, present=None):
                batches.append(np.shape(ids))
                starts.append(start)
                cached.append(past is not None)
                return forward(ids, start, past, present)

            lm.forward = counting
            beams = beam_search(lm.step_function(seed_ids), 4, 5, end_token=eot)
            lm.forward = forward
            want = beam_search(eager_step(lm, seed_ids), 4, 5, end_token=eot)
            assert [(b.tokens, b.finished, np.float64(b.logprob).tobytes()) for b in beams] == \
                [(b.tokens, b.finished, np.float64(b.logprob).tobytes()) for b in want], seed
            assert 1 <= len(batches) <= 5, batches
            assert all(starts) if block_size > 8 else not any(starts), starts
            # step i's parents ran at T = seed_len + i - 1, kept from 16 tokens
            # on while the next window still fits
            assert cached == [i > 0 and 16 <= seed_len + i - 1 < block_size
                              for i in range(len(batches))], cached
            assert decode(lm.step_function(seed_ids), 5, eot) == \
                decode(eager_step(lm, seed_ids), 5, eot), seed


def per_row_log_softmax(row):
    """The step function's log-softmax of one logit row, one row at a time."""
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


def nonfinite(op):
    return rf"^{op}: input contains non-finite values$"


class TestExecutors:
    """``forward`` runs on the tape ops while a tape records and on plain
    arrays otherwise, with the same bytes, and decoding keeps the tape ops'
    warnings and errors."""

    def test_loss_records_the_reference_tape(self):
        lm = perturbed_lm(64, seed=3)
        params = list(lm.parameters().values())
        ids = np.random.default_rng(3).integers(0, lm.vocab_size, size=40)

        def reference_loss(ids):
            logprobs = ad.log_softmax(tape_lm_logits(lm, ids), axis=1)
            return -ad.pick(ad.narrow(logprobs, 0, 0, ids.size - 1), ids[1:]).mean()

        runs = []
        for loss_of in (lm.loss, reference_loss):
            with ad.Tape() as tape:
                loss = loss_of(ids)
            tape.backward(loss)
            runs.append((len(tape), loss.data.tobytes(), [p.grad.tobytes() for p in params]))
        assert runs[0] == runs[1]
        assert runs[0][0] > 100

    def test_no_array_executor_while_a_tape_records(self, monkeypatch):
        from capseq.captioner import CaptionModel
        from capseq.config import RunConfig

        def refuse(*args, **kwargs):
            raise AssertionError("array executor ran")

        for name in [name for name in vars(ad.ArrayOps) if not name.startswith("_")]:
            monkeypatch.setattr(ad.ArrayOps, name, staticmethod(refuse))
        lm = make_lm(seed=1)
        with pytest.raises(AssertionError, match="array executor ran"):
            lm.forward([1, 2, 3])
        with ad.Tape() as tape:
            loss = lm.loss([1, 2, 3, 4, 5])
        tape.backward(loss)
        model = CaptionModel(RunConfig().caption_config(), 8, seed=0)
        with ad.Tape() as tape:
            annotations = model.encode(np.random.default_rng(0).random((2, 8, 8)))
            loss = model.sequence_loss(annotations, np.array([[1, 4, 5, 2], [1, 6, 2, 0]]),
                                       np.array([3, 2]))
        tape.backward(loss)

    @pytest.mark.parametrize("vocab", [257, 337, 2257])
    def test_step_log_softmax_equals_per_row_bitwise(self, vocab):
        rng = np.random.default_rng(vocab)
        for _ in range(100):
            b, t = int(rng.integers(1, 16)), int(rng.integers(1, 10))
            v = vocab if rng.random() < 0.5 else int(rng.integers(2, vocab + 1))
            logits = rng.normal(scale=rng.uniform(0.1, 30.0), size=(b, t, v))
            last = logits[:, -1]  # the step function's stacked last rows, a strided view
            got = ad._log_softmax(last, axis=-1)
            assert [row.tobytes() for row in got] == \
                [per_row_log_softmax(row).tobytes() for row in last]

    @staticmethod
    def first_steps(lm, seed_ids, strategy="beam"):
        return decode(lm.step_function(seed_ids), 4, lm.vocab.end_of_text_id,
                      strategy=strategy, beam_width=3)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_nan_parameter_raises_the_tape_error(self, strategy):
        lm = desk_lm(64, seed=4)
        weight = lm.parameters()["layer1.ffn1.weight"]
        weight.data = np.where(np.arange(weight.data.size).reshape(weight.shape) == 7, np.nan,
                               weight.data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteInputError, match=nonfinite("matmul")):
                self.first_steps(lm, list(range(1, 21)), strategy)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_overflowing_activation_warns_and_raises_the_tape_error(self, strategy):
        lm = desk_lm(64, seed=5)
        lm.parameters()["layer0.ln2.gain"].data = np.full(32, 1e308)
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            with pytest.raises(ad.NonFiniteInputError, match=nonfinite("add")):
                self.first_steps(lm, list(range(1, 21)), strategy)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_trap_in_the_last_op_raises_naming_the_body(self, strategy):
        # the head's bias add, the body's last op, overflows: no later op
        # rejects the rerun's infinite logits, so the output scan must
        lm = desk_lm(64, seed=7)
        params = lm.parameters()
        params["final_ln.gain"].data = np.zeros(32)
        params["final_ln.bias"].data = np.ones(32)
        params["head.weight"].data = np.full(params["head.weight"].shape, 1e306)
        params["head.bias"].data = np.full(lm.vocab_size, 1.7e308)
        message = r"^TransformerLm._forward: output contains non-finite values$"
        with pytest.warns(RuntimeWarning, match="overflow encountered in add"):
            with pytest.raises(ad.NonFiniteInputError, match=message):
                np.asarray(lm.step_function([1, 2, 3])(()))
            with pytest.raises(ad.NonFiniteInputError, match=message):
                self.first_steps(lm, [1, 2, 3], strategy)

    @pytest.mark.parametrize("bad_id", [-1, -337, 337, 10**6])
    def test_token_id_out_of_range_raises(self, bad_id):
        lm = desk_lm(64, seed=6)
        message = re.escape("embedding_lookup: index out of range [0, 337)")
        for seed_ids in ([5, bad_id, 7], [bad_id] * 20):
            with pytest.raises(ValueError, match=message):
                self.first_steps(lm, seed_ids)
        with pytest.raises(ValueError, match=message):
            lm.forward([[1, 2], [3, bad_id]])
