"""Word-vocabulary and byte-pair-encoding contracts, including the
merge-replay oracle and lossless round trips on arbitrary bytes."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capseq.tokenizers import (END, PAD, SPECIALS, START, UNK, BpeVocabulary,
                               WordVocabulary)

from oracles import replay_merges, sliding_pair_counts


class TestWordVocabulary:
    def test_build_injects_specials(self):
        v = WordVocabulary.build([["no", "edema"], ["no", "pneumonia"]], min_freq=1)
        assert len(v) == 4 + 3
        for tok in SPECIALS:
            assert tok in v
        assert v.pad_id == 0

    def test_min_freq_filters(self):
        v = WordVocabulary.build([["no", "edema"], ["no", "pneumonia"]], min_freq=2)
        assert "no" in v
        assert "edema" not in v and "pneumonia" not in v

    def test_id_order_deterministic(self):
        corpus = [["b", "a", "a"], ["c", "b", "a"]]
        v1 = WordVocabulary.build(corpus)
        v2 = WordVocabulary.build(list(corpus))
        assert [v1.id_to_token(i) for i in range(len(v1))] == \
               [v2.id_to_token(i) for i in range(len(v2))]
        # frequency desc then lexicographic: a(3), b(2), c(1)
        assert [v1.id_to_token(i) for i in range(4, 7)] == ["a", "b", "c"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            WordVocabulary.build([])

    def test_encode_layout(self):
        v = WordVocabulary.build([["no", "edema"]])
        seq = v.encode(["no", "edema"], max_len=6)
        toks = [v.id_to_token(i) for i in seq]
        assert toks == [START, "no", "edema", END, PAD, PAD]

    def test_unknown_token_maps_to_unk(self):
        v = WordVocabulary.build([["no"]])
        seq = v.encode(["zzz"], max_len=4)
        assert v.id_to_token(seq[1]) == UNK

    def test_truncation_keeps_end_final(self):
        v = WordVocabulary.build([["a", "b", "c", "d"]])
        seq = v.encode(["a", "b", "c", "d"], max_len=4)
        toks = [v.id_to_token(i) for i in seq]
        assert toks == [START, "a", "b", END]

    def test_round_trip_known_tokens(self):
        v = WordVocabulary.build([["lungs", "are", "clear"]])
        tokens = ["lungs", "are", "clear"]
        assert v.decode(v.encode(tokens, max_len=8)) == tokens

    def test_never_emits_id_out_of_range(self):
        v = WordVocabulary.build([["x"]])
        seq = v.encode(["x", "unknown", "?"], max_len=8)
        assert all(0 <= i < len(v) for i in seq)

    def test_max_len_too_small_rejected(self):
        v = WordVocabulary.build([["x"]])
        with pytest.raises(ValueError):
            v.encode(["x"], max_len=1)

    def test_file_round_trip(self, tmp_path):
        v = WordVocabulary.build([["no", "acute", "edema"], ["no"]])
        path = tmp_path / "words.vocab"
        v.save(path)
        back = WordVocabulary.load(path)
        assert [back.id_to_token(i) for i in range(len(back))] == \
               [v.id_to_token(i) for i in range(len(v))]

    # "\t6" has the next id, 6, and an empty token
    @pytest.mark.parametrize("row", ["edema", "edema 9", "edema\tx", "edema\t99", "\t9", "\t6"])
    def test_load_names_the_line_of_a_bad_row(self, tmp_path, row):
        v = WordVocabulary.build([["no", "acute"]])
        path = tmp_path / "words.vocab"
        v.save(path)
        lines = path.read_text().splitlines() + [row]
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}:{len(lines)}: expected a token, a tab and id {len(v)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WordVocabulary.load(path)


class TestBpeTraining:
    def test_first_merge_most_frequent_pair(self):
        # brute-force sliding-window pair counting over the corpus
        corpus = "aaabdaaabac"
        counts = sliding_pair_counts([bytes([b]) for b in corpus.encode()])
        top = max(counts.values())
        expect = min(p for p, c in counts.items() if c == top)
        assert expect == (b"a", b"a") and top == 4
        v = BpeVocabulary.train(corpus, num_merges=1)
        assert v.merges[0] == (b"a", b"a")

    def test_each_merge_was_most_frequent_at_its_step(self):
        corpus = "the cat sat on the mat with the bat"
        v = BpeVocabulary.train(corpus, num_merges=12)
        for i, pair in enumerate(v.merges):
            symbols = replay_merges(corpus, v.merges[:i])
            counts = sliding_pair_counts(symbols)
            top = max(counts.values())
            assert counts[pair] == top
            assert pair == min(p for p, c in counts.items() if c == top)

    def test_zero_merges_is_base_set(self):
        v = BpeVocabulary.train("anything", num_merges=0)
        assert len(v) == 257
        assert v.end_of_text_id == 256

    def test_training_deterministic(self):
        a = BpeVocabulary.train("no acute osseous abnormality", 20)
        b = BpeVocabulary.train("no acute osseous abnormality", 20)
        assert a.merges == b.merges

    def test_corpus_reencodes_in_vocabulary(self):
        corpus = "small left pleural effusion with atelectasis"
        v = BpeVocabulary.train(corpus, num_merges=30)
        seq = v.encode(corpus)
        assert all(0 <= i < len(v) for i in seq)


class TestBpeEncoding:
    def test_round_trip_report_text(self):
        v = BpeVocabulary.train("pleural effusion present. no edema.", 25)
        for text in ("pleural effusion present.", "totally new words!", "tabs\tand\nnewlines"):
            assert v.decode(v.encode(text)) == text

    def test_merged_pair_expansion_is_single_token(self):
        v = BpeVocabulary.train("ababab", num_merges=1)
        left, right = v.merges[0]
        seq = v.encode((left + right).decode())
        assert len(seq) == 1

    def test_greedy_matches_merge_replay_oracle(self):
        rng = np.random.default_rng(7)
        alphabet = "abcde "
        for _ in range(30):
            corpus = "".join(rng.choice(list(alphabet), size=60))
            v = BpeVocabulary.train(corpus, num_merges=12)
            text = "".join(rng.choice(list(alphabet), size=40))
            expect = replay_merges(text, v.merges)
            got = [v.symbol(i) for i in v.encode(text)]
            assert got == expect

    def test_decode_out_of_range_rejected(self):
        v = BpeVocabulary.train("ab", 0)
        with pytest.raises(ValueError, match="outside vocabulary"):
            v.decode([999])

    def test_no_unknown_token_exists(self):
        v = BpeVocabulary.train("ab", 3)
        # any byte string is encodable
        assert v.decode(v.encode("\x00\x7f weird ÿ")) == "\x00\x7f weird ÿ"

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=256))
    def test_round_trip_lossless_on_bytes(self, raw):
        v = _SHARED_VOCAB
        assert v.decode_bytes(v.encode_bytes(raw)) == raw

    def test_file_round_trip(self, tmp_path):
        v = BpeVocabulary.train("the cat sat on the mat", 15)
        path = tmp_path / "bpe.vocab"
        v.save(path)
        back = BpeVocabulary.load(path)
        assert back.merges == v.merges
        assert back.end_of_text_id == v.end_of_text_id
        text = "the mat sat"
        assert back.encode(text) == v.encode(text)

    def test_file_round_trip_with_unprintable_symbols(self, tmp_path):
        v = BpeVocabulary.train("a b\na b\n\t\t  ", 8)  # merges spanning whitespace
        path = tmp_path / "bpe.vocab"
        v.save(path)
        back = BpeVocabulary.load(path)
        assert back.merges == v.merges

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.vocab"
        path.write_text("not-a-vocab\n")
        with pytest.raises(ValueError, match="header"):
            BpeVocabulary.load(path)
        with pytest.raises(ValueError, match="header"):
            WordVocabulary.load(path)

    @pytest.mark.parametrize("row, text, reason", [
        (1, "merges x", "invalid literal for int() with base 10: 'x'"),
        (2, "\\xZZ b", r"bad escape in '\\xZZ'"),
        (2, "a \\", r"bad escape in '\\'"),
        (2, "a \\q", r"bad escape in '\\q'"),
        (-2, "a\tseven", "invalid literal for int() with base 10: 'seven'"),
        (-1, "endoftext -", "invalid literal for int() with base 10: '-'"),
    ])
    def test_load_names_the_line_of_a_bad_field(self, tmp_path, row, text, reason):
        path = tmp_path / "bpe.vocab"
        BpeVocabulary.train("abcabc", 3).save(path)
        lines = path.read_text().splitlines()
        lines[row] = text
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}:{row % len(lines) + 1}: {reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BpeVocabulary.load(path)

    def test_load_rejects_tampered_subword_table(self, tmp_path):
        v = BpeVocabulary.train("abcabc", 3)
        path = tmp_path / "bpe.vocab"
        v.save(path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line == "a\t97":
                lines[i] = "z\t97"
                break
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="does not match"):
            BpeVocabulary.load(path)


_SHARED_VOCAB = BpeVocabulary.train("lungs are clear. no effusion or pneumothorax.", 40)
