"""Two vocabularies: word-level for the caption decoder, byte-pair encoding
for the language model.

The BPE here is byte-level: the base symbol set is all 256 byte values, so any
text is encodable and no unknown-token placeholder exists. Merges are learned
by repeatedly fusing the most frequent adjacent symbol pair (ties broken by
the lexicographically smaller pair, so training is deterministic).
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

PAD, START, END, UNK = "<pad>", "<start>", "<end>", "<unk>"
SPECIALS = (PAD, START, END, UNK)
START_ID, END_ID = SPECIALS.index(START), SPECIALS.index(END)  # word-vocabulary ids
END_OF_TEXT = "<|endoftext|>"

_WORD_HEADER = "capseq-wordvocab 1"
_BPE_HEADER = "capseq-bpevocab 1"


class WordVocabulary:
    """Dense token<->id table with the four specials; <pad> is always id 0."""

    def __init__(self, content_tokens: list[str]):
        tokens = list(SPECIALS) + list(content_tokens)
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self._id_to_token = tokens
        self._token_to_id = {t: i for i, t in enumerate(tokens)}

    @classmethod
    def build(cls, corpus: list[list[str]], min_freq: int = 1) -> "WordVocabulary":
        """Vocabulary over all corpus tokens with frequency >= min_freq.

        Content ids are assigned by descending frequency, ties broken
        lexicographically, so two builds of the same corpus agree exactly.
        """
        if not corpus:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        counts = Counter(tok for sent in corpus for tok in sent)
        for special in SPECIALS:
            counts.pop(special, None)
        kept = [t for t, c in counts.items() if c >= min_freq]
        kept.sort(key=lambda t: (-counts[t], t))
        return cls(kept)

    def __len__(self) -> int:
        return len(self._id_to_token)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def start_id(self) -> int:
        return START_ID

    @property
    def end_id(self) -> int:
        return END_ID

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK]

    def token_to_id(self, token: str) -> int:
        return self._token_to_id.get(token, self.unk_id)

    def id_to_token(self, idx: int) -> str:
        return self._id_to_token[idx]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def encode(self, tokens: list[str], max_len: int) -> tuple[int, ...]:
        """<start>, mapped tokens (unknowns -> <unk>), <end>, padded to max_len.

        Overlong inputs are truncated so <end> stays the final content token.
        """
        if max_len < 2:
            raise ValueError(f"max_len must be at least 2, got {max_len}")
        body = [self.token_to_id(t) for t in tokens[: max_len - 2]]
        ids = [self.start_id] + body + [self.end_id]
        ids += [self.pad_id] * (max_len - len(ids))
        return tuple(ids)

    def decode(self, ids) -> list[str]:
        """The tokens of ``ids`` without the special tokens."""
        toks = [self._id_to_token[i] for i in ids]
        return [t for t in toks if t not in SPECIALS]

    def text(self) -> str:
        """The vocabulary file's contents, as ``save`` writes them."""
        lines = [_WORD_HEADER]
        for i, tok in enumerate(self._id_to_token):
            lines.append(f"{tok}\t{i}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "WordVocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != _WORD_HEADER:
            raise ValueError(f"{path}: missing vocabulary header {_WORD_HEADER!r}")
        tokens = []
        for n, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            tok, _, idx = line.partition("\t")
            if not tok or idx != str(len(tokens)):  # ids are dense, in order
                raise ValueError(f"{path}:{n}: expected a token, a tab and id {len(tokens)}")
            tokens.append(tok)
        if tokens[: len(SPECIALS)] != list(SPECIALS):
            raise ValueError(f"{path}: special tokens missing or misplaced")
        return cls(tokens[len(SPECIALS):])


# ---------------------------------------------------------------------------
# byte-level BPE


def _escape(symbol: bytes) -> str:
    out = []
    for b in symbol:
        if 33 <= b <= 126 and b != 0x5C:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def _unescape(text: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(text):
        if text[i] == "\\":
            if not re.fullmatch(r"\\x[0-9a-fA-F]{2}", text[i:i + 4]):
                raise ValueError(f"bad escape in {text!r}")
            out.append(int(text[i + 2:i + 4], 16))
            i += 4
        else:
            out.append(ord(text[i]))
            i += 1
    return bytes(out)


def count_adjacent_pairs(symbols: list[bytes]) -> Counter:
    """Sliding-window counts of every adjacent symbol pair."""
    return Counter(zip(symbols, symbols[1:]))


def _merge_once(symbols: list[bytes], pair: tuple[bytes, bytes]) -> list[bytes]:
    """Replace every left-to-right non-overlapping occurrence of pair."""
    merged = pair[0] + pair[1]
    out: list[bytes] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


class BpeVocabulary:
    """Learned merge table over the 256 byte base symbols, plus <|endoftext|>.

    Ids: 0..255 are the raw bytes, 256+i is the output of merge i, and the
    end-of-text token takes the final id. There is no unknown token: any byte
    string encodes.
    """

    def __init__(self, merges: list[tuple[bytes, bytes]]):
        self.merges = list(merges)
        self._id_to_symbol: list[bytes] = [bytes([b]) for b in range(256)]
        for left, right in self.merges:
            self._id_to_symbol.append(left + right)
        self._symbol_to_id = {s: i for i, s in enumerate(self._id_to_symbol)}
        if len(self._symbol_to_id) != len(self._id_to_symbol):
            raise ValueError("merge list produces duplicate symbols")
        self._rank = {pair: i for i, pair in enumerate(self.merges)}
        self.end_of_text_id = len(self._id_to_symbol)

    def __len__(self) -> int:
        # byte symbols + merged symbols + end-of-text
        return len(self._id_to_symbol) + 1

    @classmethod
    def train(cls, corpus: str, num_merges: int) -> "BpeVocabulary":
        """Learn num_merges fusions of the currently most frequent pair."""
        if not corpus:
            raise ValueError("cannot train BPE on an empty corpus")
        if num_merges < 0:
            raise ValueError(f"num_merges must be non-negative, got {num_merges}")
        symbols = [bytes([b]) for b in corpus.encode("utf-8")]
        merges: list[tuple[bytes, bytes]] = []
        for _ in range(num_merges):
            counts = count_adjacent_pairs(symbols)
            if not counts:
                break
            top = max(counts.values())
            pair = min(p for p, c in counts.items() if c == top)
            merges.append(pair)
            symbols = _merge_once(symbols, pair)
        return cls(merges)

    def encode(self, text: str) -> tuple[int, ...]:
        return self.encode_bytes(text.encode("utf-8"))

    def encode_bytes(self, raw: bytes) -> tuple[int, ...]:
        """Greedy encoding: repeatedly apply the present pair with the lowest
        merge rank. Equivalent to replaying the merge list in learned order."""
        symbols = [bytes([b]) for b in raw]
        while len(symbols) >= 2:
            best_rank = None
            best_pair = None
            for pair in zip(symbols, symbols[1:]):
                rank = self._rank.get(pair)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_pair = pair
            if best_pair is None:
                break
            symbols = _merge_once(symbols, best_pair)
        return tuple(self._symbol_to_id[s] for s in symbols)

    def decode(self, ids) -> str:
        """Text form; model-generated sequences need not be valid UTF-8, so
        undecodable bytes render as the replacement character."""
        return self.decode_bytes(ids).decode("utf-8", errors="replace")

    def decode_bytes(self, ids) -> bytes:
        chunks = []
        for i in ids:
            if i == self.end_of_text_id:
                continue  # the terminator carries no text
            if not 0 <= i < len(self._id_to_symbol):
                raise ValueError(f"bpe decode: id {i} outside vocabulary of size {len(self)}")
            chunks.append(self._id_to_symbol[i])
        return b"".join(chunks)

    def symbol(self, idx: int) -> bytes:
        return self._id_to_symbol[idx]

    def text(self) -> str:
        """The vocabulary file's contents, as ``save`` writes them."""
        lines = [_BPE_HEADER, f"merges {len(self.merges)}"]
        for left, right in self.merges:
            lines.append(f"{_escape(left)} {_escape(right)}")
        lines.append(f"subwords {len(self._id_to_symbol)}")
        for i, sym in enumerate(self._id_to_symbol):
            lines.append(f"{_escape(sym)}\t{i}")
        lines.append(f"endoftext {self.end_of_text_id}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "BpeVocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != _BPE_HEADER:
            raise ValueError(f"{path}: missing vocabulary header {_BPE_HEADER!r}")
        try:
            return cls._parse(path, lines)
        except IndexError:
            raise ValueError(f"{path}: vocabulary is cut short") from None

    @classmethod
    def _parse(cls, path, lines: list[str]) -> "BpeVocabulary":
        def parsed(parse, text: str, idx: int):
            """``parse(text)`` of ``lines[idx]``; its error names the file and line."""
            try:
                return parse(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{idx + 1}: {exc}") from None

        idx = 1
        kind, _, count = lines[idx].partition(" ")
        if kind != "merges":
            raise ValueError(f"{path}: expected merge count line")
        n_merges = parsed(int, count, idx)
        idx += 1
        merges = []
        for row, line in enumerate(lines[idx:idx + n_merges], start=idx):
            left, _, right = line.partition(" ")
            merges.append((parsed(_unescape, left, row), parsed(_unescape, right, row)))
        idx += n_merges
        vocab = cls(merges)
        kind, _, count = lines[idx].partition(" ")
        if kind != "subwords" or parsed(int, count, idx) != len(vocab._id_to_symbol):
            raise ValueError(f"{path}: subword table inconsistent with merge list")
        idx += 1
        for i, line in enumerate(lines[idx:idx + int(count)]):
            sym, _, sid = line.partition("\t")
            symbol, number = parsed(_unescape, sym, idx + i), parsed(int, sid, idx + i)
            if symbol != vocab._id_to_symbol[i] or number != i:
                raise ValueError(f"{path}: subword table row {i} does not match merges")
        idx += int(count)
        kind, _, eot = lines[idx].partition(" ")
        if kind != "endoftext" or parsed(int, eot, idx) != vocab.end_of_text_id:
            raise ValueError(f"{path}: end-of-text id mismatch")
        return vocab
