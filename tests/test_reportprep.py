"""Report assembly, normalization, label prefixes, splits, image
preprocessing, and the packed container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gather_bilinear

from capseq.binio import BinaryFormatError
from capseq.reportprep import (PackedRecord, RawStudy, bilinear_resize,
                               build_report, expand_abbreviations,
                               load_dataset, normalize_text, pack_dataset,
                               prepend_labels, preprocess_image,
                               process_study, split_dataset)


class TestBuildReport:
    def test_both_sections_empty_excluded(self):
        assert build_report("", "") is None

    def test_single_section(self):
        assert build_report("no edema.", "") == "no edema."
        assert build_report("", "clear lungs.") == "clear lungs."

    def test_concatenation(self):
        assert build_report("a.", "b.") == "a. b."


class TestNormalizeText:
    def test_lowercase_and_punctuation(self):
        assert normalize_text("No acute Cardiopulmonary Abnormality!") == \
            ["no", "acute", "cardiopulmonary", "abnormality"]

    def test_strip_rule(self):
        assert normalize_text("___ at 09:55") == ["at", "0955"]

    def test_empty(self):
        assert normalize_text("") == []

    def test_periods_kept_standalone(self):
        assert normalize_text("No edema. Stable.") == ["no", "edema", ".", "stable", "."]

    def test_idempotent(self):
        text = "Heart size is Normal. ___ lines/tubes at 09:55!"
        once = normalize_text(text)
        assert normalize_text(" ".join(once)) == once

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80))
    def test_idempotent_property(self, text):
        once = normalize_text(text)
        assert normalize_text(" ".join(once)) == once
        for tok in once:
            assert tok == "." or tok == tok.lower()
            assert tok == "." or all(ch.isalnum() for ch in tok)


class TestAbbreviations:
    def test_expansion(self):
        assert expand_abbreviations(["htn"], {"htn": ["hypertension"]}) == ["hypertension"]

    def test_absent_token_unchanged(self):
        assert expand_abbreviations(["clear"], {"htn": ["hypertension"]}) == ["clear"]

    def test_no_reexpansion(self):
        lex = {"a": ["b"], "b": ["c"]}
        assert expand_abbreviations(["a"], lex) == ["b"]


class TestPrependLabels:
    def test_present_label(self):
        out = prepend_labels([("pleural effusion", "present")], ["lungs", "clear"])
        assert out == ["pleural", "effusion", "present", ".", "lungs", "clear"]

    def test_absent_label(self):
        assert prepend_labels([("edema", "absent")], []) == ["no", "edema", "."]

    def test_uncertain_label(self):
        assert prepend_labels([("pneumonia", "uncertain")], []) == \
            ["uncertain", "pneumonia", "."]

    def test_empty_labels_identity(self):
        assert prepend_labels([], ["body"]) == ["body"]

    def test_unknown_polarity_rejected(self):
        with pytest.raises(ValueError):
            prepend_labels([("edema", "maybe")], [])


class TestSplitDataset:
    def test_published_ratio_arithmetic(self):
        ids = [f"s{i}" for i in range(10000)]
        split = split_dataset(ids, (0.75, 0.2475, 0.0025), seed=3)
        assert (len(split.train), len(split.validation), len(split.test)) == (7500, 2475, 25)

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(50)]
        a = split_dataset(ids, (0.7, 0.2, 0.1), seed=9)
        b = split_dataset(ids, (0.7, 0.2, 0.1), seed=9)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_degenerate_all_train(self):
        ids = ["a", "b", "c", "d"]
        split = split_dataset(ids, (1.0, 0.0, 0.0), seed=0)
        assert sorted(split.train) == sorted(ids)
        assert split.validation == [] and split.test == []

    def test_disjoint_and_complete(self):
        ids = [f"s{i}" for i in range(101)]
        split = split_dataset(ids, (0.6, 0.3, 0.1), seed=1)
        parts = split.train + split.validation + split.test
        assert len(parts) == len(ids)
        assert set(parts) == set(ids)

    def test_too_few_ids_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(["a", "b"], (0.5, 0.3, 0.2), seed=0)

    def test_bad_ratio_sum_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(["a", "b", "c"], (0.5, 0.3, 0.1), seed=0)


class TestImagePreprocessing:
    def test_constant_8bit_maps_to_one(self):
        img = np.full((16, 16), 255)
        out = preprocess_image(img, 255, side=8)
        np.testing.assert_allclose(out, 1.0)

    def test_resize_extents(self):
        img = np.zeros((448, 448))
        assert preprocess_image(img, 255, side=224).shape == (224, 224)

    def test_constant_resize_is_constant(self):
        img = np.full((13, 7), 3.0)
        out = bilinear_resize(img, 5, 9)
        np.testing.assert_allclose(out, 3.0)

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            preprocess_image(np.zeros((0, 4)), 255, side=4)

    def test_upscale_interpolates_between_samples(self):
        img = np.array([[0.0, 1.0]])
        out = bilinear_resize(img, 1, 4)
        assert out[0, 0] <= out[0, 1] <= out[0, 2] <= out[0, 3]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 256), st.integers(1, 256),
           st.sampled_from(["uniform", "16-bit", "large"]), st.integers(0, 2**32 - 1))
    def test_bytes_equal_the_four_gather_form(self, h, w, out_h, out_w, kind, seed):
        rng = np.random.default_rng(seed)
        img = {"uniform": lambda: rng.random((h, w)),
               "16-bit": lambda: rng.integers(0, 65536, (h, w)).astype(np.float64),
               "large": lambda: rng.normal(0.0, 1e6, (h, w))}[kind]()
        out = bilinear_resize(img, out_h, out_w)
        assert out.shape == (out_h, out_w)
        assert out.tobytes() == gather_bilinear(img, out_h, out_w).tobytes()

    def test_heatmap_upsampling_bytes(self):
        # a pooled 4x4 attention map upsampled as the 128-px heatmaps are
        alpha = np.random.default_rng(7).dirichlet(np.ones(16)).reshape(4, 4)
        out = bilinear_resize(alpha, 128, 128)
        assert out.tobytes() == gather_bilinear(alpha, 128, 128).tobytes()


def _records():
    rng = np.random.default_rng(0)
    return [
        PackedRecord(f"study{i}",
                     [("edema", "absent")] if i % 2 else [],
                     ["no", "edema", ".", f"tok{i}"],
                     rng.random((8, 8)))
        for i in range(3)
    ]


class TestContainer:
    def test_round_trip(self, tmp_path):
        records = _records()
        path = tmp_path / "data.csds"
        pack_dataset(records, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(records)
        for got, want in zip(loaded, records):
            assert got.study_id == want.study_id
            assert got.labels == want.labels
            assert got.tokens == want.tokens
            assert got.image.tobytes() == want.image.tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.csds"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(BinaryFormatError, match="magic"):
            load_dataset(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "data.csds"
        pack_dataset(_records(), path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(BinaryFormatError, match="offset"):
            load_dataset(path)

    def test_empty_container(self, tmp_path):
        path = tmp_path / "empty.csds"
        pack_dataset([], path)
        assert load_dataset(path) == []

    def test_mixed_extents_rejected(self, tmp_path):
        records = _records()
        records[1].image = np.zeros((4, 4))
        with pytest.raises(ValueError, match="extents"):
            pack_dataset(records, tmp_path / "x.csds")


class TestProcessStudy:
    def test_full_pipeline(self):
        study = RawStudy("s1", "Mild CHF.", "No PTX seen!",
                         [("cardiomegaly", "present")],
                         np.full((16, 16), 128), 255)
        lex = {"chf": ["congestive", "heart", "failure"], "ptx": ["pneumothorax"]}
        rec = process_study(study, lex, image_side=8)
        assert rec.tokens == ["cardiomegaly", "present", ".",
                              "mild", "congestive", "heart", "failure", ".",
                              "no", "pneumothorax", "seen"]
        assert rec.image.shape == (8, 8)

    def test_empty_report_excluded(self):
        study = RawStudy("s1", "", "", [], np.ones((4, 4)), 255)
        assert process_study(study, None, 4) is None
