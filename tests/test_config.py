"""Run-configuration parsing, precedence, and validation."""

import pytest

from capseq.config import ConfigError, RunConfig, load_run_config, parse_config_text


class TestParsing:
    def test_shipped_profiles_parse_and_validate(self):
        for profile in ("configs/desk.cfg", "configs/full.cfg"):
            cfg = load_run_config(profile)
            cfg.validate()

    def test_desk_profile_values(self):
        cfg = load_run_config("configs/desk.cfg")
        assert cfg.image_side == 32
        assert cfg.sat_dropout == 0.0
        assert cfg.lm_clip_norm == 1.0

    def test_full_profile_values(self):
        cfg = load_run_config("configs/full.cfg")
        assert cfg.image_side == 224
        assert cfg.sat_embed_dim == 100
        assert cfg.sat_decoder_dim == 512
        assert cfg.sat_dropout == 0.1
        assert cfg.lm_block_size == 1024
        assert cfg.lm_lr == 5e-5
        assert cfg.lm_adam_eps == 1e-8
        assert cfg.sat_encoder_lr == 4e-7
        assert cfg.sat_decoder_lr == 3e-7

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# heading\n\nseed = 9\n  # indented comment\n")
        assert values == {"seed": 9}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config_text("bogus = 1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("just a token")

    def test_bool_parsing(self):
        assert parse_config_text("sat_fine_tune_encoder = true") == \
            {"sat_fine_tune_encoder": True}
        with pytest.raises(ConfigError):
            parse_config_text("sat_fine_tune_encoder = maybe")

    def test_optional_float_none(self):
        assert parse_config_text("sat_clip_norm = none") == {"sat_clip_norm": None}


class TestPrecedence:
    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nimage_side = 16\n")
        cfg = load_run_config(path, {"seed": "5"})
        assert cfg.seed == 5
        assert cfg.image_side == 16

    def test_env_seed_beats_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAPSEQ_SEED", "99")
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n")
        cfg = load_run_config(path, {"seed": "5"})
        assert cfg.seed == 99

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "nope.cfg")


class TestValidation:
    def test_rank_vs_beam_width(self):
        for rank in (4, 9):
            cfg = RunConfig(lm_rank=rank, beam_width=3)
            with pytest.raises(ConfigError, match="lm_rank"):
                cfg.validate()

    def test_unknown_decode_strategy(self):
        cfg = RunConfig(decode_strategy="sample")
        with pytest.raises(ConfigError, match="decode_strategy"):
            cfg.validate()

    def test_head_divisibility(self):
        cfg = RunConfig(lm_model_dim=30, lm_heads=4)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_ratio_sum(self):
        cfg = RunConfig(train_ratio=0.5, val_ratio=0.5, test_ratio=0.5)
        with pytest.raises(ConfigError, match="ratios"):
            cfg.validate()

    def test_image_side_vs_pooled_side(self):
        cfg = RunConfig(image_side=2, sat_pooled_side=4)
        with pytest.raises(ConfigError):
            cfg.validate()
