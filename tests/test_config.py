"""Run-configuration parsing, precedence, and validation."""

import dataclasses

import pytest

from capseq import captioner, lm
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

    @pytest.mark.parametrize("line, message", [
        ("sat_optimizer = sgd", "unknown configuration key 'sat_optimizer'"),
        ("sat_adam_eps = 1e-8", "unknown configuration key 'sat_adam_eps'"),
        ("lm_adam_eps = 1e-8", "unknown configuration key 'lm_adam_eps'"),
        ("sat_clip_norm = none", "sat_clip_norm: expected a number, got 'none'"),
    ])
    def test_removed_optimizer_options_fail_loudly(self, line, message):
        # Adam with a numeric clip norm is the one optimizer
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config_text(line)

    @pytest.mark.parametrize("profile", ["configs/desk.cfg", "configs/full.cfg"])
    def test_shipped_profile_names_every_key(self, profile):
        with open(profile, encoding="utf-8") as fh:
            keys = set(parse_config_text(fh.read(), profile))
        assert keys == {f.name for f in dataclasses.fields(RunConfig)}


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

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_env_seed_not_an_integer_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("CAPSEQ_SEED", value)
        with pytest.raises(ConfigError,
                           match=f"^CAPSEQ_SEED: expected an integer, got {value!r}$"):
            load_run_config()

    def test_negative_env_seed_names_the_seed(self, monkeypatch):
        monkeypatch.setenv("CAPSEQ_SEED", "-3")
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -3$"):
            load_run_config()

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

    def test_ratio_sum(self):
        cfg = RunConfig(train_ratio=0.5, val_ratio=0.5, test_ratio=0.5)
        with pytest.raises(ConfigError, match="ratios"):
            cfg.validate()

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            RunConfig(seed=-1).validate()
        RunConfig(seed=0).validate()

    @pytest.mark.parametrize("name", ["sat_decoder_lr", "sat_encoder_lr", "lm_lr",
                                      "sat_clip_norm", "lm_clip_norm"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_step_sizes_must_be_positive(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be positive, got "):
            load_run_config(None, {name: value})

    def test_image_side_vs_pooled_side(self):
        cfg = RunConfig(image_side=2, sat_pooled_side=4)
        with pytest.raises(ConfigError):
            cfg.validate()


class TestModelConfigs:
    @pytest.mark.parametrize("values, key", [
        ({"sat_embed_dim": 0}, "sat_embed_dim"),
        ({"sat_kernel_size": 0}, "sat_kernel_size"),
        ({"sat_dropout": 1.0}, "sat_dropout"),
        ({"sat_doubly_stochastic_weight": -1}, "sat_doubly_stochastic_weight"),
        ({"sat_max_caption_len": 1}, "sat_max_caption_len"),
        ({"lm_layers": 0}, "lm_layers"),
        ({"lm_block_size": 1}, "lm_block_size"),
        ({"lm_model_dim": 30, "lm_heads": 4}, "lm_model_dim"),
    ])
    def test_model_rule_names_run_key(self, values, key):
        with pytest.raises(ConfigError, match=f"^{key} "):
            RunConfig(**values).validate()

    @pytest.mark.parametrize("profile", ["configs/desk.cfg", "configs/full.cfg"])
    def test_model_fields_are_prefixed_run_keys(self, profile):
        cfg = load_run_config(profile)
        for prefix, model_config in (("sat_", cfg.caption_config()), ("lm_", cfg.lm_config())):
            for field in dataclasses.fields(model_config):
                assert getattr(model_config, field.name) == getattr(cfg, prefix + field.name)
        assert captioner.CaptionConfig is type(cfg.caption_config())
        assert lm.LmConfig is type(cfg.lm_config())
