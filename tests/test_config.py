"""Run-configuration parsing, precedence, and validation."""

import dataclasses
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import perfbench.build  # noqa: E402
import perfbench.pipeline  # noqa: E402
from capseq import captioner, lm  # noqa: E402
from capseq.config import (ConfigError, RunConfig, load_run_config,  # noqa: E402
                           parse_config_text)

FIELDS = dataclasses.fields(RunConfig)


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
        with pytest.raises(ConfigError, match=f"^<config>:1: {message}$"):
            parse_config_text(line)

    @pytest.mark.parametrize("profile", ["configs/desk.cfg", "configs/full.cfg"])
    def test_shipped_profile_names_every_key(self, profile):
        with open(profile, encoding="utf-8") as fh:
            keys = set(parse_config_text(fh.read(), profile))
        assert keys == {f.name for f in FIELDS}

    @pytest.mark.parametrize("line, message", [
        ("sat_epochs = abc", "sat_epochs: expected an integer, got 'abc'"),
        ("bogus = 1", "unknown configuration key 'bogus'"),
    ])
    def test_value_errors_name_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"# run\nseed = 1\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            load_run_config(path)
        key, _, value = line.partition(" = ")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_run_config(None, {key: value})

    def test_key_named_twice_in_a_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nimage_side = 16\n\nseed = 2\n")
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(f'{path}:4: seed is already set on line 1')}$"):
            load_run_config(path)


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
        with pytest.raises(ConfigError, match="^seed must be at least 0, got -3$"):
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
        with pytest.raises(ConfigError, match="^seed must be at least 0, got -1$"):
            RunConfig(seed=-1).validate()
        RunConfig(seed=0).validate()

    @pytest.mark.parametrize("name", ["sat_decoder_lr", "sat_encoder_lr", "lm_lr",
                                      "sat_clip_norm", "lm_clip_norm"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_step_sizes_must_be_positive(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be at least 5e-324, got "):
            load_run_config(None, {name: value})

    def test_image_side_vs_pooled_side(self):
        cfg = RunConfig(image_side=2, sat_pooled_side=4)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("name", [f.name for f in FIELDS if f.type == "float"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_floats_name_the_key(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be at (least|most) .*, got {value}$"):
            load_run_config(None, {name: value})

    @pytest.mark.parametrize("name, value, message", [
        (f.name, bound + step, f"{f.name} must be at {word} {bound}, got {bound + step}")
        for f in FIELDS if f.type == "int"
        for word, bound, step in (("least", f.metadata["lo"], -1), ("most", f.metadata["hi"], 1))
    ])
    def test_ints_past_either_bound_name_the_key(self, name, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_run_config(None, {name: str(value)})

    def test_negative_ratio_is_refused_although_the_sum_is_one(self):
        with pytest.raises(ConfigError, match="^train_ratio must be at least 0.0, got -0.5$"):
            load_run_config("configs/desk.cfg",
                            {"train_ratio": "-0.5", "val_ratio": "1.0", "test_ratio": "0.5"})

    @pytest.mark.parametrize("profile", ["configs/desk.cfg", "configs/full.cfg"])
    @pytest.mark.parametrize("overrides", sorted(
        {w.overrides for w in perfbench.pipeline.WORKLOADS.values()}
        | {m.overrides for m in perfbench.build.MODEL_SETS.values()}))
    def test_every_bench_override_validates(self, profile, overrides):
        # the table must never refuse a setting the benchmark runs with
        items = (*overrides, "sat_epochs=1", "lm_epochs=1")
        load_run_config(profile, dict(item.split("=") for item in items))


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


def _shown(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return {sys.maxsize: "sys.maxsize", sys.float_info.max: "sys.float_info.max"}.get(
        value, str(value))


def test_readme_rows_match_the_table():
    rows = []
    for f in FIELDS:
        meta = f.metadata
        allowed = (", ".join(f"`{_shown(c)}`" for c in meta["choices"]) if meta["choices"]
                   else f"`[{_shown(meta['lo'])}, {_shown(meta['hi'])}]`")
        rows.append(f"| `{f.name}` | {f.type} | `{_shown(f.default)}` | {allowed} |")
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Configuration")[1].split("\n### ")[0]
    assert [line for line in section.splitlines() if line.startswith("| `")] == rows
