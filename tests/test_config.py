import copy

import pytest

from eegrag.config import PipelineConfig
from eegrag.errors import PreconditionError


class TestDefaults:
    def test_shipped_operating_point(self):
        config = PipelineConfig()
        # fixed operating defaults; several downstream behaviors assume them
        assert config.paa_segments == 20
        assert config.hyperedge_top_k == 1
        assert config.eeg_top_k == 5
        assert config.closure_radius == 1
        assert config.closure_budget == 32
        assert config.pseudo_tau == 0.80
        assert config.embedding_dim == 256
        assert config.dtw_band is None
        assert config.ablation.cl and config.ablation.il and config.ablation.el
        assert config.client == "mock"


class TestValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(PreconditionError):
            PipelineConfig(paa_segments=0)
        with pytest.raises(PreconditionError):
            PipelineConfig(hyperedge_top_k=0)
        with pytest.raises(PreconditionError):
            PipelineConfig(closure_radius=-1)
        with pytest.raises(PreconditionError, match="dtw_band must be >= 0"):
            PipelineConfig(dtw_band=-1)

    def test_tau_range(self):
        with pytest.raises(PreconditionError):
            PipelineConfig(pseudo_tau=0.0)
        with pytest.raises(PreconditionError):
            PipelineConfig(pseudo_tau=1.2)
        PipelineConfig(pseudo_tau=1.0)

    def test_unknown_client(self):
        with pytest.raises(PreconditionError):
            PipelineConfig(client="carrier-pigeon")

    @pytest.mark.parametrize(
        "key, value, bound",
        [
            ("remote_timeout", "0", "> 0 and finite"),
            ("remote_timeout", "-1.5", "> 0 and finite"),
            ("remote_timeout", "nan", "> 0 and finite"),
            ("remote_timeout", "inf", "> 0 and finite"),
            ("remote_retries", "-1", ">= 0"),
            ("remote_max_inflight", "0", ">= 1"),
            ("remote_max_inflight", "-1", ">= 1"),
        ],
    )
    def test_remote_call_policy_range(self, key, value, bound):
        with pytest.raises(PreconditionError, match=f"{key} must be {bound}"):
            PipelineConfig.from_mapping({"client": "remote", key: value})

    def test_bootstrap_resamples_range(self):
        with pytest.raises(PreconditionError, match="bootstrap_resamples must be >= 0"):
            PipelineConfig.from_mapping({"bootstrap_resamples": "-1"})
        # 0 turns the bootstrap off
        assert PipelineConfig(bootstrap_resamples=0).bootstrap_resamples == 0

    def test_remote_call_policy_limits_accepted(self):
        limits = {"remote_timeout": 0.001, "remote_retries": 0, "remote_max_inflight": 1}
        config = PipelineConfig.from_mapping({key: str(value) for key, value in limits.items()})
        assert {key: getattr(config, key) for key in limits} == limits

    def test_unknown_retrieval_layer_names_the_valid_ones(self):
        with pytest.raises(PreconditionError, match="'knowlege'.*knowledge, case or none"):
            PipelineConfig.from_mapping({"retrieval_layer": "knowlege"})


class TestFileParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "eegrag.conf"
        path.write_text(
            """
            # comment line
            paa_segments = 10
            eeg_top_k = 3
            cl = false
            dtw_band = 4
            remote_endpoint = http://localhost:9/v1
            remote_model = test-model
            remote_auth_env = MY_TOKEN
            seed = 99
            """
        )
        config = PipelineConfig.from_file(path)
        assert config.paa_segments == 10
        assert config.eeg_top_k == 3
        assert not config.ablation.cl and config.ablation.il
        assert config.dtw_band == 4
        assert config.remote_endpoint == "http://localhost:9/v1"
        assert config.remote_model == "test-model"
        assert config.remote_auth_env == "MY_TOKEN"
        assert config.seed == 99

    def test_none_and_bool_parsing(self):
        config = PipelineConfig.from_mapping(
            {"dtw_band": "none", "el": "no", "il": "1", "CL": "off"}
        )
        assert config.dtw_band is None
        assert not config.ablation.el and config.ablation.il
        assert not config.ablation.cl

    def test_unknown_key_rejected(self):
        with pytest.raises(PreconditionError, match="unknown config key"):
            PipelineConfig.from_mapping({"warp_speed": "9"})
        with pytest.raises(PreconditionError, match="unknown config key"):
            PipelineConfig.from_mapping({"XX": "true"})

    def test_bad_value_rejected(self):
        with pytest.raises(PreconditionError):
            PipelineConfig.from_mapping({"paa_segments": "many"})
        with pytest.raises(PreconditionError):
            PipelineConfig.from_mapping({"cl": "maybe"})

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("paa_segments 10\n")
        with pytest.raises(PreconditionError, match="line 1"):
            PipelineConfig.from_file(path)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "bom.conf"
        path.write_bytes("\ufeffeeg_top_k = 3\n".encode("utf-8"))
        assert PipelineConfig.from_file(path).eeg_top_k == 3

    def test_apply_overrides_after_file(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("seed = 1\n")
        config = PipelineConfig.from_file(path)
        config.apply({"seed": "2", "el": "false"})
        assert config.seed == 2
        assert not config.ablation.el


class TestNoneValues:
    @pytest.mark.parametrize(
        "key",
        ["embedding_dim", "closure_budget", "seed", "client", "remote_endpoint", "remote_timeout"],
    )
    def test_none_rejected_for_a_setting_that_must_not_be_none(self, key):
        with pytest.raises(PreconditionError, match=f"'{key}' must not be none"):
            PipelineConfig.from_mapping({key: "none"})

    def test_none_clears_each_optional_setting(self):
        optional = {
            "dtw_band": "3",
            "retrieval_layer": "case",
            "remote_auth_env": "TOKEN",
        }
        config = PipelineConfig.from_mapping(optional)
        config.apply(dict.fromkeys(optional, "none"))
        cleared = (config.dtw_band, config.retrieval_layer, config.remote_auth_env)
        assert cleared == (None, None, None)


class TestRefusedApply:
    """A refused mapping leaves every setting, the ablation flags too, as it was."""

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"eeg_top_k": "0"}, "eeg_top_k must be >= 1"),
            ({"el": "false", "warp_speed": "9"}, "unknown config key 'warp_speed'"),
            ({"cl": "false", "hyperedge_top_k": "3", "paa_segments": "many"}, "'paa_segments'"),
            ({"hyperedge_top_k": "3", "pseudo_tau": "2"}, "pseudo_tau must be in"),
        ],
        ids=["refused-value", "unknown-key", "malformed-after-valid", "refused-after-valid"],
    )
    def test_config_is_unchanged(self, mapping, message):
        config = PipelineConfig.from_mapping({"seed": "3", "il": "false"})
        before = copy.deepcopy(config)
        with pytest.raises(PreconditionError, match=message):
            config.apply(mapping)
        assert config == before

    def test_a_later_apply_reports_only_its_own_fault(self):
        config = PipelineConfig()
        with pytest.raises(PreconditionError, match="eeg_top_k"):
            config.apply({"eeg_top_k": "0"})
        config.apply({"hyperedge_top_k": "3", "pseudo_tau": "0.5"})
        assert (config.eeg_top_k, config.hyperedge_top_k, config.pseudo_tau) == (5, 3, 0.5)
