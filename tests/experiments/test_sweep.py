"""Unit tests for set_config_parameter, the dotted-path edit that builds
each config of a sweep (see ``policy_grid``)."""

import pytest

from repro.model.config import paper_defaults, set_config_parameter


class TestSetConfigParameter:
    def test_top_level(self):
        config = set_config_parameter(paper_defaults(), "num_sites", 4)
        assert config.num_sites == 4

    def test_nested_site(self):
        config = set_config_parameter(paper_defaults(), "site.mpl", 33)
        assert config.site.mpl == 33

    def test_nested_network(self):
        config = set_config_parameter(paper_defaults(), "network.msg_length", 2.5)
        assert config.network.msg_length == 2.5

    def test_original_untouched(self):
        base = paper_defaults()
        set_config_parameter(base, "site.mpl", 99)
        assert base.site.mpl == 20

    def test_unknown_field(self):
        with pytest.raises(KeyError):
            set_config_parameter(paper_defaults(), "site.warp_factor", 9)
        with pytest.raises(KeyError):
            set_config_parameter(paper_defaults(), "nonsense", 1)
        with pytest.raises(KeyError):
            set_config_parameter(paper_defaults(), "a.b.c", 1)

    def test_non_dataclass_section(self):
        """Dotting into a scalar field is a KeyError, not an AttributeError."""
        with pytest.raises(KeyError, match="not a nested config section"):
            set_config_parameter(paper_defaults(), "disk_organization.kind", "x")
        with pytest.raises(KeyError, match="not a nested config section"):
            set_config_parameter(paper_defaults(), "num_sites.value", 3)

    def test_validation_still_applies(self):
        with pytest.raises(Exception):
            set_config_parameter(paper_defaults(), "site.mpl", 0)
