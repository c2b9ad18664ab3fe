"""Pins of every simulated registry experiment: cache keys and rendered text.

Each experiment runs at a small fixed scale through a cache that records
the keys it is asked for and stores nothing.  The test pins the SHA-256 of
the ordered key list (which cells run, with which seeds, in which order)
and of the rendered table, so a refactor of the experiment pipeline that
moves a cell, reorders the batch or changes one printed digit fails here.
"""

import hashlib

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.context import StudyContext
from repro.experiments.registry import all_experiments, get_experiment
from repro.experiments.runconfig import RunSettings

SETTINGS = RunSettings(warmup=20, duration=150, base_seed=11)

#: name -> (number of cache lookups, sha256 of the keys joined by
#: newlines, sha256 of the rendered text).
PINS = {
    "table8": (
        28,
        "56bfb815356d7bce014966afdfc8321bffebb69bc3ca3651c27b4676d1708ea6",
        "239ec78612313a431097f136087c0e0f1492d4f30a8f1b2a3a7278f8f5ae5143",
    ),
    "table9": (
        20,
        "17e92ed4af2f709facc093c710584034796721241b69956d7f499909fdc817b0",
        "4440b0e1f11121acf473691889cc39dd05297e5a9c439407d65911da9a9fc616",
    ),
    "table10": (
        36,
        "716e884db681325b475cad3557a79da1369ae8d0660b15c7ed98d457c66c73ae",
        "a594dac923a69b4144ef31af7338f0628e4c75f18448c706b4d15de5f2a786f6",
    ),
    "table11": (
        15,
        "0148473e09126afde92ed3eacf1513ea2aa4491d1be485887e81f337144a00b1",
        "8f639f2f9770bc0c7f7afad935cf9861a64490565db56d6f09f6f16393959c53",
    ),
    "table12": (
        18,
        "6b24a564c9efd1a53444f0dcbd9cf175bdbe376823baf91e698203f5d14dd09f",
        "f07ad4dbd74bd1ab0445699568cb956f54115c4e37444cdc259b42ad1241cef3",
    ),
    "msg": (
        12,
        "811848d05e25c2dfbd76a52875f61c56c8e83d15d4c847aae9d1ad0cb2792347",
        "a778e660c25434196bb54c60952fc3cf7cd2df168b14d9e4869e78e8eb82210b",
    ),
    "failures": (
        16,
        "9eed29171b6f1af365c37b7b10ec9ee0cf3eb495080e669f3b60942595f547c0",
        "f0bd5ec8033f900279aaa1c5b509c30054b60dfafbc4b421b807f7c0784930e0",
    ),
    "open": (
        24,
        "60182bc61ce0ba472b5da45fd42a45520f36ed0391b6a7214c5bd065eaf9380e",
        "f452111f6d9ae36b5df853010f2297b24fc4081eb720347edd05eed2b0ddeb13",
    ),
    "validation": (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4eff170c0906966c5f222dd49e900e8388b7635ee4043ac5aeaa32566d67e97e",
    ),
    "ablation-stale": (
        8,
        "f6f7a47b3e8b5e95d13ee36c61264f1b319236ef6c180371b0d7d8dcc2a1ff74",
        "4d57ca2a19c391adc23fefee8bf03aa682f35083c8c7151df5c5a481cbc2cc11",
    ),
    "ablation-disk": (
        6,
        "5ae8964a37a73190443d293a58c3c2ecd69aede195708c4add29a2923e4addb5",
        "3999a0bd64059e1386679ca0a98e019c346b7e6d77c0dd3bfbbb429056d121c2",
    ),
    "ablation-updates": (
        8,
        "bf02c7ca472afba8c1b72ca5795cf7b77b0bc14a112f19a8059b3fc883608f06",
        "ce5cd7afef5d277d9ba5283d7a00e0b4366c5f1206588eb53f8627ee8b00d870",
    ),
    "ablation-heterogeneous": (
        4,
        "ec2fa5e9fb949576d03ca18a428350a57a36b3d12f737c262ecb307b9a636b6b",
        "d78c9c47291d0f51461068b43e4f4cd91475fcf528d60d3f0db2f015c150f57d",
    ),
    "ablation-subnet": (
        20,
        "31306c22566d79ad9c4d207154226e9c77844e30a6251a7dbe9fb7c7b53d4914",
        "a19880919f84c938d8e8225325810aa41f5e790916acfe56833f49b33d832aff",
    ),
    "study-core": (
        10,
        "01e9480ec37f4621bc3a5d0879c518feb79e8e08e73f8368ceee0b747c91c820",
        "3a240d0dba9585f41b23b57727829e3fea14010b38092efcd41aaac803330351",
    ),
}


class KeySpy(ResultCache):
    """A cache that records every key asked for and never hits or stores."""

    def __init__(self) -> None:
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return None

    def put(self, key, result):
        pass


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_simulated_experiment_is_pinned():
    simulated = {e.name for e in all_experiments() if not e.analytic}
    assert simulated == set(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_cache_keys_and_rendered_text_are_pinned(name):
    spy = KeySpy()
    text = get_experiment(name).run(SETTINGS, StudyContext(cache=spy))
    count, keys_digest, text_digest = PINS[name]
    assert len(spy.keys) == count
    assert _sha256("\n".join(spy.keys)) == keys_digest
    assert _sha256(text) == text_digest
