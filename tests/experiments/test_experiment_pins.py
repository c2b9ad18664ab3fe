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
        "cb959d075c37c9e49860d5cfe3c124943e5d14fa617a69b7b108451d283a66ad",
        "239ec78612313a431097f136087c0e0f1492d4f30a8f1b2a3a7278f8f5ae5143",
    ),
    "table9": (
        20,
        "2428e55997609123b77c43ef7b0bc8eb332c2b48bc97cd0cee74a561105ab47d",
        "4440b0e1f11121acf473691889cc39dd05297e5a9c439407d65911da9a9fc616",
    ),
    "table10": (
        36,
        "453e85a5b7c6f1f5dd8223f1061ae76a914d6159bb1510c141db50d74aaa411d",
        "a594dac923a69b4144ef31af7338f0628e4c75f18448c706b4d15de5f2a786f6",
    ),
    "table11": (
        15,
        "cb719e20ab775907a59d67290a38ca6028454d641f22af167682a6a51b362957",
        "8f639f2f9770bc0c7f7afad935cf9861a64490565db56d6f09f6f16393959c53",
    ),
    "table12": (
        18,
        "f747f970bc59e7371b8b1f69786cefb102636cdd14a41fbc933f75e82ec788c2",
        "f07ad4dbd74bd1ab0445699568cb956f54115c4e37444cdc259b42ad1241cef3",
    ),
    "msg": (
        12,
        "776a5083ea0a3ac3b84021c0b6922f33c57bfb4ae91f536d812bd12185b57d8d",
        "a778e660c25434196bb54c60952fc3cf7cd2df168b14d9e4869e78e8eb82210b",
    ),
    "failures": (
        16,
        "375df552dfc8471d5eeda2a2f68db27da9e24d97a86f3e1213f0108e82d9a41c",
        "f0bd5ec8033f900279aaa1c5b509c30054b60dfafbc4b421b807f7c0784930e0",
    ),
    "open": (
        24,
        "1a2f2072211de89eab34fe45b116e2637cca715e876b59c78e59b1b4b8413fcf",
        "f452111f6d9ae36b5df853010f2297b24fc4081eb720347edd05eed2b0ddeb13",
    ),
    "validation": (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4eff170c0906966c5f222dd49e900e8388b7635ee4043ac5aeaa32566d67e97e",
    ),
    "ablation-stale": (
        8,
        "e4cf720b0610c69d5d3cafc3a22b6f694e60579449093bea6ba22930c77422d3",
        "4d57ca2a19c391adc23fefee8bf03aa682f35083c8c7151df5c5a481cbc2cc11",
    ),
    "ablation-disk": (
        6,
        "93d8ced3e332e31a2f7dcaad918912c97ecce21906b31130941dadf364daf7b0",
        "3999a0bd64059e1386679ca0a98e019c346b7e6d77c0dd3bfbbb429056d121c2",
    ),
    "ablation-updates": (
        8,
        "d2513323569038b15280721ea6baa103118fb815669454b2486d67783f88c573",
        "ce5cd7afef5d277d9ba5283d7a00e0b4366c5f1206588eb53f8627ee8b00d870",
    ),
    "ablation-heterogeneous": (
        4,
        "ba7e7e0904bf10551225a9195972e785e26c5ef45515753c8c84a9c0c53e50e7",
        "d78c9c47291d0f51461068b43e4f4cd91475fcf528d60d3f0db2f015c150f57d",
    ),
    "ablation-subnet": (
        20,
        "b2417c4096f63e5313bd918d893e1b768638a6a0def41bd11931c01047e83a48",
        "a19880919f84c938d8e8225325810aa41f5e790916acfe56833f49b33d832aff",
    ),
    "study-core": (
        10,
        "9fb8161b2db7bb43753f424ae28caa9e7f519fe67ccfc9cd7b4dafc635696214",
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
