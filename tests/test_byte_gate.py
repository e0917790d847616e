"""The byte gate: the fig1-fig4 CSVs and reports stay byte-identical.

Every CSV of the gate runs (fig1-fig4 at h = 0.01 and 0.005, fig1 and
fig3 at h = 0.0025, each with all three methods) is written as
`invscheme run figN --h H --methods invariant,standardFD,rk45` writes it,
and its SHA-256 is compared with the digest recorded below.  Each run's
report is compared the same way, after every method's wall seconds per
step, the one timing it holds, is dropped.  A change that moves digits on
purpose updates the tables and names the digits that moved.
"""

import hashlib
import json

import pytest

from invscheme.harness import builtin_experiments, config_from_raw, run_experiment

_METHODS = ("invariant", "standardFD", "rk45")

_GATE = [(name, h) for h in (0.01, 0.005) for name in ("fig1", "fig2", "fig3", "fig4")]
_GATE += [("fig1", 0.0025), ("fig3", 0.0025)]

# SHA-256 of each gate CSV, keyed by (experiment, h, method).
_DIGESTS = {
    ("fig1", 0.01, "invariant"): "2bf6eadef0f61a0a4022ed09df33a4d117b1011965d048fbbd1b843f028cb91b",
    ("fig1", 0.01, "standardFD"): "b9c0b935b86ca2375eb8f095205c4a700dcdb43cfbbd57f8bd5a7263762d03eb",
    ("fig1", 0.01, "rk45"): "58a22f2a7744773113d0207e6f3c99ffbd81eaf829306f6a41c1f7ba6d64a38a",
    ("fig2", 0.01, "invariant"): "1013f3493f91d18cc08a792d0cc456b4a61c1d057659b3643a8f2e5fca013788",
    ("fig2", 0.01, "standardFD"): "cb4544e7a6e49b3f8d5b36579654e6a8aa1d2012daac0441218a47acc35fb911",
    ("fig2", 0.01, "rk45"): "135f51fecd8e1a245733fbb0f8fbaf1526f59629de51eae096ff6060ff3379bb",
    ("fig3", 0.01, "invariant"): "47557e4b1dfe000f8520783447dc64eb03247855eae352a5d5d49020a9db470a",
    ("fig3", 0.01, "standardFD"): "f1f4245d3c425379f969c16161132d1d110a136f3f69a3ad7eebfd6c305ec061",
    ("fig3", 0.01, "rk45"): "1fcf78bebef671517dc3ee1d1d3301eb8d99d8a98c817043bd8f28facb87a81e",
    ("fig4", 0.01, "invariant"): "67df4544ec626f3c2e994677693ca1faf3def8fe2c7d4494f706fb8333e08bbf",
    ("fig4", 0.01, "standardFD"): "de9444773d96c4c627b7f195a5e2d844211e95b0d045cc241aae5d209103f27b",
    ("fig4", 0.01, "rk45"): "f045f7ef77eddf933f5adb3e1378653f28ccf81a0564d6485af3d3e8f67306a3",
    ("fig1", 0.005, "invariant"): "2a1b694fb579e664688eba314598a40432ddeb9f9f9b81a46909947b228808d3",
    ("fig1", 0.005, "standardFD"): "832d3401f5167e2ca3f3814f16ecf0635fff3133924db27737c96fa360d17b73",
    ("fig1", 0.005, "rk45"): "58a22f2a7744773113d0207e6f3c99ffbd81eaf829306f6a41c1f7ba6d64a38a",
    ("fig2", 0.005, "invariant"): "b43f14b6fda2dd9b3e36b50475cc279a67d894fdbfd68ded78a5bf4a45a5a0fc",
    ("fig2", 0.005, "standardFD"): "b7f513cb74ea2d7b3bb9b5bbd90352d1b48d6b0637afcbf448a6e5120a42287d",
    ("fig2", 0.005, "rk45"): "135f51fecd8e1a245733fbb0f8fbaf1526f59629de51eae096ff6060ff3379bb",
    ("fig3", 0.005, "invariant"): "0c4b079b6e2f9e144d6d44c833167a214c1174bb0fc5c461f314d051fadf3923",
    ("fig3", 0.005, "standardFD"): "34f406f32c3e2fa757f171bfb97e622c7ca2b535297f61bed045fa4710263200",
    ("fig3", 0.005, "rk45"): "1fcf78bebef671517dc3ee1d1d3301eb8d99d8a98c817043bd8f28facb87a81e",
    ("fig4", 0.005, "invariant"): "3b03ad4fbca9fb487e38e165bacc86767672cedfb3a19d031ad763fa60135121",
    ("fig4", 0.005, "standardFD"): "aa8cbf86d7cf792f8f83ab0904dde281e975687e730f00dfdb87dcecb8cf2eac",
    ("fig4", 0.005, "rk45"): "f045f7ef77eddf933f5adb3e1378653f28ccf81a0564d6485af3d3e8f67306a3",
    ("fig1", 0.0025, "invariant"): "66f01a913c561f8e20bd24098557e01ae1ca188516d6fa12cb755e2dfa58796b",
    ("fig1", 0.0025, "standardFD"): "34b11cc181fe045ee687ec714d7f1dab0c8a1d5f52f5b1aef038bd6453f045c7",
    ("fig1", 0.0025, "rk45"): "58a22f2a7744773113d0207e6f3c99ffbd81eaf829306f6a41c1f7ba6d64a38a",
    ("fig3", 0.0025, "invariant"): "c54c076f0b8c363e99160a9a15e1c1182089b37c87fb5abef945912bd5a85a9b",
    ("fig3", 0.0025, "standardFD"): "525866ef249688c2063f3da7c8548604724bf653d6af90b5ddbee3ae216a17dc",
    ("fig3", 0.0025, "rk45"): "1fcf78bebef671517dc3ee1d1d3301eb8d99d8a98c817043bd8f28facb87a81e",
}

# SHA-256 of each gate run's report without wallSecondsPerStep, re-dumped
# with indent=2 and sorted keys, keyed by (experiment, h).
_REPORT_DIGESTS = {
    ("fig1", 0.01): "88b971853bd1943e6ae59355a256917b9fdbf795da4b635f752b82aa2276b320",
    ("fig2", 0.01): "76b61e894d04c208b24742618d61521b4fefa6af788ce6d2ccb54196ca73336e",
    ("fig3", 0.01): "ac11c4004d5411c54a516c4ccd6a60df68740713933eca63990e2bef233ce841",
    ("fig4", 0.01): "feb977c7d3f4d3aaf795f8d38314e16981cc447b925aa117c60b408c29c35885",
    ("fig1", 0.005): "534157319d69d9074f5cf00b7b840a76238a7b6dfa6ee3819770b8b052781d7f",
    ("fig2", 0.005): "f9f247addc67ac4ebd95402b3f36f3d33267bafbedcb3a1bcc0a84bbfe587b97",
    ("fig3", 0.005): "ff65ba912dc46d616daed43d05c1f80e36d2677081a0779689ae1e8144fe6a5b",
    ("fig4", 0.005): "5f5ae7bbc9a18ebedcc830ee98e3c579b0c1e7f7f3704a2254ccafecefdadc17",
    ("fig1", 0.0025): "21d73a001959a6c326edefc308373a95765468e082167ae18074e4dd07342ccf",
    ("fig3", 0.0025): "ebdb2d74aafacd07b7088c2ef3e6081d509083e7ede3ab03dcafa22669c136f9",
}


def _report_digest(path):
    raw = json.loads(path.read_text())
    for entry in raw["methods"].values():
        del entry["wallSecondsPerStep"]
    return hashlib.sha256(json.dumps(raw, indent=2, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name,h", _GATE, ids=[f"{n}-h{h}" for n, h in _GATE])
def test_gate_csvs_are_byte_identical(name, h, tmp_path):
    base = {cfg.name: cfg for cfg in builtin_experiments()}[name]
    cfg = config_from_raw(dict(base.as_raw(), h=h, methods=list(_METHODS)))
    run_experiment(cfg, out_dir=str(tmp_path))
    digests = {
        method: hashlib.sha256((tmp_path / f"{name}_{method}.csv").read_bytes()).hexdigest()
        for method in _METHODS
    }
    assert digests == {method: _DIGESTS[name, h, method] for method in _METHODS}
    assert _report_digest(tmp_path / f"{name}_report.json") == _REPORT_DIGESTS[name, h]
