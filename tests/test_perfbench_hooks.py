"""The benchmark's traced run patches speclaw names; each must exist and come back intact,
and a traced campaign must keep every trial below its campaign span.

Reads perfbench/layers.py and perfbench/tracer.py, the traced run's list of
wrapped functions and its patcher, without running any workload.
"""

import importlib
import json
from pathlib import Path

import pytest

import speclaw
from speclaw import cli, ensembles, qve, rng, spectra, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"cli": cli, "verify": verify, "qve": qve, "ensembles": ensembles, "rng": rng, "spectra": spectra}


def _owner_and_attr(module: str, attr: str):
    owner = MODULES[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def test_install_patches_every_listed_name_and_uninstall_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer_mod = importlib.import_module("tracer")
    hooks = [(mod, attr) for mod, attr, _ in layers.SPANS] + [("qve", "solve_qve"), ("qve", "_solve_batch")]
    owners = [_owner_and_attr(mod, attr) for mod, attr in hooks]
    originals = [owner.__dict__[attr] for owner, attr in owners]
    namespaces = (speclaw, *MODULES.values(), verify.LocalLawReport, verify.DelocReport)
    before = [dict(vars(ns)) for ns in namespaces]

    tracer = tracer_mod.Tracer()
    layers.install(tracer)
    try:
        for (owner, attr), original in zip(owners, originals):
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr} was not patched"
    finally:
        tracer.uninstall()

    for (owner, attr), original in zip(owners, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} was not restored"
    for ns, snapshot in zip(namespaces, before):
        changed = [k for k, v in vars(ns).items() if snapshot.get(k) is not v]
        assert not changed, f"{ns.__name__}: {changed} differ after uninstall"


_TINY_CAMPAIGN = {"ensemble": {"kind": "wigner", "n": 20, "profile": {"d": 1, "weights": [1.0], "coeffs": [[1.0]]},
                               "law": {"kind": "rademacher"}, "seed": 0},
                  "trials": 3, "interval_len_factor": 5.0}
_TINY_SBM_CAMPAIGN = {**_TINY_CAMPAIGN, "ensemble": {"kind": "sbm", "d": 2, "sizes": [10, 10],
                                                     "probs": [[0.5, 0.1], [0.1, 0.5]], "seed": 0}}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command, extra, payload", [
    pytest.param("verify-local-law", [], _TINY_CAMPAIGN, id="verify-local-law-extra0"),
    pytest.param("verify-stieltjes", ["--eta", "0.5"], _TINY_CAMPAIGN, id="verify-stieltjes-extra1"),
    pytest.param("verify-deloc", [], _TINY_CAMPAIGN, id="verify-deloc-extra2"),
    pytest.param("verify-deloc", [], _TINY_SBM_CAMPAIGN, id="verify-deloc-sbm"),
])
def test_traced_campaign_span_holds_every_trial(tmp_path, monkeypatch, capsys, command, extra, payload, threads):
    # the CLI must reach each campaign through the `verify` attribute the tracer wraps;
    # a reference captured at import would leave the traced run without a campaign span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer_mod = importlib.import_module("tracer")
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps(payload))

    tracer = tracer_mod.Tracer()
    layers.install(tracer)
    # SPANS lists no Stieltjes campaign; wrap it the way the listed campaigns are wrapped
    tracer.patch(verify, "verify_stieltjes_closeness", "verify.self_s", (speclaw, *MODULES.values()))
    try:
        assert cli.main([command, "--config", str(config), "--threads", str(threads), *extra]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    spans = tracer.spans
    (campaign,) = [i for i, s in enumerate(spans) if s.name == "verify.self_s"]
    trial_spans = [s for s in spans if s.name in layers.TRIAL_SPANS]
    assert trial_spans
    for span in trial_spans:  # a trial span nested in another hangs below the campaign through it
        while spans[span.parent].name in layers.TRIAL_SPANS:
            span = spans[span.parent]
        assert span.parent == campaign, (span.name, spans[span.parent].name)
    if payload is _TINY_SBM_CAMPAIGN:  # each trial's centering is a normalize_s span inside its own
        nested = [s for s in spans if s.name == "ensembles.normalize_s" and spans[s.parent].name == s.name]
        assert len(nested) == payload["trials"]
    metrics = layers.per_layer(tracer)
    assert metrics["verify.trials"] == payload["trials"]
    assert metrics["ensembles.sample_s"] > 0  # the raw draw is a span of its own inside each trial
