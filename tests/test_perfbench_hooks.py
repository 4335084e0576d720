"""The benchmark's traced run patches speclaw names; each must exist and come back intact.

Reads perfbench/layers.py and perfbench/tracer.py, the traced run's list of
wrapped functions and its patcher, without running any workload.
"""

import importlib
from pathlib import Path

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
