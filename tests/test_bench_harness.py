"""The A/B harness of scripts/bench.py: sample statistics, win counts and agreement checks."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench", Path(__file__).resolve().parents[1] / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_summary_of_fixed_samples():
    s = bench.summary([5.0, 1.0, 3.0, 2.0, 4.0], [4.0, 2.0, 3.0, 1.0, 1.5])
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "best": 1.0, "samples": [5.0, 1.0, 3.0, 2.0, 4.0]}
    assert s["change"] == {"median": 2.0, "q1": 1.5, "q3": 3.0, "best": 1.0, "samples": [4.0, 2.0, 3.0, 1.0, 1.5]}
    # the i-th samples pair up as (parent, change): the change wins (5, 4), (2, 1) and (4, 1.5),
    # loses (1, 2), and the tie (3, 3) counts for neither
    assert (s["pairs"], s["change_wins"]) == (5, 3)


def test_summary_of_one_round():
    s = bench.summary([2.0], [1.0])
    assert s["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "best": 2.0, "samples": [2.0]}
    assert (s["pairs"], s["change_wins"]) == (1, 1)


def test_summary_rejects_unpaired_samples():
    with pytest.raises(ValueError):
        bench.summary([1.0, 2.0], [1.0])


def _run(observed, predicted):
    return {"seconds": {}, "equal": {"observed": observed}, "close": {"predicted": predicted}}


def test_agreement_over_both_sides_and_every_round():
    runs = {"parent": [_run([3, 4], [10.0, 20.0])] * 2, "change": [_run([3, 4], [10.0, 20.0 * (1 + 1e-13)])] * 2}
    checks = bench.compare(runs)
    assert checks["observed"] == {"parent": [3, 4], "change": [3, 4], "agree": True}
    assert checks["predicted"]["agree"] and checks["predicted"]["max_rel_diff"] == pytest.approx(1e-13)
    # a later round that disagrees fails its check, as does a predicted count beyond the tolerance
    runs["change"] = [_run([3, 4], [10.0, 20.0]), _run([3, 5], [10.0, 20.0 * (1 + 1e-11)])]
    checks = bench.compare(runs)
    assert not checks["observed"]["agree"] and not checks["predicted"]["agree"]


def test_invariant_values_must_agree_within_each_run_too():
    same = {"seconds": {}, "invariant": {"report": ["a", "a", "a"]}}
    assert bench.compare({"parent": [same], "change": [same]})["report"]["agree"]
    # both sides alike, but one worker count wrote other bytes: the check fails
    varies = {"seconds": {}, "invariant": {"report": ["a", "b", "a"]}}
    assert not bench.compare({"parent": [varies], "change": [varies]})["report"]["agree"]
    assert not bench.compare({"parent": [same], "change": [varies]})["report"]["agree"]
