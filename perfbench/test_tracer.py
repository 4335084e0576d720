"""Span arithmetic of the benchmark tracer, on synthetic spans.

    python3 -m pytest perfbench/test_tracer.py
"""

import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Span, Tracer, overlap_excess, self_times, union_length  # noqa: E402


def test_union_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([(-1, 4), (3, 12)], 0, 10) == 10
    assert union_length([]) == 0


def test_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("child", 1.0, 6.0, 0, 1),
        Span("grandchild", 2.0, 5.0, 1, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0]
    assert sum(self_times(spans)) == 10.0
    assert overlap_excess(spans) == 0.0


def test_overlapping_children_from_two_threads_subtract_their_union():
    # campaign span on the main thread; trials on threads 2 and 3 overlap in [3, 6]
    spans = [
        Span("campaign", 0.0, 10.0, None, 1),
        Span("trial", 1.0, 6.0, 0, 2),
        Span("trial", 3.0, 9.0, 0, 3),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(2.0)  # 10 - |[1, 9]|; a plain sum would give -1
    assert overlap_excess(spans) == pytest.approx(3.0)
    assert sum(selfs) - overlap_excess(spans) == pytest.approx(10.0)


def test_child_outliving_first_sibling_and_parent():
    # B starts inside A and ends after it; C starts inside B; D runs past the parent's end
    spans = [
        Span("parent", 0.0, 10.0, None, 1),
        Span("A", 1.0, 4.0, 0, 2),
        Span("B", 3.0, 7.0, 0, 3),
        Span("C", 6.0, 8.0, 0, 2),
        Span("D", 9.0, 12.0, 0, 3),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 1.0)  # union [1, 8] and [9, 10]
    assert selfs[1:] == [3.0, 4.0, 2.0, 3.0]
    assert sum(selfs) - overlap_excess(spans) == pytest.approx(10.0 + 2.0)  # D's 2 s beyond the parent


def test_pool_thread_spans_take_the_campaign_as_parent():
    tracer = Tracer()

    def trial():
        idx = tracer.open("trial")
        time.sleep(0.02)
        tracer.close(idx)

    root = tracer.open("campaign")
    workers = [threading.Thread(target=trial) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=5)
        assert not w.is_alive()
    tracer.close(root)
    spans = tracer.spans
    assert [s.parent for s in spans] == [None, 0, 0]
    assert len({s.thread for s in spans}) == 3
    selfs = self_times(spans)
    assert selfs[0] < spans[0].end - spans[0].start - 0.019
    assert sum(selfs) - overlap_excess(spans) == pytest.approx(spans[0].end - spans[0].start)


def test_patch_wraps_every_binding_and_uninstall_restores():
    import types

    def f(x):
        return x + 1

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    home.f = user.f = f
    tracer = Tracer()
    seen = []
    tracer.patch(home, "f", "layer.f_s", (user,), on_call=lambda tr, a, k: seen.append(a[0]))
    assert home.f(1) == 2 and user.f(2) == 3
    assert [s.name for s in tracer.spans] == ["layer.f_s", "layer.f_s"]
    assert seen == [1, 2]
    tracer.uninstall()
    assert home.f is f and user.f is f
