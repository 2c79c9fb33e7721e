"""pmap: independent tasks on one thread per core, with a loop's results and errors."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from nulldust import gowdy, pool
from nulldust.grids import Grid1D
from nulldust.pool import pmap
from nulldust.ricci4 import spacetime_ricci


def test_results_in_input_order():
    # later items finish first, so completion order is not input order
    def slow_then_fast(x):
        time.sleep(0.02 * (5 - x))
        return x * x

    assert pmap(slow_then_fast, range(6)) == [0, 1, 4, 9, 16, 25]
    assert pmap(slow_then_fast, []) == []


def test_each_item_runs_once_with_more_threads_than_cores(monkeypatch):
    # eight workers on a 0.1 ms switch interval: a lost update on the shared
    # item counter would run an item twice or not at all
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    runs = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        out = pmap(lambda x: runs.append(x) or -x, range(2000))
    finally:
        sys.setswitchinterval(old)
    assert sorted(runs) == list(range(2000))
    assert out == [-x for x in range(2000)]


def test_earliest_failing_item_propagates():
    def fail_some(x):
        if x == 1:
            time.sleep(0.1)  # fails after item 3 has failed
            raise ValueError("item 1")
        if x == 3:
            raise KeyError("item 3")
        return x

    with pytest.raises(ValueError, match="item 1"):
        pmap(fail_some, range(5))
    assert not pool._in_task.active  # a later pmap on this thread is not taken for a nested call


def test_one_core_runs_inline(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert pool.workers() == 1
    caller = threading.get_ident()
    assert pmap(lambda x: threading.get_ident(), range(4)) == [caller] * 4


def test_first_item_runs_on_the_calling_thread():
    caller = threading.get_ident()
    assert pmap(lambda x: threading.get_ident(), range(4))[0] == caller


def test_call_from_a_task_runs_inline():
    def outer(x):
        me = threading.get_ident()
        assert pmap(lambda y: threading.get_ident(), range(3)) == [me] * 3
        return pmap(lambda y: x * 10 + y, range(3))

    assert pmap(outer, range(4)) == [[10 * x + y for y in range(3)] for x in range(4)]


def test_vacuum_residual_scan_matches_a_loop():
    sizes = [64, 96, 128, 192]
    oracle = []
    for m in sizes:
        tg, thg = Grid1D(0.0, 1.0, m + 1), Grid1D(0.0, 2.0 * np.pi, m)
        oracle.append(float(np.abs(spacetime_ricci(gowdy.family_metric(4, 1.0, tg, thg)).ricci).max()))
    assert gowdy.vacuum_residual_scan(4, 1.0, sizes).residuals == oracle


def test_vacuum_residual_scan_raises_the_first_bad_member():
    # 32 and 48 both under-resolve n = 4; a loop stops at 48, the first of them
    with pytest.raises(ValueError, match="12.0 nodes per oscillation"):
        gowdy.vacuum_residual_scan(4, 1.0, [64, 48, 96, 32])
