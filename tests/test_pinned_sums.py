"""Tier-1 replay of the pinned series sums (``pinned_sums.py``): every case
must give the result its pin was made from."""

from __future__ import annotations

import time

from pinned_sums import cases, digest, read_pins, result_text


def test_every_pinned_sum_is_replayed():
    pins = read_pins()
    start = time.perf_counter()
    all_cases = cases()
    differ = [f"{cid}: {desc} -> {text}" for cid, desc, text in
              ((cid, desc, result_text(thunk)) for cid, desc, thunk in all_cases)
              if pins.get(cid) != digest(text)]
    assert time.perf_counter() - start < 3.0
    assert len(all_cases) == len(pins) >= 3000
    assert not differ, f"{len(differ)} cases differ, first: {differ[:5]}"
