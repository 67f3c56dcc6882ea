"""Digest merging: exact histogram folds and the parallel fold-back.

The contract under test is the one ``--jobs N`` sweeps rely on: folding
per-shard histogram digests (:meth:`Histogram.to_dict`) in submission
order must reproduce the single-pass run exactly — bucket counts, every
percentile, and (byte-for-byte) the JSON digest.
"""

import json
import math
import random

import pytest

from repro.obs import Histogram
from repro.parallel import run_tasks


def _samples(seed, n, scale=1000.0):
    rng = random.Random(seed)
    return [rng.expovariate(1.0) * scale for _ in range(n)]


def _hist(samples, name="h"):
    h = Histogram(name)
    for s in samples:
        h.record(s)
    return h


# -- histogram algebra ---------------------------------------------------

def test_merge_equals_single_pass_percentiles():
    a, b = _samples(1, 400), _samples(2, 300)
    merged = _hist(a).merge(_hist(b))
    single = _hist(a + b)
    for p in (0, 25, 50, 90, 95, 99, 99.9, 100):
        assert merged.percentile(p) == single.percentile(p)
    assert merged.count == single.count
    assert merged.minimum == single.minimum
    assert merged.maximum == single.maximum
    assert merged.to_dict()["buckets"] == single.to_dict()["buckets"]
    assert math.isclose(merged.total, single.total, rel_tol=1e-12)


def test_merge_commutes_and_associates():
    a, b, c = (_samples(s, 200) for s in (10, 11, 12))
    ab_c = _hist(a).merge(_hist(b)).merge(_hist(c))
    a_bc = _hist(a).merge(_hist(b).merge(_hist(c)))
    ba = _hist(b).merge(_hist(a))
    ab = _hist(a).merge(_hist(b))
    for lhs, rhs in ((ab_c, a_bc), (ab, ba)):
        assert lhs.to_dict()["buckets"] == rhs.to_dict()["buckets"]
        assert lhs.count == rhs.count
        assert lhs.p999 == rhs.p999


def test_merge_empty_is_identity():
    h = _hist(_samples(3, 150))
    before = h.to_dict()
    h.merge(Histogram("empty"))
    assert h.to_dict() == before
    empty = Histogram("e").merge(_hist(_samples(3, 150)))
    assert empty.to_dict()["buckets"] == before["buckets"]
    assert empty.count == before["count"]


def test_merge_underflow_and_extremes():
    neg = _hist([-5.0, 0.0, 2.0])
    pos = _hist([1.0, 7.0])
    merged = neg.merge(pos)
    single = _hist([-5.0, 0.0, 2.0, 1.0, 7.0])
    assert merged.to_dict() == single.to_dict()
    assert merged.percentile(0) == -5.0
    assert merged.percentile(100) == 7.0


def test_merge_rebuilt_digest_and_checks_growth():
    h = _hist(_samples(4, 100))
    other = _hist(_samples(5, 100))
    via_dict = _hist(_samples(4, 100)).merge(Histogram.from_dict(other.to_dict()))
    via_inst = _hist(_samples(4, 100)).merge(other)
    assert via_dict.to_dict() == via_inst.to_dict()
    with pytest.raises(ValueError):
        h.merge(Histogram("coarse", growth=1.5))


def test_histogram_round_trip_is_lossless():
    h = _hist(_samples(6, 250))
    clone = Histogram.from_dict(h.to_dict(), "clone")
    assert clone.to_dict() == h.to_dict()
    assert clone.p50 == h.p50 and clone.p999 == h.p999


def test_as_dict_carries_total_and_underflow():
    h = _hist([1.0, 2.0, -1.0])
    snap = h.as_dict()
    assert snap["total"] == 2.0
    assert snap["underflow"] == 1
    assert snap["count"] == 3


# -- jobs-vs-serial byte identity ---------------------------------------

def _shard_digest(seed):
    """Worker for the pool: one shard histogram's digest (module-level so
    it pickles)."""
    return _hist(_samples(seed, 120), "lat_ns").to_dict()


def _fold(digests):
    fleet = Histogram("lat_ns")
    for digest in digests:
        fleet.merge(Histogram.from_dict(digest, "lat_ns"))
    return json.dumps(fleet.to_dict(), sort_keys=True)


def test_jobs_fold_is_byte_identical_to_serial():
    seeds = [11, 12, 13, 14]
    serial = _fold(run_tasks(_shard_digest, seeds, jobs=1))
    parallel = _fold(run_tasks(_shard_digest, seeds, jobs=2))
    assert serial == parallel
    assert json.loads(serial)["count"] == 4 * 120
