"""Property tests: the set-associative LRU cache against a reference model."""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import AccessResult, CacheHierarchy, SetAssocCache
from repro.machine.config import CacheLevelSpec, MachineSpec


class RefCache:
    """Reference model: per-set OrderedDict LRU."""

    def __init__(self, n_sets: int, ways: int):
        self.n_sets = n_sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def access(self, line: int) -> bool:
        s = self.sets[line % self.n_sets]
        tag = line // self.n_sets
        if tag in s:
            s.move_to_end(tag)
            return True
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[tag] = True
        return False


def make_pair(sets: int, ways: int):
    spec = CacheLevelSpec(sets * ways * 64, ways, 4)
    return SetAssocCache(spec), RefCache(sets, ways)


@settings(max_examples=200, deadline=None)
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300),
    geometry=st.sampled_from([(1, 2), (2, 2), (4, 4), (8, 1), (2, 8)]),
)
def test_hit_miss_sequence_matches_reference(addrs, geometry):
    sets, ways = geometry
    cache, ref = make_pair(sets, ways)
    for a in addrs:
        assert cache.access(a) == ref.access(a), f"divergence at line {a}"


@settings(max_examples=100, deadline=None)
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200)
)
def test_contains_agrees_with_reference(addrs):
    cache, ref = make_pair(4, 2)
    for a in addrs:
        cache.access(a)
        ref.access(a)
    for line in range(64):
        assert cache.contains(line) == (line // 4 in ref.sets[line % 4])


@settings(max_examples=100, deadline=None)
@given(addrs=st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
def test_stats_sum_to_accesses(addrs):
    cache, _ = make_pair(4, 4)
    cache.access_lines(np.asarray(addrs, dtype=np.int64))
    assert cache.hits + cache.misses == len(addrs)


@settings(max_examples=50, deadline=None)
@given(addrs=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=100))
def test_hierarchy_miss_monotonicity(addrs):
    """L1 misses >= L2 misses >= LLC misses, always."""
    h = CacheHierarchy(MachineSpec())
    res = h.access_lines(np.asarray(addrs, dtype=np.int64))
    assert res.accesses >= res.l1_misses >= res.l2_misses >= res.llc_misses >= 0


@settings(max_examples=50, deadline=None)
@given(addrs=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60))
def test_second_pass_of_small_set_all_hits(addrs):
    """A working set smaller than the cache never misses on re-access."""
    cache, _ = make_pair(8, 8)  # 64 lines capacity, addrs <= 31 distinct
    cache.access_lines(np.asarray(addrs, dtype=np.int64))
    cache.reset_stats()
    cache.access_lines(np.asarray(addrs, dtype=np.int64))
    assert cache.misses == 0


# -- the whole hierarchy against three reference levels ---------------------

#: (sets, ways) per level, with 1-set and 1-way geometries among them.
LEVEL_GEOMETRY = st.sampled_from([(1, 1), (1, 4), (4, 1), (2, 2), (4, 2), (8, 4)])


def ref_level(level: CacheLevelSpec) -> RefCache:
    return RefCache(level.size_bytes // 64 // level.ways, level.ways)


class RefHierarchy:
    """L1 -> L2 -> LLC over three RefCaches, each address stopping at the
    first level that hits; counts per-level hits and misses."""

    def __init__(self, spec: MachineSpec, llc: RefCache | None = None):
        self.spec = spec
        self.levels = [
            ref_level(spec.l1),
            ref_level(spec.l2),
            llc if llc is not None else ref_level(spec.llc),
        ]
        self.hits = [0, 0, 0]
        self.misses = [0, 0, 0]

    def access_lines(self, addrs):
        """Return (l1_misses, l2_misses, llc_misses, penalty_cycles)."""
        misses = [0, 0, 0]
        latency = [
            self.spec.l2.latency_cycles,
            self.spec.llc.latency_cycles,
            self.spec.dram_latency_cycles,
        ]
        penalty = 0
        for a in addrs:
            for level, ref in enumerate(self.levels):
                if ref.access(a):
                    self.hits[level] += 1
                    if level:
                        penalty += latency[level - 1]
                    break
                self.misses[level] += 1
                misses[level] += 1
            else:
                penalty += latency[2]
        return (*misses, penalty)


def small_spec(l1, l2, llc) -> MachineSpec:
    def level(geometry, latency):
        sets, ways = geometry
        return CacheLevelSpec(sets * ways * 64, ways, latency)

    return MachineSpec(l1=level(l1, 4), l2=level(l2, 12), llc=level(llc, 42))


def assert_level_matches(cache: SetAssocCache, ref: RefCache, hits: int, misses: int):
    """Stats, residency of every line 0..63, and occupancy agree."""
    assert (cache.hits, cache.misses) == (hits, misses)
    for line in range(64):
        assert cache.contains(line) == (line // ref.n_sets in ref.sets[line % ref.n_sets])
    resident = sum(len(s) for s in ref.sets)
    assert cache.occupancy == resident / (ref.n_sets * ref.ways)


@settings(max_examples=150, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(min_value=0, max_value=63), max_size=40),
        min_size=1, max_size=6,
    ),
    l1=LEVEL_GEOMETRY, l2=LEVEL_GEOMETRY, llc=LEVEL_GEOMETRY,
)
def test_hierarchy_matches_reference(batches, l1, l2, llc):
    """Every AccessResult field and every level's stats, contents and
    occupancy agree with three reference levels, batch after batch; after
    a flush the hierarchy is empty and replays the stream like a new one."""
    spec = small_spec(l1, l2, llc)
    h, ref = CacheHierarchy(spec), RefHierarchy(spec)
    levels = (h.l1, h.l2, h.llc)
    for batch in batches:
        res = h.access_lines(np.asarray(batch, dtype=np.int64))
        assert res == AccessResult(len(batch), *ref.access_lines(batch))
        for level, (cache, r) in enumerate(zip(levels, ref.levels)):
            assert_level_matches(cache, r, ref.hits[level], ref.misses[level])

    h.flush()
    for cache in levels:
        assert (cache.hits, cache.misses, cache.occupancy) == (0, 0, 0.0)
        assert not any(cache.contains(line) for line in range(64))
    fresh = RefHierarchy(spec)
    for batch in batches:
        res = h.access_lines(np.asarray(batch, dtype=np.int64))
        assert res == AccessResult(len(batch), *fresh.access_lines(batch))


@settings(max_examples=100, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.lists(st.integers(min_value=0, max_value=63), max_size=30),
        ),
        min_size=1, max_size=10,
    ),
    l1=LEVEL_GEOMETRY, l2=LEVEL_GEOMETRY, llc=LEVEL_GEOMETRY,
)
def test_two_hierarchies_sharing_one_llc(calls, l1, l2, llc):
    """Two cores' private levels in front of one LLC, calls interleaved:
    each result, each private level and the shared LLC match a reference
    whose two hierarchies share one reference LLC."""
    spec = small_spec(l1, l2, llc)
    shared = SetAssocCache(spec.llc)
    hs = [CacheHierarchy(spec, llc=shared) for _ in range(2)]
    ref_llc = RefCache(shared.n_sets, shared.ways)
    refs = [RefHierarchy(spec, llc=ref_llc) for _ in range(2)]
    for core, batch in calls:
        res = hs[core].access_lines(np.asarray(batch, dtype=np.int64))
        assert res == AccessResult(len(batch), *refs[core].access_lines(batch))
    for h, ref in zip(hs, refs):
        for level, (cache, r) in enumerate(zip((h.l1, h.l2), ref.levels)):
            assert_level_matches(cache, r, ref.hits[level], ref.misses[level])
    assert_level_matches(
        shared, ref_llc,
        refs[0].hits[2] + refs[1].hits[2], refs[0].misses[2] + refs[1].misses[2],
    )
