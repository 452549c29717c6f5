"""Shingle and candidate-set tests."""
import numpy as np
import pandas as pd
import pytest

from repro.core import candidates
from repro.core.hashing import P31, hash_params, node_hash_np, shingles_np
from repro.graphs import generators as gen


class TestHash:
    def test_params_deterministic(self):
        assert hash_params(3, 5) == hash_params(3, 5)

    def test_params_vary_with_iteration(self):
        assert hash_params(3, 5) != hash_params(3, 6)

    def test_node_hash_range(self):
        h = node_hash_np(100, *hash_params(0, 1))
        assert (h >= 0).all() and (h < P31).all()
        assert len(set(h.tolist())) == 100  # injective at this size whp


class TestShingles:
    def test_star_spokes_share_shingle(self):
        e = gen.star(10)
        lr = np.arange(10, dtype=np.int64)
        sh = shingles_np(e, lr, seed=0, t=1).set_index("root")["shingle"]
        # every spoke's neighborhood includes the hub -> min over {hub, self}
        hub_h = node_hash_np(10, *hash_params(0, 1))[0]
        assert (sh.loc[1:] <= max(hub_h, sh.loc[1:].max())).all()

    def test_clique_all_equal(self):
        e = gen.clique(8)
        lr = np.arange(8, dtype=np.int64)
        sh = shingles_np(e, lr, seed=0, t=1)
        assert sh["shingle"].nunique() == 1

    def test_root_granularity(self):
        e = gen.clique(6)
        lr = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
        sh = shingles_np(e, lr, seed=0, t=2)
        assert sorted(sh["root"]) == [0, 1]

    def test_isolated_node_gets_own_hash(self):
        e = pd.DataFrame({"src": [0], "dst": [1]})
        lr = np.arange(3, dtype=np.int64)
        sh = shingles_np(e, lr, seed=0, t=1).set_index("root")["shingle"]
        h = node_hash_np(3, *hash_params(0, 1))
        assert sh.loc[2] == h[2]


class TestCandidateSets:
    def test_partition_of_roots(self):
        e = gen.er(80, 5.0, seed=0)
        lr = np.arange(80, dtype=np.int64)
        g = candidates.assign_groups(e, lr, seed=0, t=1)
        assert sorted(g["root"]) == list(range(80))
        assert (g["gid"] >= 0).all()

    def test_max_size_respected(self):
        e = gen.clique(60)  # all shingles equal -> forced random splitting
        lr = np.arange(60, dtype=np.int64)
        g = candidates.assign_groups(e, lr, seed=0, t=1, max_size=10)
        assert g.groupby("gid").size().max() <= 10

    def test_varies_with_iteration(self):
        e = gen.er(100, 6.0, seed=0)
        lr = np.arange(100, dtype=np.int64)
        g1 = candidates.assign_groups(e, lr, seed=0, t=1)
        g2 = candidates.assign_groups(e, lr, seed=0, t=2)
        m1 = dict(zip(g1["root"], g1["gid"]))
        m2 = dict(zip(g2["root"], g2["gid"]))
        same1 = {(a, b) for a in range(100) for b in range(a + 1, 100) if m1[a] == m1[b]}
        same2 = {(a, b) for a in range(100) for b in range(a + 1, 100) if m2[a] == m2[b]}
        assert same1 != same2

    def test_deterministic(self):
        e = gen.er(60, 4.0, seed=1)
        lr = np.arange(60, dtype=np.int64)
        pd.testing.assert_frame_equal(
            candidates.assign_groups(e, lr, seed=2, t=3),
            candidates.assign_groups(e, lr, seed=2, t=3),
        )

    def test_groups_many_spokes_together(self):
        # spokes hashing above the hub share the hub's shingle, so a large
        # candidate set of identical-neighborhood spokes forms (in
        # expectation half of them; later iterations re-roll the hash)
        e = gen.star(20)
        lr = np.arange(20, dtype=np.int64)
        g = candidates.assign_groups(e, lr, seed=0, t=1)
        biggest = g.groupby("gid").size().max()
        assert biggest >= 5

    def test_same_shingle_means_same_group_when_small(self):
        from repro.core.hashing import shingles_np

        e = gen.er(60, 5.0, seed=2)
        lr = np.arange(60, dtype=np.int64)
        sh = shingles_np(e, lr, seed=0, t=1).set_index("root")["shingle"]
        g = candidates.assign_groups(e, lr, seed=0, t=1)
        gids = dict(zip(g["root"], g["gid"]))
        for a in range(60):
            for b in range(a + 1, 60):
                if sh[a] == sh[b]:
                    assert gids[a] == gids[b]


def eager_assign_groups(edges, leaf_root, seed, t, max_size):
    """``assign_groups`` computing every shingle level up front, kept as
    the oracle for the lazy version."""
    sh = [shingles_np(edges, leaf_root, seed + 7919 * lvl, t)
          for lvl in range(candidates.MAX_LEVELS)]
    roots = sh[0]["root"].to_numpy()
    cols = np.stack([s.set_index("root").loc[roots, "shingle"].to_numpy() for s in sh], axis=1)
    rng = np.random.default_rng((seed * 31 + t) & 0x7FFFFFFF)
    gid = np.full(len(roots), -1, dtype=np.int64)
    next_gid = 0
    stack = [(np.arange(len(roots)), 0)]
    while stack:
        idx, lvl = stack.pop()
        if (lvl == 0 or len(idx) > max_size) and lvl < candidates.MAX_LEVELS:
            vals = cols[idx, lvl]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            cuts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
            ends = np.r_[cuts[1:], len(sv)]
            if lvl == 0 or len(cuts) > 1:
                stack.extend((idx[order[s:e]], lvl + 1) for s, e in zip(cuts, ends))
            else:
                stack.append((idx, lvl + 1))
            continue
        if len(idx) > max_size:
            perm = rng.permutation(idx)
            for s in range(0, len(perm), max_size):
                gid[perm[s:s + max_size]] = next_gid
                next_gid += 1
            continue
        gid[idx] = next_gid
        next_gid += 1
    return pd.DataFrame({"root": roots.astype(np.int64), "gid": gid})


class TestLazyLevels:
    @pytest.mark.parametrize("max_size", [2, 3, 8, 500])
    @pytest.mark.parametrize("make", [
        lambda: gen.star(40), lambda: gen.clique(30), lambda: gen.er(120, 6.0, seed=4),
        lambda: gen.caveman_cliques(90, clique_size=6, p_rewire=0.1, seed=2),
    ], ids=["star", "clique", "er", "caveman"])
    def test_equals_eager_levels(self, make, max_size):
        e = make()
        n = int(e[["src", "dst"]].max().max()) + 1
        for lr in (np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64) // 3 * 3):
            for seed, t in ((0, 1), (5, 7)):
                pd.testing.assert_frame_equal(
                    candidates.assign_groups(e, lr, seed=seed, t=t, max_size=max_size),
                    eager_assign_groups(e, lr, seed, t, max_size))

    def test_deeper_levels_only_for_oversized_groups(self, monkeypatch):
        seeds = []

        def counted(edges, leaf_root, seed, t):
            seeds.append(seed)
            return shingles_np(edges, leaf_root, seed, t)
        monkeypatch.setattr(candidates, "shingles_np", counted)
        e = gen.er(80, 5.0, seed=0)
        lr = np.arange(80, dtype=np.int64)
        candidates.assign_groups(e, lr, seed=3, t=1)
        assert seeds == [3]  # no group above max_size: level 0 only
        seeds.clear()
        candidates.assign_groups(gen.clique(30), np.arange(30, dtype=np.int64),
                                 seed=3, t=1, max_size=10)
        assert seeds == [3 + 7919 * lvl for lvl in range(candidates.MAX_LEVELS)]
