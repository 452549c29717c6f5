"""Property-based losslessness: random graphs from mixed generators must
always decode back exactly, for SLUGGER (pruned & unpruned, height-
bounded) and for the flat encoder under arbitrary partitions. SLUGGER's
summary must not depend on the order or orientation of the input rows,
and its neighbour queries (Algorithm 4) must give the input adjacency."""
import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pruning import prune
from repro.core.slugger import slugger
from repro.graphs import generators as gen
from repro.graphs.ops import adjacency_dict
from repro.model.cost import cost
from repro.model.decode import assert_lossless_pd
from repro.model.neighbors import NeighborIndex
from tests.test_slugger import digest

SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_graph(kind: int, n: int, seed: int) -> pd.DataFrame:
    if kind == 0:
        return gen.er(n, 4.0, seed=seed)
    if kind == 1:
        return gen.chung_lu(n, 5.0, seed=seed)
    if kind == 2:
        return gen.nested_partition(n, levels=2, branching=3, p_top=0.06, ratio=7, seed=seed)
    if kind == 3:
        return gen.caveman_cliques(n, clique_size=6, p_rewire=0.15, seed=seed)
    return gen.hub_spokes(n, n_hubs=max(2, n // 12), seed=seed)


@given(kind=st.integers(0, 4), n=st.integers(20, 70), seed=st.integers(0, 10**6),
       T=st.integers(1, 5))
@settings(**SETTINGS)
def test_slugger_always_lossless(kind, n, seed, T):
    edges = random_graph(kind, n, seed)
    res = slugger(edges, n, T=T, seed=seed % 97, engine="local")
    assert_lossless_pd(res.summary, edges)
    res.summary.validate()


@given(kind=st.integers(0, 4), n=st.integers(20, 60), seed=st.integers(0, 10**6))
@settings(**SETTINGS)
def test_unpruned_then_pruned_lossless_and_no_worse(kind, n, seed):
    edges = random_graph(kind, n, seed)
    res = slugger(edges, n, T=3, seed=seed % 97, engine="local", do_prune=False)
    assert_lossless_pd(res.summary, edges)
    pruned = prune(res.summary, edges)
    assert_lossless_pd(pruned, edges)
    assert cost(pruned) <= cost(res.summary)


@given(kind=st.integers(0, 4), n=st.integers(20, 60), seed=st.integers(0, 10**6),
       hb=st.integers(1, 4))
@settings(**SETTINGS)
def test_height_bounded_lossless(kind, n, seed, hb):
    edges = random_graph(kind, n, seed)
    res = slugger(edges, n, T=3, seed=seed % 97, hb=hb, engine="local")
    assert_lossless_pd(res.summary, edges)


@given(kind=st.integers(0, 4), n=st.integers(20, 60), seed=st.integers(0, 10**6),
       T=st.integers(1, 5), hb=st.sampled_from([0, 2]))
@settings(**SETTINGS)
def test_slugger_ignores_input_order(kind, n, seed, T, hb):
    # round 2 reads the input rows when round 1 is skipped, not round 1's
    # output: the summary must not depend on their order or orientation
    edges = random_graph(kind, n, seed)
    rng = np.random.default_rng(seed)
    shuffled = edges.iloc[rng.permutation(len(edges))].reset_index(drop=True)
    flip = rng.random(len(shuffled)) < 0.5
    src, dst = shuffled["src"].to_numpy(), shuffled["dst"].to_numpy()
    shuffled = pd.DataFrame({"src": np.where(flip, dst, src), "dst": np.where(flip, src, dst)})
    want = slugger(edges, n, T=T, seed=seed % 97, hb=hb, engine="local").summary
    got = slugger(shuffled, n, T=T, seed=seed % 97, hb=hb, engine="local").summary
    assert digest(got) == digest(want)


@given(kind=st.integers(0, 4), n=st.integers(20, 60), seed=st.integers(0, 10**6),
       T=st.integers(1, 5), do_prune=st.booleans())
@settings(**SETTINGS)
def test_neighbors_equal_input_adjacency(kind, n, seed, T, do_prune):
    edges = random_graph(kind, n, seed)
    res = slugger(edges, n, T=T, seed=seed % 97, engine="local", do_prune=do_prune)
    idx = NeighborIndex(res.summary)
    adj = adjacency_dict(edges)
    for v in range(n):
        assert idx.neighbors(v) == sorted(adj.get(v, ())), v
