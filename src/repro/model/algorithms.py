"""Graph algorithms running directly on a hierarchical summary via
partial decompression (Sect. VIII-C: Algorithms 5 & 6) plus a Spark
PageRank over an edge DataFrame used as the ground-truth comparator.
"""
from __future__ import annotations

import heapq
from collections import deque

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .neighbors import NeighborIndex


def bfs(idx: NeighborIndex, source: int) -> dict[int, int]:
    """BFS distances from ``source`` over the summary (Alg. 5 analogue)."""
    dist = {source: 0}
    dq = deque([source])
    while dq:
        v = dq.popleft()
        for u in idx.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                dq.append(u)
    return dist


def dijkstra_unit(idx: NeighborIndex, source: int) -> dict[int, int]:
    """Dijkstra with unit weights (equals BFS; exercises the PQ path)."""
    dist = {source: 0}
    pq = [(0, source)]
    while pq:
        d, v = heapq.heappop(pq)
        if d > dist.get(v, np.inf):
            continue
        for u in idx.neighbors(v):
            nd = d + 1
            if nd < dist.get(u, np.inf):
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return dist


def pagerank_on_summary(
    idx: NeighborIndex, *, d: float = 0.85, iters: int = 20
) -> np.ndarray:
    """Undirected PageRank via neighbor retrieval (Alg. 6)."""
    n = idx.summary.n_sub
    r = np.full(n, 1.0 / n)
    neigh = [idx.neighbors(v) for v in range(n)]
    deg = np.array([len(x) for x in neigh], dtype=np.float64)
    for _ in range(iters):
        new = np.zeros(n)
        for u in range(n):
            if deg[u]:
                share = r[u] / deg[u]
                for w in neigh[u]:
                    new[w] += share
        new = d * new
        new += (1.0 - new.sum()) / n
        r = new
    return r


def triangle_count(idx: NeighborIndex) -> int:
    """Exact triangle count via adjacency-set intersections."""
    n = idx.summary.n_sub
    adj = [set(idx.neighbors(v)) for v in range(n)]
    total = 0
    for v in range(n):
        for u in adj[v]:
            if u > v:
                total += sum(1 for w in adj[v] & adj[u] if w > u)
    return total


def pagerank_spark(
    spark: SparkSession, edges: DataFrame, n: int, *, d: float = 0.85, iters: int = 20
) -> np.ndarray:
    """Ground-truth PageRank over the raw edge DataFrame (Spark joins). Per
    iteration, one job joins the broadcast ranks to the edges and sums each
    node's incoming shares; the teleport term and the total are added in
    numpy, as in :func:`pagerank_on_summary`."""
    sym = edges.select(F.col("src").alias("u"), F.col("dst").alias("v")).unionByName(
        edges.select(F.col("dst").alias("u"), F.col("src").alias("v"))
    )
    # every directed edge with its source's degree, computed once
    out = sym.join(sym.groupBy("u").agg(F.count("*").alias("deg")), "u").localCheckpoint()
    u = np.arange(n, dtype=np.int64)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        # built from pandas, the ranks start no job and carry no lineage
        ranks = spark.createDataFrame(pd.DataFrame({"u": u, "r": r}), schema="u long, r double")
        mass = (
            out.join(F.broadcast(ranks), "u")
            .groupBy("v")
            .agg(F.sum(F.col("r") / F.col("deg")).alias("mass"))
            .toPandas()
        )
        r = np.zeros(n)
        r[mass["v"].to_numpy()] = d * mass["mass"].to_numpy()
        r += (1.0 - r.sum()) / n
    return r
