"""Ticker relation graph built from return correlations and co-movement rules.

Two evidence sources feed one weighted undirected graph: pairwise return
correlation above a threshold, and mined co-movement rules whose lift clears
a strict threshold. The graph is then degree-normalized (with self-loops)
into the propagation operator used by graph convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyDatabaseError,
    PanelTooShortError,
    UnknownTickerError,
    ZeroVarianceError,
)
from .market_data import DateRange, ReturnPanel

UP = "UP"
DOWN = "DOWN"

# item: (ticker, direction) pair, e.g. ("AAPL", "UP")
Item = tuple[str, str]


@dataclass(eq=False)
class CorrMatrix:
    tickers: list[str]
    rho: np.ndarray  # (N, N), symmetric, unit diagonal


@dataclass(eq=False)
class TransactionDB:
    """One item set per trading day; a ticker contributes (ticker, UP) when its
    return exceeds move_threshold, (ticker, DOWN) below -move_threshold, else nothing."""

    transactions: list[frozenset[Item]]
    move_threshold: float


@dataclass(frozen=True, slots=True)
class Rule:
    antecedent: frozenset[Item]
    consequent: frozenset[Item]
    support: float
    confidence: float
    lift: float


@dataclass(eq=False)
class RuleSet:
    rules: list[Rule]
    min_support: float
    min_confidence: float
    min_lift: float


@dataclass(frozen=True, slots=True)
class GraphEdge:
    weight: float
    sources: frozenset[str]  # subset of {"corr", "assoc"}


@dataclass(eq=False)
class StockGraph:
    tickers: list[str]
    edges: dict[tuple[str, str], GraphEdge]  # keys are lexicographically ordered pairs
    rules: RuleSet  # the mined rules behind the assoc edges


@dataclass(eq=False)
class NormAdj:
    """Degree-normalized adjacency with self-loops: D^-1/2 (W + I) D^-1/2."""

    tickers: list[str]
    a_hat: np.ndarray  # (N, N)


@dataclass(frozen=True, slots=True)
class GraphConfig:
    corr_threshold: float = 0.7
    min_support: float = 0.30
    min_confidence: float = 0.60
    min_lift: float = 1.7
    move_threshold: float = 0.001
    lift_cap: float = 3.0


def pearson_matrix(returns: ReturnPanel, date_range: DateRange | None = None) -> CorrMatrix:
    """Pairwise correlation of daily returns over the given range.

    rho[i, j] = sum((r_i - mean_i)(r_j - mean_j)) / (||r_i - mean_i|| ||r_j - mean_j||).
    """
    if date_range is None:
        block = returns.returns
    else:
        lo, hi = returns.range_indices(date_range)
        block = returns.returns[lo:hi]
    if block.shape[0] < 3:
        raise PanelTooShortError(f"need >= 3 return days, got {block.shape[0]}")

    centered = block - block.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    flat = np.flatnonzero(norms == 0.0)
    if flat.size:
        names = [returns.tickers[i] for i in flat]
        raise ZeroVarianceError(f"constant returns over range: {names}")

    rho = (centered.T @ centered) / np.outer(norms, norms)
    np.clip(rho, -1.0, 1.0, out=rho)
    np.fill_diagonal(rho, 1.0)
    return CorrMatrix(tickers=list(returns.tickers), rho=rho)


def correlation_edges(corr: CorrMatrix, tau: float = 0.7) -> dict[tuple[str, str], float]:
    """Ticker pairs with |rho| strictly above tau, weighted by |rho|."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    edges: dict[tuple[str, str], float] = {}
    n = len(corr.tickers)
    for i in range(n):
        for j in range(i + 1, n):
            strength = abs(corr.rho[i, j])
            if strength > tau:
                edges[(corr.tickers[i], corr.tickers[j])] = float(strength)
    return edges


def co_movement_transactions(
    returns: ReturnPanel,
    date_range: DateRange | None = None,
    move_threshold: float = 0.001,
) -> TransactionDB:
    """One transaction per day: signed direction items for tickers that moved
    more than move_threshold in magnitude."""
    if move_threshold < 0:
        raise ValueError(f"move_threshold must be >= 0, got {move_threshold}")
    if date_range is None:
        lo, hi = 0, returns.returns.shape[0]
    else:
        lo, hi = returns.range_indices(date_range)
    transactions: list[frozenset[Item]] = []
    for t in range(lo, hi):
        items: set[Item] = set()
        for j, ticker in enumerate(returns.tickers):
            r = returns.returns[t, j]
            if r > move_threshold:
                items.add((ticker, UP))
            elif r < -move_threshold:
                items.add((ticker, DOWN))
        transactions.append(frozenset(items))
    return TransactionDB(transactions=transactions, move_threshold=move_threshold)


def apriori_frequent(
    txdb: TransactionDB, min_support: float
) -> dict[frozenset[Item], float]:
    """All itemsets with support >= min_support, by level-wise search.

    Candidates of size k+1 are joined from frequent k-itemsets and pruned
    unless every k-subset is itself frequent, so no support is ever counted
    for a set that anti-monotonicity already rules out.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError(f"min_support must be in (0, 1], got {min_support}")
    transactions = txdb.transactions
    if not transactions:
        raise EmptyDatabaseError("no transactions to mine")
    n = len(transactions)

    def count(candidates: Iterable[frozenset[Item]]) -> dict[frozenset[Item], float]:
        kept: dict[frozenset[Item], float] = {}
        for cand in candidates:
            hits = sum(1 for tx in transactions if cand <= tx)
            support = hits / n
            if support >= min_support:
                kept[cand] = support
        return kept

    items = sorted({item for tx in transactions for item in tx})
    level = count(frozenset([item]) for item in items)
    frequent = dict(level)

    while level:
        prev = sorted(level, key=lambda s: tuple(sorted(s)))
        as_tuples = [tuple(sorted(s)) for s in prev]
        candidates: list[frozenset[Item]] = []
        for a in range(len(as_tuples)):
            for b in range(a + 1, len(as_tuples)):
                # classic join: equal prefix, differing last element
                if as_tuples[a][:-1] != as_tuples[b][:-1]:
                    continue
                joined = frozenset(as_tuples[a]) | frozenset({as_tuples[b][-1]})
                if all(joined - {item} in level for item in joined):
                    candidates.append(joined)
        level = count(candidates)
        frequent.update(level)
    return frequent


def mine_rules(
    frequents: Mapping[frozenset[Item], float],
    min_confidence: float = 0.60,
    min_lift: float = 1.7,
    min_support: float = 0.0,
) -> RuleSet:
    """Split every frequent itemset into antecedent -> consequent rules.

    A rule is kept when confidence >= min_confidence and lift is strictly
    above min_lift; lift == min_lift is rejected.
    """
    rules: list[Rule] = []
    for itemset, support in frequents.items():
        if len(itemset) < 2:
            continue
        members = sorted(itemset)
        for k in range(1, len(members)):
            for antecedent_items in combinations(members, k):
                antecedent = frozenset(antecedent_items)
                consequent = itemset - antecedent
                supp_a = frequents[antecedent]
                supp_b = frequents[consequent]
                confidence = support / supp_a
                lift = confidence / supp_b
                if confidence >= min_confidence and lift > min_lift:
                    rules.append(Rule(antecedent, consequent, support, confidence, lift))

    rules.sort(
        key=lambda r: (-r.lift, -r.confidence, -r.support,
                       tuple(sorted(r.antecedent)), tuple(sorted(r.consequent)))
    )
    return RuleSet(
        rules=rules,
        min_support=min_support,
        min_confidence=min_confidence,
        min_lift=min_lift,
    )


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def assemble_graph(
    corr_edges: Mapping[tuple[str, str], float],
    rules: RuleSet,
    tickers: Sequence[str],
    lift_cap: float = 3.0,
) -> StockGraph:
    """Merge correlation and rule evidence into one weighted undirected graph.

    Rule edges connect every cross pair of antecedent and consequent tickers
    at weight min(1, lift / lift_cap); when both sources propose a pair the
    weights merge by maximum and the provenance flags union.
    """
    known = set(tickers)
    edges: dict[tuple[str, str], GraphEdge] = {}

    def put(a: str, b: str, weight: float, source: str) -> None:
        if a not in known or b not in known:
            raise UnknownTickerError(f"edge ({a}, {b}) references unknown ticker")
        if a == b:
            return  # self-edges are forbidden
        key = _pair_key(a, b)
        old = edges.get(key)
        if old is None:
            edges[key] = GraphEdge(weight, frozenset({source}))
        else:
            edges[key] = GraphEdge(max(old.weight, weight), old.sources | {source})

    for (a, b), strength in corr_edges.items():
        put(a, b, strength, "corr")

    for rule in rules.rules:
        weight = min(1.0, rule.lift / lift_cap)
        for item_a in rule.antecedent:
            for item_b in rule.consequent:
                put(item_a[0], item_b[0], weight, "assoc")

    return StockGraph(tickers=list(tickers), edges=edges, rules=rules)


def normalized_adjacency(graph: StockGraph) -> NormAdj:
    """Self-looped, symmetrically degree-normalized adjacency D^-1/2 (W+I) D^-1/2."""
    n = len(graph.tickers)
    index = {t: i for i, t in enumerate(graph.tickers)}
    a = np.eye(n)
    for (u, v), edge in graph.edges.items():
        a[index[u], index[v]] = edge.weight
        a[index[v], index[u]] = edge.weight
    degree = a.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degree)
    a_hat = a * np.outer(inv_sqrt, inv_sqrt)
    return NormAdj(tickers=list(graph.tickers), a_hat=a_hat)


def build_graph(
    returns: ReturnPanel,
    config: GraphConfig = GraphConfig(),
    date_range: DateRange | None = None,
) -> StockGraph:
    """Full pipeline: correlations + mined rules over one date range."""
    corr = pearson_matrix(returns, date_range)
    corr_e = correlation_edges(corr, config.corr_threshold)
    txdb = co_movement_transactions(returns, date_range, config.move_threshold)
    frequents = apriori_frequent(txdb, config.min_support)
    rules = mine_rules(
        frequents, config.min_confidence, config.min_lift, min_support=config.min_support
    )
    return assemble_graph(corr_e, rules, returns.tickers, config.lift_cap)


def edge_records(graph: StockGraph) -> list[tuple[str, str, float, str]]:
    """Sorted (ticker_a, ticker_b, weight, provenance) rows; provenance is
    corr, assoc, or both."""
    rows = []
    for (a, b), edge in sorted(graph.edges.items()):
        provenance = "both" if len(edge.sources) == 2 else next(iter(edge.sources))
        rows.append((a, b, edge.weight, provenance))
    return rows
