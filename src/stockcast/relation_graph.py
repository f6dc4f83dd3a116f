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
from .market_data import ReturnPanel

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
    """One row per trading day, one column per item: present[d, k] is True
    when day d's transaction holds items[k]."""

    items: list[Item]
    present: np.ndarray  # (days, len(items)) bool


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


@dataclass(eq=False)
class StockGraph:
    tickers: list[str]
    weight: np.ndarray  # (N, N) in ticker order, symmetric; 0 means no edge, zero diagonal
    source: np.ndarray  # (N, N) int: 1 corr, 2 assoc, 3 both, 0 no edge and on the diagonal
    rules: RuleSet  # the mined rules behind the assoc edges

    @property
    def edges(self) -> list[tuple[str, str, float, str]]:
        """Sorted (ticker_a, ticker_b, weight, corr|assoc|both) rows, ticker_a < ticker_b."""
        labels = ("", "corr", "assoc", "both")  # indexed by source
        return sorted(
            (*sorted((self.tickers[i], self.tickers[j])), float(self.weight[i, j]),
             labels[self.source[i, j]])
            for i, j in zip(*np.nonzero(np.triu(self.source, 1)))
        )


@dataclass(frozen=True, slots=True)
class GraphConfig:
    corr_threshold: float = 0.7
    min_support: float = 0.30
    min_confidence: float = 0.60
    min_lift: float = 1.7
    move_threshold: float = 0.001
    lift_cap: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 < self.corr_threshold < 1.0:
            raise ValueError(f"corr_threshold must be in (0, 1), got {self.corr_threshold}")
        if not 0.0 < self.min_support <= 1.0:
            raise ValueError(f"min_support must be in (0, 1], got {self.min_support}")
        if not 0.0 < self.min_confidence <= 1.0:
            raise ValueError(f"min_confidence must be in (0, 1], got {self.min_confidence}")
        if not self.min_lift > 0.0:
            raise ValueError(f"min_lift must be > 0, got {self.min_lift}")
        if not self.move_threshold >= 0.0:
            raise ValueError(f"move_threshold must be >= 0, got {self.move_threshold}")
        if not self.lift_cap > 0.0:
            raise ValueError(f"lift_cap must be > 0, got {self.lift_cap}")


def pearson_matrix(returns: ReturnPanel) -> CorrMatrix:
    """Pairwise correlation of daily returns.

    rho[i, j] = sum((r_i - mean_i)(r_j - mean_j)) / (||r_i - mean_i|| ||r_j - mean_j||).
    """
    block = returns.returns
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


def correlation_edges(corr: CorrMatrix, tau: float = 0.7) -> np.ndarray:
    """(N, N) weights in corr.tickers order: |rho| where it is strictly above
    tau, else 0; the diagonal is 0. Each pair reads rho above the diagonal."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    upper = np.abs(np.triu(corr.rho, 1))
    upper = np.where(upper > tau, upper, 0.0)
    return upper + upper.T


def co_movement_transactions(returns: ReturnPanel, move_threshold: float = 0.001) -> TransactionDB:
    """One transaction per day: a ticker contributes (ticker, UP) when its
    return exceeds move_threshold, (ticker, DOWN) when it is below its
    negative, else nothing."""
    if move_threshold < 0:
        raise ValueError(f"move_threshold must be >= 0, got {move_threshold}")
    block = returns.returns
    present = np.empty((block.shape[0], 2 * block.shape[1]), dtype=bool)
    np.greater(block, move_threshold, out=present[:, 0::2])
    np.less(block, -move_threshold, out=present[:, 1::2])
    items = [(ticker, move) for ticker in returns.tickers for move in (UP, DOWN)]
    return TransactionDB(items=items, present=present)


def apriori_frequent(
    txdb: TransactionDB, min_support: float
) -> dict[frozenset[Item], float]:
    """All itemsets with support >= min_support, by level-wise search.

    Candidates of size k+1 are joined from frequent k-itemsets and pruned
    unless every k-subset is itself frequent, so no support is ever counted
    for a set that anti-monotonicity already rules out. A candidate's support
    is counted on the AND of its two parents' tidsets (Eclat-style).
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError(f"min_support must be in (0, 1], got {min_support}")
    n = txdb.present.shape[0]
    if n == 0:
        raise EmptyDatabaseError("no transactions to mine")
    frequent: dict[frozenset[Item], float] = {}

    def keep(
        candidates: Iterable[tuple[tuple[Item, ...], np.ndarray]],
    ) -> dict[tuple[Item, ...], np.ndarray]:
        kept: dict[tuple[Item, ...], np.ndarray] = {}
        for key, tids in candidates:
            support = np.count_nonzero(tids) / n
            if support >= min_support:
                kept[key] = tids
                frequent[frozenset(key)] = support
        return kept

    # an itemset's tidset marks the transactions that contain it; keys are
    # sorted item tuples, generated in sorted order at every level
    items = txdb.items
    level = keep(
        ((items[k],), txdb.present[:, k]) for k in sorted(range(len(items)), key=items.__getitem__)
    )
    while level:
        prev, keys = level, list(level)
        level = keep(
            (a + b[-1:], prev[a] & prev[b])
            for i, a in enumerate(keys)
            for b in keys[i + 1:]
            # classic join: equal prefix, differing last element
            if a[:-1] == b[:-1]
            and all(sub in prev for sub in combinations(a + b[-1:], len(a)))
        )
    return frequent


def mine_rules(
    frequents: Mapping[frozenset[Item], float],
    min_confidence: float = 0.60,
    min_lift: float = 1.7,
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
    return RuleSet(rules=rules)


def assemble_graph(
    corr: np.ndarray,
    rules: RuleSet,
    tickers: Sequence[str],
    lift_cap: float = 3.0,
) -> StockGraph:
    """Merge correlation and rule evidence into one weighted undirected graph.

    `corr` is correlation_edges' symmetric (N, N) array in `tickers` order. Rule
    edges connect every cross pair of antecedent and consequent tickers at
    weight min(1, lift / lift_cap). Each source keeps the largest weight it
    proposes for a pair; an edge weighs the larger of its two sources and is
    labeled with every source that proposed it. Self-pairs get no edge.
    """
    n = len(tickers)
    if np.shape(corr) != (n, n):
        raise ValueError(f"correlation weights have shape {np.shape(corr)}, not (N, N), N = {n}")
    index = {t: i for i, t in enumerate(tickers)}

    def ticker_mask(sides: list[frozenset[Item]]) -> np.ndarray:
        """(len(sides), N) bool: the tickers each rule side names."""
        mask = np.zeros((len(sides), n), dtype=bool)
        owner = np.repeat(np.arange(len(sides)), [len(side) for side in sides])
        try:
            columns = [index[ticker] for side in sides for ticker, _ in side]
        except KeyError as exc:
            raise UnknownTickerError(f"rule references unknown ticker {exc.args[0]!r}") from None
        mask[owner, columns] = True
        return mask

    assoc = np.zeros((n, n))
    weights = np.minimum(1.0, np.array([rule.lift for rule in rules.rules]) / lift_cap)
    antecedents = ticker_mask([rule.antecedent for rule in rules.rules])
    consequents = ticker_mask([rule.consequent for rule in rules.rules])
    for i in range(n):
        hit = antecedents[:, i]
        assoc[i] = np.where(consequents[hit], weights[hit, None], 0.0).max(axis=0, initial=0.0)

    assoc = np.maximum(assoc, assoc.T)
    weight = np.maximum(corr, assoc)
    source = (corr > 0) + 2 * (assoc > 0)
    # a same-ticker rule (A:UP -> A:DOWN) lands on the diagonal: no edge
    np.fill_diagonal(weight, 0.0)
    np.fill_diagonal(source, 0)
    return StockGraph(tickers=list(tickers), weight=weight, source=source, rules=rules)


def normalized_adjacency(graph: StockGraph) -> np.ndarray:
    """Self-looped, symmetrically degree-normalized adjacency D^-1/2 (W+I) D^-1/2,
    an (N, N) array in the order of graph.tickers."""
    a = graph.weight + np.eye(len(graph.tickers))
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * np.outer(inv_sqrt, inv_sqrt)


def build_graph(returns: ReturnPanel, config: GraphConfig = GraphConfig()) -> StockGraph:
    """Full pipeline: correlations + mined rules over the whole return panel."""
    corr = pearson_matrix(returns)
    corr_w = correlation_edges(corr, config.corr_threshold)
    txdb = co_movement_transactions(returns, config.move_threshold)
    frequents = apriori_frequent(txdb, config.min_support)
    rules = mine_rules(frequents, config.min_confidence, config.min_lift)
    return assemble_graph(corr_w, rules, returns.tickers, config.lift_cap)
