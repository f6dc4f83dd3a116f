import math
from itertools import combinations

import numpy as np
import pytest

from stockcast.errors import (
    EmptyDatabaseError,
    PanelTooShortError,
    UnknownTickerError,
    ZeroVarianceError,
)
from stockcast.market_data import ReturnPanel, daily_returns
from stockcast.relation_graph import (
    DOWN,
    UP,
    GraphConfig,
    RuleSet,
    TransactionDB,
    apriori_frequent,
    assemble_graph,
    build_graph,
    co_movement_transactions,
    correlation_edges,
    edge_records,
    mine_rules,
    normalized_adjacency,
    pearson_matrix,
)

from conftest import make_panel, weekdays


def returns_panel(returns: np.ndarray, tickers=None) -> ReturnPanel:
    returns = np.asarray(returns, dtype=np.float64)
    if tickers is None:
        tickers = [f"S{j}" for j in range(returns.shape[1])]
    return ReturnPanel(tickers=list(tickers), dates=weekdays(returns.shape[0]), returns=returns)


def pearson_oracle(x: np.ndarray, y: np.ndarray) -> float:
    """Direct two-pass transcription of the correlation formula."""
    xbar = sum(x) / len(x)
    ybar = sum(y) / len(y)
    num = sum((a - xbar) * (b - ybar) for a, b in zip(x, y))
    den = math.sqrt(sum((a - xbar) ** 2 for a in x)) * math.sqrt(sum((b - ybar) ** 2 for b in y))
    return num / den


class TestPearson:
    def test_positive_affine_copy(self):
        r = np.random.default_rng(0).normal(0, 0.01, size=(20, 1))
        panel = returns_panel(np.hstack([r, 2.0 * r]))
        rho = pearson_matrix(panel).rho
        assert rho[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        r = np.random.default_rng(1).normal(0, 0.01, size=(20, 1))
        rho = pearson_matrix(returns_panel(np.hstack([r, -r]))).rho
        assert rho[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_transcription(self):
        ri = [0.01, -0.02, 0.03]
        rj = [0.02, 0.01, -0.01]
        rho = pearson_matrix(returns_panel(np.array([ri, rj]).T)).rho
        assert abs(rho[0, 1] - pearson_oracle(ri, rj)) < 1e-12

    def test_oracle_equivalence_random_panels(self, rng):
        for _ in range(25):
            n_days = int(rng.integers(3, 30))
            n = int(rng.integers(2, 6))
            block = rng.normal(0, 0.02, size=(n_days, n))
            rho = pearson_matrix(returns_panel(block)).rho
            for i in range(n):
                for j in range(n):
                    expected = 1.0 if i == j else pearson_oracle(block[:, i], block[:, j])
                    assert abs(rho[i, j] - expected) < 1e-12

    def test_invariants(self, rng):
        block = rng.normal(0, 0.02, size=(40, 5))
        rho = pearson_matrix(returns_panel(block)).rho
        assert np.array_equal(rho, rho.T)
        assert np.all(np.diag(rho) == 1.0)
        assert rho.min() >= -1.0 and rho.max() <= 1.0

    def test_scale_invariance(self, rng):
        block = rng.normal(0, 0.02, size=(30, 3))
        shifted = block.copy()
        shifted[:, 0] = 3.7 * block[:, 0] + 0.002
        rho_a = pearson_matrix(returns_panel(block)).rho
        rho_b = pearson_matrix(returns_panel(shifted)).rho
        assert np.max(np.abs(rho_a - rho_b)) < 1e-12

    def test_zero_variance(self):
        block = np.zeros((10, 2))
        block[:, 1] = np.linspace(-0.01, 0.01, 10)
        with pytest.raises(ZeroVarianceError, match="S0"):
            pearson_matrix(returns_panel(block))

    def test_needs_three_days(self):
        with pytest.raises(PanelTooShortError):
            pearson_matrix(returns_panel(np.array([[0.01, 0.0], [0.0, 0.01]])))


class TestCorrelationEdges:
    def make_corr(self, value: float):
        r = np.random.default_rng(0).normal(0, 0.01, size=30)
        # two series engineered to a target correlation are overkill here;
        # patch the matrix directly since correlation_edges only reads rho
        corr = pearson_matrix(returns_panel(np.stack([r, r + 0.01], axis=1)))
        corr.rho[0, 1] = corr.rho[1, 0] = value
        return corr

    def test_above_threshold_included(self):
        edges = correlation_edges(self.make_corr(0.71), tau=0.7)
        assert edges == {("S0", "S1"): pytest.approx(0.71)}

    def test_exactly_threshold_excluded(self):
        assert correlation_edges(self.make_corr(0.70), tau=0.7) == {}

    def test_absolute_value(self):
        edges = correlation_edges(self.make_corr(-0.75), tau=0.7)
        assert edges[("S0", "S1")] == pytest.approx(0.75)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            correlation_edges(self.make_corr(0.5), tau=1.5)


class TestTransactions:
    def test_direction_items(self):
        panel = returns_panel(np.array([[0.01, 0.02, -0.01]]), tickers=["S1", "S2", "S3"])
        txdb = co_movement_transactions(panel, move_threshold=0.001)
        assert txdb.transactions == [frozenset({("S1", UP), ("S2", UP), ("S3", DOWN)})]

    def test_below_threshold_empty(self):
        panel = returns_panel(np.array([[0.0005, -0.0002]]))
        txdb = co_movement_transactions(panel, move_threshold=0.001)
        assert txdb.transactions == [frozenset()]

    def test_zero_threshold_takes_every_nonzero(self):
        panel = returns_panel(np.array([[0.0001, 0.0, -1e-9]]))
        txdb = co_movement_transactions(panel, move_threshold=0.0)
        assert txdb.transactions == [frozenset({("S0", UP), ("S2", DOWN)})]


def brute_force_frequents(transactions, min_support):
    """Enumerate every subset of the observed items and count support."""
    items = sorted({item for tx in transactions for item in tx})
    n = len(transactions)
    out = {}
    for size in range(1, len(items) + 1):
        for combo in combinations(items, size):
            candidate = frozenset(combo)
            support = sum(1 for tx in transactions if candidate <= tx) / n
            if support >= min_support:
                out[candidate] = support
    return out


def brute_force_rules(frequents, min_confidence, min_lift):
    out = set()
    for itemset, support in frequents.items():
        if len(itemset) < 2:
            continue
        for size in range(1, len(itemset)):
            for combo in combinations(sorted(itemset), size):
                antecedent = frozenset(combo)
                consequent = itemset - antecedent
                confidence = support / frequents[antecedent]
                lift = confidence / frequents[consequent]
                if confidence >= min_confidence and lift > min_lift:
                    out.add((antecedent, consequent, support, confidence, lift))
    return out


def random_txdb(rng, max_items=6, max_tx=50) -> TransactionDB:
    n_items = int(rng.integers(2, max_items + 1))
    universe = [(f"T{k}", UP if k % 2 else DOWN) for k in range(n_items)]
    n_tx = int(rng.integers(1, max_tx + 1))
    transactions = []
    for _ in range(n_tx):
        mask = rng.random(n_items) < rng.uniform(0.2, 0.8)
        transactions.append(frozenset(item for item, keep in zip(universe, mask) if keep))
    return TransactionDB(transactions=transactions, move_threshold=0.001)


class TestApriori:
    def test_pair_support_by_hand(self):
        a, b, c = ("A", UP), ("B", UP), ("C", DOWN)
        txdb = TransactionDB(
            transactions=[
                frozenset({a, b}),
                frozenset({a, b, c}),
                frozenset({a}),
                frozenset({c}),
            ],
            move_threshold=0.0,
        )
        freq = apriori_frequent(txdb, min_support=0.5)
        assert freq[frozenset({a, b})] == 0.5

    def test_anti_monotonicity(self, rng):
        for _ in range(20):
            freq = apriori_frequent(random_txdb(rng), min_support=0.2)
            for itemset, support in freq.items():
                for item in itemset:
                    if len(itemset) > 1:
                        assert freq[itemset - {item}] >= support

    def test_full_support_excludes_partial_item(self):
        a, b = ("A", UP), ("B", UP)
        txdb = TransactionDB(
            transactions=[frozenset({a, b}), frozenset({a})], move_threshold=0.0
        )
        freq = apriori_frequent(txdb, min_support=1.0)
        assert frozenset({a}) in freq and frozenset({b}) not in freq

    def test_empty_database(self):
        with pytest.raises(EmptyDatabaseError):
            apriori_frequent(TransactionDB(transactions=[], move_threshold=0.0), 0.5)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            txdb = random_txdb(rng)
            min_support = float(rng.choice([0.1, 0.25, 0.5]))
            fast = apriori_frequent(txdb, min_support)
            slow = brute_force_frequents(txdb.transactions, min_support)
            assert fast == slow


class TestMineRules:
    A = frozenset({("A", UP)})
    B = frozenset({("B", UP)})
    AB = frozenset({("A", UP), ("B", UP)})

    def test_arithmetic_from_counts(self):
        frequents = {self.A: 0.5, self.B: 0.4, self.AB: 0.4}
        ruleset = mine_rules(frequents, min_confidence=0.6, min_lift=1.7)
        forward = [r for r in ruleset.rules if r.antecedent == self.A]
        assert len(forward) == 1
        assert forward[0].confidence == pytest.approx(0.8)
        assert forward[0].lift == pytest.approx(2.0)

    def test_lift_threshold_is_strict(self):
        frequents = {self.A: 0.5, self.B: 0.4, self.AB: 0.4}
        exact_lift = (0.4 / 0.5) / 0.4
        at_threshold = mine_rules(frequents, min_confidence=0.0, min_lift=exact_lift)
        assert all(r.antecedent != self.A for r in at_threshold.rules)
        just_below = mine_rules(frequents, min_confidence=0.0, min_lift=exact_lift * (1 - 1e-12))
        assert any(r.antecedent == self.A for r in just_below.rules)

    def test_independent_items_rejected(self):
        # supp(AB) == supp(A) * supp(B): lift exactly 1
        frequents = {self.A: 0.5, self.B: 0.5, self.AB: 0.25}
        ruleset = mine_rules(frequents, min_confidence=0.0, min_lift=1.7)
        assert ruleset.rules == []

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            txdb = random_txdb(rng)
            freq = apriori_frequent(txdb, min_support=0.15)
            got = mine_rules(freq, min_confidence=0.5, min_lift=1.1)
            want = brute_force_rules(freq, min_confidence=0.5, min_lift=1.1)
            assert {(r.antecedent, r.consequent, r.support, r.confidence, r.lift)
                    for r in got.rules} == want


def rules_of(*specs) -> RuleSet:
    from stockcast.relation_graph import Rule

    rules = [Rule(frozenset(a), frozenset(b), 0.4, 0.8, lift) for a, b, lift in specs]
    return RuleSet(rules=rules, min_support=0.3, min_confidence=0.6, min_lift=1.7)


class TestAssembleGraph:
    def test_merge_takes_max_weight_and_both_flags(self):
        corr_edges = {("A", "B"): 0.8}
        ruleset = rules_of(([("A", UP)], [("B", UP)], 2.4))
        graph = assemble_graph(corr_edges, ruleset, ["A", "B"], lift_cap=3.0)
        edge = graph.edges[("A", "B")]
        assert edge.weight == pytest.approx(0.8)
        assert edge.sources == frozenset({"corr", "assoc"})
        assert graph.rules is ruleset  # the rules behind the assoc edges stay with the graph

    def test_no_edges_gives_isolated_vertices(self):
        graph = assemble_graph({}, rules_of(), ["A", "B", "C"])
        assert graph.edges == {}
        assert graph.tickers == ["A", "B", "C"]

    def test_same_ticker_rule_adds_no_edge(self):
        ruleset = rules_of(([("A", UP)], [("A", DOWN)], 2.5))
        graph = assemble_graph({}, ruleset, ["A", "B"])
        assert graph.edges == {}

    def test_unknown_ticker(self):
        with pytest.raises(UnknownTickerError):
            assemble_graph({("A", "Z"): 0.9}, rules_of(), ["A", "B"])
        with pytest.raises(UnknownTickerError):
            assemble_graph({}, rules_of(([("A", UP)], [("Z", UP)], 2.0)), ["A", "B"])

    def test_lift_weight_capped_at_one(self):
        ruleset = rules_of(([("A", UP)], [("B", UP)], 9.0))
        graph = assemble_graph({}, ruleset, ["A", "B"], lift_cap=3.0)
        assert graph.edges[("A", "B")].weight == 1.0

    def test_weights_in_unit_interval(self, rng):
        ruleset = rules_of(([("A", UP)], [("B", DOWN)], 1.8), ([("B", UP)], [("C", UP)], 2.9))
        graph = assemble_graph({("A", "C"): 0.72}, ruleset, ["A", "B", "C"])
        for edge in graph.edges.values():
            assert 0.0 < edge.weight <= 1.0


class TestNormalizedAdjacency:
    def test_two_nodes_one_unit_edge(self):
        graph = assemble_graph({("A", "B"): 1.0}, rules_of(), ["A", "B"])
        a_hat = normalized_adjacency(graph).a_hat
        assert np.allclose(a_hat, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_isolated_node_keeps_unit_self_loop(self):
        graph = assemble_graph({("A", "B"): 0.9}, rules_of(), ["A", "B", "C"])
        a_hat = normalized_adjacency(graph).a_hat
        assert a_hat[2, 2] == 1.0
        assert np.all(a_hat[2, :2] == 0.0) and np.all(a_hat[:2, 2] == 0.0)

    def test_symmetry_and_spectrum_random_graphs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            tickers = [f"T{k}" for k in range(n)]
            corr_edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        corr_edges[(tickers[i], tickers[j])] = float(rng.uniform(0.05, 1.0))
            a_hat = normalized_adjacency(assemble_graph(corr_edges, rules_of(), tickers)).a_hat
            assert np.allclose(a_hat, a_hat.T, atol=1e-15)
            assert np.all(a_hat >= 0.0)
            eigenvalues = np.linalg.eigvalsh(a_hat)
            assert eigenvalues.min() >= -1.0 - 1e-9
            assert eigenvalues.max() <= 1.0 + 1e-9


class TestPipeline:
    def test_build_graph_on_correlated_panel(self, rng):
        base = rng.normal(0, 0.01, size=(120, 1))
        noise = rng.normal(0, 0.002, size=(120, 3))
        returns = np.hstack([base + noise[:, :1], base + noise[:, 1:2], noise[:, 2:]])
        closes = 100 * np.cumprod(1 + np.vstack([np.zeros(3), returns]), axis=0)
        panel = make_panel(closes, tickers=["A", "B", "C"])
        graph = build_graph(daily_returns(panel), GraphConfig())
        assert ("A", "B") in graph.edges

    def test_edge_records_sorted_and_labeled(self):
        corr_edges = {("B", "A"): 0.9, ("C", "A"): 0.8}
        ruleset = rules_of(([("A", UP)], [("B", UP)], 2.4))
        graph = assemble_graph(corr_edges, ruleset, ["A", "B", "C"])
        records = edge_records(graph)
        assert [(a, b) for a, b, _, _ in records] == [("A", "B"), ("A", "C")]
        assert records[0][3] == "both"
        assert records[1][3] == "corr"
