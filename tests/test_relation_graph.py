import math
from itertools import combinations

import numpy as np
import pytest

from stockcast.errors import PanelTooShortError, ZeroVarianceError
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
    mine_rules,
    normalized_adjacency,
    pearson_matrix,
)

from conftest import make_panel


def returns_panel(returns: np.ndarray, tickers=None) -> ReturnPanel:
    returns = np.asarray(returns, dtype=np.float64)
    if tickers is None:
        tickers = [f"S{j}" for j in range(returns.shape[1])]
    return ReturnPanel(tickers=list(tickers), returns=returns)


def txdb_of(transactions) -> TransactionDB:
    """The database holding `transactions`, one column per item they name."""
    items = sorted({item for tx in transactions for item in tx})
    present = np.array([[item in tx for item in items] for tx in transactions], dtype=bool)
    return TransactionDB(items=items, present=present.reshape(len(transactions), len(items)))


def transactions_of(txdb: TransactionDB) -> list[frozenset]:
    """Each day's item set, read back from the database's columns."""
    return [frozenset(item for item, held in zip(txdb.items, row) if held)
            for row in txdb.present]


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
        rho = pearson_matrix(panel)
        assert rho[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        r = np.random.default_rng(1).normal(0, 0.01, size=(20, 1))
        rho = pearson_matrix(returns_panel(np.hstack([r, -r])))
        assert rho[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_transcription(self):
        ri = [0.01, -0.02, 0.03]
        rj = [0.02, 0.01, -0.01]
        rho = pearson_matrix(returns_panel(np.array([ri, rj]).T))
        assert abs(rho[0, 1] - pearson_oracle(ri, rj)) < 1e-12

    def test_oracle_equivalence_random_panels(self, rng):
        for _ in range(25):
            n_days = int(rng.integers(3, 30))
            n = int(rng.integers(2, 6))
            block = rng.normal(0, 0.02, size=(n_days, n))
            rho = pearson_matrix(returns_panel(block))
            for i in range(n):
                for j in range(n):
                    expected = 1.0 if i == j else pearson_oracle(block[:, i], block[:, j])
                    assert abs(rho[i, j] - expected) < 1e-12

    def test_invariants(self, rng):
        block = rng.normal(0, 0.02, size=(40, 5))
        rho = pearson_matrix(returns_panel(block))
        assert np.array_equal(rho, rho.T)
        assert np.all(np.diag(rho) == 1.0)
        assert rho.min() >= -1.0 and rho.max() <= 1.0

    def test_scale_invariance(self, rng):
        block = rng.normal(0, 0.02, size=(30, 3))
        shifted = block.copy()
        shifted[:, 0] = 3.7 * block[:, 0] + 0.002
        rho_a = pearson_matrix(returns_panel(block))
        rho_b = pearson_matrix(returns_panel(shifted))
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
    def make_corr(self, value: float) -> np.ndarray:
        return np.array([[1.0, value], [value, 1.0]])

    def test_above_threshold_included(self):
        weights = correlation_edges(self.make_corr(0.71), tau=0.7)
        assert np.array_equal(weights, [[0.0, 0.71], [0.71, 0.0]])

    def test_exactly_threshold_excluded(self):
        assert not correlation_edges(self.make_corr(0.70), tau=0.7).any()

    def test_absolute_value(self):
        weights = correlation_edges(self.make_corr(-0.75), tau=0.7)
        assert np.array_equal(weights, [[0.0, 0.75], [0.75, 0.0]])

    def test_masked_abs_rho_symmetric_with_zero_diagonal(self, rng):
        for tau in (0.05, 0.2, 0.4):
            rho = pearson_matrix(returns_panel(rng.normal(0, 0.02, size=(12, 6))))
            weights = correlation_edges(rho, tau)
            assert np.array_equal(weights, weights.T)
            assert np.all(np.diag(weights) == 0.0)
            for i, j in combinations(range(6), 2):
                strength = abs(rho[i, j])
                assert weights[i, j] == (strength if strength > tau else 0.0)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            correlation_edges(self.make_corr(0.5), tau=1.5)


class TestTransactions:
    def test_direction_items(self):
        panel = returns_panel(np.array([[0.01, 0.02, -0.01]]), tickers=["S1", "S2", "S3"])
        txdb = co_movement_transactions(panel, move_threshold=0.001)
        assert transactions_of(txdb) == [frozenset({("S1", UP), ("S2", UP), ("S3", DOWN)})]

    def test_below_threshold_empty(self):
        panel = returns_panel(np.array([[0.0005, -0.0002]]))
        txdb = co_movement_transactions(panel, move_threshold=0.001)
        assert transactions_of(txdb) == [frozenset()]

    def test_zero_threshold_takes_every_nonzero(self):
        panel = returns_panel(np.array([[0.0001, 0.0, -1e-9]]))
        txdb = co_movement_transactions(panel, move_threshold=0.0)
        assert transactions_of(txdb) == [frozenset({("S0", UP), ("S2", DOWN)})]

    def test_matches_per_day_loop(self, rng):
        for move_threshold in (0.0, 0.001, 0.01):
            block = rng.normal(0, 0.01, size=(40, 4))
            block[rng.random(block.shape) < 0.15] = move_threshold
            block[rng.random(block.shape) < 0.15] = -move_threshold
            panel = returns_panel(block)
            want = []
            for day in block:
                items = set()
                for ticker, r in zip(panel.tickers, day):
                    if r > move_threshold:
                        items.add((ticker, UP))
                    elif r < -move_threshold:
                        items.add((ticker, DOWN))
                want.append(frozenset(items))
            assert transactions_of(co_movement_transactions(panel, move_threshold)) == want


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
    return txdb_of(transactions)


class TestApriori:
    def test_pair_support_by_hand(self):
        a, b, c = ("A", UP), ("B", UP), ("C", DOWN)
        txdb = txdb_of([
            frozenset({a, b}),
            frozenset({a, b, c}),
            frozenset({a}),
            frozenset({c}),
        ])
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
        txdb = txdb_of([frozenset({a, b}), frozenset({a})])
        freq = apriori_frequent(txdb, min_support=1.0)
        assert frozenset({a}) in freq and frozenset({b}) not in freq

    def test_empty_database(self):
        with pytest.raises(ValueError, match="^no transactions to mine$"):
            apriori_frequent(txdb_of([]), 0.5)

    def test_matches_brute_force(self, rng):
        # 30 small databases, then a few with up to 10 items and 200 transactions
        for max_items, max_tx in [(6, 50)] * 30 + [(10, 200)] * 5:
            txdb = random_txdb(rng, max_items, max_tx)
            min_support = float(rng.choice([0.1, 0.25, 0.5]))
            fast = apriori_frequent(txdb, min_support)
            slow = brute_force_frequents(transactions_of(txdb), min_support)
            assert fast == slow
            # the columns are mined in sorted item order, whatever their order in the database
            perm = rng.permutation(len(txdb.items))
            shuffled = TransactionDB([txdb.items[k] for k in perm], txdb.present[:, perm])
            assert list(apriori_frequent(shuffled, min_support).items()) == list(fast.items())


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
    return RuleSet(rules=rules)


def corr_weights(tickers, pairs) -> np.ndarray:
    """correlation_edges' (N, N) array in `tickers` order holding `pairs`,
    a {(ticker_a, ticker_b): weight} dict, at both [i, j] and [j, i]."""
    index = {t: i for i, t in enumerate(tickers)}
    weights = np.zeros((len(tickers), len(tickers)))
    for (a, b), weight in pairs.items():
        weights[index[a], index[b]] = weights[index[b], index[a]] = weight
    return weights


def random_graph_inputs(rng):
    """Tickers out of name order, correlation pairs in either order, and rules
    whose two sides may name the same ticker."""
    n = int(rng.integers(2, 7))
    tickers = [f"T{k}" for k in rng.permutation(n)]  # index order is not name order
    corr_pairs = {
        (a, b) if rng.random() < 0.5 else (b, a): float(rng.uniform(0.7, 1.0))
        for a, b in combinations(tickers, 2) if rng.random() < 0.3
    }
    ruleset = rules_of(*[
        ([(t, UP) for t in rng.choice(tickers, int(rng.integers(1, 3)), replace=False)],
         [(t, DOWN) for t in rng.choice(tickers, int(rng.integers(1, 3)), replace=False)],
         float(rng.uniform(1.7, 4.0)))
        for _ in range(int(rng.integers(0, 8)))
    ])
    return tickers, corr_pairs, ruleset


class TestAssembleGraph:
    def test_merge_takes_max_weight_and_both_flags(self):
        corr = corr_weights(["A", "B"], {("A", "B"): 0.8})
        ruleset = rules_of(([("A", UP)], [("B", UP)], 2.4))
        graph = assemble_graph(corr, ruleset, ["A", "B"], lift_cap=3.0)
        assert graph.edges == [("A", "B", pytest.approx(0.8), "both")]
        assert graph.rules is ruleset  # the rules behind the assoc edges stay with the graph

    def test_no_edges_gives_isolated_vertices(self):
        graph = assemble_graph(corr_weights(["A", "B", "C"], {}), rules_of(), ["A", "B", "C"],
                               lift_cap=3.0)
        assert graph.edges == []
        assert graph.tickers == ["A", "B", "C"]

    def test_same_ticker_rule_adds_no_edge(self):
        ruleset = rules_of(([("A", UP)], [("A", DOWN)], 2.5))
        graph = assemble_graph(corr_weights(["A", "B"], {}), ruleset, ["A", "B"], lift_cap=3.0)
        assert graph.edges == []

    def test_wrong_shape_names_shape_and_n(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\).*N = 2"):
            assemble_graph(np.zeros((3, 3)), rules_of(), ["A", "B"], lift_cap=3.0)

    def test_unknown_ticker(self):
        with pytest.raises(ValueError, match="^rule references unknown ticker 'Z'$"):
            assemble_graph(np.zeros((2, 2)), rules_of(([("A", UP)], [("Z", UP)], 2.0)),
                           ["A", "B"], lift_cap=3.0)

    def test_lift_weight_capped_at_one(self):
        ruleset = rules_of(([("A", UP)], [("B", UP)], 9.0))
        graph = assemble_graph(corr_weights(["A", "B"], {}), ruleset, ["A", "B"], lift_cap=3.0)
        assert graph.edges == [("A", "B", 1.0, "assoc")]

    def test_weights_in_unit_interval(self, rng):
        ruleset = rules_of(([("A", UP)], [("B", DOWN)], 1.8), ([("B", UP)], [("C", UP)], 2.9))
        tickers = ["A", "B", "C"]
        graph = assemble_graph(corr_weights(tickers, {("A", "C"): 0.72}), ruleset, tickers,
                               lift_cap=3.0)
        for _, _, weight, _ in graph.edges:
            assert 0.0 < weight <= 1.0

    def test_matches_per_pair_merge(self, rng):
        for _ in range(40):
            tickers, corr_edges, ruleset = random_graph_inputs(rng)
            # reference: merge each proposed pair into a dict, one pair at a time
            merged: dict[tuple[str, str], tuple[float, set]] = {}

            def put(a, b, weight, source):
                if a != b:
                    key = (min(a, b), max(a, b))
                    old, sources = merged.get(key, (0.0, set()))
                    merged[key] = (max(old, weight), sources | {source})

            for (a, b), strength in corr_edges.items():
                put(a, b, strength, "corr")
            for rule in ruleset.rules:
                for a, _ in rule.antecedent:
                    for b, _ in rule.consequent:
                        put(a, b, min(1.0, rule.lift / 3.0), "assoc")
            want = [(a, b, weight, "both" if len(sources) == 2 else sources.pop())
                    for (a, b), (weight, sources) in sorted(merged.items())]
            corr = corr_weights(tickers, corr_edges)
            assert assemble_graph(corr, ruleset, tickers, lift_cap=3.0).edges == want

    def test_fields_are_symmetric_with_zero_diagonal(self, rng):
        for _ in range(40):
            tickers, corr_pairs, ruleset = random_graph_inputs(rng)
            graph = assemble_graph(corr_weights(tickers, corr_pairs), ruleset, tickers,
                                   lift_cap=3.0)
            for field in (graph.weight, graph.source):
                assert np.array_equal(field, field.T)
                assert not np.diag(field).any()
            assert np.array_equal(graph.weight > 0, graph.source > 0)
            assert set(np.unique(graph.source)) <= {0, 1, 2, 3}


class TestNormalizedAdjacency:
    def test_two_nodes_one_unit_edge(self):
        graph = assemble_graph(corr_weights(["A", "B"], {("A", "B"): 1.0}), rules_of(), ["A", "B"],
                               lift_cap=3.0)
        a_hat = normalized_adjacency(graph)
        assert np.allclose(a_hat, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_isolated_node_keeps_unit_self_loop(self):
        tickers = ["A", "B", "C"]
        graph = assemble_graph(corr_weights(tickers, {("A", "B"): 0.9}), rules_of(), tickers,
                               lift_cap=3.0)
        a_hat = normalized_adjacency(graph)
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
            corr = corr_weights(tickers, corr_edges)
            a_hat = normalized_adjacency(assemble_graph(corr, rules_of(), tickers, lift_cap=3.0))
            assert np.allclose(a_hat, a_hat.T, atol=1e-15)
            assert np.all(a_hat >= 0.0)
            eigenvalues = np.linalg.eigvalsh(a_hat)
            assert eigenvalues.min() >= -1.0 - 1e-9
            assert eigenvalues.max() <= 1.0 + 1e-9

    def test_matches_row_loop_bitwise(self, rng):
        # reference: the self-looped matrix rebuilt from the edge rows, one
        # row at a time; a same-ticker rule must leave the diagonal at 1
        for _ in range(50):
            tickers, corr_pairs, ruleset = random_graph_inputs(rng)
            graph = assemble_graph(corr_weights(tickers, corr_pairs), ruleset, tickers,
                                   lift_cap=3.0)
            index = {t: i for i, t in enumerate(tickers)}
            a = np.eye(len(tickers))
            for u, v, weight, _ in graph.edges:
                a[index[u], index[v]] = a[index[v], index[u]] = weight
            inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
            assert np.array_equal(normalized_adjacency(graph), a * np.outer(inv_sqrt, inv_sqrt))


class TestPipeline:
    def test_build_graph_on_correlated_panel(self, rng):
        base = rng.normal(0, 0.01, size=(120, 1))
        noise = rng.normal(0, 0.002, size=(120, 3))
        returns = np.hstack([base + noise[:, :1], base + noise[:, 1:2], noise[:, 2:]])
        closes = 100 * np.cumprod(1 + np.vstack([np.zeros(3), returns]), axis=0)
        panel = make_panel(closes, tickers=["A", "B", "C"])
        graph = build_graph(daily_returns(panel), GraphConfig())
        assert ("A", "B") in [(a, b) for a, b, _, _ in graph.edges]

    def test_edge_records_sorted_and_labeled(self):
        tickers = ["A", "B", "C"]
        corr = corr_weights(tickers, {("B", "A"): 0.9, ("C", "A"): 0.8})
        ruleset = rules_of(([("A", UP)], [("B", UP)], 2.4))
        graph = assemble_graph(corr, ruleset, tickers, lift_cap=3.0)
        records = graph.edges
        assert [(a, b) for a, b, _, _ in records] == [("A", "B"), ("A", "C")]
        assert records[0][3] == "both"
        assert records[1][3] == "corr"


class TestGraphConfig:
    @pytest.mark.parametrize("key, bad", [
        ("corr_threshold", 0.0), ("corr_threshold", 1.0), ("corr_threshold", 1.5),
        ("min_support", 0.0), ("min_support", 1.5),
        ("min_confidence", 0.0), ("min_confidence", 5.0),
        ("min_lift", 0.0), ("min_lift", -1.0),
        ("move_threshold", -0.001),
        ("lift_cap", 0.0), ("lift_cap", -1.0),
        ("lift_cap", math.nan),
    ])
    def test_out_of_range_value_names_its_key(self, key, bad):
        with pytest.raises(ValueError) as info:
            GraphConfig(**{key: bad})
        assert str(info.value).startswith(f"{key} must "), str(info.value)

    def test_range_edges_accepted(self):
        GraphConfig(min_support=1.0, min_confidence=1.0, move_threshold=0.0)
