import numpy as np

from stockcast.market_data import daily_returns
from stockcast.relation_graph import build_graph, pearson_matrix
from stockcast.synthetic import lead_lag_panel

from conftest import prices_from_returns, random_walk_panel


def test_random_walk_panel_shape_and_positivity():
    panel = random_walk_panel(4, 60, seed=0)
    assert panel.close.shape == (60, 4)
    assert np.all(panel.close > 0)
    assert len(panel.dates) == 60
    assert all(d.weekday() < 5 for d in panel.dates)


def test_panels_are_seed_deterministic():
    a = lead_lag_panel(80, seed=5)
    b = lead_lag_panel(80, seed=5)
    c = lead_lag_panel(80, seed=6)
    assert np.array_equal(a.close, b.close)
    assert not np.array_equal(a.close, c.close)


def test_prices_from_returns_round_trip():
    rng = np.random.default_rng(0)
    returns = rng.normal(0, 0.01, size=(30, 2))
    prices = prices_from_returns(returns, start_price=50.0)
    rebuilt = (prices[1:] - prices[:-1]) / prices[:-1]
    assert np.allclose(rebuilt, returns, atol=1e-12)


def test_lead_lag_panel_structure():
    panel = lead_lag_panel(160, seed=1)
    assert panel.tickers[0] == "C0LEAD" and panel.tickers[5] == "C1LEAD"
    assert np.all(panel.close > 0)

    rho = pearson_matrix(daily_returns(panel))
    within = [rho[i, j] for i in range(1, 5) for j in range(1, 5) if i < j]
    cross = [abs(rho[i, j]) for i in range(5) for j in range(5, 10)]
    assert min(within) > 0.5  # followers co-move strongly
    assert max(cross) < 0.5  # clusters are unrelated


def test_lead_lag_panel_connects_leaders_to_followers():
    # the relational pathway the hybrid model relies on must exist
    connected = 0
    for seed in range(5):
        panel = lead_lag_panel(131, seed=seed)
        graph = build_graph(daily_returns(panel))
        leader_edges = {
            pair for pair in graph.edges if "LEAD" in pair[0] or "LEAD" in pair[1]
        }
        connected += bool(leader_edges)
    assert connected >= 4
