"""Tests for the DP composition ledger (repro.core.accounting)."""

import pytest

from repro.core.accounting import CompositionLedger, MechanismDraw


class TestMechanismDraw:
    def test_validates_epsilon(self):
        for bad in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                MechanismDraw(label="x", epsilon=bad)

    def test_validates_names(self):
        with pytest.raises(ValueError):
            MechanismDraw(label="", epsilon=0.5)
        with pytest.raises(ValueError):
            MechanismDraw(label="x", epsilon=0.5, scope=" ")


class TestComposition:
    def test_sequential_draws_add_up(self):
        ledger = CompositionLedger()
        ledger.record("tf", 0.5)
        ledger.record("pf", 0.25)
        assert ledger.epsilon_total == pytest.approx(0.75)

    def test_parallel_group_contributes_its_max(self):
        ledger = CompositionLedger()
        ledger.record_parallel("local", "pf", 0.5, scope="chunk:0")
        ledger.record_parallel("local", "pf", 0.5, scope="chunk:1")
        ledger.record_parallel("local", "pf", 0.3, scope="chunk:2")
        assert ledger.epsilon_total == pytest.approx(0.5)

    def test_mixed_composition(self):
        """ε_G (sequential) + max per-chunk ε_L (parallel) — the
        streaming publisher's exact shape."""
        ledger = CompositionLedger()
        ledger.record("global TF randomization", 0.5)
        for i in range(7):
            ledger.record_parallel(
                "local", "local PF randomization", 0.5, scope=f"chunk:{i}"
            )
        assert ledger.epsilon_total == pytest.approx(1.0)

    def test_parallel_requires_disjoint_scopes(self):
        ledger = CompositionLedger()
        ledger.record_parallel("local", "pf", 0.5, scope="chunk:0")
        with pytest.raises(ValueError, match="disjoint"):
            ledger.record_parallel("local", "pf", 0.5, scope="chunk:0")

    def test_independent_groups_add(self):
        ledger = CompositionLedger()
        ledger.record_parallel("a", "x", 0.2, scope="chunk:0")
        ledger.record_parallel("b", "y", 0.3, scope="chunk:0")
        assert ledger.epsilon_total == pytest.approx(0.5)

    def test_merge_revalidates(self):
        a = CompositionLedger()
        a.record("tf", 0.5)
        a.record_parallel("local", "pf", 0.25, scope="chunk:0")
        b = CompositionLedger()
        b.record_parallel("local", "pf", 0.25, scope="chunk:1")
        a.merge(b)
        assert a.epsilon_total == pytest.approx(0.75)
        clash = CompositionLedger()
        clash.record_parallel("local", "pf", 0.25, scope="chunk:0")
        with pytest.raises(ValueError, match="disjoint"):
            a.merge(clash)


class TestSerialisation:
    def make_ledger(self):
        ledger = CompositionLedger()
        ledger.record("global TF randomization", 0.4)
        ledger.record_parallel("local", "pf", 0.6, scope="chunk:0")
        ledger.record_parallel("local", "pf", 0.6, scope="chunk:1")
        return ledger

    def test_round_trip(self):
        ledger = self.make_ledger()
        rebuilt = CompositionLedger.from_dict(ledger.to_dict())
        assert rebuilt.to_dict() == ledger.to_dict()
        assert rebuilt.epsilon_total == pytest.approx(1.0)

    def test_round_trip_through_json(self):
        import json

        payload = json.loads(json.dumps(self.make_ledger().to_dict()))
        rebuilt = CompositionLedger.from_dict(payload)
        assert rebuilt.epsilon_total == pytest.approx(1.0)

    def test_tampered_total_is_rejected(self):
        payload = self.make_ledger().to_dict()
        payload["epsilon_total"] = 0.123
        with pytest.raises(ValueError, match="compose"):
            CompositionLedger.from_dict(payload)


class TestBudgetCap:
    """The optional ``budget``: a record that would push the composed
    total over it is refused, and the ledger is left as it was."""

    def test_requires_positive_budget(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="budget"):
                CompositionLedger(budget=bad)

    def test_tracks_spend(self):
        ledger = CompositionLedger(budget=1.0)
        ledger.record("global", 0.5)
        assert ledger.epsilon_total == 0.5
        ledger.record("local", 0.5)
        assert ledger.epsilon_total == pytest.approx(1.0)

    def test_rejects_overspend(self):
        ledger = CompositionLedger(budget=1.0)
        ledger.record("global", 0.8)
        with pytest.raises(ValueError, match="over its budget"):
            ledger.record("local", 0.3)
        assert [draw.label for draw in ledger.draws] == ["global"]
        assert ledger.epsilon_total == 0.8

    def test_rejects_non_positive_spend(self):
        ledger = CompositionLedger(budget=1.0)
        with pytest.raises(ValueError):
            ledger.record("noop", 0.0)
        assert ledger.draws == []

    def test_ledger(self):
        ledger = CompositionLedger(budget=2.0)
        ledger.record("a", 1.0)
        ledger.record("b", 0.5)
        assert [(d.label, d.epsilon) for d in ledger.draws] == [
            ("a", 1.0),
            ("b", 0.5),
        ]

    def test_parallel_draws_count_their_max(self):
        ledger = CompositionLedger(budget=1.0)
        ledger.record("global", 0.5)
        for i in range(4):
            ledger.record_parallel("local", "pf", 0.5, scope=f"chunk:{i}")
        assert ledger.epsilon_total == pytest.approx(1.0)
        with pytest.raises(ValueError, match="over its budget"):
            ledger.record_parallel("other", "pf", 0.5, scope="chunk:0")
        with pytest.raises(ValueError, match="over its budget"):
            ledger.merge(CompositionLedger([MechanismDraw("extra", 0.1)]))
        assert len(ledger.draws) == 5

    def test_budget_is_not_serialised(self):
        capped = CompositionLedger(budget=1.0)
        plain = CompositionLedger()
        for ledger in (capped, plain):
            ledger.record("global", 0.5)
        assert capped.to_dict() == plain.to_dict()
        assert "budget" not in capped.to_dict()
        assert capped == plain


class TestMalformedPayload:
    """``from_dict`` raises ValueError, never AttributeError/TypeError,
    for JSON that is not a ledger (tenant account files replay it)."""

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            "x",
            3,
            None,
            {"draws": "x"},
            {"draws": {}},
            {"draws": 3},
            {"draws": ["x"]},
            {"draws": [[]]},
            {"draws": [3]},
            {"draws": [{"epsilon": 1.0}]},
            {"draws": [{"label": 5, "epsilon": 1.0}]},
            {"draws": [{"label": "g", "epsilon": 1.0, "scope": 5}]},
            {"draws": [{"label": "g", "epsilon": 1.0, "group": 5}]},
            {"draws": [{"label": "g", "epsilon": None}]},
            {"draws": [{"label": "g", "epsilon": 10**400}]},
            {"draws": [], "epsilon_total": []},
            {"draws": [], "epsilon_total": 10**400},
        ],
    )
    def test_rejected_with_value_error(self, payload):
        with pytest.raises(ValueError):
            CompositionLedger.from_dict(payload)

