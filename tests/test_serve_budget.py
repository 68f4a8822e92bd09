"""Tests for the per-tenant epsilon budget accounts (`repro.serve.budget`).

The subsystem's contract, in rough order of importance:

- N concurrent requests against one account can never jointly commit
  more than the declared budget (the property the daemon exists to
  enforce);
- account files replay to the same state they recorded, and a
  tampered file (edited charge, edited ledger draw) refuses to load;
- a reservation orphaned by a crash is settled conservatively
  (charged in full), never refunded.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accounting import CompositionLedger
from repro.serve.budget import (
    ACCOUNT_SUFFIX,
    AccountError,
    BudgetExceededError,
    BudgetStore,
    TenantAccount,
    UnknownTenantError,
)


@pytest.fixture
def store(tmp_path):
    return BudgetStore(tmp_path / "budgets")


class TestDeclare:
    def test_declare_creates_account_file(self, store):
        account = store.declare("acme", 4.0)
        assert account.budget == 4.0
        assert account.path.name == "acme" + ACCOUNT_SUFFIX
        first = json.loads(account.path.read_text().splitlines()[0])
        assert first == {"kind": "declare", "tenant": "acme", "budget": 4.0}

    def test_redeclare_same_budget_is_idempotent(self, store):
        first = store.declare("acme", 4.0)
        assert store.declare("acme", 4.0) is first

    def test_redeclare_different_budget_refused(self, store):
        store.declare("acme", 4.0)
        with pytest.raises(AccountError, match="refusing to re-declare"):
            store.declare("acme", 8.0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_budget_refused(self, store, budget):
        with pytest.raises(AccountError):
            store.declare("acme", budget)

    @pytest.mark.parametrize(
        "tenant", ["", ".", "..", "a/b", ".hidden", "x/../y"]
    )
    def test_non_segment_tenant_names_refused(self, store, tenant):
        with pytest.raises(AccountError, match="plain path segment"):
            store.declare(tenant, 1.0)

    def test_unknown_tenant(self, store):
        with pytest.raises(UnknownTenantError):
            store.account("ghost")


class TestReserveCommitRelease:
    def test_lifecycle_arithmetic(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 1.5)
        status = store.account("acme").status()
        assert status["reserved"] == 1.5
        assert status["remaining"] == pytest.approx(2.5)
        charged = store.commit("acme", "job-1", None)
        assert charged == 1.5
        status = store.account("acme").status()
        assert status["spent"] == 1.5
        assert status["reserved"] == 0
        assert status["jobs"]["committed"] == ["job-1"]

    def test_over_budget_reservation_refused_structured(self, store):
        store.declare("tiny", 1.0)
        store.reserve("tiny", "job-1", 0.8)
        with pytest.raises(BudgetExceededError) as excinfo:
            store.reserve("tiny", "job-2", 0.5)
        body = excinfo.value.to_dict()
        assert body["error"] == "budget-exhausted"
        assert body["tenant"] == "tiny"
        assert body["requested"] == 0.5
        assert body["remaining"] == pytest.approx(0.2)
        assert body["budget"] == 1.0

    def test_release_returns_the_reservation(self, store):
        store.declare("acme", 2.0)
        store.reserve("acme", "job-1", 2.0)
        store.release("acme", "job-1", reason="engine exploded")
        account = store.account("acme")
        assert account.remaining == pytest.approx(2.0)
        assert account.released == {"job-1": "engine exploded"}

    def test_released_job_id_may_retry(self, store):
        store.declare("acme", 2.0)
        store.reserve("acme", "job-1", 2.0)
        store.release("acme", "job-1")
        store.reserve("acme", "job-1", 2.0)  # the retried request
        assert store.commit("acme", "job-1", None) == 2.0

    def test_duplicate_reservation_refused(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 1.0)
        with pytest.raises(AccountError, match="already holds"):
            store.reserve("acme", "job-1", 1.0)

    def test_commit_without_reservation_refused(self, store):
        store.declare("acme", 4.0)
        with pytest.raises(AccountError, match="without a live reservation"):
            store.commit("acme", "job-1", None)

    def test_commit_charges_the_ledger_not_the_reservation(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 2.0)
        ledger = CompositionLedger()
        ledger.record("global", 0.5)
        ledger.record("local", 0.75)
        assert store.commit("acme", "job-1", ledger) == pytest.approx(1.25)
        assert store.account("acme").remaining == pytest.approx(2.75)

    def test_ledger_above_reservation_refused(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 1.0)
        ledger = CompositionLedger()
        ledger.record("global", 1.5)
        with pytest.raises(AccountError, match="overspend"):
            store.commit("acme", "job-1", ledger)

    def test_zero_draw_ledger_settles_as_release(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 1.0)
        assert store.commit("acme", "job-1", CompositionLedger()) == 0.0
        account = store.account("acme")
        assert account.remaining == pytest.approx(4.0)
        assert account.released == {"job-1": "no draws"}


class TestPersistence:
    """The account file replays to the state it recorded — including
    each commit's full CompositionLedger JSON."""

    def _reload(self, store, tenant):
        """A fresh store over the same root (simulated restart)."""
        return BudgetStore(store.root).account(tenant)

    def test_round_trip_with_ledger(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 2.0)
        ledger = CompositionLedger()
        ledger.record("global", 0.5)
        ledger.record_parallel("chunks", "local", 0.75, scope="chunk:0")
        ledger.record_parallel("chunks", "local", 0.5, scope="chunk:1")
        store.commit("acme", "job-1", ledger)
        store.reserve("acme", "job-2", 1.0)
        store.release("acme", "job-2", reason="boom")

        replayed = self._reload(store, "acme")
        assert replayed.budget == 4.0
        assert replayed.committed == {
            "job-1": pytest.approx(ledger.epsilon_total)
        }
        assert replayed.released == {"job-2": "boom"}
        assert replayed.pending == {}
        # The embedded ledger round-trips draw for draw.
        commit = [
            json.loads(line)
            for line in replayed.path.read_text().splitlines()
            if json.loads(line)["kind"] == "commit"
        ][0]
        assert CompositionLedger.from_dict(commit["ledger"]).to_dict() == (
            ledger.to_dict()
        )

    def test_pending_reservation_survives_reload(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 1.5)
        replayed = self._reload(store, "acme")
        assert replayed.pending == {"job-1": 1.5}
        assert replayed.remaining == pytest.approx(2.5)

    def test_tampered_charge_rejected(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 2.0)
        ledger = CompositionLedger()
        ledger.record("global", 1.0)
        store.commit("acme", "job-1", ledger)
        path = store.account("acme").path
        lines = path.read_text().splitlines()
        entry = json.loads(lines[-1])
        entry["epsilon"] = 0.25  # pay less than the ledger says
        path.write_text("\n".join(lines[:-1] + [json.dumps(entry)]) + "\n")
        with pytest.raises(AccountError, match="composes to"):
            self._reload(store, "acme")

    def test_tampered_ledger_draw_rejected(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 2.0)
        ledger = CompositionLedger()
        ledger.record("global", 1.0)
        store.commit("acme", "job-1", ledger)
        path = store.account("acme").path
        lines = path.read_text().splitlines()
        entry = json.loads(lines[-1])
        entry["ledger"]["draws"][0]["epsilon"] = 0.25  # forge the draw
        path.write_text("\n".join(lines[:-1] + [json.dumps(entry)]) + "\n")
        with pytest.raises(AccountError, match="does not round-trip"):
            self._reload(store, "acme")

    def test_oversubscribed_history_rejected(self, store):
        store.declare("acme", 1.0)
        path = store.account("acme").path
        with path.open("a") as handle:
            handle.write(
                json.dumps({"kind": "reserve", "job": "j1", "epsilon": 0.9})
                + "\n"
            )
            handle.write(
                json.dumps({"kind": "reserve", "job": "j2", "epsilon": 0.9})
                + "\n"
            )
        with pytest.raises(AccountError, match="oversubscribes"):
            self._reload(store, "acme")

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json",
            json.dumps({"no": "kind"}),
            json.dumps({"kind": "frobnicate", "job": "j1"}),
            json.dumps({"kind": "commit", "job": "never-reserved",
                        "epsilon": 0.1, "ledger": None}),
            # a reserved job whose commit carries JSON that is no ledger
            *(
                pytest.param(
                    json.dumps({"kind": "reserve", "job": "j1", "epsilon": 0.5})
                    + "\n"
                    + json.dumps({"kind": "commit", "job": "j1",
                                  "epsilon": 0.5, "ledger": ledger}),
                    id=f"commit-ledger-{name}",
                )
                for name, ledger in (
                    ("list", []),
                    ("string", "x"),
                    ("number", 3),
                    ("group-not-a-string",
                     {"draws": [{"label": "g", "epsilon": 0.5, "group": 5}]}),
                )
            ),
        ],
    )
    def test_malformed_lines_rejected(self, store, garbage):
        store.declare("acme", 1.0)
        path = store.account("acme").path
        with path.open("a") as handle:
            handle.write(garbage + "\n")
        with pytest.raises(AccountError):
            self._reload(store, "acme")

    def test_wrong_first_line_rejected(self, tmp_path):
        path = tmp_path / ("acme" + ACCOUNT_SUFFIX)
        path.write_text(
            json.dumps({"kind": "reserve", "job": "j1", "epsilon": 0.5}) + "\n"
        )
        with pytest.raises(AccountError, match="first entry must declare"):
            TenantAccount.load("acme", path)


class TestCrashRecovery:
    def test_orphaned_reservation_charged_in_full(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 1.5)
        # The daemon dies here: reservation present, commit absent.
        fresh = BudgetStore(store.root)
        assert fresh.recover() == {"acme": ["job-1"]}
        account = fresh.account("acme")
        assert account.committed == {"job-1": 1.5}
        assert account.pending == {}
        # And the recovery itself is durable.
        again = BudgetStore(store.root)
        assert again.recover() == {}
        assert again.account("acme").committed == {"job-1": 1.5}

    def test_recovery_commit_carries_no_ledger(self, store):
        store.declare("acme", 4.0)
        store.reserve("acme", "job-1", 1.5)
        fresh = BudgetStore(store.root)
        fresh.recover()
        last = json.loads(
            fresh.account("acme").path.read_text().splitlines()[-1]
        )
        assert last["kind"] == "commit"
        assert last["ledger"] is None
        assert last["epsilon"] == 1.5


class TestNoOverspend:
    """The headline invariant: concurrency cannot overspend a budget."""

    def test_parallel_requests_never_commit_past_the_budget(self, store):
        budget, eps = 4.0, 1.0
        store.declare("acme", budget)
        n = 16
        barrier = threading.Barrier(n)
        admitted, refused = [], []
        lock = threading.Lock()

        def request(i):
            job = f"job-{i}"
            barrier.wait()
            try:
                store.reserve("acme", job, eps)
            except BudgetExceededError:
                with lock:
                    refused.append(job)
                return
            store.commit("acme", job, None)
            with lock:
                admitted.append(job)

        threads = [
            threading.Thread(target=request, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == int(budget / eps)
        assert len(refused) == n - len(admitted)
        account = store.account("acme")
        assert account.spent <= budget + 1e-9
        # The durable file replays to the same verdict.
        replayed = BudgetStore(store.root).account("acme")
        assert replayed.spent == pytest.approx(account.spent)

    @settings(max_examples=30, deadline=None)
    @given(
        budget=st.floats(min_value=0.5, max_value=8.0),
        requests=st.lists(
            st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=24
        ),
    )
    def test_any_request_sequence_respects_the_budget(
        self, tmp_path_factory, budget, requests
    ):
        root = tmp_path_factory.mktemp("budgets")
        store = BudgetStore(root)
        store.declare("acme", budget)
        for i, eps in enumerate(requests):
            try:
                store.reserve("acme", f"job-{i}", eps)
            except BudgetExceededError:
                continue
            store.commit("acme", f"job-{i}", None)
        account = store.account("acme")
        assert account.spent <= budget + 1e-9
        replayed = BudgetStore(root).account("acme")
        assert replayed.spent == pytest.approx(account.spent)
        assert replayed.committed == account.committed
