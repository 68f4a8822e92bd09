"""Tests for the static analyzer (repro.analysis).

Every rule gets a positive fixture (a seeded violation it must catch)
and a negative fixture (idiomatic code it must not flag), driven
through :func:`analyze_source`. The CFG builder's corner cases are
pinned as exact edge sets. Suppression (including unused-noqa
warnings), the baseline ratchet, the JSON and SARIF report schemas,
and the ``repro check`` exit-code contract (0 clean / 1 findings /
2 internal error) are covered end to end.
"""

import ast
import json
import textwrap

import pytest

from repro.analysis import (
    AnalysisError,
    Baseline,
    BaselineEntry,
    Finding,
    all_rules,
    analyze_paths,
    analyze_source,
    build_cfg,
    rules_for,
)
from repro.cli import main


def check(source: str, codes=None, **kwargs):
    return analyze_source(textwrap.dedent(source), codes=codes, **kwargs)


def codes_of(report) -> list[str]:
    return [finding.code for finding in report.findings]


class TestRegistry:
    def test_all_rules_registered(self):
        assert [r.code for r in all_rules()] == [
            "DET001", "DET002", "DP001", "EPS001", "EPS002",
            "LEDGER001", "LIFE001", "RACE001", "RACE002",
        ]

    def test_every_rule_documented(self):
        for rule in all_rules():
            assert rule.name
            assert rule.summary
            assert rule.rationale
            assert rule.example

    def test_rules_for_subset(self):
        assert [r.code for r in rules_for(["DP001"])] == ["DP001"]

    def test_rules_for_unknown_code_raises(self):
        with pytest.raises(KeyError):
            rules_for(["NOPE999"])


class TestCFG:
    """Corner cases of the CFG builder, pinned as exact edge sets."""

    def cfg_of(self, source):
        tree = ast.parse(textwrap.dedent(source))
        return build_cfg(tree.body[0])

    def test_rejects_non_function_nodes(self):
        with pytest.raises(TypeError):
            build_cfg(ast.parse("x = 1").body[0])

    def test_while_else_with_break(self):
        # `else` runs only on normal exhaustion; `break` skips it.
        cfg = self.cfg_of(
            """
            def f():
                while cond():
                    if hot():
                        break
                    step()
                else:
                    done()
            """
        )
        assert cfg.edge_set() == {
            ("entry", "While:3", "next"),
            ("While:3", "raise", "exc"),
            ("While:3", "If:4", "true"),
            ("If:4", "raise", "exc"),
            ("If:4", "Break:5", "true"),
            ("If:4", "Expr:6", "false"),
            ("Expr:6", "raise", "exc"),
            ("Expr:6", "While:3", "back"),
            ("While:3", "Expr:8", "false"),
            ("Expr:8", "raise", "exc"),
            ("Expr:8", "exit", "next"),
            ("Break:5", "exit", "break"),
        }

    def test_constant_true_while_has_no_false_edge(self):
        cfg = self.cfg_of(
            """
            def f():
                while True:
                    if done():
                        break
                    step()
            """
        )
        assert cfg.edge_set() == {
            ("entry", "While:3", "next"),
            ("While:3", "raise", "exc"),
            ("While:3", "If:4", "true"),
            ("If:4", "raise", "exc"),
            ("If:4", "Break:5", "true"),
            ("If:4", "Expr:6", "false"),
            ("Expr:6", "raise", "exc"),
            ("Expr:6", "While:3", "back"),
            ("Break:5", "exit", "break"),
        }

    def test_nested_try_finally_with_return_in_finally(self):
        # The outer `return` swallows the pending exception: the
        # exception-path copy of the finally body exits via `return`,
        # and no raising statement reaches `raise` directly.
        cfg = self.cfg_of(
            """
            def f():
                try:
                    try:
                        risky()
                    finally:
                        inner()
                finally:
                    return 0
            """
        )
        assert cfg.edge_set() == {
            ("entry", "Expr:5", "next"),
            ("Expr:5", "Expr:7~exc", "exc"),
            ("Expr:5", "Expr:7", "next"),
            ("Expr:7~exc", "Return:9~exc~exc", "exc"),
            ("Expr:7", "Return:9~exc~exc", "exc"),
            ("Expr:7", "Return:9", "next"),
            ("Return:9~exc~exc", "raise", "exc"),
            ("Return:9~exc~exc", "exit", "return"),
            ("Return:9", "raise", "exc"),
            ("Return:9", "exit", "return"),
        }

    def test_with_body_exception_routes_through_exit_node(self):
        # A raise inside the body still runs __exit__ (the synthetic
        # WithExit copy), but a failing context expression does not.
        cfg = self.cfg_of(
            """
            def f():
                with open_resource() as r:
                    use(r)
                after()
            """
        )
        assert cfg.edge_set() == {
            ("entry", "With:3", "next"),
            ("With:3", "raise", "exc"),
            ("With:3", "Expr:4", "next"),
            ("Expr:4", "WithExit:3~exc", "exc"),
            ("WithExit:3~exc", "raise", "exc"),
            ("Expr:4", "WithExit:3", "next"),
            ("WithExit:3", "Expr:5", "next"),
            ("Expr:5", "raise", "exc"),
            ("Expr:5", "exit", "next"),
        }

    def test_generator_yield_is_a_plain_statement(self):
        # `yield` suspends rather than transfers control: the loop
        # shape is identical to a non-generator, with the yield as an
        # ordinary may-raise statement (a thrown-in GeneratorExit).
        cfg = self.cfg_of(
            """
            def gen(items):
                for item in items:
                    yield item
            """
        )
        assert cfg.edge_set() == {
            ("entry", "For:3", "next"),
            ("For:3", "raise", "exc"),
            ("For:3", "Expr:4", "true"),
            ("Expr:4", "raise", "exc"),
            ("Expr:4", "For:3", "back"),
            ("For:3", "exit", "false"),
        }


class TestDP001:
    def test_unledgered_class_draw_flagged(self):
        report = check(
            """
            class Stage:
                def apply(self, count, rng):
                    return self.mechanism.perturb_count(count, rng)
            """,
            codes=["DP001"],
        )
        assert codes_of(report) == ["DP001"]
        assert "class Stage" in report.findings[0].message

    def test_ledgered_class_draw_clean(self):
        report = check(
            """
            class Stage:
                def apply(self, ledger, count, rng):
                    ledger.record("stage/count", 1.0)
                    return self.mechanism.perturb_count(count, rng)
            """,
            codes=["DP001"],
        )
        assert report.clean

    def test_record_parallel_counts_as_ledgered(self):
        report = check(
            """
            class Stage:
                def apply(self, ledger, count, rng):
                    ledger.record_parallel("local", "stage", 1.0, scope=1)
                    return self.mechanism.perturb(count, rng)
            """,
            codes=["DP001"],
        )
        assert report.clean

    def test_spend_is_not_a_ledger_call(self):
        """No ledger has ``spend``; only record/record_parallel count."""
        report = check(
            """
            class Stage:
                def apply(self, acct, count, rng):
                    acct.spend("stage/count", 1.0)
                    return self.mechanism.perturb_count(count, rng)
            """,
            codes=["DP001"],
        )
        assert codes_of(report) == ["DP001"]

    def test_module_level_qualified_draw_flagged(self):
        report = check(
            """
            from repro.core.laplace import laplace_noise

            def jitter(scale, rng):
                return laplace_noise(scale, rng)
            """,
            codes=["DP001"],
        )
        assert codes_of(report) == ["DP001"]
        assert "module scope" in report.findings[0].message

    def test_sanctioned_module_exempt(self):
        report = check(
            """
            class LaplaceMechanism:
                def perturb(self, value, rng):
                    return value + self.draw.laplace(self.scale, rng)
            """,
            codes=["DP001"],
            module="repro.core.laplace",
        )
        assert report.clean


class TestDET001:
    def test_stdlib_global_rng_flagged(self):
        report = check(
            """
            import random

            def shuffle(items):
                random.shuffle(items)
            """,
            codes=["DET001"],
        )
        assert codes_of(report) == ["DET001"]

    def test_numpy_legacy_rng_flagged_through_alias(self):
        report = check(
            """
            import numpy as np

            def noise(n):
                return np.random.normal(size=n)
            """,
            codes=["DET001"],
        )
        assert codes_of(report) == ["DET001"]
        assert "np.random.normal" in report.findings[0].message

    def test_seeded_constructors_clean(self):
        report = check(
            """
            import random

            import numpy as np

            def make(seed):
                return random.Random(seed), np.random.default_rng(seed)
            """,
            codes=["DET001"],
        )
        assert report.clean

    def test_instance_method_calls_clean(self):
        report = check(
            """
            def draw(rng):
                return rng.random()
            """,
            codes=["DET001"],
        )
        assert report.clean


class TestDET002:
    def test_wall_clock_flagged(self):
        report = check(
            """
            import time

            def stamp():
                return time.time()
            """,
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_datetime_now_flagged_through_from_import(self):
        report = check(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_perf_counter_allowed(self):
        report = check(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            codes=["DET002"],
        )
        assert report.clean

    def test_set_iteration_flagged(self):
        report = check(
            """
            def walk(a, b):
                for loc in {a, b}:
                    yield loc
            """,
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_comprehension_over_set_call_flagged(self):
        report = check(
            """
            def dedupe(items):
                return [x for x in set(items)]
            """,
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_sorted_set_iteration_clean(self):
        report = check(
            """
            def walk(items):
                for loc in sorted(set(items)):
                    yield loc
            """,
            codes=["DET002"],
        )
        assert report.clean


class TestEPS001:
    @pytest.mark.parametrize(
        "line",
        [
            "epsilon == 0",
            "eps != 0.0",
            "0 == self.epsilon_local",
        ],
    )
    def test_zero_comparison_flagged(self, line):
        report = check(f"def f(epsilon, eps, self): return ({line})",
                       codes=["EPS001"])
        assert codes_of(report) == ["EPS001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(eps):\n    if eps:\n        return 1",
            "def f(eps):\n    return 1 if eps else 2",
            "def f(self):\n    if not self.epsilon_global:\n        return 0",
            "def f(eps, other):\n    return eps and other",
        ],
    )
    def test_truthiness_flagged(self, snippet):
        report = check(snippet, codes=["EPS001"])
        assert codes_of(report) == ["EPS001"]

    def test_is_none_check_clean(self):
        report = check(
            """
            def f(epsilon):
                if epsilon is not None:
                    return epsilon
            """,
            codes=["EPS001"],
        )
        assert report.clean

    def test_magnitude_comparison_clean(self):
        report = check("def f(epsilon): return epsilon > 0",
                       codes=["EPS001"])
        assert report.clean

    def test_non_epsilon_name_clean(self):
        report = check("def f(radius): return radius == 0",
                       codes=["EPS001"])
        assert report.clean


class TestRACE001:
    def test_unlocked_self_write_in_pool_worker_flagged(self):
        report = check(
            """
            class Engine:
                def run(self, jobs):
                    return parallel_map(self._work, jobs)

                def _work(self, job):
                    self.cache = job
                    return job
            """,
            codes=["RACE001"],
        )
        assert codes_of(report) == ["RACE001"]
        assert "self.cache" in report.findings[0].message

    def test_locked_write_clean(self):
        report = check(
            """
            class Engine:
                def run(self, jobs):
                    return parallel_map(self._work, jobs)

                def _work(self, job):
                    with self._lock:
                        self.cache = job
                    return job
            """,
            codes=["RACE001"],
        )
        assert report.clean

    def test_executor_submit_receiver_detected(self):
        report = check(
            """
            class Engine:
                def run(self, jobs):
                    return [self.pool.submit(self._work, j) for j in jobs]

                def _work(self, job):
                    self.stats.done += 1
                    return job
            """,
            codes=["RACE001"],
        )
        assert codes_of(report) == ["RACE001"]

    def test_transitive_callee_flagged(self):
        report = check(
            """
            class Engine:
                def run(self, jobs):
                    return parallel_map(self._work, jobs)

                def _work(self, job):
                    return self._finish(job)

                def _finish(self, job):
                    self.last = job
                    return job
            """,
            codes=["RACE001"],
        )
        assert codes_of(report) == ["RACE001"]
        assert "Engine._finish" in report.findings[0].message

    def test_unreachable_write_clean(self):
        report = check(
            """
            class Engine:
                def configure(self, option):
                    self.option = option
            """,
            codes=["RACE001"],
        )
        assert report.clean

    def test_conditional_worker_alias_discovered(self):
        # The publisher picks its pool worker conditionally
        # (``runner = _module_worker``) before submitting; discovery
        # must follow the bare-name alias to the module function.
        report = check(
            """
            SEEN = None

            def _module_worker(job):
                global SEEN
                SEEN = job
                return job

            class Engine:
                def run(self, jobs, parallel):
                    if parallel:
                        runner = _module_worker
                    else:
                        runner = _module_worker
                    return parallel_map_stream(runner, jobs)
            """,
            codes=["RACE001"],
        )
        assert codes_of(report) == ["RACE001"]
        assert "_module_worker" in report.findings[0].message

    def test_cross_module_global_write_flagged(self, tmp_path):
        (tmp_path / "counters.py").write_text(textwrap.dedent(
            """
            TOTAL = 0

            def bump(job):
                global TOTAL
                TOTAL += 1
                return job
            """
        ))
        (tmp_path / "driver.py").write_text(textwrap.dedent(
            """
            from counters import bump

            def run(jobs):
                return parallel_map(bump, jobs)
            """
        ))
        report = analyze_paths([tmp_path], root=tmp_path, codes=["RACE001"])
        assert codes_of(report) == ["RACE001"]
        assert report.findings[0].path == "counters.py"
        assert "TOTAL" in report.findings[0].message

    def test_partial_wrapped_worker_discovered(self):
        # functools.partial(fn, ...) defers to fn: the pool entry is
        # the partial's first argument, not `partial` itself.
        report = check(
            """
            import functools

            class Engine:
                def run(self, jobs):
                    worker = functools.partial(self._work, retries=2)
                    return parallel_map(worker, jobs)

                def _work(self, job, retries):
                    self.cache = job
                    return job
            """,
            codes=["RACE001"],
        )
        assert codes_of(report) == ["RACE001"]
        assert "self.cache" in report.findings[0].message

    def test_lambda_wrapped_worker_discovered(self):
        report = check(
            """
            class Engine:
                def run(self, jobs):
                    return parallel_map(lambda j: self._work(j, 2), jobs)

                def _work(self, job, retries):
                    self.cache = job
                    return job
            """,
            codes=["RACE001"],
        )
        assert codes_of(report) == ["RACE001"]
        assert "self.cache" in report.findings[0].message


class TestEPS002:
    def test_dropped_share_flagged_at_split_line(self):
        report = check(
            """
            def allocate(epsilon):
                eps_g = epsilon * 0.5
                eps_t = epsilon * 0.5
                return draw(eps_t)
            """,
            codes=["EPS002"],
        )
        assert codes_of(report) == ["EPS002"]
        finding = report.findings[0]
        assert finding.line == 3
        assert "eps_g" in finding.message

    def test_split_call_shares_tracked_through_tuple_unpack(self):
        report = check(
            """
            def allocate(eps):
                eps_a, eps_b = split_budget(eps, 0.5)
                first(eps_a)
            """,
            codes=["EPS002"],
        )
        assert codes_of(report) == ["EPS002"]
        assert "eps_b" in report.findings[0].message

    def test_double_spend_of_split_source_flagged(self):
        report = check(
            """
            def run(eps, mechanism):
                eps_local = eps * 0.5
                mechanism.perturb(eps_local)
                mechanism.perturb(eps)
            """,
            codes=["EPS002"],
        )
        assert codes_of(report) == ["EPS002"]
        finding = report.findings[0]
        assert finding.line == 5
        assert "spends the same budget twice" in finding.message

    def test_all_shares_spent_clean(self):
        report = check(
            """
            def run(eps):
                eps_a, eps_b = split_budget(eps)
                first(eps_a)
                second(eps_b)
            """,
            codes=["EPS002"],
        )
        assert report.clean

    def test_share_derived_from_share_counts_as_read(self):
        report = check(
            """
            def run(epsilon):
                eps_half = epsilon * 0.5
                eps_quarter = eps_half * 0.5
                return draw(eps_quarter)
            """,
            codes=["EPS002"],
        )
        assert report.clean

    def test_exception_exit_does_not_count_as_drop(self):
        report = check(
            """
            def run(epsilon, jobs):
                eps_g = epsilon * 0.5
                validate(jobs)
                return draw(eps_g)
            """,
            codes=["EPS002"],
        )
        assert report.clean


class TestLIFE001:
    STORE = """
    class SpillStore:
        def append(self, row):
            pass

        def close(self):
            pass
    """

    def check_store(self, body):
        source = textwrap.dedent(self.STORE) + textwrap.dedent(body)
        return check(source, codes=["LIFE001"])

    def test_exception_path_leak_flagged(self):
        # The straight-line close() covers the normal path only: the
        # append() between open and close can raise past it.
        report = self.check_store(
            """
            def risky(rows):
                store = SpillStore()
                store.append(rows)
                store.close()
                return True
            """
        )
        assert codes_of(report) == ["LIFE001"]
        finding = report.findings[0]
        assert "exception path" in finding.message
        assert "SpillStore" in finding.message

    def test_returned_resource_escapes_ownership_clean(self):
        # Returning the store hands off ownership: escaped, not leaked.
        report = self.check_store(
            """
            def make_store(rows):
                store = SpillStore()
                store.append(rows)
                return store
            """
        )
        assert report.clean

    def test_never_closed_flagged(self):
        report = self.check_store(
            """
            def leaky(rows):
                store = SpillStore()
                store.append(rows)
                return len(rows)
            """
        )
        assert codes_of(report) == ["LIFE001"]
        assert "never reaches close()" in report.findings[0].message

    def test_with_block_clean(self):
        report = self.check_store(
            """
            def safe(rows):
                with SpillStore() as store:
                    store.append(rows)
            """
        )
        assert report.clean

    def test_try_finally_clean(self):
        report = self.check_store(
            """
            def safe(rows):
                store = SpillStore()
                try:
                    store.append(rows)
                finally:
                    store.close()
            """
        )
        assert report.clean

    def test_use_after_close_flagged(self):
        report = self.check_store(
            """
            def stale(rows):
                store = SpillStore()
                store.close()
                store.append(rows)
            """
        )
        assert codes_of(report) == ["LIFE001"]
        assert "used after" in report.findings[0].message


class TestLEDGER001:
    def test_exception_path_reservation_leak_flagged(self):
        report = check(
            """
            def spend(store, tenant, job, eps):
                rid = store.reserve(tenant, job, eps)
                work(rid)
                store.commit(tenant, rid)
            """,
            codes=["LEDGER001"],
        )
        assert codes_of(report) == ["LEDGER001"]
        finding = report.findings[0]
        assert finding.line == 3
        assert "an exception path" in finding.message

    def test_release_in_except_clean(self):
        report = check(
            """
            def spend(store, tenant, job, eps):
                rid = store.reserve(tenant, job, eps)
                try:
                    work(rid)
                    store.commit(tenant, rid)
                except Exception:
                    store.release(tenant, rid)
                    raise
            """,
            codes=["LEDGER001"],
        )
        assert report.clean

    def test_reserve_only_handoff_clean(self):
        # No commit/release anywhere in the function: the settle lives
        # downstream (a queue consumer), so this is not a leak.
        report = check(
            """
            def enqueue(store, queue, tenant, job, eps):
                rid = store.reserve(tenant, job, eps)
                queue.put(rid)
            """,
            codes=["LEDGER001"],
        )
        assert report.clean

    def test_double_settle_flagged(self):
        report = check(
            """
            def oops(store, tenant, job, eps):
                rid = store.reserve(tenant, job, eps)
                store.commit(tenant, rid)
                store.release(tenant, rid)
            """,
            codes=["LEDGER001"],
        )
        assert codes_of(report) == ["LEDGER001"]
        finding = report.findings[0]
        assert finding.line == 5  # the second settle, not the first
        assert "already settled" in finding.message


class TestRACE002:
    def test_inverted_lock_pair_flagged(self):
        report = check(
            """
            class Engine:
                def flush(self):
                    with self.store_lock:
                        with self.job_lock:
                            pass

                def cancel(self):
                    with self.job_lock:
                        with self.store_lock:
                            pass
            """,
            codes=["RACE002"],
        )
        assert codes_of(report) == ["RACE002"]
        message = report.findings[0].message
        assert "job_lock" in message
        assert "store_lock" in message
        assert "inconsistent order" in message

    def test_consistent_order_clean(self):
        report = check(
            """
            class Engine:
                def flush(self):
                    with self.store_lock:
                        with self.job_lock:
                            pass

                def cancel(self):
                    with self.store_lock:
                        with self.job_lock:
                            pass
            """,
            codes=["RACE002"],
        )
        assert report.clean

    def test_cycle_through_called_method_flagged(self):
        report = check(
            """
            class Engine:
                def outer(self):
                    with self.a_lock:
                        self.grab()

                def grab(self):
                    with self.b_lock:
                        pass

                def other(self):
                    with self.b_lock:
                        with self.a_lock:
                            pass
            """,
            codes=["RACE002"],
        )
        assert codes_of(report) == ["RACE002"]
        assert "call to" in report.findings[0].message

    def test_single_lock_reentry_not_flagged(self):
        report = check(
            """
            class Engine:
                def flush(self):
                    with self.store_lock:
                        self.drain()

                def drain(self):
                    with self.store_lock:
                        pass
            """,
            codes=["RACE002"],
        )
        assert report.clean


class TestSuppression:
    VIOLATION = """
    import random

    def draw():
        return random.random()  # repro: noqa[DET001]
    """

    def test_coded_noqa_suppresses(self):
        report = check(self.VIOLATION, codes=["DET001"])
        assert report.clean
        assert [f.code for f in report.suppressed] == ["DET001"]

    def test_bare_noqa_suppresses_everything(self):
        report = check(
            """
            import random

            def draw():
                return random.random()  # repro: noqa
            """,
            codes=["DET001"],
        )
        assert report.clean
        assert len(report.suppressed) == 1

    def test_wrong_code_does_not_suppress(self):
        report = check(
            """
            import random

            def draw():
                return random.random()  # repro: noqa[DP001]
            """,
            codes=["DET001"],
        )
        assert codes_of(report) == ["DET001"]

    def test_code_match_case_insensitive(self):
        report = check(
            """
            import random

            def draw():
                return random.random()  # repro: noqa[det001]
            """,
            codes=["DET001"],
        )
        assert report.clean


class TestBaseline:
    VIOLATION = """
    import random

    def draw():
        return random.random()
    """

    def test_from_findings_absorbs_everything(self):
        first = check(self.VIOLATION, codes=["DET001"])
        baseline = Baseline.from_findings(first.findings)
        second = check(self.VIOLATION, codes=["DET001"], baseline=baseline)
        assert second.clean
        assert len(second.baselined) == 1
        assert not second.stale_baseline

    def test_survives_line_drift(self):
        baseline = Baseline.from_findings(
            check(self.VIOLATION, codes=["DET001"]).findings
        )
        shifted = "# a new leading comment\n\n" + textwrap.dedent(self.VIOLATION)
        report = analyze_source(shifted, codes=["DET001"], baseline=baseline)
        assert report.clean
        assert len(report.baselined) == 1

    def test_fixed_violation_marks_entry_stale(self):
        baseline = Baseline.from_findings(
            check(self.VIOLATION, codes=["DET001"]).findings
        )
        report = check("def draw(rng): return rng.random()",
                       codes=["DET001"], baseline=baseline)
        assert report.clean
        assert len(report.stale_baseline) == 1
        assert report.stale_baseline[0].code == "DET001"

    def test_count_caps_absorption(self):
        doubled = """
        import random

        def draw():
            return random.random()

        def draw_again():
            return random.random()
        """
        entry = BaselineEntry(
            code="DET001",
            path="<snippet>.py",
            snippet="return random.random()",
            count=1,
        )
        report = check(doubled, codes=["DET001"],
                       baseline=Baseline(entries=[entry]))
        # Two identical snippets, budget for one: the second stays active.
        assert len(report.baselined) == 1
        assert len(report.findings) == 1

    def test_save_load_round_trip(self, tmp_path):
        baseline = Baseline.from_findings(
            check(self.VIOLATION, codes=["DET001"]).findings,
            reason="legacy draw",
        )
        target = tmp_path / "baseline.json"
        baseline.save(target)
        assert Baseline.load(target) == baseline

    def test_load_rejects_unknown_version(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Baseline.load(target)


class TestReportSchema:
    def test_json_shape(self):
        report = check(TestBaseline.VIOLATION, codes=["DET001"])
        payload = report.to_dict()
        assert set(payload) == {
            "version", "files", "codes", "findings", "suppressed",
            "baselined", "stale_baseline", "unused_noqa", "clean",
        }
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert payload["codes"] == ["DET001"]
        assert payload["clean"] is False
        (finding,) = payload["findings"]
        assert set(finding) == {
            "code", "path", "line", "col", "message", "snippet",
        }
        assert Finding.from_dict(finding) == report.findings[0]

    def test_render_human_mentions_location_and_code(self):
        report = check(TestBaseline.VIOLATION, codes=["DET001"])
        text = report.render_human()
        assert "<snippet>.py:5:12: DET001" in text
        assert "1 finding(s)" in text

    def test_syntax_error_raises_analysis_error(self):
        with pytest.raises(AnalysisError):
            analyze_source("def broken(:\n")


class TestUnusedNoqa:
    def test_unused_named_noqa_warns_without_failing(self):
        report = check(
            """
            def double(x):
                return 2 * x  # repro: noqa[DET001]
            """,
            codes=["DET001"],
        )
        assert report.clean
        assert report.exit_code() == 0
        (unused,) = report.unused_noqa
        assert unused.line == 3
        assert unused.codes == ("DET001",)
        assert "unused suppression" in report.render_human()

    def test_used_noqa_not_warned(self):
        report = check(TestSuppression.VIOLATION, codes=["DET001"])
        assert report.clean
        assert report.unused_noqa == []

    def test_named_code_outside_run_set_not_warned(self):
        # A restricted run cannot tell whether DP001 would have fired.
        report = check(
            """
            def double(x):
                return 2 * x  # repro: noqa[DP001]
            """,
            codes=["DET001"],
        )
        assert report.unused_noqa == []

    def test_bare_noqa_only_flagged_on_full_run(self):
        source = """
        def double(x):
            return 2 * x  # repro: noqa
        """
        restricted = check(source, codes=["DET001"])
        assert restricted.unused_noqa == []
        full = check(source)
        (unused,) = full.unused_noqa
        assert unused.codes == ("*",)

    def test_partially_used_noqa_reports_dead_codes_only(self):
        report = check(
            """
            import random

            def draw():
                return random.random()  # repro: noqa[DET001, DP001]
            """,
            codes=["DET001", "DP001"],
        )
        assert report.clean
        (unused,) = report.unused_noqa
        assert unused.codes == ("DP001",)

    def test_docstring_mention_is_not_a_suppression(self):
        # The syntax quoted in prose must neither suppress findings on
        # its line nor register as an unused suppression.
        report = check(
            '''
            """Suppress inline with ``# repro: noqa[DET001]``."""
            import random

            def draw():
                return random.random()
            ''',
            codes=["DET001"],
        )
        assert codes_of(report) == ["DET001"]
        assert report.unused_noqa == []

    def test_unused_noqa_serialized_in_json(self):
        report = check(
            """
            def double(x):
                return 2 * x  # repro: noqa[DET001]
            """,
            codes=["DET001"],
        )
        payload = report.to_dict()
        assert payload["unused_noqa"] == [
            {"path": "<snippet>.py", "line": 3, "codes": ["DET001"]}
        ]


class TestSarif:
    def test_sarif_log_shape(self):
        report = check(TestBaseline.VIOLATION, codes=["DET001"])
        log = report.to_sarif()
        assert log["$schema"].endswith("sarif-2.1.0.json")
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-check"
        (rule_entry,) = driver["rules"]
        assert rule_entry["id"] == "DET001"
        assert rule_entry["shortDescription"]["text"]
        assert rule_entry["fullDescription"]["text"]
        (result,) = run["results"]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        assert result["message"]["text"]
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "<snippet>.py"
        region = physical["region"]
        finding = report.findings[0]
        assert region["startLine"] == finding.line
        assert region["startColumn"] == finding.col + 1
        assert region["snippet"]["text"] == finding.snippet

    def test_driver_rules_restricted_to_run_set(self):
        report = check("x = 1\n", codes=["DET001", "DP001"])
        log = report.to_sarif()
        driver = log["runs"][0]["tool"]["driver"]
        assert sorted(r["id"] for r in driver["rules"]) == ["DET001", "DP001"]
        assert log["runs"][0]["results"] == []

    def test_suppressed_findings_omitted(self):
        report = check(TestSuppression.VIOLATION, codes=["DET001"])
        assert len(report.suppressed) == 1
        assert report.to_sarif()["runs"][0]["results"] == []

    def test_cli_format_sarif(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import random\n\n\ndef draw():\n    return random.random()\n"
        )
        code = main(["check", str(dirty), "--baseline", "none",
                     "--format", "sarif"])
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["DET001"]


class TestCheckCLI:
    """The `repro check` exit-code contract, end to end."""

    def clean_file(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("def double(x):\n    return 2 * x\n")
        return path

    def dirty_file(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(
            "import random\n\n\ndef draw():\n    return random.random()\n"
        )
        return path

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        code = main(["check", str(self.clean_file(tmp_path)),
                     "--baseline", "none"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        code = main(["check", str(self.dirty_file(tmp_path)),
                     "--baseline", "none"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "random.random" in out

    def test_exit_two_on_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        code = main(["check", str(bad), "--baseline", "none"])
        assert code == 2
        assert "syntax error" in capsys.readouterr().err

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        code = main(["check", str(self.clean_file(tmp_path)),
                     "--baseline", "none", "--rules", "NOPE999"])
        assert code == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_json_format_machine_readable(self, tmp_path, capsys):
        code = main(["check", str(self.dirty_file(tmp_path)),
                     "--baseline", "none", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["clean"] is False
        assert payload["findings"][0]["code"] == "DET001"

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DP001", "DET001", "DET002", "RACE001", "EPS001",
                     "EPS002", "LIFE001", "LEDGER001", "RACE002"):
            assert code in out

    def test_rules_flag_restricts(self, tmp_path, capsys):
        code = main(["check", str(self.dirty_file(tmp_path)),
                     "--baseline", "none", "--rules", "DP001"])
        assert code == 0  # the DET001 violation is outside the rule set
        capsys.readouterr()

    def test_update_baseline_then_clean_then_stale(self, tmp_path, capsys):
        dirty = self.dirty_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["check", str(dirty), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert "1 finding(s) grandfathered" in capsys.readouterr().out
        # Grandfathered: same tree now exits 0, finding is baselined.
        assert main(["check", str(dirty), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # Fix the violation: still 0, but the entry is reported stale.
        dirty.write_text("def draw(rng):\n    return rng.random()\n")
        assert main(["check", str(dirty), "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out
