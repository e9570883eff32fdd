"""Fixture-snippet tests for every project lint rule (must-flag / must-pass)."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_source, lint_tree

REPO = Path(__file__).resolve().parent.parent

SRC_PATH = "src/repro/serving/engine.py"  # in scope for the src-only rules


def flags(source, rel, rule):
    """Unsuppressed violations of ``rule`` for ``source`` at ``rel``."""
    return [
        v for v in lint_source(textwrap.dedent(source), rel)
        if v.rule == rule and not v.suppressed
    ]


class TestCapabilityProbe:
    def test_flags_hasattr_in_src(self):
        found = flags("ok = hasattr(backend, 'sketch')\n", SRC_PATH, "capability-probe")
        assert len(found) == 1
        assert "CompressedEmbedding method" in found[0].message

    def test_flags_callable_getattr_probe(self):
        source = "ok = callable(getattr(backend, 'seal', None))\n"
        found = flags(source, SRC_PATH, "capability-probe")
        assert found and "CompressedEmbedding method" in found[0].message

    @pytest.mark.parametrize("rel", [
        "src/repro/api/config.py", "src/repro/embeddings/base.py", "src/repro/store/sharded.py",
    ])
    def test_all_of_src_is_in_scope(self, rel):
        # The one exempt module (the capability registry) is gone.
        assert flags("ok = hasattr(backend, 'sketch')\n", rel, "capability-probe")

    def test_tests_are_out_of_scope(self):
        source = "ok = hasattr(store, '_shards')\n"
        assert not flags(source, "tests/test_store.py", "capability-probe")

    def test_plain_getattr_with_default_passes(self):
        source = "value = getattr(config, 'workers', 2)\n"
        assert not flags(source, SRC_PATH, "capability-probe")


TIMING_PATH = "src/repro/training/latency.py"  # any module that times something


class TestBenchWallclock:
    def test_flags_time_time(self):
        found = flags("start = time.time()\n", TIMING_PATH, "bench-wallclock")
        assert len(found) == 1
        assert "perf_counter" in found[0].message

    def test_perf_counter_passes(self):
        source = "start = time.perf_counter()\n"
        assert not flags(source, TIMING_PATH, "bench-wallclock")


class TestClockAssert:
    """The three assertion shapes tier-1 carried before PR 22 (the first
    failed a fresh checkout's ``pytest -x``), as source strings."""

    # tests/test_runtime_executor.py:84 at the parent: a ratio of two
    # elapsed-time locals, each a perf_counter() difference.
    RATIO_OF_LOCALS = """
    def test_pool_overlaps_stalls(self):
        tasks = [(i, stall) for i in range(4)]
        start = time.perf_counter()
        for _ in range(3):
            serial.run(tasks)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(3):
            pooled.run(tasks)
        pooled_s = time.perf_counter() - start
        pooled.close()
        assert serial_s / pooled_s >= 1.5
    """

    # tests/test_runtime_executor.py:139: the same ratio timed around store
    # lookups; bound to one more local here so the taint has to propagate.
    RATIO_THROUGH_A_THIRD_NAME = """
    def test_store_fanout_speedup(self):
        start = time.perf_counter()
        for step in range(4):
            serial.lookup(ids[step])
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        for step in range(4):
            pooled.lookup(ids[step])
        pooled_s = time.perf_counter() - start
        speedup = serial_s / pooled_s
        assert speedup >= 1.5
    """

    # tests/test_bench.py:93-94: the ratio was computed under src/ and
    # arrived in a report dict; no clock appears in the test's own source.
    RATIO_FROM_A_REPORT = """
    def test_smoke(tmp_path):
        report = run_benchmarks(config)
        parallel = report["results"]["shard_parallel"]
        wide_rows = [row for row in parallel["rows"] if row["num_shards"] >= 4]
        assert wide_rows and all(row["fanout_speedup"] >= 1.2 for row in wide_rows)
    """

    @pytest.mark.parametrize("path", ["tests/test_runtime_executor.py",
                                      "benchmarks/test_fig13_throughput.py"])
    @pytest.mark.parametrize("source", [RATIO_OF_LOCALS, RATIO_THROUGH_A_THIRD_NAME],
                             ids=["ratio_of_locals", "ratio_through_a_third_name"])
    def test_flags_assert_on_elapsed_time(self, source, path):
        found = flags(source, path, "bench-wallclock")
        assert len(found) == 1
        assert "perf/" in found[0].message
        assert textwrap.dedent(source).splitlines()[found[0].line - 1].lstrip().startswith("assert")

    def test_flags_a_direct_clock_read(self):
        source = """
        def test_deadline():
            deadline = time.monotonic() + 1.0
            work()
            assert time.monotonic() < deadline
        """
        assert len(flags(source, "tests/test_x.py", "bench-wallclock")) == 1

    def test_ratio_from_a_report_is_out_of_reach(self):
        # Local taint cannot see a timing number that crosses a call: this
        # shape is closed by deleting its producer (nothing outside perf/
        # computes a speed ratio any more), not by the rule.
        assert not flags(self.RATIO_FROM_A_REPORT, "tests/test_bench.py", "bench-wallclock")

    def test_polling_loop_passes(self):
        # Waiting, deadline-bounded, for a condition to come true.
        source = """
        def test_killed_worker():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if gone(pid):
                    break
                time.sleep(0.01)
            assert gone(pid)
        """
        assert not flags(source, "tests/test_x.py", "bench-wallclock")

    def test_timing_that_feeds_no_assert_passes(self):
        source = """
        def test_reports_elapsed(record):
            start = time.perf_counter()
            result = work()
            record(time.perf_counter() - start)
            assert result == 42
        """
        assert not flags(source, "benchmarks/test_fig13_throughput.py", "bench-wallclock")

    def test_src_is_out_of_scope(self):
        assert not flags(self.RATIO_OF_LOCALS, TIMING_PATH, "bench-wallclock")

    # benchmarks/test_fig13_latency_throughput.py before the two comparisons
    # left it: one method's timed column against another's.
    COMPARED_TIMING_COLUMNS = """
    def test_fig13(benchmark):
        result = run_once(benchmark, run_fig13_latency_throughput)
        rows = {r["method"]: r for r in result.rows}
        assert rows["hash"]["train_latency_ms"] <= rows["cafe"]["train_latency_ms"] * 3.0
        assert rows["hash"]["inference_latency_ms"] <= rows["cafe"]["inference_latency_ms"] * 3.0
    """

    def test_flags_an_assert_comparing_two_timing_columns(self):
        found = flags(self.COMPARED_TIMING_COLUMNS, "benchmarks/test_fig13_x.py", "bench-wallclock")
        assert [violation.line for violation in found] == [5, 6]
        assert "timing_columns" in found[0].message

    def test_a_positivity_check_on_a_timing_column_passes(self):
        source = """
        def test_fig13(benchmark):
            rows = {r["method"]: r for r in run_fig13_latency_throughput().rows}
            for row in rows.values():
                assert row["train_latency_ms"] > 0
                assert row["train_throughput"] > 0
            assert rows["hash"]["auc"] <= rows["cafe"]["auc"]
        """
        assert not flags(source, "benchmarks/test_fig13_x.py", "bench-wallclock")

    def test_a_clock_assert_on_timing_columns_is_reported_once(self):
        source = """
        def test_fig18():
            start = time.perf_counter()
            row = run()
            assert row["insert_mops"] > row["query_mops"] * (time.perf_counter() - start)
        """
        assert len(flags(source, "tests/test_x.py", "bench-wallclock")) == 1

    def test_timing_columns_out_of_tests_pass(self):
        assert not flags(self.COMPARED_TIMING_COLUMNS, TIMING_PATH, "bench-wallclock")

    def test_nested_function_is_reported_once(self):
        source = """
        def test_outer():
            def check():
                start = time.perf_counter()
                work()
                assert time.perf_counter() - start < 0.1
            check()
        """
        assert len(flags(source, "tests/test_x.py", "bench-wallclock")) == 1


class TestMutableDefault:
    def test_flags_list_and_dict_defaults(self):
        source = """
        def f(items=[], table={}):
            return items, table
        """
        assert len(flags(source, SRC_PATH, "mutable-default")) == 2

    def test_flags_keyword_only_constructor_default(self):
        source = """
        def f(*, cache=dict()):
            return cache
        """
        assert flags(source, SRC_PATH, "mutable-default")

    def test_none_and_tuple_defaults_pass(self):
        source = """
        def f(items=None, pair=(1, 2), name="x"):
            return items, pair, name
        """
        assert not flags(source, SRC_PATH, "mutable-default")


class TestImplicitDtype:
    def test_flags_bare_np_zeros_in_store(self):
        source = "table = np.zeros((4, 8))\n"
        found = flags(source, "src/repro/store/sharded.py", "implicit-dtype")
        assert len(found) == 1
        assert "float64" in found[0].message

    def test_dtype_keyword_passes(self):
        source = "table = np.zeros((4, 8), dtype=np.float32)\n"
        assert not flags(source, "src/repro/store/sharded.py", "implicit-dtype")

    def test_positional_dtype_passes(self):
        source = "table = np.ones((4, 8), np.float32)\n"
        assert not flags(source, "src/repro/embeddings/cafe.py", "implicit-dtype")

    def test_out_of_scope_module_passes(self):
        source = "mask = np.zeros((4,))\n"
        assert not flags(source, "src/repro/serving/stats.py", "implicit-dtype")

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/nn/functional.py",
            "src/repro/nn/layers.py",
            "src/repro/nn/interactions.py",
            "src/repro/models/dlrm.py",
        ],
    )
    def test_dense_network_modules_are_in_scope(self, path):
        # The allocation that used to promote the whole interaction backward.
        assert flags("grad_gram = np.zeros((batch, fields, fields))\n", path, "implicit-dtype")
        assert not flags("bias = np.zeros(out_features, dtype=dtype)\n", path, "implicit-dtype")

    @pytest.mark.parametrize(
        "source",
        [
            "y = np.asarray(targets, dtype=np.float64).reshape(shape)\n",
            "y = numpy.asarray(targets, dtype='float64')\n",
            "g = grad.astype(np.float64)\n",
            "g = grad.astype('float64')\n",
        ],
    )
    def test_flags_hard_coded_float64_in_functional(self, source):
        found = flags(source, "src/repro/nn/functional.py", "implicit-dtype")
        assert len(found) == 1
        assert "dtype of its operands" in found[0].message
        # Metrics and analysis code reduce in float64 on purpose.
        assert not flags(source, "src/repro/nn/optim.py", "implicit-dtype")
        assert not flags(source, "src/repro/training/metrics.py", "implicit-dtype")

    @pytest.mark.parametrize(
        "source",
        [
            "y = np.asarray(targets, dtype=z.dtype)\n",
            "idx = np.asarray(indices, dtype=np.int64)\n",
            "g = grad.astype(z.dtype)\n",
            "loss = losses.mean(dtype=np.float64)\n",
        ],
    )
    def test_operand_dtype_conversions_pass_in_functional(self, source):
        assert not flags(source, "src/repro/nn/functional.py", "implicit-dtype")


class TestSuppressions:
    def test_allow_comment_suppresses_and_is_counted(self):
        source = "ok = hasattr(x, 'y')  # lint: allow[capability-probe] proxy objects lie\n"
        violations = lint_source(source, SRC_PATH)
        assert len(violations) == 1
        assert violations[0].suppressed
        assert violations[0].reason == "proxy objects lie"

    def test_allow_for_a_different_rule_does_not_suppress(self):
        source = "ok = hasattr(x, 'y')  # lint: allow[mutable-default]\n"
        violations = lint_source(source, SRC_PATH)
        assert len(violations) == 1
        assert not violations[0].suppressed

    def test_multiple_rules_in_one_comment(self):
        source = (
            "def f(t=time.time(), items=[]):  "
            "# lint: allow[bench-wallclock, mutable-default] fixture\n"
            "    return t, items\n"
        )
        violations = lint_source(source, SRC_PATH)
        assert violations and all(v.suppressed for v in violations)

    def test_report_counts_suppressions_by_rule(self, tmp_path):
        src = tmp_path / "src" / "repro" / "store"
        src.mkdir(parents=True)
        src.joinpath("x.py").write_text(
            "ok = hasattr(x, 'y')  # lint: allow[capability-probe] because\n",
            encoding="utf-8",
        )
        report = lint_tree(tmp_path)
        assert report.ok
        assert report.suppression_counts == {"capability-probe": 1}


class TestSegmentSum:
    @pytest.mark.parametrize(
        "source",
        [
            "sums = np.add.reduceat(values, starts, axis=0)\n",
            "sums = numpy.add.reduceat(values[order], starts)\n",
            "reduce = np.add.reduceat\n",
        ],
    )
    def test_flags_reduceat_in_src(self, source):
        found = flags(source, "src/repro/sketch/hotsketch.py", "segment-sum")
        assert len(found) == 1
        assert "SegmentSum" in found[0].message

    def test_kernels_ops_is_its_home(self):
        source = "sums = np.add.reduceat(values, starts, axis=0)\n"
        assert not flags(source, "src/repro/kernels/ops.py", "segment-sum")

    def test_tests_are_out_of_scope(self):
        # Tests compare against reduceat: it is the reference, not a second path.
        source = "expected = np.add.reduceat(values[perm], starts, axis=0)\n"
        assert not flags(source, "tests/test_kernels.py", "segment-sum")

    def test_other_ufunc_methods_pass(self):
        source = "total = np.add.reduce(values)\nsums = np.maximum.reduceat(values, starts)\n"
        assert not flags(source, "src/repro/sketch/hotsketch.py", "segment-sum")


class TestGraphInLoop:
    @pytest.mark.parametrize(
        "source",
        [
            "from repro.nn.tensor import Tensor\n",
            "import repro.nn.tensor\n",
            "from repro.nn import Tensor, functional as F\n",
            "from repro.nn import tensor\n",
            "loss.backward()\n",
            "node = make_node(out, (x,), backward)\n",
            "node = tensor.make_node(out, (x,), backward)\n",
        ],
    )
    @pytest.mark.parametrize(
        "rel",
        ["src/repro/training/trainer.py", "src/repro/runtime/pipeline.py", "src/repro/serving/engine.py"],
    )
    def test_flags_a_graph_in_the_loops(self, source, rel):
        found = flags(source, rel, "graph-in-loop")
        assert len(found) == 1
        assert "arrays" in found[0].message

    def test_arrays_pass(self):
        source = (
            "from repro.nn import functional as F\n"
            "from repro.nn.layers import claim_workspace\n"
            "loss, e = F.bce_with_logits_array(z, y)\n"
            "dx = model.dense_backward(weights, x, numerical, dlogits, ws, optimizer.staging)\n"
        )
        assert not flags(source, "src/repro/training/trainer.py", "graph-in-loop")

    @pytest.mark.parametrize(
        "rel", ["src/repro/models/base.py", "src/repro/nn/functional.py", "tests/test_array_step.py"]
    )
    def test_the_graph_itself_and_tests_are_out_of_scope(self, rel):
        source = "from repro.nn.tensor import make_node\nloss.backward()\n"
        assert not flags(source, rel, "graph-in-loop")


class TestRepoIsClean:
    def test_rule_catalog_is_stable(self):
        assert {rule.id for rule in RULES} == {
            "capability-probe",
            "bench-wallclock",
            "mutable-default",
            "implicit-dtype",
            "segment-sum",
            "graph-in-loop",
        }

    def test_lint_tree_finds_no_unsuppressed_violations(self):
        report = lint_tree(REPO)
        problems = [v.render() for v in report.unsuppressed] + report.parse_errors
        assert not problems, "\n".join(problems)
        assert report.files_scanned > 100
