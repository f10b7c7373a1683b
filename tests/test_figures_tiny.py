"""Integration smoke of every figure driver at miniature scale.

These are correctness tests, not shape tests (the benches own the shape
assertions at meaningful scale): every driver must run end to end,
produce its documented rows/columns, render, and emit finite numbers.
The run cache is shared across the module so drivers that reuse the same
underlying runs (fig04/fig12/fig14 share workload runs) stay cheap.
"""

import math

import pytest

from repro.experiments import figures as F
from repro.engine.session import default_session
from repro.experiments.scale import Scale
from repro.metrics.pollution import PollutionBreakdown

TINY = Scale.tiny()


@pytest.fixture(scope="module", autouse=True)
def _module_cache():
    default_session().clear()
    yield
    default_session().clear()


def _assert_finite(fig):
    for label, row in fig.rows.items():
        for column, value in row.items():
            if isinstance(value, (int, float)):
                assert math.isfinite(value), f"{fig.figure_id}[{label}][{column}]"


class TestCategoryFigures:
    def test_fig04(self):
        fig = F.fig04_prior_prefetchers_by_category(TINY)
        assert set(fig.rows) == {"BOP", "SMS", "SPP"}
        assert "GEOMEAN" in fig.columns
        _assert_finite(fig)

    def test_fig12(self):
        fig = F.fig12_single_thread(TINY)
        assert "DSPatch+SPP" in fig.rows
        _assert_finite(fig)

    def test_fig14(self):
        fig = F.fig14_adjunct_prefetchers(TINY)
        assert {"SPP", "BOP+SPP", "SMS(iso)+SPP", "DSPatch+SPP"} == set(fig.rows)
        _assert_finite(fig)


class TestSweepFigures:
    def test_fig01_columns_are_six_bandwidth_points(self):
        fig = F.fig01_bw_scaling_prior(TINY)
        assert len(fig.columns) == 6
        _assert_finite(fig)

    def test_fig15_includes_combo(self):
        fig = F.fig15_bw_scaling_dspatch(TINY)
        assert "DSPatch+SPP" in fig.rows
        _assert_finite(fig)


class TestWorkloadLevelFigures:
    def test_fig13_rows_are_workloads(self):
        fig = F.fig13_memory_intensive_lines(TINY)
        assert fig.rows  # one row per sampled memory-intensive workload
        _assert_finite(fig)

    def test_fig16_breakdown_sums_sane(self):
        fig = F.fig16_coverage_accuracy(TINY)
        for label, row in fig.rows.items():
            covered = row.get("Covered")
            uncovered = row.get("Uncovered")
            if covered is not None and uncovered is not None:
                assert covered + uncovered == pytest.approx(100.0, abs=1.0)


class TestMultiProgrammed:
    def test_fig17(self):
        fig = F.fig17_mp_homogeneous(TINY)
        assert fig.rows
        _assert_finite(fig)

    def test_fig18_four_columns(self):
        fig = F.fig18_mp_bandwidth(TINY)
        assert len(fig.columns) == 4
        _assert_finite(fig)


class TestAppendixAndRender:
    def test_fig20_pollution_classes(self):
        fig = F.fig20_pollution(TINY)
        for row in fig.rows.values():
            total = sum(v for v in row.values() if isinstance(v, (int, float)))
            assert total == pytest.approx(100.0, abs=1.0)

    def test_fig20_row_without_victims_is_no_data(self, monkeypatch):
        """An LLC size that classifies no victim reports no data, not 0%.

        Runs after the test above, so the grid comes from the session memo.
        """
        monkeypatch.setattr(F, "classify_pollution", lambda *args: PollutionBreakdown())
        fig = F.fig20_pollution(TINY)
        assert set(fig.rows) == {"8MB", "4MB", "2MB"}
        for label, row in fig.rows.items():
            assert row == dict.fromkeys(fig.columns), label
            assert any(label in note and "trace_len" in note for note in fig.notes)
        lines = fig.render().splitlines()
        for label in fig.rows:
            row_line = next(line for line in lines if line.strip().startswith(label))
            assert row_line.split()[1:] == ["-"] * len(fig.columns)

    def test_every_driver_renders(self):
        # Quick render sanity over the static drivers.
        for driver in (F.fig08_quantization_example, F.table1_dspatch_storage,
                       F.table3_prefetcher_storage):
            text = driver().render()
            assert "=" in text
