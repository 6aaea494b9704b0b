"""Unit tests for statistics and RNG utilities."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

from repro.util.rng import make_rng, spawn_rng
from repro.util.stats import ConfidenceInterval, mean_ci, percentile, summarize


class TestMeanCI:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_single_sample_zero_width(self):
        ci = mean_ci([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0
        assert ci.n == 1

    def test_identical_samples_zero_width(self):
        ci = mean_ci([2.0] * 10)
        assert ci.mean == 2.0
        assert ci.half_width == pytest.approx(0.0)

    def test_known_value(self):
        # n=10, sd=1 -> half width = t(9, .975) * 1/sqrt(10) ~= 0.7154
        samples = [0.0, 2.0] * 5  # mean 1, sample sd ~1.054
        ci = mean_ci(samples)
        assert ci.mean == pytest.approx(1.0)
        sd = math.sqrt(sum((x - 1.0) ** 2 for x in samples) / 9)
        expected = 2.262 * sd / math.sqrt(10)
        assert ci.half_width == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("df, t", [
        (9, 2.262),      # the paper's ten repetitions
        (16, 2.120), (19, 2.093),   # exact entries through df 30
        (35, 2.042),     # between keys: round df down to 30, never up to 40
        (1000, 1.980),   # past the table: its last key, 120
    ])
    def test_t_quantile_never_narrower_than_the_truth(self, df, t):
        samples = [float(i % 3) for i in range(df + 1)]
        mean = sum(samples) / (df + 1)
        sem = math.sqrt(sum((x - mean) ** 2 for x in samples) / df / (df + 1))
        assert mean_ci(samples).half_width / sem == pytest.approx(t, abs=1e-9)

    def test_bounds(self):
        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.low == ci.mean - ci.half_width
        assert ci.high == ci.mean + ci.half_width

    def test_str_format(self):
        assert "n=3" in str(mean_ci([1.0, 2.0, 3.0]))

    def test_wider_with_more_variance(self):
        tight = mean_ci([1.0, 1.1, 0.9, 1.0])
        loose = mean_ci([0.0, 2.0, -1.0, 3.0])
        assert loose.half_width > tight.half_width


class TestPercentile:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bounds_check(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_median_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50) == 5.0

    def test_extremes(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0


class TestSummarize:
    def test_keys(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert set(stats) == {"mean", "ci95", "min", "max", "p50", "p99", "n"}

    def test_values(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["n"] == 3


class TestImportHygiene:
    def test_no_numeric_stack_at_import(self):
        """Interpreter start-up is part of every benchmark workload's
        ``setup_s``: importing the library and the gate must not drag in
        scipy/numpy (about a second) or an optional event loop."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, repro, repro.runtime, repro.sim, "
                "repro.tools.bench; "
                "print(sorted({'scipy', 'numpy', 'uvloop'} "
                "& set(sys.modules)))")
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "[]"

    def test_durable_storage_needs_no_runtime(self, tmp_path):
        """``FileStorage`` writes the wire's value encoding, which lives
        below both: a simulator process that journals to disk loads
        neither the TCP runtime nor an event loop."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, repro.sim; "
                "from repro.omni.storage import FileStorage; "
                "from repro.omni.entry import Command; "
                f"path = {str(tmp_path / 'wal.bin')!r}; "
                "s = FileStorage(path); s.append_entry(Command(b'x')); "
                "s.sync(); s.close(); s = FileStorage(path); "
                "assert s.log_len() == 1; s.close(); "
                "print(sorted(m for m in sys.modules if m == 'asyncio' "
                "or m.startswith('repro.runtime')))")
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "[]"


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_spawn_streams_differ_by_scope(self):
        a = spawn_rng(42, "raft", 1)
        b = spawn_rng(42, "raft", 2)
        assert a.random() != b.random()

    def test_spawn_streams_differ_by_seed(self):
        a = spawn_rng(1, "x")
        b = spawn_rng(2, "x")
        assert a.random() != b.random()

    def test_spawn_reproducible(self):
        a = spawn_rng(42, "net")
        b = spawn_rng(42, "net")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_large_seeds_matter(self):
        a = spawn_rng(1 << 40, "x")
        b = spawn_rng(0, "x")
        assert a.random() != b.random()
