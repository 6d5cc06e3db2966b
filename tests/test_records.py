"""Each suite folds its chunks into one running record (harness._Record).

The record keeps the worst sample so far and each chunk's failing samples,
and then records them (_Record.scan).  Its records must equal those of the
whole run's arrays (oracles.oracle_suite_records), however the samples are
cut into chunks, a whole run as one chunk among them: the worst sample is the
first extreme or the first NaN in sample order, and every other failing
sample follows once, in sample order.
"""

import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import EnsembleConfig, HarnessConfig, UsageError, cmd_lemmas, envelope_gap_sides
from hardylab.ensembles import _child_seeds, arith_sample_batch
from hardylab.harness import _Record
from hardylab.torus import MEMORY_GUARD_ENTRIES
from oracles import oracle_suite_records

LABELS = ["min-slack", "max-residual"]


def folded(label, cuts, lhs, rhs, gap, passed):
    """The records of a _Record fed the samples in chunks ending at cuts."""
    record, checks = _Record("suite", label), []
    for start, stop in zip([0, *cuts], [*cuts, len(gap)]):
        record.add(slice(start, stop), lhs[start:stop], rhs[start:stop], gap[start:stop],
                   passed[start:stop])
    worst = record.scan(checks)
    return repr(worst), [repr(c) for c in checks]  # a NaN gap compares by its repr


def whole(label, lhs, rhs, gap, passed):
    """The oracle's records of the whole run's arrays."""
    checks = oracle_suite_records("suite", label, lhs, rhs, gap, passed)
    return repr(checks[0]), [repr(c) for c in checks]


def check_ids(got):
    """The check ids of the records that folded or whole gives, in order."""
    return [re.match(r"CheckRecord\(check_id='([^']*)'", c).group(1) for c in got[1]]


def arrays(gap, passed):
    gap = np.array(gap, dtype=float)
    return np.arange(len(gap)) + 0.5, -np.arange(len(gap)) - 0.25, gap, np.array(passed, bool)


@st.composite
def runs(draw):
    """Gaps with ties and NaNs, verdicts drawn apart from the gaps, and cuts."""
    count = draw(st.integers(1, 40))
    gap = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, math.nan]),
                        min_size=count, max_size=count))
    passed = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    cuts = sorted(draw(st.sets(st.integers(1, count - 1), max_size=count - 1))) if count > 1 else []
    return cuts, arrays(gap, passed)


class TestFold:
    @settings(max_examples=300, deadline=None)
    @given(runs(), st.sampled_from(LABELS))
    def test_any_cuts_equal_the_whole_run(self, run, label):
        cuts, sides = run
        assert folded(label, cuts, *sides) == whole(label, *sides)

    @settings(max_examples=100, deadline=None)
    @given(runs(), st.sampled_from(LABELS))
    def test_the_whole_run_as_one_chunk(self, run, label):
        # the envelope suites add their whole strata draw at once
        _, sides = run
        assert folded(label, [], *sides) == whole(label, *sides)

    @pytest.mark.parametrize("cuts", [[], [1], [2], [1, 2, 3]])
    def test_a_nan_worst(self, cuts):
        # the first NaN is the worst under either label, and a later NaN or
        # extreme finite gap does not displace it
        sides = arrays([-1.0, math.nan, 1.0, math.nan], [False, True, False, False])
        for label in LABELS:
            got = folded(label, cuts, *sides)
            assert got == whole(label, *sides)
            assert got[0].startswith(f"CheckRecord(check_id='suite/{label}(sample 1)'")
            assert "gap=nan" in got[0]

    @pytest.mark.parametrize("label, extreme", [("min-slack", -1.0), ("max-residual", 1.0)])
    def test_equal_worst_gaps_on_both_sides_of_a_cut(self, label, extreme):
        # the earlier one passes and stays the worst; the later one fails and
        # is listed after it
        sides = arrays([0.0, extreme, extreme, 0.0], [True, True, False, True])
        got = folded(label, [2], *sides)
        assert got == whole(label, *sides)
        assert check_ids(got) == [f"suite/{label}(sample 1)", "suite/sample-2"]

    @pytest.mark.parametrize("cuts", [[], [1], [3], [1, 2, 3, 4]])
    def test_a_failing_worst_is_listed_first_and_once(self, cuts):
        # sample 3 is the worst and fails; sample 1, failing, is the worst
        # of the first chunk for some cuts and must still be listed
        sides = arrays([0.5, -0.5, 0.25, -1.0, 0.0], [True, False, True, False, False])
        got = folded("min-slack", cuts, *sides)
        assert got == whole("min-slack", *sides)
        assert check_ids(got) == ["suite/min-slack(sample 3)", "suite/sample-1", "suite/sample-4"]

    @pytest.mark.parametrize("label, extreme", [("min-slack", -1.0), ("max-residual", 1.0)])
    def test_equal_worst_gaps_across_a_cut_keep_the_first(self, label, extreme):
        sides = arrays([0.0, extreme, 0.0, extreme, 0.0], [True, False, True, False, True])
        got = folded(label, [2], *sides)
        assert got == whole(label, *sides)
        assert got[0].startswith(f"CheckRecord(check_id='suite/{label}(sample 1)'")

    @pytest.mark.parametrize("label, finite", [("min-slack", -5.0), ("max-residual", 5.0)])
    def test_a_later_nan_beats_a_more_extreme_finite_gap(self, label, finite):
        sides = arrays([finite, 0.0, math.nan, finite], [False, True, False, False])
        got = folded(label, [2], *sides)
        assert got == whole(label, *sides)
        assert got[0].startswith(f"CheckRecord(check_id='suite/{label}(sample 2)'")

    @pytest.mark.parametrize("label", LABELS)
    @pytest.mark.parametrize("verdict", [True, False])
    def test_all_pass_or_all_fail(self, label, verdict):
        sides = arrays([0.5, -0.5, 0.25, 1.0, -1.0, 0.0], [verdict] * 6)
        got = folded(label, [1, 4], *sides)
        assert got == whole(label, *sides)
        assert len(got[1]) == (1 if verdict else 6)

    @pytest.mark.parametrize("label", LABELS)
    def test_chunks_of_one_sample(self, label):
        sides = arrays([0.5, math.nan, -1.0, 1.0, math.nan, 0.0], [True, False, False, True,
                                                                    False, True])
        assert folded(label, [1, 2, 3, 4, 5], *sides) == whole(label, *sides)

    @pytest.mark.parametrize("passed", [[True, True, True], [True, False, False]])
    def test_a_chunk_is_copied_when_added(self, passed):
        # the isometry suite's sides are views of buffers its next chunk
        # overwrites: the worst sample, passing or failing, and the failing
        # ones are held as copies
        sides = arrays([0.5, -1.0, 0.25], passed)
        record, checks = _Record("suite", "min-slack"), []
        record.add(slice(0, 3), *sides)
        want = whole("min-slack", *(x.copy() for x in sides))
        for x in sides:
            x[...] = 0
        record.scan(checks)
        assert [repr(c) for c in checks] == want[1]


def test_envelope_gap_records_the_whole_draw():
    # 20,000 samples, above the 2^14 entries from which numpy evaluates
    # w * (mu - b) in place as (mu - b) * w: the suite must record the sides of
    # envelope_gap_sides over the whole arith_sample_batch draw
    config = HarnessConfig(n_points=16, max_degree=7, samples=20_000, seed=20260809, tol=0.0)
    cfg = EnsembleConfig(int(_child_seeds(config.seed, 10, 0, 1)[0]), config.n_points)
    lhs, rhs = envelope_gap_sides(*arith_sample_batch(cfg, config.samples))
    records = [c for c in cmd_lemmas(config).checks if c.check_id.startswith("envelope-gap/")]
    assert len(records) > 1000
    for c in records:
        i = int(re.search(r"(\d+)\)?$", c.check_id).group(1))
        assert (c.lhs, c.rhs) == (lhs[i], rhs[i])


class TestSampleBound:
    def test_the_bound_itself_constructs(self):
        assert HarnessConfig(samples=MEMORY_GUARD_ENTRIES).samples == 2**24

    def test_one_past_the_bound_is_a_usage_error(self):
        with pytest.raises(UsageError, match=r"^samples must be an integer in 1\.\.16777216"):
            HarnessConfig(samples=2**24 + 1)

    @pytest.mark.parametrize("argv", [
        ["identities", "--n-points", "4", "--depth", "1", "--max-degree", "1",
         "--samples", str(10**20)],
        ["lemmas", "--n-points", "4", "--max-degree", "1", "--samples", str(2**50)],
        ["theorem", "--n-points", "4", "--depth", "1", "--max-degree", "1",
         "--samples", str(10**20)],
        ["constant-search", "--n-points", "4", "--depth", "1", "--max-degree", "1",
         "--samples", str(10**20), "--budget", "0"],
    ], ids=lambda argv: argv[0])
    def test_an_oversized_samples_exits_two(self, argv):
        # each of these once exited 1 with numpy's error, or ran with no end
        result = subprocess.run([sys.executable, "-m", "hardylab", *argv],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: samples must be an integer in 1..16777216")
        assert result.stderr.count("\n") == 1

    def test_an_oversized_samples_in_a_config_file_exits_two(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(f'{{"samples": {2**24 + 1}}}')
        result = subprocess.run([sys.executable, "-m", "hardylab", "theorem", "--config",
                                 str(cfg_file)], capture_output=True, text=True, timeout=60)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == f"error: samples must be an integer in 1..16777216; got {2**24 + 1}\n"
