"""The transform-isometry suite and theorem hold their per-chunk working set
for a whole run.

Every array a chunk of the isometry suite fills (its draws, the walk's sums,
row marks and level maxima, and its slab buffers, the slab's rows among
them), and every array a theorem chunk is drawn and folded into (the
coefficient blocks and multipliers, the deepest normals, mu and the root-mean
totals), is allocated at the run's first chunk and filled chunk after chunk.  These tests check that the reports do not depend on what
the buffers held before, and that the process's page faults do not grow with
the number of chunks.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hardylab import (
    EnsembleConfig,
    HarnessConfig,
    check_transform_isometry,
    make_grid,
    previsible_norm,
    random_adapted_phases,
    random_hardy_martingale,
)
from hardylab import cli, ensembles, harness
from hardylab.ensembles import _differences, _unit, chunk_seed_words, draw_chunk
from hardylab.martingale import _isometry_norms, _levels
from hardylab.torus import _WorkingSet
from oracles import sample_ensemble

N16D3 = ["identities", "--n-points", "16", "--depth", "3", "--max-degree", "5"]
THEOREM_N16D4 = ["theorem", "--n-points", "16", "--depth", "4", "--max-degree", "7"]


def report_of(path):
    """A JSON report without the fields that may differ between equal runs."""
    report = json.loads(path.read_text())
    del report["aggregates"]["runtime_seconds"], report["config"]["out"]
    return report


def fresh_report(argv, path):
    """The report of argv run in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-m", "hardylab", *argv, "--out", str(path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return report_of(path)


def in_process_report(argv, path):
    assert cli.main([*argv, "--out", str(path)]) == 0
    return report_of(path)


class TestHeldBuffersAreSafe:
    def test_a_short_last_chunk(self, tmp_path):
        # 403 samples: forty 10-sample chunks, then one of 3 in leading views
        argv = N16D3 + ["--samples", "403"]
        assert in_process_report(argv, tmp_path / "a.json") == fresh_report(argv, tmp_path / "b.json")

    def test_a_short_last_theorem_chunk(self, tmp_path):
        # N8 d3: 115 samples are two 56-sample chunks, then one of 3 in leading views
        argv = ["theorem", "--n-points", "8", "--depth", "3", "--max-degree", "3",
                "--samples", "115"]
        assert in_process_report(argv, tmp_path / "a.json") == fresh_report(argv, tmp_path / "b.json")

    def test_a_run_after_a_run_of_another_shape(self, tmp_path):
        first = N16D3 + ["--samples", "25"]
        second = ["identities", "--n-points", "8", "--depth", "4", "--max-degree", "3",
                  "--samples", "30"]
        in_process_report(first, tmp_path / "a.json")
        assert in_process_report(second, tmp_path / "b.json") == fresh_report(second,
                                                                              tmp_path / "c.json")

    @pytest.mark.parametrize("fault, message", [
        ("term", "term 1 is not unimodular"),
        ("gate", "transform isometry requires a Hardy martingale"),
    ])
    def test_a_run_after_an_isometry_failure(self, monkeypatch, capsys, tmp_path, fault, message):
        # sample 5 of the third 10-sample chunk fails, in the suite's held buffers
        argv = N16D3 + ["--samples", "40"]
        unit, norms = ensembles._unit, harness._isometry_norms
        chunks = []

        def bad_unit(phi, out=None):
            w = unit(phi, out)
            if fault == "term" and w.shape == (10, 16) and len(chunks) == 2:
                w[5, 3] *= 1.5
            return w

        def bad_norms(grid, blocks, terms, **kwargs):
            if fault == "gate" and len(chunks) == 2:  # the walk is fed the rows instead
                blocks = _differences(grid, blocks)
                newest = _levels(blocks, grid.n_points)[-1]  # a view of the rows
                newest[5] = newest[5].conj()
            chunks.append(blocks)
            return norms(grid, blocks, terms, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(ensembles, "_unit", bad_unit)
            patch.setattr(harness, "_isometry_norms", bad_norms)
            assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert in_process_report(argv, tmp_path / "a.json") == fresh_report(argv, tmp_path / "b.json")

    def test_one_working_set_through_failed_and_valid_calls(self):
        # calls that raise leave the buffers half filled; a valid call then
        # gives what a call with a new working set gives, bit for bit
        grid, work = make_grid(8), _WorkingSet()
        cfg = EnsembleConfig(seed=11, n_points=8, depth=3, max_degree=3)
        words = chunk_seed_words(cfg, 2, 0, 7)

        def chunk(count):
            blocks, angles = draw_chunk(cfg, words[:count], work)
            terms = [_unit(phi, work.take(f"terms {k}", phi.shape, complex))
                     for k, phi in enumerate(angles)]
            return _differences(grid, blocks), terms  # fresh rows

        rows, terms = chunk(7)
        want = np.array(_isometry_norms(grid, rows.copy(), [t.copy() for t in terms]))
        terms[1][2, 4] *= 1.5
        with pytest.raises(ValueError, match="^term 1 is not unimodular$"):
            _isometry_norms(grid, rows, terms, work=work)
        rows, terms = chunk(7)
        _levels(rows, 8)[2][4] = _levels(rows, 8)[2][4].conj()
        with pytest.raises(ValueError, match="^transform isometry requires a Hardy martingale$"):
            _isometry_norms(grid, rows, terms, work=work)
        rows, terms = chunk(7)
        got = np.array(_isometry_norms(grid, rows, terms, work=work))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        rows, terms = chunk(3)  # fresh rows; the terms are leading views of the held buffers
        got = np.array(_isometry_norms(grid, rows, terms, work=work))
        assert np.array_equal(got.view(np.uint64), want[:, :3].view(np.uint64))

    def test_the_lone_check_equals_the_chunk_path_across_slabs(self):
        # at N64 d3 a sample has 4161 rows of 64 entries, so its slabs are runs
        # of rows, and a chunk holds one sample
        config = HarnessConfig(n_points=64, depth=3, max_degree=3, samples=3, seed=5)
        sides = np.concatenate([np.transpose(norms) for suite, _, norms
                                in harness._identity_sides(config)
                                if suite == "transform-isometry"])
        for i, row in enumerate(sides):
            cfg = sample_ensemble(config, 2, i, 3)
            field = random_hardy_martingale(cfg)
            alone = (*check_transform_isometry(field, random_adapted_phases(cfg)),
                     previsible_norm(field))
            assert np.array_equal(row.view(np.uint64), np.array(alone).view(np.uint64))


# Run in a fresh interpreter: the minor page faults of one cli.main call.
FAULTS = """
import resource, sys
from hardylab import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cli.main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, file=sys.stderr)
"""


def minor_faults(samples: int, padding: int, argv=N16D3) -> int:
    """ru_minflt over cli.main of argv (identities N16 d3 deg5 by default), in a
    fresh process whose environment carries an extra variable of `padding`
    characters."""
    env = dict(os.environ, HARDYLAB_TEST_PADDING="x" * padding)
    result = subprocess.run([sys.executable, "-c", FAULTS, *argv, "--samples", str(samples)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return int(result.stderr.split()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt as Linux counts it")
@pytest.mark.parametrize("padding", [0, 150, 500, 1000])
def test_page_faults_do_not_grow_with_the_chunks(padding):
    # 400 samples run 39 more isometry chunks than 10 do.  Whether the heap is
    # trimmed and faulted in again per chunk depends on the environment's
    # size, which moves the heap's layout.  Held buffers read about 1 page per
    # extra chunk at every size; fresh arrays per chunk read 7-15 at these
    # four sizes, and up to 150 at others
    growth = minor_faults(400, padding) - minor_faults(10, padding)
    assert growth <= 4 * 39, growth / 39


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt as Linux counts it")
@pytest.mark.parametrize("padding", [0, 150, 500, 1000])
def test_theorem_page_faults_do_not_grow_with_the_chunks(padding):
    # at N16 d4 degree 7 a chunk is one sample, so 200 samples run 190 more
    # chunks than 10 do.  The held working set reads about no page per extra
    # chunk; fresh arrays per chunk read 58
    growth = minor_faults(200, padding, THEOREM_N16D4) - minor_faults(10, padding, THEOREM_N16D4)
    assert growth <= 2 * 190, growth / 190
