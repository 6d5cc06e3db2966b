import collections
import fractions
import json
import math
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from hardylab import (
    CHAIN_CONSTANT,
    CheckRecord,
    HarnessConfig,
    RunReport,
    UsageError,
    cmd_constant_search,
    cmd_convergence,
    cmd_identities,
    cmd_lemmas,
    cmd_theorem,
    make_grid,
    martingale_from_coefficients,
    phases_from_angles,
    random_adapted_phases,
    random_coefficient_arrays,
    random_phase_angle_arrays,
    slack_verdict,
    stability_report,
    stability_report_from_coefficients,
    verify_chain,
    write_csv_report,
    write_json_report,
)
from hardylab import cli, harness, inequalities
from hardylab.inequalities import residual_verdict
from oracles import oracle_suite_records, sample_ensemble


def small_config(**kw):
    base = dict(n_points=8, depth=2, max_degree=3, samples=40, seed=7, tol=1e-10)
    base.update(kw)
    return HarnessConfig(**base)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hardylab", *args],
        capture_output=True,
        text=True,
    )


class TestIdentitiesCommand:
    def test_no_violations(self):
        report = cmd_identities(small_config())
        assert report.aggregates["violation_count"] == 0
        assert report.aggregates["max_residual"] <= 1e-10
        assert report.command == "identities"

    def test_n4_thousand_samples(self):
        # smallest grid, default degree resolution, a full thousand samples
        report = cmd_identities(HarnessConfig(n_points=4, samples=1000, seed=7))
        assert report.aggregates["violation_count"] == 0
        assert report.config["max_degree"] == 1

    def test_tol_zero_documented_misuse(self):
        report = cmd_identities(small_config(samples=10, tol=0.0))
        assert report.aggregates["violation_count"] > 0

    def test_invalid_grid(self):
        with pytest.raises(UsageError):
            cmd_identities(small_config(n_points=6))

    def test_empty_samples(self):
        with pytest.raises(UsageError):
            cmd_identities(small_config(samples=0))

    def test_memory_guard_is_a_usage_error(self):
        with pytest.raises(UsageError, match="memory guard"):
            cmd_identities(small_config(n_points=64, depth=5))
        with pytest.raises(UsageError, match="memory guard: the 8192x8192 character table"):
            HarnessConfig(n_points=8192, depth=1)
        assert "characters" not in make_grid(8192).__dict__
        with pytest.raises(UsageError, match="memory guard: n_points = 67108864"):
            HarnessConfig(resolutions=(4, 2**26))

    @pytest.mark.parametrize("settings, match", [
        ({"depth": 0}, "depth"),
        ({"depth": 2.0}, "depth"),
        ({"max_degree": 4}, "Nyquist"),
        ({"max_degree": 2.0}, "max_degree"),
        ({"seed": -1}, "seed"),
        ({"seed": 7.0}, "seed"),
        ({"tol": -1e-3}, "tol"),
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"tol": 10**400}, "tol"),  # float() overflows
    ])
    def test_shared_rules_are_usage_errors(self, settings, match):
        with pytest.raises(UsageError, match=match):
            cmd_identities(small_config(**settings))


@pytest.mark.parametrize("settings", [
    {"samples": 2.5}, {"samples": True}, {"samples": 2.0}, {"samples": "3"},
    {"budget": 1.5}, {"tol": True}, {"resolutions": (4, 8.0)}, {"out": 5},
], ids=repr)
def test_python_api_settings_are_checked(settings):
    # HarnessConfig checks every setting itself: a bad one never reaches a
    # command to crash it or be cast
    with pytest.raises(UsageError):
        HarnessConfig(**settings)


@pytest.mark.parametrize("kind", [np.int64, np.uint64])
def test_numpy_integer_settings_echo_as_json_ints(kind):
    config = HarnessConfig(n_points=kind(8), depth=kind(2), max_degree=kind(3),
                           samples=kind(2), seed=kind(7), budget=kind(0),
                           resolutions=(kind(4), kind(8)))
    echo = json.loads(cmd_theorem(config).to_json())["config"]
    for name in ("n_points", "depth", "max_degree", "samples", "seed", "budget"):
        assert type(echo[name]) is int
    assert echo["resolutions"] == [4, 8] and all(type(n) is int for n in echo["resolutions"])


@pytest.mark.parametrize("tol", [np.float32(1e-10), fractions.Fraction(1, 10**10)], ids=repr)
def test_tol_is_stored_as_a_float(tol):
    config = HarnessConfig(tol=tol, resolutions=(4, 8))
    assert type(config.tol) is float and config.tol == float(tol)
    assert json.loads(cmd_convergence(config).to_json())["config"]["tol"] == float(tol)


class TestLemmasCommand:
    def test_no_violations(self):
        report = cmd_lemmas(small_config(samples=500))
        assert report.aggregates["violation_count"] == 0
        assert report.aggregates["min_slack"] >= -1e-10
        assert report.aggregates["max_split_residual"] <= 1e-10


class TestTheoremCommand:
    def test_no_helper_thread_below_the_rule(self, thread_starts):
        # N8 d3 holds 8^2 * 3 deepest coefficients per sample, far below the rule;
        # a sample at N8 d7 holds 8^6 * 3, above it, and draws on one helper
        cmd_theorem(small_config(depth=3, samples=200))
        assert thread_starts == []
        cmd_theorem(small_config(depth=7, samples=1))
        assert len(thread_starts) == 1

    def test_no_violations_and_ratio(self):
        report = cmd_theorem(small_config(samples=30))
        assert report.aggregates["violation_count"] == 0
        assert 0.0 < report.aggregates["max_ratio"] <= CHAIN_CONSTANT
        step_ids = {c.check_id.split("/")[1] for c in report.checks}
        assert "stability-chain" in step_ids

    def test_fractional_grid_size_is_a_usage_error(self):
        with pytest.raises(UsageError, match="n_points"):
            cmd_theorem(HarnessConfig(n_points=8.5))

    def test_seed_beyond_64_bits_accepted(self):
        report = cmd_theorem(small_config(samples=2, seed=2**70))
        assert report.aggregates["violation_count"] == 0

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunks_match_a_per_sample_loop(self, monkeypatch, chunk):
        # N8 d2 degree 3 holds (3 + 1) * (1 + 8) = 36 entries per sample, so
        # chunks of 3 split 7 samples as 3 + 3 + 1; a tiny chain constant
        # fails the final step of every sample, so each sample has a record
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 36 * chunk)
        monkeypatch.setattr(inequalities, "CHAIN_CONSTANT", 1e-3)
        config = small_config(samples=7, seed=11)
        report = cmd_theorem(config)
        assert report.aggregates["violation_count"] == config.samples

        grid, checks, ratios = make_grid(8), [], []
        steps = []
        for i in range(config.samples):
            cfg = sample_ensemble(config, 20, i, config.depth)
            rep = stability_report_from_coefficients(
                grid, random_coefficient_arrays(cfg), random_adapted_phases(cfg))
            ratios.append(rep.ratio)
            steps.append(verify_chain(rep, slack=config.tol))
        for k, step in enumerate(harness.CHAIN_STEPS):
            records = [sample[k] for sample in steps]
            checks += oracle_suite_records(f"chain/{step}", "min-slack",
                                           *(np.array([getattr(r, name) for r in records])
                                             for name in ("lhs", "rhs", "gap", "passed")))

        # batch rows round as lone samples do, so the records are equal bit for bit
        assert report.checks == checks
        assert report.aggregates["max_ratio"] == max(ratios)


class TestConstantSearch:
    def test_budget_zero_is_initial_sample(self):
        a = cmd_constant_search(small_config(samples=1, budget=0))
        b = cmd_constant_search(small_config(samples=1, budget=0))
        assert a.aggregates["best_ratio"] == b.aggregates["best_ratio"]
        assert len(a.aggregates["trace"]) == 1
        assert a.aggregates["trace"][0]["step"] == 0

    def test_trace_monotone_and_bounded(self):
        report = cmd_constant_search(small_config(samples=2, budget=25))
        trace = report.aggregates["trace"]
        ratios = [t["ratio"] for t in trace]
        assert ratios == sorted(ratios)
        assert report.aggregates["best_ratio"] <= CHAIN_CONSTANT
        assert report.aggregates["violation_count"] == 0

    def test_search_improves_over_initial(self):
        base = cmd_constant_search(small_config(samples=1, budget=0))
        improved = cmd_constant_search(small_config(samples=1, budget=40))
        assert improved.aggregates["best_ratio"] >= base.aggregates["best_ratio"]

    def test_argmax_serialized(self):
        report = cmd_constant_search(small_config(samples=1, budget=5))
        argmax = report.aggregates["argmax"]
        assert argmax["n_points"] == 8
        assert len(argmax["coefficients"]) == 2
        json.dumps(report.to_dict())  # fully serializable

    def test_argmax_replays_on_grid_path(self):
        # the search scores coefficients directly; its argmax must reproduce
        # best_ratio through the grid^n assembly and the Hardy gate
        report = cmd_constant_search(small_config(samples=2, budget=30))
        argmax = json.loads(report.to_json())["aggregates"]["argmax"]
        grid = make_grid(argmax["n_points"])
        coeffs = [np.asarray(c)[..., 0] + 1j * np.asarray(c)[..., 1]
                  for c in argmax["coefficients"]]
        phases = phases_from_angles(grid, argmax["phase_angles"])
        ratio = stability_report(martingale_from_coefficients(grid, coeffs), phases).ratio
        best = report.aggregates["best_ratio"]
        assert abs(ratio - best) <= 1e-12 * best

    def test_negative_budget(self):
        with pytest.raises(UsageError):
            cmd_constant_search(small_config(budget=-1))

    @pytest.mark.parametrize("settings, chunk", [
        (dict(samples=3, budget=0), None),
        (dict(samples=1, budget=30), None),
        (dict(n_points=4, max_degree=1, samples=4, budget=20), None),
        (dict(depth=1, samples=4, budget=20), None),
        (dict(depth=3, samples=8, budget=25), None),
        # N8 d2 degree 3 holds 36 entries per start: chunks of 3 + 3 + 1, and of 1
        (dict(samples=7, budget=15), 3),
        (dict(samples=3, budget=15), 1),
    ])
    def test_lockstep_matches_a_lone_climb_per_start(self, monkeypatch, settings, chunk):
        # the starts of a chunk advance together, one batch call per step; the
        # report must equal that of climbing each start alone, one proposal at
        # a time through the one-sample API, bit for bit
        if chunk is not None:
            monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 36 * chunk)
        config = small_config(seed=23, **settings)
        report = cmd_constant_search(config)

        grid = make_grid(config.n_points)

        def score(coeffs, angles):
            return stability_report_from_coefficients(
                grid, coeffs, phases_from_angles(grid, angles)).ratio

        best_ratio, best_state, trace = -math.inf, None, []
        for s in range(config.samples):
            cfg = sample_ensemble(config, 40, s, config.depth)
            coeffs, angles = random_coefficient_arrays(cfg), random_phase_angle_arrays(cfg)
            current = score(coeffs, angles)
            if current > best_ratio:
                best_ratio, best_state = current, (coeffs, angles)
                trace.append({"start": s, "step": 0, "ratio": current})
            rng = harness._scalar_rng(config, 41, s)
            for t in range(1, config.budget + 1):
                prop_coeffs = [c + harness._SEARCH_COEFF_STEP * (
                    rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)) for c in coeffs]
                prop_angles = [a + harness._SEARCH_PHASE_STEP * rng.standard_normal(np.shape(a))
                               for a in angles]
                ratio = score(prop_coeffs, prop_angles)
                if ratio > current:
                    current, coeffs, angles = ratio, prop_coeffs, prop_angles
                    if current > best_ratio:
                        best_ratio, best_state = current, (coeffs, angles)
                        trace.append({"start": s, "step": t, "ratio": current})

        assert report.aggregates["trace"] == trace
        assert report.aggregates["best_ratio"] == best_ratio
        argmax = report.aggregates["argmax"]
        assert argmax["coefficients"] == [np.stack([c.real, c.imag], axis=-1).tolist()
                                          for c in best_state[0]]
        assert argmax["phase_angles"] == [np.asarray(a).tolist() for a in best_state[1]]
        min_delta = min((b["ratio"] - a["ratio"] for a, b in zip(trace, trace[1:])), default=0.0)
        gap, passed = slack_verdict(best_ratio, CHAIN_CONSTANT, config.tol)
        assert report.checks == [
            CheckRecord("search/trace-monotone", 0.0, min_delta, min_delta, min_delta >= 0.0),
            CheckRecord("search/best-below-chain-constant", best_ratio, CHAIN_CONSTANT,
                        float(gap), bool(passed))]


def per_step_noise(rngs, shapes, budget):
    """The search's proposals drawn step by step: per start one standard_normal
    call per shape, stacked over the starts."""
    for _ in range(budget):
        draws = [[rng.standard_normal(shape) for shape in shapes] for rng in rngs]
        yield [np.stack(x) for x in zip(*draws)]


class TestSearchProposalBlocks:
    """Each start draws up to harness._SEARCH_BLOCK_STEPS steps' proposals in
    one call: the same stream, so the same normals and the same report."""

    @pytest.mark.parametrize("budget", [0, 1, 15, 16, 17, 40])
    def test_blocks_equal_the_per_step_draws(self, budget):
        shapes = [(1,), (1,), (8, 3), (8, 3), (), (8,)]
        block = harness._search_noise([np.random.default_rng(s) for s in (4, 5, 6)], shapes,
                                      budget)
        per_step = per_step_noise([np.random.default_rng(s) for s in (4, 5, 6)], shapes, budget)
        steps = 0
        for got, want in zip(block, per_step, strict=True):
            steps += 1
            for x, y in zip(got, want, strict=True):
                assert x.shape == y.shape
                assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
        assert steps == budget

    @pytest.mark.parametrize("budget", [0, 1, 15, 16, 17, 40])
    def test_report_equals_the_per_step_route(self, monkeypatch, budget):
        # N8 d3 degree 3 at 5 starts, and at chunks of 2 + 2 + 1 starts
        config = small_config(depth=3, samples=5, seed=20260809, budget=budget)
        for chunk in (None, 2):
            with monkeypatch.context() as patch:
                if chunk is not None:
                    patch.setattr(harness, "_CHUNK_ENTRIES", 4 * 73 * chunk)
                got = cmd_constant_search(config).to_dict()
                patch.setattr(harness, "_search_noise", per_step_noise)
                want = cmd_constant_search(config).to_dict()
            want["aggregates"]["runtime_seconds"] = got["aggregates"]["runtime_seconds"]
            assert got == want


class TestConvergenceCommand:
    def test_anchors_and_order(self):
        report = cmd_convergence(HarnessConfig(resolutions=(4, 8, 16, 32, 64, 128)))
        assert report.aggregates["violation_count"] == 0
        assert report.aggregates["fitted_order"] >= 0.9
        table = {
            (row["resolution"], row["quantity"]): row["value"]
            for row in report.aggregates["table"]
        }
        assert table[(4, "dyadic-cos-coefficient")] == pytest.approx(np.sqrt(2) / 2, abs=1e-14)
        assert table[(8, "dyadic-cos-coefficient")] == pytest.approx(0.65328, abs=5e-6)

    def test_error_decays_like_inverse_n(self):
        report = cmd_convergence(HarnessConfig(resolutions=(4, 8, 16, 32, 64, 128)))
        errors = {
            row["resolution"]: row["value"]
            for row in report.aggregates["table"]
            if row["quantity"] == "dyadic-cos-error"
        }
        for n, err in errors.items():
            assert err <= 1.0 / n

    def test_invalid_resolutions(self):
        with pytest.raises(UsageError):
            cmd_convergence(HarnessConfig(resolutions=(4, 6)))
        with pytest.raises(UsageError):
            cmd_convergence(HarnessConfig(resolutions=()))


class TestReportPlumbing:
    def test_violation_count_matches_records(self):
        report = cmd_identities(small_config(samples=10, tol=0.0))
        failing = sum(1 for c in report.checks if not c.passed)
        assert report.aggregates["violation_count"] == failing

    @pytest.mark.parametrize("command", [cmd_identities, cmd_lemmas])
    def test_each_failing_sample_counted_once(self, command):
        # --tol 0 makes round-off fail; every suite then lists its worst
        # sample once and each other failing sample once
        report = command(small_config(samples=40, tol=0.0))
        pattern = re.compile(r"(.+)/(?:sample-(\d+)|(?:max-residual|min-slack)\(sample (\d+)\))")
        records = collections.Counter()
        failing = set()
        for c in report.checks:
            suite, i, j = pattern.fullmatch(c.check_id).groups()
            records[suite, int(i or j)] += 1
            if not c.passed:
                failing.add((suite, int(i or j)))
        assert set(records.values()) == {1}
        assert len({suite for suite, _ in failing}) >= 2
        assert report.aggregates["violation_count"] == len(failing)

    def test_scan_lists_the_worst_sample_first_and_once(self):
        checks = []
        lhs, rhs = np.array([0.0, 2.0, 3.0, 1.0]), np.ones(4)
        gap, passed = np.array([0.5, -0.5, -2 / 3, 0.0]), np.array([True, False, False, True])
        record = harness._Record("chain/step", "min-slack")
        record.add(slice(0, 4), lhs, rhs, gap, passed)  # the whole run as one chunk
        worst = record.scan(checks)
        assert worst == CheckRecord("chain/step/min-slack(sample 2)", 3.0, 1.0, -2 / 3, False)
        assert checks == [worst, CheckRecord("chain/step/sample-1", 2.0, 1.0, -0.5, False)]
        record = harness._Record("split", "max-residual")
        for i in range(2):  # one chunk per sample
            record.add(slice(i, i + 1), *(np.array(x[i:i + 1]) for x in
                                          ([1.0, 1.5], [1.0, 1.0], [0.0, 0.5], [True, False])))
        worst = record.scan(checks)
        assert worst.check_id == "split/max-residual(sample 1)"
        assert sum(1 for c in checks if not c.passed) == 3
        json.dumps(RunReport("x", {}, checks).to_dict())  # plain floats and bools

    def test_json_round_trip(self, tmp_path):
        report = cmd_identities(small_config(samples=10))
        path = tmp_path / "report.json"
        write_json_report(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["command"] == "identities"
        assert loaded["config"]["seed"] == 7
        assert len(loaded["checks"]) == len(report.checks)

    def test_json_is_strict_with_non_finite_values(self, tmp_path):
        report = RunReport(
            "theorem", {"seed": 1},
            [CheckRecord("chain/x", math.inf, math.nan, -math.inf, False)],
            {"max_ratio": math.inf, "min_slack": math.nan, "trace": [{"ratio": -math.inf}]},
        )

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        path = tmp_path / "report.json"
        write_json_report(report, str(path))
        loaded = json.loads(path.read_text(), parse_constant=reject)
        check = loaded["checks"][0]
        assert (check["lhs"], check["rhs"], check["gap"]) == ("inf", "nan", "-inf")
        assert loaded["aggregates"]["max_ratio"] == "inf"
        assert math.isnan(float(loaded["aggregates"]["min_slack"]))
        assert float(loaded["aggregates"]["trace"][0]["ratio"]) == -math.inf
        assert report.aggregates["max_ratio"] == math.inf  # the report itself is untouched

    def test_rerun_from_config_echo(self):
        first = cmd_theorem(small_config(samples=15))
        echo = dict(first.config)
        echo["resolutions"] = tuple(echo["resolutions"])
        second = cmd_theorem(HarnessConfig(**echo))
        assert [c.check_id for c in first.checks] == [c.check_id for c in second.checks]
        assert [c.lhs for c in first.checks] == [c.lhs for c in second.checks]
        assert [c.passed for c in first.checks] == [c.passed for c in second.checks]
        assert first.aggregates["max_ratio"] == second.aggregates["max_ratio"]

        def untimed(report):
            out = report.to_dict()
            out["aggregates"] = {k: v for k, v in out["aggregates"].items()
                                 if k != "runtime_seconds"}
            return out

        assert untimed(first) == untimed(second)
        for command, config in ((cmd_identities, small_config(samples=15)),
                                (cmd_lemmas, small_config(samples=200)),
                                (cmd_constant_search, small_config(samples=2, budget=5)),
                                (cmd_convergence, small_config())):
            first = command(config)
            echo = dict(first.config)
            echo["resolutions"] = tuple(echo["resolutions"])
            assert untimed(first) == untimed(command(HarnessConfig(**echo)))

    def test_csv_for_convergence(self, tmp_path):
        report = cmd_convergence(HarnessConfig(resolutions=(4, 8)))
        path = tmp_path / "sweep.csv"
        write_csv_report(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "resolution,quantity,value"
        assert len(lines) == 1 + 4  # two quantities per resolution


class TestRecordRoute:
    """Every single-check record takes its gap and verdict from the shared rules."""

    @pytest.mark.parametrize("command, config", [
        (cmd_convergence, HarnessConfig(resolutions=(4, 8, 12, 16, 32))),
        (cmd_convergence, HarnessConfig(resolutions=(8, 64, 128), tol=0.3)),
        (cmd_constant_search, small_config(samples=3, budget=20)),
        (cmd_constant_search, small_config(samples=2, budget=0, tol=0.5)),
    ])
    def test_records_match_the_shared_verdicts(self, command, config):
        report = command(config)
        tol = max(config.tol, 1e-12) if command is cmd_convergence else config.tol
        assert report.checks
        for check in report.checks:
            if check.check_id.startswith("anchor/N"):
                verdict = residual_verdict(check.lhs, check.rhs, check.rhs, tol)
            else:
                verdict = slack_verdict(check.lhs, check.rhs, tol)
            assert (check.gap, check.passed) == (float(verdict[0]), bool(verdict[1])), check


class TestCliEndToEnd:
    def test_exit_zero_on_pass(self, tmp_path):
        out = tmp_path / "r.json"
        result = run_cli(
            "identities", "--n-points", "8", "--samples", "15", "--seed", "3",
            "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert "violations=0" in result.stdout
        assert json.loads(out.read_text())["command"] == "identities"

    def test_exit_one_on_violation(self):
        result = run_cli("identities", "--n-points", "8", "--samples", "5", "--tol", "0")
        assert result.returncode == 1

    def test_exit_two_on_bad_grid(self):
        result = run_cli("identities", "--n-points", "6")
        assert result.returncode == 2

    def test_exit_two_on_unknown_flag(self):
        result = run_cli("identities", "--frobnicate", "1")
        assert result.returncode == 2

    def test_exit_two_on_empty_samples(self):
        result = run_cli("lemmas", "--samples", "0")
        assert result.returncode == 2

    def test_exit_two_on_bad_budget(self):
        result = run_cli("constant-search", "--budget", "-3")
        assert result.returncode == 2

    def test_exit_two_on_bad_resolutions(self):
        result = run_cli("convergence", "--resolutions", "4,7")
        assert result.returncode == 2

    def test_exit_two_on_negative_seed(self):
        result = run_cli("theorem", "--seed", "-1")
        assert result.returncode == 2
        assert result.stderr.startswith("error: seed") and "Traceback" not in result.stderr

    @pytest.mark.parametrize("command, flags, samples, budget", [
        ("identities", "n_points depth max_degree samples", 400, 200),
        ("lemmas", "n_points max_degree samples", 2000, 200),
        ("theorem", "n_points depth max_degree samples", 200, 200),
        ("constant-search", "n_points depth max_degree samples budget", 4, 200),
        ("convergence", "resolutions", 400, 200),
    ])
    def test_command_flags_and_defaults(self, command, flags, samples, budget):
        # each command's own flags plus the common five; with no flags, its
        # config is HarnessConfig's but for the command's own sample and step counts
        args = cli.build_parser().parse_args([command])
        assert set(vars(args)) - {"command"} == set(flags.split()) | {
            "seed", "tol", "out", "csv", "config"}
        assert cli._build_config(args) == HarnessConfig(samples=samples, budget=budget)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_one_command_parser_acts_as_the_full_one(self, command, capsys):
        # main registers the flags of the command it is given only
        full, lean = cli.build_parser(), cli.build_parser(command)
        argv = [command, "--seed", "3", "--tol", "1e-9", "--out", "r.json"]
        for flag in cli._COMMANDS[command][1].split():
            argv += ["--" + flag.replace("_", "-"), "4"]
        assert lean.parse_args(argv) == full.parse_args(argv)
        helps = []
        for parser in (full, lean):
            for words in ([command, "--help"], ["--help"]):
                with pytest.raises(SystemExit) as exit_:
                    parser.parse_args(words)
                assert exit_.value.code == 0
                helps.append(capsys.readouterr().out)
        assert helps[:2] == helps[2:] and all(helps)

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--help"])
        out = capsys.readouterr().out
        assert exit_.value.code == 0
        assert all(re.search(rf"^ +{command} ", out, re.M) for command in cli._COMMANDS), out

    @pytest.mark.parametrize("argv", [["frobnicate"], ["frobnicate", "theorem"],
                                      ["theorem", "--frobnicate", "1"], ["--frobnicate", "theorem"]])
    def test_unknown_command_or_flag_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 2 and "error:" in capsys.readouterr().err

    def test_exit_one_on_failed_precondition(self, monkeypatch, capsys):
        # a ValueError inside a command is a mathematical failure, not a usage error
        def fail(config):
            raise ValueError("transform isometry requires a Hardy martingale")

        monkeypatch.setitem(harness.COMMANDS, "identities", fail)
        assert cli.main(["identities"]) == 1
        err = capsys.readouterr().err
        assert err == "error: transform isometry requires a Hardy martingale\n"

    def test_script_usage_error_exits_two(self, tmp_path):
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "verify_all.py"
        result = subprocess.run(
            [sys.executable, str(script), "--seed", "-1", "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: seed") and "Traceback" not in result.stderr

    def test_config_file_and_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n-points": 6, "samples": 10, "seed": 4}))
        # file alone is broken (n-points 6) ...
        result = run_cli("identities", "--config", str(cfg_file))
        assert result.returncode == 2
        # ... but an explicit flag overrides it
        result = run_cli("identities", "--config", str(cfg_file), "--n-points", "8")
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("command, settings", [
        ("identities", {"samples": "abc"}),
        ("identities", {"depth": 2.0}),
        ("identities", {"n-points": 8.5}),
        ("identities", {"samples": True}),
        ("convergence", {"resolutions": 5}),
        ("convergence", {"resolutions": [4, 8.0]}),
    ])
    def test_config_file_wrong_type(self, tmp_path, command, settings):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(settings))
        result = run_cli(command, "--config", str(cfg_file))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr

    def test_config_file_accepted_types(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tol": 1, "max-degree": None, "out": None,
                                        "resolutions": [4, 8], "samples": 5}))
        assert run_cli("identities", "--config", str(cfg_file)).returncode == 0
        assert run_cli("convergence", "--config", str(cfg_file)).returncode == 0

    def test_config_file_depth_one_guards_the_character_table(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"depth": 1, "n_points": 8192}))
        result = run_cli("lemmas", "--config", str(cfg_file))
        assert result.returncode == 2
        assert result.stderr.startswith("error: memory guard") and "Traceback" not in result.stderr

    def test_grid_above_the_memory_guard_is_a_usage_error(self):
        result = run_cli("convergence", "--resolutions", "4,1099511627776")
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: memory guard") and "n_points" in result.stderr
        assert "Traceback" not in result.stderr

    def test_config_file_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n-points": 8, "wat": 1}))
        result = run_cli("identities", "--config", str(cfg_file))
        assert result.returncode == 2

    def test_convergence_csv(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        result = run_cli("convergence", "--resolutions", "4,8,16", "--csv", str(csv_path))
        assert result.returncode == 0
        assert csv_path.read_text().startswith("resolution,quantity,value")

    def test_theorem_csv(self, tmp_path):
        csv_path = tmp_path / "checks.csv"
        result = run_cli("theorem", "--samples", "3", "--csv", str(csv_path))
        assert result.returncode == 0, result.stderr
        header, *rows = csv_path.read_text().strip().splitlines()
        assert header == "n_points,check_id,gap"
        assert len(rows) == 5 and all(row.startswith("8,chain/") for row in rows)
