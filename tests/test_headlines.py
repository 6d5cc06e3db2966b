"""Headline pins across seeds: small runs of four commands at two seeds.

The values were recorded before the harness drew its samples a chunk at a
time, from per-sample numpy seeding.  A change to any random stream, at any
seed, moves the worst sample's index and its two sides far beyond the
benchmark's tolerance (perfbench/run.py: rtol 1e-9, atol 1e-12), which these
tests use.  The seed 2**70 is three entropy words long.
"""

import pytest

from hardylab import COMMANDS, HarnessConfig

RTOL, ATOL = 1e-9, 1e-12

RUNS = {
    "theorem": dict(n_points=8, depth=3, max_degree=3, samples=60),
    "constant-search": dict(n_points=8, depth=2, max_degree=3, samples=3, budget=20),
    "lemmas": dict(n_points=16, max_degree=7, samples=150),
    "identities": dict(n_points=8, depth=2, max_degree=3, samples=40),
}

# (command, seed): (headline aggregates, [(check id, lhs, rhs) per record])
PINS = {
    ('theorem', 20260809): (
        {'max_ratio': 0.8325160987664132, 'min_slack': 0.15624405699507518},
        [
            ('chain/dyadic-mean-convexity/min-slack(sample 34)', 1.5712207921103365, 1.862174489123765),
            ('chain/pointwise-perturbed-moment/min-slack(sample 40)', 0.06738625403744537, 0.540409865210007),
            ('chain/pnorm-envelope-split/min-slack(sample 4)', 2.282691805947813, 6.9035910899976445),
            ('chain/envelope-gap-transform/min-slack(sample 45)', 1.8580208708047063, 4.778379664516406),
            ('chain/stability-chain/min-slack(sample 48)', 2.117793044239319, 24.201281489157683),
        ]),
    ('constant-search', 20260809): (
        {'best_ratio': 0.841288172994211},
        [
            ('search/trace-monotone', 0.0, 0.00023051595210432652),
            ('search/best-below-chain-constant', 0.841288172994211, 9.513656920021768),
        ]),
    ('lemmas', 20260809): (
        {'min_slack': -3.6166806909186704e-16, 'max_split_residual': 3.855540396207867e-16},
        [
            ('envelope-gap/min-slack(sample 134)', 15450452.846788317, 15450452.846788311),
            ('envelope-excess/min-slack(sample 0)', 0.0, 0.0),
            ('shift-bound/min-slack(sample 134)', 3.8861283860210154, 3.9849027842780185),
            ('rotation-bound/min-slack(sample 59)', 10.294305409468906, 41.720263387388464),
            ('perturbation-split/max-residual(sample 71)', 9.214567385404102, 9.214567385404099),
        ]),
    ('identities', 20260809): (
        {'max_residual': 2.9856925041273224e-15},
        [
            ('sincos-identity/max-residual(sample 21)', 0.9668041367405003, 0.9668041367405031),
            ('orthogonal-split/max-residual(sample 16)', 1.629540900423625, 1.6295409004236256),
            ('transform-isometry/max-residual(sample 28)', 1.5825806593162264, 1.5825806593162275),
        ]),
    ('theorem', 2**70): (
        {'max_ratio': 0.8364852890733573, 'min_slack': 0.11410492691540484},
        [
            ('chain/dyadic-mean-convexity/min-slack(sample 33)', 1.5864614552720455, 1.7908006303140964),
            ('chain/pointwise-perturbed-moment/min-slack(sample 45)', 0.016429224144707287, 0.1354137513051712),
            ('chain/pnorm-envelope-split/min-slack(sample 8)', 1.9807769750972564, 6.066808190832515),
            ('chain/envelope-gap-transform/min-slack(sample 22)', 2.033734186120017, 5.128071543365531),
            ('chain/stability-chain/min-slack(sample 22)', 1.8148828148933867, 20.641334254743672),
        ]),
    ('constant-search', 2**70): (
        {'best_ratio': 0.8390216660337702},
        [
            ('search/trace-monotone', 0.0, 7.847037716623984e-05),
            ('search/best-below-chain-constant', 0.8390216660337702, 9.513656920021768),
        ]),
    ('lemmas', 2**70): (
        {'min_slack': -4.636944616518321e-16, 'max_split_residual': 4.162965506009114e-16},
        [
            ('envelope-gap/min-slack(sample 54)', 6025449.848793544, 6025449.848793541),
            ('envelope-excess/min-slack(sample 0)', 0.0, 0.0),
            ('shift-bound/min-slack(sample 105)', 5.099276364418921, 5.1151616403322455),
            ('rotation-bound/min-slack(sample 142)', 8.264887609076718, 31.88491343140192),
            ('perturbation-split/max-residual(sample 88)', 8.53409348137107, 8.534093481371073),
        ]),
    ('identities', 2**70): (
        {'max_residual': 1.8867026038472794e-15},
        [
            ('sincos-identity/max-residual(sample 20)', 1.17689244967515, 1.1768924496751523),
            ('orthogonal-split/max-residual(sample 31)', 5.012275118987441, 5.012275118987443),
            ('transform-isometry/max-residual(sample 38)', 1.7248669805736903, 1.7248669805736914),
        ]),
}


@pytest.mark.parametrize("command, seed", list(PINS), ids=[f"{c}-{s}" for c, s in PINS])
def test_headlines_and_records_are_pinned(command, seed):
    report = COMMANDS[command](HarnessConfig(seed=seed, **RUNS[command]))
    aggregates, records = PINS[command, seed]
    assert report.aggregates["violation_count"] == 0
    for name, value in aggregates.items():
        assert report.aggregates[name] == pytest.approx(value, rel=RTOL, abs=ATOL), name
    assert [c.check_id for c in report.checks] == [r[0] for r in records]
    for check, (_, lhs, rhs) in zip(report.checks, records):
        assert (check.lhs, check.rhs) == pytest.approx((lhs, rhs), rel=RTOL, abs=ATOL), check.check_id
