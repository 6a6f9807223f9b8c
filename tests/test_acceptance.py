"""Acceptance suite: nine criteria, one printed pass line each.

Each test prints ``ACCEPTANCE k: PASS (...)`` straight to the terminal once
its assertions hold, so a full run shows one line per criterion.  Tolerances
are pinned in the assertions; Monte Carlo checks are one-sided with explicit
binomial slack and fixed seeds, so nothing here can flake.
"""

import json
import math
import time

import numpy as np
import pytest

import pairfit.cli as cli
import pairfit.sim as sim
from pairfit.bounds import (
    FAST_TV_CONSTANT,
    birge_histogram_error,
    cj_constant,
    fast_bound_tv,
    regression_bound,
    vc_bound_tv,
)
from pairfit.estimator import (
    PairwiseEngine,
    ell_estimate,
    histogram_estimator,
    median_tv_estimator,
)
from pairfit.losses import LossSpec, loss
from pairfit.measures import (
    CauchyMeasure,
    DiscreteMeasure,
    GaussianMeasure,
    HistogramMeasure,
    PartitionRef,
    PowerMeasure,
    UniformMeasure,
    _tv_quadrature,
    hellinger_sq,
    tv_distance,
)
from pairfit.models import ModelBuilderConfig, build
from pairfit.robust_tests import hellinger_test_bound
from pairfit.testfam import c1_constant


def announce(capsys, k, details):
    with capsys.disabled():
        print(f"ACCEPTANCE {k}: PASS ({details})")


def test_c1_exact_assumption_audit(capsys):
    start = time.perf_counter()
    families = ("tv", "hellinger", "kl", "l1.5", "l2", "l3", "linf", "wasserstein1")
    worst_seen = 0.0
    for name in families:
        report = cli.run_assumption_suite(name, 5, 200, seed=3)
        assert report["passed"], (name, report["violations"][:3])
        w = report["worst_slacks"]
        assert w["antisymmetry"] <= 1e-12, name
        assert w["mean"] <= 1e-12, name
        assert w["oscillation"] <= 1e-12, name
        if name in ("tv", "hellinger", "kl"):
            assert w["variance"] is not None and w["variance"] <= 1e-12, name
        worst_seen = max(
            worst_seen, w["antisymmetry"], w["mean"], w["oscillation"]
        )
    # The variance constants the audit relies on, stated directly.
    assert LossSpec.hellinger2().constants.a2 == 1.5
    # KL: 1 / (2 (e^-a - 1 + a)), to 17 digits.
    assert LossSpec.kl(a=0.7).constants.a2 == pytest.approx(
        2.5434251205803987, rel=1e-15
    )
    assert LossSpec.kl(a=3.0).constants.a2 == pytest.approx(
        0.24392777558018420, rel=1e-15
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(
        capsys,
        1,
        f"{len(families)} families x 200 spaces, worst slack {worst_seen:.2e}, {elapsed:.1f}s",
    )


def test_c2_closed_form_distances_on_grids(capsys):
    worst = 0.0
    deltas = np.linspace(0.05, 3.0, 50)
    for d in deltas:
        closed = tv_distance(GaussianMeasure(0.0, 1.0), GaussianMeasure(float(d), 1.0))
        quad = _tv_quadrature(GaussianMeasure(0.0, 1.0), GaussianMeasure(float(d), 1.0))
        worst = max(worst, abs(closed - quad))
        assert abs(closed - quad) <= 1e-6
        cap = min(1.0, float(d) / math.sqrt(2.0 * math.pi))
        assert 0.78 * cap <= closed <= cap
    for d in np.linspace(0.05, 6.0, 50):
        closed = tv_distance(CauchyMeasure(0.0, 1.0), CauchyMeasure(float(d), 1.0))
        quad = _tv_quadrature(CauchyMeasure(0.0, 1.0), CauchyMeasure(float(d), 1.0))
        worst = max(worst, abs(closed - quad))
        assert abs(closed - quad) <= 1e-6
    for d in np.linspace(0.01, 1.2, 50):
        closed = tv_distance(UniformMeasure(0.0, 1.0), UniformMeasure(float(d), 1.0))
        quad = _tv_quadrature(UniformMeasure(0.0, 1.0), UniformMeasure(float(d), 1.0))
        worst = max(worst, abs(closed - quad))
        assert abs(closed - quad) <= 1e-6
    for d in np.linspace(0.01, 1.2, 50):
        closed = tv_distance(PowerMeasure(0.5, 0.0), PowerMeasure(0.5, float(d)))
        quad = _tv_quadrature(PowerMeasure(0.5, 0.0), PowerMeasure(0.5, float(d)))
        worst = max(worst, abs(closed - quad))
        assert abs(closed - quad) <= 1e-6
    announce(capsys, 2, f"4 families x 50 parameters, worst gap {worst:.2e}")


def test_c3_estimator_identities(capsys):
    # (a) The empirical measure's sup-statistic vanishes under the W loss.
    w = LossSpec.wasserstein1()
    truth = UniformMeasure(0.1, 0.8)
    decoys = [UniformMeasure(0.2, 0.6), DiscreteMeasure([0.3, 0.7], [0.5, 0.5])]
    for seed in range(20):
        x = truth.sample(40, np.random.default_rng(seed))
        empirical = DiscreteMeasure(list(x), [1.0 / 40] * 40)
        report = ell_estimate(x, [empirical] + decoys, w)
        assert report.sup_stat[0] == 0.0
        assert report.chosen == 0

    # (b) The cell-frequency histogram's sup-statistic vanishes (within
    # rounding) under the L_j and L_inf losses over nets containing it.
    part = PartitionRef(4, (0.0, 1.0))
    rivals_h = [
        HistogramMeasure(part, [2.0, 1.0, 0.5, 0.5]),
        HistogramMeasure(part, [0.4, 1.2, 1.2, 1.2]),
        HistogramMeasure(part, [1.0, 1.0, 1.0, 1.0]),
    ]
    specs = [
        LossSpec.lj(j=1.5, R=4.0 ** (1.0 / 1.5)),
        LossSpec.lj(j=2.0, R=2.0),
        LossSpec.lj(j=3.0, R=4.0 ** (1.0 / 3.0)),
        LossSpec.linf(D=4),
    ]
    for seed in range(20):
        x = truth.sample(40, np.random.default_rng(100 + seed))
        p_tilde = histogram_estimator(x, part)
        for spec in specs:
            report = ell_estimate(x, [p_tilde] + rivals_h, spec)
            assert report.sup_stat[0] <= 1e-10, (spec.kind, seed)
            assert report.chosen == 0

    # (c) At epsilon = 1/2 the translation-grid point nearest the empirical
    # median sits in the minimizer set, 100 seeded samples per family.
    grid = np.round(np.arange(-0.6, 0.6001, 0.02), 10)
    for make, truth_m, label in (
        (lambda c: GaussianMeasure(float(c), 1.0), GaussianMeasure(0.1, 1.0), "gaussian"),
        (lambda c: CauchyMeasure(float(c), 1.0), CauchyMeasure(0.1, 1.0), "cauchy"),
    ):
        model = [make(c) for c in grid]
        engine = PairwiseEngine(LossSpec.tv(), model)
        for seed in range(100):
            x = truth_m.sample(51, np.random.default_rng(seed))
            nearest = int(np.argmin(np.abs(grid - median_tv_estimator(x))))
            report = ell_estimate(x, model, LossSpec.tv(), epsilon=0.5, engine=engine)
            assert nearest in report.minimizer_set, (label, seed)
    announce(capsys, 3, "W identity 20/20, histogram 20/20 x 4 losses, median 200/200")


def test_c4_deviation_frequencies(capsys):
    start = time.perf_counter()
    w_scenario = sim.Scenario(
        truth=UniformMeasure(0.0, 1.0),
        model=ModelBuilderConfig(
            family="histogram-net", cells=2, value_grid=(0.5, 1.0, 1.5)
        ),
        loss=LossSpec.wasserstein1(),
        n=200,
        replications=2000,
        seed=5,
    )
    w_table = sim.deviation_frequency(sim.run_estimation(w_scenario), [0.5, 1.0, 2.0])
    assert w_table["inf_loss"] == 0.0
    for row in w_table["rows"]:
        hand = (2.0 / math.sqrt(200)) * (
            1.0 + math.sqrt(2.0 * row["xi"]) + 1.0 / math.sqrt(200)
        )
        assert row["bound"] == pytest.approx(hand, rel=1e-12)
        assert row["frequency"] >= 1.0 - math.exp(-row["xi"])
    w_elapsed = time.perf_counter() - start
    assert w_elapsed < 300.0

    start = time.perf_counter()
    tv_scenario = sim.Scenario(
        truth=GaussianMeasure(0.0, 1.0),
        model=ModelBuilderConfig(
            family="gaussian-location-grid", d=1, lo=-1.0, hi=1.0, step=0.5
        ),
        loss=LossSpec.tv(),
        n=200,
        replications=2000,
        seed=6,
    )
    tv_table = sim.deviation_frequency(sim.run_estimation(tv_scenario), [0.5, 1.0, 2.0])
    for row in tv_table["rows"]:
        assert row["bound"] == pytest.approx(
            float(vc_bound_tv(2.0, 200, row["xi"], 1.0, 0.0)), rel=1e-12
        )
        assert row["frequency"] >= 1.0 - math.exp(-row["xi"])
    tv_elapsed = time.perf_counter() - start
    assert tv_elapsed < 300.0
    announce(
        capsys,
        4,
        f"W and TV-VC, 2000 reps, xi in (0.5, 1, 2), "
        f"{w_elapsed:.1f}s + {tv_elapsed:.1f}s",
    )


def _triple_spec(name, p, q):
    if name == "tv":
        return LossSpec.tv()
    if name == "hellinger2":
        return LossSpec.hellinger2()
    if name == "kl":
        amax = float(np.max(np.abs(np.log(np.asarray(p) / np.asarray(q)))))
        return LossSpec.kl(a=amax + 1e-9)
    if name == "l2":
        return LossSpec.lj(j=2.0, R=1.0)
    if name == "linf":
        return LossSpec.linf(D=3)
    raise AssertionError(name)


def _triple_measures(name, vecs):
    if name == "linf":
        part = PartitionRef(3, (0.0, 1.0))
        return [HistogramMeasure(part, np.asarray(v) * 3) for v in vecs]
    pts = [0.0, 1.0, 2.0]
    return [DiscreteMeasure(pts, list(v)) for v in vecs]


def _synthetic_triples(name, count=5):
    """Seeded rejection sampling for (truth, P, Q) with gamma < 1."""
    rng = np.random.default_rng(2024)
    found = []
    while len(found) < count:
        raw = rng.uniform(0.05, 1.0, size=(3, 3))
        vecs = raw / raw.sum(axis=1, keepdims=True)
        spec = _triple_spec(name, vecs[1], vecs[2])
        S, P, Q = _triple_measures(name, vecs)
        lq = loss(spec, S, Q)
        if lq <= 0.0:
            continue
        consts = spec.constants
        gamma = consts.a0 * loss(spec, S, P) / (consts.a1 * lq)
        if gamma < 0.95:
            found.append((S, P, Q, spec, gamma))
    return found


def test_c5_robust_test_bounds(capsys):
    runs = 0
    for name in ("tv", "hellinger2", "kl", "l2", "linf"):
        for idx, (S, P, Q, spec, gamma) in enumerate(_synthetic_triples(name)):
            assert gamma < 1.0
            for n, seed in ((50, 1000 + 17 * idx), (200, 2000 + 17 * idx)):
                result = sim.test_error_mc(S, P, Q, spec, n=n, reps=2000, seed=seed)
                runs += 1
                assert result["gamma"] == pytest.approx(gamma, rel=1e-12)
                emp = result["empirical_error"]
                assert emp is not None
                hoeff = result["bound_hoeffding"]
                slack = 3.0 * math.sqrt(max(hoeff * (1.0 - hoeff), 1e-12) / 2000)
                assert emp <= hoeff + slack, (name, idx, n)
                if name in ("hellinger2", "kl"):
                    bern = result["bound_bernstein"]
                    assert bern is not None
                    slack_b = 3.0 * math.sqrt(max(bern * (1.0 - bern), 1e-12) / 2000)
                    assert emp <= bern + slack_b, (name, idx, n)

    # The singular two-point construction: gamma just below 2/3, verified
    # from the closed-form squared Hellinger values, and the error bound
    # checked against the Hellinger-specific display.
    a = 0.1
    P_star = DiscreteMeasure([0.0, 1.0], [1.0, 0.0])
    P = DiscreteMeasure([0.0, 1.0], [math.cos(2 * a) ** 2, math.sin(2 * a) ** 2])
    Q = DiscreteMeasure([0.0, 1.0], [math.cos(6 * a) ** 2, math.sin(6 * a) ** 2])
    h2p = 1.0 - math.cos(2 * a)
    h2q = 1.0 - math.cos(6 * a)
    assert hellinger_sq(P_star, P) == pytest.approx(h2p, rel=1e-12)
    assert hellinger_sq(P_star, Q) == pytest.approx(h2q, rel=1e-12)
    gamma_closed = ((math.sqrt(2.0) + 1.0) / (math.sqrt(2.0) - 1.0)) * h2p / h2q
    assert gamma_closed < 0.666
    result = sim.test_error_mc(
        P_star, P, Q, LossSpec.hellinger2(), n=200, reps=2000, seed=42
    )
    assert result["gamma"] == pytest.approx(gamma_closed, rel=1e-12)
    direct = hellinger_test_bound(h2p, h2q, 200)
    assert result["bound_bernstein"] == pytest.approx(direct["bound"], rel=1e-12)
    emp = result["empirical_error"]
    bern = result["bound_bernstein"]
    assert emp <= bern + 3.0 * math.sqrt(bern * (1.0 - bern) / 2000)
    announce(
        capsys,
        5,
        f"{runs} MC runs over 25 triples at n in (50, 200), plus the "
        f"singular pair (gamma {gamma_closed:.4f} < 0.666)",
    )


def test_c6_rate_phenomena(capsys):
    start = time.perf_counter()
    uniform_scenario = sim.Scenario(
        truth=UniformMeasure(0.025, 1.0),
        model=ModelBuilderConfig(
            family="translation-grid", base="uniform", lo=0.0, hi=0.05, step=0.0002
        ),
        loss=LossSpec.tv(),
        n=100,
        replications=500,
        seed=11,
    )
    fast = sim.rate_curve(uniform_scenario, [100, 400, 1600], threads=2)
    assert fast["slope"] is not None
    assert fast["slope"] <= -0.8

    gaussian_scenario = sim.Scenario(
        truth=GaussianMeasure(0.0, 1.0),
        model=ModelBuilderConfig(
            family="gaussian-location-grid", d=1, lo=-0.6, hi=0.6, step=0.01
        ),
        loss=LossSpec.tv(),
        n=50,
        replications=500,
        seed=21,
    )
    root_n = sim.rate_curve(gaussian_scenario, [50, 200, 800], threads=2)
    assert root_n["slope"] is not None
    assert abs(root_n["slope"] - (-0.5)) <= 0.15
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    announce(
        capsys,
        6,
        f"slopes {fast['slope']:.3f} (<= -0.8) and {root_n['slope']:.3f} "
        f"(-0.5 +- 0.15), {elapsed:.1f}s",
    )


def test_c7_contamination_robustness(capsys):
    spike = DiscreteMeasure([8.0], [1.0])
    base = GaussianMeasure(0.0, 1.0)
    model_cfg = ModelBuilderConfig(
        family="gaussian-location-grid", d=1, lo=-0.5, hi=0.5, step=0.02
    )
    params = build(model_cfg).candidate_params
    medians = {}
    for alpha in (0.0, 0.02):
        truth = base if alpha == 0.0 else sim.Contamination(
            base, (alpha,) * 400, spike
        )
        scenario = sim.Scenario(
            truth=truth,
            model=model_cfg,
            loss=LossSpec.tv(),
            n=400,
            replications=500,
            seed=13,
        )
        record = sim.run_estimation(scenario, threads=2)
        medians[alpha] = float(
            np.median([abs(params[r.chosen]) for r in record.rows])
        )
    assert medians[0.0] > 0.0
    assert medians[0.02] <= 2.0 * medians[0.0] + 1e-12
    announce(
        capsys,
        7,
        f"median error {medians[0.02]:.4f} contaminated vs "
        f"{medians[0.0]:.4f} clean (factor "
        f"{medians[0.02] / medians[0.0]:.2f} <= 2)",
    )


def test_c8_bound_evaluator_constants(capsys):
    # Leading VC coefficient 40*sqrt(5), hit exactly when V = n.
    assert 40.0 * math.sqrt(5.0) == pytest.approx(89.44271909999159, abs=1e-9)
    assert vc_bound_tv(7.0, 7, 0.0, 0.0, 0.0) == pytest.approx(
        40.0 * math.sqrt(5.0), abs=1e-9
    )
    # Regression constant 277, isolated at d = 1, n = 2.
    assert regression_bound(1, 2, 0.0, 0.0) == pytest.approx(277.0, abs=1e-9)
    # Norm-comparison constants: 4 on (1, 2], the two-branch max above.
    assert cj_constant(2.0) == pytest.approx(4.0, abs=1e-9)
    assert cj_constant(1.5) == pytest.approx(4.0, abs=1e-9)
    root_e = math.sqrt(math.e)
    j = 3.0
    additive = 2.0 ** (1.0 - 1.0 / j) * math.sqrt(
        j * root_e / (root_e - 1.0)
    ) + math.sqrt(j / (math.e - root_e))
    product = j * root_e / (2.0 ** (1.0 / j) * (root_e - 1.0))
    assert cj_constant(3.0) == pytest.approx(8.0 * max(additive, product), abs=1e-9)
    assert cj_constant(3.0) == pytest.approx(48.463890124953515, abs=1e-9)
    # Deviation constant c1(a1, a2) at the two standard argument pairs.
    for a1, a2, frozen in ((0.5, 1.5, 0.0063488860070), (1.0, 1.0, 0.0251725026153)):
        hand = (a1 / 2.0) / (
            2.0 * (1.0 + math.log(4.0))
            + 4.0 * a1 / a2
            + 16.0 * a2 * math.log(2.0) / a1
        )
        assert c1_constant(a1, a2) == pytest.approx(hand, rel=1e-12)
        assert c1_constant(a1, a2) == pytest.approx(frozen, abs=1e-9)
    # Histogram selection error exp(log(HL + 1)/d) - 1.
    assert birge_histogram_error(2.0, 3.0, 5) == pytest.approx(
        math.exp(math.log(7.0) / 5.0) - 1.0, rel=1e-15
    )
    # Fast-rate plug-in constant 4.5e5 and its full hand evaluation.
    assert FAST_TV_CONSTANT == 4.5e5
    hand_fast = (144.0 / 100.0) * (
        4.5e5 * 2.0 * math.log(2.0 * math.e * 100.0 / 2.0) + 2.0 + 1.0
    )
    assert fast_bound_tv(1.0, 2.0, 100, 1.0, 0.0) == pytest.approx(
        hand_fast, rel=1e-12
    )
    assert fast_bound_tv(1.0, 2.0, 100, 1.0, 0.0) == pytest.approx(
        7264304.881040566, abs=1e-9 * 7264304.881040566
    )
    announce(capsys, 8, "all headline constants match hand evaluation to 1e-9")


def test_c9_thread_determinism(capsys, tmp_path):
    doc = {
        "scenario": {
            "truth": {
                "kind": "iid",
                "measure": {"family": "gaussian", "params": {"mean": 0.0, "sd": 1.0}},
            },
            "model": {
                "family": "gaussian-location-grid",
                "d": 1,
                "lo": -1.0,
                "hi": 1.0,
                "step": 0.25,
            },
            "loss": {"kind": "tv"},
            "n": 60,
            "replications": 40,
            "seed": 9,
        },
        "formats": ["csv", "json-lines", "summary"],
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    blobs = []
    for label, threads in (("t1", "1"), ("t8", "8")):
        out = tmp_path / label
        code = cli.main(
            ["simulate", "--config", str(cfg), "--out", str(out), "--threads", threads]
        )
        assert code == 0
        blobs.append(
            {
                name: (out / name).read_bytes()
                for name in ("records.csv", "records.jsonl", "summary.json")
            }
        )
    assert blobs[0] == blobs[1]
    announce(capsys, 9, "1-thread and 8-thread runs byte-identical across 3 files")
