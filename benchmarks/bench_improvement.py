"""Experiment ``improve33`` — the headline 33% improvement.

Paper: "Results indicate that the appliance can discard 33% of the
classifications, which equals all wrong contextual classifications, when
using the measure" — i.e. on the 24-point set filtering with q > s removes
exactly the wrong third and leaves only correct context decisions.
"""

from repro.core.filtering import EpsilonPolicy, evaluate_filtering


def test_improvement_on_evaluation_set(benchmark, experiment, report):
    material = experiment.material

    outcome = benchmark(evaluate_filtering, experiment.augmented,
                        material.evaluation, experiment.threshold,
                        EpsilonPolicy.REJECT)

    report.row("improve33", "discard fraction", "0.33 (8/24)",
               f"{outcome.discard_fraction:.3f} "
               f"({outcome.n_discarded}/{outcome.n_total})")
    report.row("improve33", "wrong classifications removed",
               "8/8 (all)",
               f"{outcome.n_wrong_total - outcome.n_wrong_kept}"
               f"/{outcome.n_wrong_total}")
    report.row("improve33", "accuracy before filter", "0.67",
               outcome.accuracy_before)
    report.row("improve33", "accuracy after filter", "1.00",
               outcome.accuracy_after)
    report.row("improve33", "improvement", "+0.33",
               f"+{outcome.improvement:.3f}")

    # Directional claims.
    assert outcome.improvement > 0.0
    assert outcome.wrong_elimination >= 0.5
    assert 0.05 <= outcome.discard_fraction <= 0.5


def test_camera_decision_improvement(benchmark, experiment, report):
    """End-to-end appliance view: the q-gated whiteboard camera accepts a
    cleaner event stream than the ungated one (paper's motivating use)."""
    import numpy as np

    from repro.datasets.activities import evaluation_script
    from repro.scenarios import models, office_spec, run_scenario

    models.prime_pen_model(experiment.augmented, experiment.threshold,
                           seed=7)
    script = evaluation_script(np.random.default_rng(123), blocks=3)

    def run_gated():
        [camera] = run_scenario(office_spec(script), seed=7).cameras
        return camera

    gated = benchmark(run_gated)
    [ungated] = run_scenario(office_spec(script, gated=False),
                             seed=7).cameras

    report.row("improve33", "camera events rejected by gate",
               "wrong ones", str(gated.rejected_events))
    report.row("improve33", "camera snapshots (gated vs ungated)",
               "fewer spurious",
               f"{gated.n_snapshots} vs {ungated.n_snapshots}")
    assert gated.rejected_events > 0
    assert gated.n_snapshots <= ungated.n_snapshots
