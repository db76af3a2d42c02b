"""Differential verification: optimized pipeline vs reference kernels.

A :class:`DifferentialRunner` sweeps seeded inputs — plus adversarial
shapes the optimizations are most likely to mishandle: constant cues,
near-duplicate clusters, extreme sigmas, inputs far outside the trained
region — through every optimized stage and its naive twin from
:mod:`repro.verify.reference`, then reports the maximum absolute,
relative and ULP divergence per stage against an explicit tolerance.

A :class:`StageFault` injects a mutation into the *optimized* side of
one stage.  This powers the negative control pinned in
``tests/verify/``: perturbing a single TSK consequent coefficient must
make the run fail naming the ``tsk`` stage — evidence the harness can
actually catch the regressions it claims to guard against.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..clustering.subtractive import (SubtractiveClustering,
                                      initial_potentials,
                                      potential_reduction)
from ..anfis.gradient import premise_gradients
from ..anfis.lse import design_matrix, fit_consequents
from ..core.normalization import normalize_array, normalize_scalar
from ..exceptions import ConfigurationError
from ..fuzzy.tsk import TSKSystem
from ..sensors.cues import AWAREPEN_CUES
from ..stats.gaussian import Gaussian
from ..stats.threshold import intersection_threshold
from . import reference


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise distance in units of last place.

    Zero where both entries are NaN (the shared epsilon encoding),
    infinite where exactly one is.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    both_nan = np.isnan(a) & np.isnan(b)
    one_nan = np.isnan(a) ^ np.isnan(b)
    spacing = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    spacing = np.where(spacing > 0, spacing, np.finfo(float).tiny)
    with np.errstate(invalid="ignore"):
        ulp = np.abs(a - b) / spacing
    ulp = np.where(both_nan, 0.0, ulp)
    ulp = np.where(one_nan, np.inf, ulp)
    return ulp


@dataclasses.dataclass(frozen=True)
class StageFault:
    """Mutation applied to the optimized side of one stage.

    Only the ``tsk`` stage currently supports fault injection (its
    optimized artifact, the :class:`TSKSystem`, has a natural mutation
    surface: the trained parameters).  ``mutate`` receives a fresh copy
    of the system and returns the system to evaluate.
    """

    stage: str
    mutate: Callable[[TSKSystem], TSKSystem]


#: A single comparison: (case label, optimized output, reference output).
CasePair = Tuple[str, np.ndarray, np.ndarray]


@dataclasses.dataclass(frozen=True)
class StageReport:
    """Divergence summary of one verified stage."""

    stage: str
    n_values: int
    max_abs: float
    max_rel: float
    max_ulp: float
    atol: float
    rtol: float
    passed: bool
    worst_case: str

    def to_text(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return (f"{status} {self.stage:<13} n={self.n_values:<6} "
                f"max_abs={self.max_abs:.3e} max_rel={self.max_rel:.3e} "
                f"max_ulp={self.max_ulp:.1f} "
                f"(atol={self.atol:.0e}, rtol={self.rtol:.0e})"
                + ("" if self.passed else f"  worst: {self.worst_case}"))


@dataclasses.dataclass(frozen=True)
class DifferentialReport:
    """All stage reports of one differential run."""

    seeds: Tuple[int, ...]
    stages: Tuple[StageReport, ...]

    @property
    def passed(self) -> bool:
        return all(stage.passed for stage in self.stages)

    @property
    def first_failure(self) -> Optional[str]:
        """Name of the first diverging stage, or ``None``."""
        for stage in self.stages:
            if not stage.passed:
                return stage.stage
        return None

    def to_text(self) -> str:
        lines = [f"differential verification over seeds {list(self.seeds)}:"]
        lines += ["  " + stage.to_text() for stage in self.stages]
        lines.append("  => " + ("all stages within tolerance" if self.passed
                                else f"FIRST DIVERGING STAGE: "
                                     f"{self.first_failure}"))
        return "\n".join(lines)


class _SeedContext:
    """Per-seed fixtures shared across stages (the experiment is the
    expensive one; it is built lazily and cached)."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._experiment = None

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng(self.seed * 1009 + salt)

    @property
    def experiment(self):
        if self._experiment is None:
            from ..experiment import run_awarepen_experiment
            self._experiment = run_awarepen_experiment(seed=self.seed)
        return self._experiment


# ----------------------------------------------------------------------
# Stage case generators
# ----------------------------------------------------------------------
def _cases_cues(ctx: _SeedContext,
                mutate: Optional[Callable]) -> Iterator[CasePair]:
    rng = ctx.rng(1)
    signals = {
        "gaussian": rng.normal(0.0, 1.0, size=(120, 3)),
        "constant": np.full((64, 3), 0.731),
        "tiny-amplitude": 1e-12 * rng.normal(size=(64, 3)),
        "huge-amplitude": 1e8 * rng.normal(size=(64, 3)),
        "one-axis-dead": np.hstack([rng.normal(size=(64, 2)),
                                    np.zeros((64, 1))]),
    }
    for name, signal in signals.items():
        for window, hop in ((32, 16), (8, 8), (2, 1)):
            starts_opt, cues_opt = AWAREPEN_CUES.extract_all(
                signal, window, hop)
            starts_ref, cues_ref = reference.std_cues(signal, window, hop)
            yield (f"{name}/w{window}h{hop}/starts",
                   starts_opt.astype(float), starts_ref.astype(float))
            yield f"{name}/w{window}h{hop}", cues_opt, cues_ref


def _random_system(rng: np.random.Generator, n_rules: int, n_inputs: int,
                   order: int, sigma_scale: float = 1.0) -> TSKSystem:
    means = rng.normal(0.0, 2.0, size=(n_rules, n_inputs))
    sigmas = sigma_scale * rng.uniform(0.3, 2.0, size=(n_rules, n_inputs))
    coefficients = rng.normal(0.0, 1.5, size=(n_rules, n_inputs + 1))
    return TSKSystem(means, sigmas, coefficients, order=order)


def _cases_membership(ctx: _SeedContext,
                      mutate: Optional[Callable]) -> Iterator[CasePair]:
    rng = ctx.rng(2)
    batteries = {
        "plain": _random_system(rng, 4, 3, order=1),
        "narrow-sigma": _random_system(rng, 3, 2, order=1,
                                       sigma_scale=1e-8),
        "wide-sigma": _random_system(rng, 3, 2, order=1, sigma_scale=1e8),
    }
    for name, system in batteries.items():
        x = rng.normal(0.0, 2.0, size=(16, system.n_inputs))
        # Far-field rows drive the exponent deep into underflow.
        x = np.vstack([x, system.means[0] + 40.0 * system.sigmas[0]])
        opt = system.memberships(x)
        ref = reference.tsk_memberships(system.means, system.sigmas, x)
        yield name, opt, ref


def _cases_tsk(ctx: _SeedContext,
               mutate: Optional[Callable]) -> Iterator[CasePair]:
    rng = ctx.rng(3)
    systems: Dict[str, Tuple[TSKSystem, np.ndarray]] = {}
    for order in (0, 1):
        system = _random_system(rng, 4, 3, order=order)
        systems[f"random-order{order}"] = (
            system, rng.normal(0.0, 2.0, size=(24, 3)))
    twin = _random_system(rng, 3, 2, order=1)
    twin.means[1] = twin.means[0] + 1e-9      # near-duplicate rules
    twin.sigmas[1] = twin.sigmas[0]
    systems["near-duplicate-rules"] = (twin,
                                       rng.normal(size=(16, 2)))
    far = _random_system(rng, 2, 2, order=1, sigma_scale=1e-6)
    far_x = far.means[0] + 1e6                # underflow -> uniform weights
    systems["weight-floor"] = (far, np.tile(far_x, (4, 1)))

    quality = ctx.experiment.augmented.quality
    material = ctx.experiment.material
    predicted = ctx.experiment.classifier.predict_indices(
        material.analysis.cues)
    v_q = np.hstack([material.analysis.cues,
                     predicted[:, None].astype(float)])
    systems["trained-quality-fis"] = (quality.system, v_q)

    for name, (system, x) in systems.items():
        optimized_system = mutate(system.copy()) if mutate else system
        opt = optimized_system.evaluate(x)
        ref = reference.tsk_evaluate(system.means, system.sigmas,
                                     system.coefficients, system.order, x)
        yield name, opt, ref


def _cases_gradient(ctx: _SeedContext,
                    mutate: Optional[Callable]) -> Iterator[CasePair]:
    rng = ctx.rng(9)
    batteries: Dict[str, Tuple[TSKSystem, np.ndarray]] = {}
    for order in (0, 1):
        system = _random_system(rng, 4, 3, order=order)
        batteries[f"random-order{order}"] = (
            system, rng.normal(0.0, 2.0, size=(24, 3)))
    narrow = _random_system(rng, 3, 2, order=1, sigma_scale=1e-3)
    batteries["narrow-sigma"] = (narrow, rng.normal(size=(16, 2)))
    single = _random_system(rng, 1, 2, order=1)
    batteries["single-rule"] = (single, rng.normal(size=(12, 2)))

    quality = ctx.experiment.augmented.quality
    from ..core.construction import quality_training_data
    v, y_q, _ = quality_training_data(
        ctx.experiment.classifier, ctx.experiment.material.quality_train)
    batteries["trained-quality-fis"] = (quality.system, v)

    for name, (system, x) in batteries.items():
        y = (y_q if name == "trained-quality-fis"
             else (ctx.rng(10).random(x.shape[0]) > 0.5).astype(float))
        grads = premise_gradients(system, x, y)
        ref_means, ref_sigmas, ref_loss = reference.premise_gradients_loop(
            system.means, system.sigmas, system.coefficients, system.order,
            x, y)
        yield f"{name}/d_means", grads.d_means, ref_means
        yield f"{name}/d_sigmas", grads.d_sigmas, ref_sigmas
        yield (f"{name}/loss", np.array([grads.loss]),
               np.array([ref_loss]))


def _cases_clustering(ctx: _SeedContext,
                      mutate: Optional[Callable]) -> Iterator[CasePair]:
    rng = ctx.rng(4)
    blob_a = rng.normal(0.0, 0.4, size=(60, 3))
    blob_b = rng.normal(3.0, 0.4, size=(60, 3))
    datasets = {
        "blobs": np.vstack([blob_a, blob_b]),
        "near-duplicate-clusters": np.vstack(
            [blob_a, blob_a + 1e-9, blob_b]),
        "constant-column": np.hstack(
            [rng.normal(size=(50, 2)), np.full((50, 1), 2.5)]),
        "single-point": np.array([[1.0, 2.0, 3.0]]),
    }
    v_train = np.hstack(
        [ctx.experiment.material.quality_train.cues,
         ctx.experiment.classifier.predict_indices(
             ctx.experiment.material.quality_train.cues)[:, None]
         .astype(float)])
    datasets["quality-vq"] = v_train[:160]

    for name, data in datasets.items():
        xn_ref = reference.unit_normalize(data)
        xn_opt = SubtractiveClustering()._normalize(data)[0]
        yield f"{name}/unit-norm", xn_opt, xn_ref
        pot_opt = initial_potentials(xn_opt, radius=0.5)
        pot_ref = reference.subtractive_potentials(xn_ref, radius=0.5)
        yield f"{name}/potentials", pot_opt, pot_ref
        center = int(np.argmax(pot_opt))
        red_opt = potential_reduction(pot_opt, xn_opt, center, radius=0.5)
        red_ref = potential_reduction(pot_ref, xn_ref, center, radius=0.5)
        yield f"{name}/reduction", red_opt, red_ref
        if data.shape[0] > 1:
            fit = SubtractiveClustering(radius=0.5).fit(data)
            idx = reference.subtractive_fit_indices(data, radius=0.5)
            yield (f"{name}/fit-centers", fit.centers,
                   data[np.asarray(idx, dtype=int)])


def _cases_lse(ctx: _SeedContext,
               mutate: Optional[Callable]) -> Iterator[CasePair]:
    from ..core.construction import quality_training_data

    system = ctx.experiment.augmented.quality.system
    v, y, _ = quality_training_data(
        ctx.experiment.classifier, ctx.experiment.material.quality_train)
    a_opt = design_matrix(system, v)
    a_ref = reference.lse_design_matrix(system.means, system.sigmas,
                                        system.order, v)
    yield "design-matrix", a_opt, a_ref

    coefficients, diagnostics = fit_consequents(system, v, y)
    theta_ref = reference.lse_solve_svd(a_opt, y)
    # Coefficients are compared through the fitted values: the solve is
    # only well-conditioned in prediction space.
    yield "fitted-values", a_opt @ coefficients.ravel(), a_opt @ theta_ref
    rmse_ref = float(np.sqrt(np.mean((a_opt @ theta_ref - y) ** 2)))
    yield ("residual-rmse", np.array([diagnostics.residual_rmse]),
           np.array([rmse_ref]))

    rng = ctx.rng(5)
    tall = rng.normal(size=(40, 4))
    deficient = np.hstack([tall, tall[:, :1]])     # duplicated column
    target = rng.normal(size=40)
    sol_opt = np.linalg.lstsq(deficient, target, rcond=None)[0]
    sol_ref = reference.lse_solve_svd(deficient, target)
    yield ("rank-deficient/fitted-values", deficient @ sol_opt,
           deficient @ sol_ref)


def _cases_normalization(ctx: _SeedContext,
                         mutate: Optional[Callable]) -> Iterator[CasePair]:
    eps = np.finfo(float).eps
    boundaries = np.array([-0.5 - eps, -0.5, -0.5 + eps, -eps, 0.0, eps,
                           1.0 - eps, 1.0, 1.0 + eps, 1.5 - eps, 1.5,
                           1.5 + eps, np.nan, np.inf, -np.inf])
    grid = np.linspace(-2.5, 3.0, 701)
    seeded = ctx.rng(6).normal(0.5, 1.2, size=256)
    for name, raw in (("boundaries", boundaries), ("grid", grid),
                      ("seeded", seeded)):
        yield name, normalize_array(raw), reference.normalize(raw)
        scalars = np.array([np.nan if normalize_scalar(v) is None
                            else normalize_scalar(v) for v in raw])
        yield f"{name}/scalar-vs-array", normalize_array(raw), scalars


def _cases_threshold(ctx: _SeedContext,
                     mutate: Optional[Callable]) -> Iterator[CasePair]:
    rng = ctx.rng(7)
    pairs = {
        "experiment": (ctx.experiment.calibration.estimates.right,
                       ctx.experiment.calibration.estimates.wrong),
        "equal-sigma": (Gaussian(0.8, 0.1), Gaussian(0.4, 0.1)),
        "near-equal-sigma": (Gaussian(0.8, 0.1),
                             Gaussian(0.4, 0.1 * (1.0 + 1e-13))),
        "unequal-sigma": (Gaussian(0.85, 0.07), Gaussian(0.45, 0.16)),
    }
    for k in range(6):
        mu_w = float(rng.uniform(0.2, 0.5))
        mu_r = float(rng.uniform(mu_w + 0.15, 0.95))
        pairs[f"random-{k}"] = (Gaussian(mu_r, float(rng.uniform(0.04, 0.2))),
                                Gaussian(mu_w, float(rng.uniform(0.04, 0.2))))
    for name, (right, wrong) in pairs.items():
        opt = intersection_threshold(right, wrong).threshold
        ref = reference.intersection_between_means(right, wrong)
        yield name, np.array([opt]), np.array([ref])


def _cases_serving(ctx: _SeedContext,
                   mutate: Optional[Callable]) -> Iterator[CasePair]:
    from ..core.persistence import QualityPackage
    from ..serving import (ModelRegistry, ServeRequest, ServingConfig,
                           serve_requests)

    experiment = ctx.experiment
    registry = ModelRegistry()
    registry.publish_and_activate(
        QualityPackage.from_calibration(experiment.augmented.quality,
                                        experiment.calibration),
        classifier=experiment.classifier, tag="verify")
    cues = experiment.material.analysis.cues
    rng = ctx.rng(8)
    rows = rng.integers(0, cues.shape[0], size=40)
    predicted = experiment.classifier.predict_indices(cues[rows])
    requests = []
    for k, (row, cls) in enumerate(zip(rows, predicted)):
        # Half the requests carry an external class id, half make the
        # service run its registered classifier.
        external = int(cls) if k % 2 == 0 else None
        requests.append(ServeRequest(request_id=k, cues=cues[int(row)],
                                     class_index=external))
    responses = serve_requests(
        registry, requests,
        config=ServingConfig(max_batch=7))

    quality = experiment.augmented.quality
    direct_q = quality.measure_batch(cues[rows], predicted.astype(float))
    served_q = np.array([np.nan if r.quality is None else r.quality
                         for r in sorted(responses,
                                         key=lambda r: r.request_id)])
    served_cls = np.array([r.class_index for r in
                           sorted(responses, key=lambda r: r.request_id)],
                          dtype=float)
    yield "served-vs-direct-q", served_q, direct_q
    yield "served-vs-direct-class", served_cls, predicted.astype(float)


@dataclasses.dataclass(frozen=True)
class _StageSpec:
    name: str
    cases: Callable[[_SeedContext, Optional[Callable]], Iterator[CasePair]]
    atol: float
    rtol: float


#: Verified stages in pipeline order.  ``serving`` and ``normalization``
#: are exact-match stages: their optimized paths claim bit identity.
STAGES: Tuple[_StageSpec, ...] = (
    _StageSpec("cues", _cases_cues, atol=1e-12, rtol=1e-9),
    _StageSpec("membership", _cases_membership, atol=1e-300, rtol=1e-9),
    _StageSpec("tsk", _cases_tsk, atol=1e-9, rtol=1e-7),
    _StageSpec("gradient", _cases_gradient, atol=1e-10, rtol=1e-6),
    _StageSpec("clustering", _cases_clustering, atol=1e-9, rtol=1e-9),
    _StageSpec("lse", _cases_lse, atol=1e-8, rtol=1e-6),
    _StageSpec("normalization", _cases_normalization, atol=0.0, rtol=0.0),
    _StageSpec("threshold", _cases_threshold, atol=1e-9, rtol=1e-9),
    _StageSpec("serving", _cases_serving, atol=0.0, rtol=0.0),
)

STAGE_NAMES: Tuple[str, ...] = tuple(spec.name for spec in STAGES)

#: Stages whose optimized side accepts a :class:`StageFault` mutation.
FAULT_STAGES: Tuple[str, ...] = ("tsk",)


class DifferentialRunner:
    """Sweep every stage over every seed and summarize the divergence.

    Parameters
    ----------
    seeds:
        Master seeds; each gets its own fixture battery (and, for the
        pipeline-coupled stages, its own trained experiment).
    stages:
        Stage-name subset to run (default: all, in pipeline order).
    fault:
        Optional :class:`StageFault` applied to the optimized side —
        the negative-control hook.
    """

    def __init__(self, seeds: Sequence[int] = (7, 11, 13),
                 stages: Optional[Sequence[str]] = None,
                 fault: Optional[StageFault] = None) -> None:
        if not seeds:
            raise ConfigurationError("need >= 1 seed")
        self.seeds = tuple(int(s) for s in seeds)
        wanted = list(stages) if stages is not None else list(STAGE_NAMES)
        unknown = [s for s in wanted if s not in STAGE_NAMES]
        if unknown:
            raise ConfigurationError(
                f"unknown stage(s) {unknown}; valid: {list(STAGE_NAMES)}")
        self.stages = tuple(spec for spec in STAGES if spec.name in wanted)
        if fault is not None and fault.stage not in FAULT_STAGES:
            raise ConfigurationError(
                f"stage {fault.stage!r} does not support fault injection; "
                f"supported: {list(FAULT_STAGES)}")
        self.fault = fault

    def run(self) -> DifferentialReport:
        contexts = [_SeedContext(seed) for seed in self.seeds]
        reports = []
        for spec in self.stages:
            mutate = (self.fault.mutate
                      if self.fault is not None
                      and self.fault.stage == spec.name else None)
            reports.append(self._run_stage(spec, contexts, mutate))
        return DifferentialReport(seeds=self.seeds, stages=tuple(reports))

    def _run_stage(self, spec: _StageSpec, contexts: List[_SeedContext],
                   mutate: Optional[Callable]) -> StageReport:
        n_values = 0
        max_abs = max_rel = max_ulp = 0.0
        worst_case = ""
        passed = True
        for ctx in contexts:
            for case, optimized, ref in spec.cases(ctx, mutate):
                label = f"seed{ctx.seed}/{case}"
                opt = np.asarray(optimized, dtype=float).ravel()
                refv = np.asarray(ref, dtype=float).ravel()
                if opt.shape != refv.shape:
                    return StageReport(
                        stage=spec.name, n_values=n_values + opt.size,
                        max_abs=np.inf, max_rel=np.inf, max_ulp=np.inf,
                        atol=spec.atol, rtol=spec.rtol, passed=False,
                        worst_case=f"{label}: shape {opt.shape} vs "
                                   f"{refv.shape}")
                n_values += opt.size
                if opt.size == 0:
                    continue
                both_nan = np.isnan(opt) & np.isnan(refv)
                one_nan = np.isnan(opt) ^ np.isnan(refv)
                with np.errstate(invalid="ignore"):
                    abs_diff = np.where(both_nan, 0.0, np.abs(opt - refv))
                abs_diff = np.where(one_nan, np.inf, abs_diff)
                denom = np.where(np.abs(refv) > 0, np.abs(refv), 1.0)
                rel_diff = abs_diff / denom
                ulp = ulp_distance(opt, refv)
                case_abs = float(np.max(abs_diff))
                limit = spec.atol + spec.rtol * np.abs(
                    np.where(both_nan, 0.0, refv))
                case_ok = bool(np.all(np.where(
                    both_nan, True, abs_diff <= limit)))
                if case_abs >= max_abs:
                    max_abs = case_abs
                    if not case_ok or not worst_case:
                        worst_case = label
                max_rel = max(max_rel, float(np.max(rel_diff)))
                max_ulp = max(max_ulp, float(np.max(ulp)))
                if not case_ok:
                    passed = False
                    worst_case = label
        return StageReport(stage=spec.name, n_values=n_values,
                           max_abs=max_abs, max_rel=max_rel,
                           max_ulp=max_ulp, atol=spec.atol, rtol=spec.rtol,
                           passed=passed, worst_case=worst_case)
