import hashlib
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.bell import (
    SETTING_LABELS,
    ChshSettings,
    PsiAngles,
    chsh,
    chsh_combination,
    correlation_closed_form,
    correlation_from_table,
    correlation_via_table,
    hom_port_probabilities,
)
from biphoton.detection import (
    VALUES,
    DetectorModel,
    apply_alpha_confusion,
    closed_form_ideal_table,
    joint_table,
)
from biphoton.montecarlo import chsh_from_correlations

# setting angles quoted for the alpha = 0 maximum, reused across tests
ALPHA0_SETTINGS = ChshSettings(2.93798, 4.25513, -0.20241, 1.11708)

angles = st.floats(-8.0, 8.0, allow_nan=False, allow_subnormal=False)

#: psi whose half is zero or a normal float: 0 or |psi| >= 2^-1021
halvable = st.one_of(
    st.just(0.0),
    st.floats(2.0**-1021, 8.0),
    st.floats(-8.0, -(2.0**-1021)),
)


@given(psi1=halvable, psi2=halvable)
@settings(max_examples=100)
def test_psi_theta_round_trip_is_exact(psi1, psi2):
    # halving into the normal range is exact, so the round trip loses nothing
    psi = PsiAngles(psi1, psi2)
    assert PsiAngles.from_thetas(*psi.to_thetas()) == psi


def test_theta_psi_theta_round_trip_is_exact():
    # doubling is exact for every finite theta whose double is finite,
    # subnormal theta included
    for theta in (0.0, 5e-324, 3.541167374036344e-308, 0.3, -2.7, 8.9e307):
        assert PsiAngles.from_thetas(theta, -theta).to_thetas() == (theta, -theta)
    # the other way a psi below 2^-1021 halves to a subnormal and drops
    # its lowest bit, which bounds the strategy of the psi round trip
    psi = PsiAngles(0.0, 3.541167374036344e-308)
    assert PsiAngles.from_thetas(*psi.to_thetas()) != psi


def test_theta_convention():
    psi = PsiAngles(1.0, 0.5)
    t1, t2 = psi.to_thetas()
    assert t1 == 0.5
    assert t2 == -0.25


def test_correlation_closed_form_examples():
    # alpha = 0, eta = 1, psi1 = psi2 = pi/2: -cos(pi)/2 = 1/2
    e = correlation_closed_form(PsiAngles(math.pi / 2, math.pi / 2),
                                DetectorModel(alpha=0.0))
    assert abs(e - 0.5) < 1e-12
    # alpha = 1, eta = 0.5, psi1 + psi2 = pi: 0.25 * 1 + 0.25 = 0.5
    e = correlation_closed_form(PsiAngles(math.pi / 3, 2 * math.pi / 3),
                                DetectorModel(eta=0.5))
    assert abs(e - 0.5) < 1e-12


def test_ideal_correlation_depends_on_angle_sum_only():
    model = DetectorModel()
    base = correlation_closed_form(PsiAngles(0.7, 1.1), model)
    shifted = correlation_closed_form(PsiAngles(0.7 + 0.4, 1.1 - 0.4), model)
    assert abs(base - shifted) < 1e-12


def test_correlation_routes_agree_on_sweep():
    rng = np.random.default_rng(3)
    for _ in range(40):
        psi = PsiAngles(*rng.uniform(0.0, 2.0 * math.pi, size=2))
        model = DetectorModel(alpha=rng.uniform(0.0, 1.0),
                              eta=rng.uniform(0.05, 1.0))
        closed = correlation_closed_form(psi, model)
        tabled = correlation_via_table(psi, model)
        assert abs(closed - tabled) < 1e-10


def test_correlation_from_table_is_the_correctly_rounded_signed_sum():
    # the exact sum of the 36 signed cells, rounded once: the same bytes on
    # every BLAS kernel, which a float matrix product does not promise
    rng = np.random.default_rng(47)
    for _ in range(500):
        theta1, theta2 = rng.uniform(-10.0, 10.0, 2)
        table = apply_alpha_confusion(joint_table(theta1, theta2, rng.uniform(1e-3, 1.0)),
                                      rng.random())
        exact = sum(Fraction(VALUES[i] * VALUES[j]) * Fraction(p)
                    for (i, j), p in np.ndenumerate(table.probs))
        assert correlation_from_table(table) == float(exact)


def _table_chsh(settings_, model):
    """S with every term rebuilt from the explicit joint tables."""
    return chsh_combination(
        {label: correlation_via_table(psi, model) for label, psi in settings_.pairs()})


def test_chsh_at_standard_ideal_settings():
    settings_ = ChshSettings(0.0, math.pi / 2, 3 * math.pi / 4, 5 * math.pi / 4)
    s = chsh(settings_, DetectorModel())
    assert abs(s - (1.0 + math.sqrt(2.0))) < 1e-12
    assert abs(s - _table_chsh(settings_, DetectorModel())) < 1e-10


def test_chsh_alpha0_angle_tuple():
    # frozen: closed-form evaluation of the quoted angles
    s = chsh(ALPHA0_SETTINGS, DetectorModel(alpha=0.0))
    assert abs(s - 2.33712) < 1e-4
    assert abs(s - _table_chsh(ALPHA0_SETTINGS, DetectorModel(alpha=0.0))) < 1e-10


#: sha256 over 2,000 seeded points of the closed-form S, the table-route S
#: and ``chsh_from_correlations``' (S, standard error) of seeded
#: (mean, standard error) pairs, each as float64 bytes
CHSH_PIN = "a9539a161fa72c6578f025427243ad63a8254be41991973ea1dc6f5fa9f3e7c8"


def test_chsh_bytes_are_pinned():
    rng = np.random.default_rng(43)
    digest = hashlib.sha256()
    for _ in range(2000):
        settings_ = ChshSettings(*rng.uniform(-20.0, 20.0, 4))
        eta = 1.0 if rng.random() < 0.25 else rng.uniform(1e-3, 1.0)
        model = DetectorModel(alpha=rng.random(), eta=eta)
        correlations = {label: (rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.1))
                        for label in SETTING_LABELS}
        values = (chsh(settings_, model), _table_chsh(settings_, model),
                  *chsh_from_correlations(correlations))
        digest.update(np.array(values, dtype=np.float64).tobytes())
    assert digest.hexdigest() == CHSH_PIN


def test_chsh_combination_signs_each_term():
    # powers of two: the sum says which term, and only which, is subtracted
    e = {label: 2.0 ** k for k, label in enumerate(SETTING_LABELS)}
    assert chsh_combination(e) == e["AB"] + e["A'B"] + e["AB'"] - e["A'B'"] == -1.0
    s, _ = chsh_from_correlations({label: (value, 0.0) for label, value in e.items()})
    assert s == -1.0


def test_setting_labels_and_pairs():
    s = ChshSettings(0.1, 0.2, 0.3, 0.4)
    pairs = dict(s.pairs())
    assert tuple(dict(s.pairs())) == SETTING_LABELS
    assert pairs["AB"] == PsiAngles(0.1, 0.3)
    assert pairs["A'B"] == PsiAngles(0.2, 0.3)
    assert pairs["AB'"] == PsiAngles(0.1, 0.4)
    assert pairs["A'B'"] == PsiAngles(0.2, 0.4)


def test_canonicalization_ranges_and_value():
    raw = ChshSettings(7.0, -1.0, 5.0, -9.0)
    canon = raw.canonical()
    for v in (canon.psi1, canon.psi1_prime):
        assert 0.0 <= v < 2.0 * math.pi
    for v in (canon.psi2, canon.psi2_prime):
        assert -math.pi <= v < math.pi
    model = DetectorModel(alpha=0.3, eta=0.8)
    assert abs(chsh(raw, model) - chsh(canon, model)) < 1e-9


def test_hom_ports_at_quarter_rotation():
    probs = hom_port_probabilities(math.pi / 4.0, 0.1)
    assert probs.station1_split < 1e-12
    assert abs(probs.station1_double_plus - 0.125) < 1e-12
    assert abs(probs.station1_double_minus - 0.125) < 1e-12


def test_hom_ports_total_is_half():
    rng = np.random.default_rng(9)
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        assert abs(hom_port_probabilities(t1, t2).total - 0.5) < 1e-12


def test_hom_ports_are_the_closed_form_cells():
    rng = np.random.default_rng(13)
    for t1, t2 in (*rng.uniform(-20.0, 20.0, (50, 2)), (math.pi / 4.0, 0.0)):
        got = hom_port_probabilities(t1, t2).as_dict()
        p = closed_form_ideal_table(t1, t2)
        cells = {"p_4_3": p[3, 2], "p_5_3": p[4, 2], "p_6_3": p[5, 2],
                 "p_3_4": p[2, 3], "p_3_5": p[2, 4], "p_3_6": p[2, 5]}
        # bit for bit, sign of zero included
        assert {k: v.hex() for k, v in got.items()} == {
            k: float(v).hex() for k, v in cells.items()
        }


def test_hom_ports_match_table_route():
    t1, t2 = 0.6, 2.3
    probs = hom_port_probabilities(t1, t2)
    table = joint_table(t1, t2)
    assert abs(probs.station1_split - table.p(4, 3)) < 1e-12
    assert abs(probs.station1_double_plus - table.p(5, 3)) < 1e-12
    assert abs(probs.station1_double_minus - table.p(6, 3)) < 1e-12
    assert abs(probs.station2_split - table.p(3, 4)) < 1e-12
    assert abs(probs.station2_double_plus - table.p(3, 5)) < 1e-12
    assert abs(probs.station2_double_minus - table.p(3, 6)) < 1e-12


@given(psi1=angles, psi2=angles, alpha=st.floats(0.0, 1.0), eta=st.floats(0.01, 1.0))
@settings(max_examples=100)
def test_correlation_is_bounded(psi1, psi2, alpha, eta):
    e = correlation_closed_form(PsiAngles(psi1, psi2), DetectorModel(alpha, eta))
    assert abs(e) <= 1.0 + 1e-12


@given(psi1=angles, psi2=angles, alpha=st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_correlation_is_two_pi_periodic(psi1, psi2, alpha):
    model = DetectorModel(alpha=alpha)
    a = correlation_closed_form(PsiAngles(psi1, psi2), model)
    b = correlation_closed_form(
        PsiAngles(psi1 + 2.0 * math.pi, psi2 - 2.0 * math.pi), model
    )
    assert abs(a - b) < 1e-9
