import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biphoton.montecarlo as mc
from biphoton import selftest
from biphoton.bell import SETTING_LABELS, ChshSettings, PsiAngles, chsh
from biphoton.detection import DEFAULT_ASSIGNMENT, DetectorModel, joint_table
from biphoton.montecarlo import (
    EmptyEventsError,
    EventBatch,
    MissingSettingError,
    MixedSettingsError,
    SamplerConfig,
    estimate_chsh,
    estimate_correlation,
    sample_events,
)

IDEAL_SETTINGS = ChshSettings(0.0, math.pi / 2, 3 * math.pi / 4, 5 * math.pi / 4)


def small_cfg(seed=1, n=500, alpha=1.0, eta=1.0):
    return SamplerConfig(
        seed=seed,
        n_per_setting=n,
        model=DetectorModel(alpha=alpha, eta=eta),
        settings=IDEAL_SETTINGS,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(seed=-1)
    with pytest.raises(ValueError):
        small_cfg(seed=2**64)
    with pytest.raises(ValueError):
        small_cfg(n=0)
    # the four settings' 4 n events would overflow np.intp
    with pytest.raises(ValueError, match="n_per_setting = 9223372036854775808 is too large"):
        small_cfg(n=2**63)


def test_config_rejects_non_integers():
    # int() truncates: seed 1.5 would draw seed 1's events, n 2.5 would draw 2
    with pytest.raises(TypeError):
        small_cfg(seed=1.5)
    with pytest.raises(TypeError):
        small_cfg(n=2.5)
    cfg = small_cfg(seed=np.uint64(2**64 - 1), n=np.int64(3))
    assert len(sample_events(cfg)) == 12


def test_fixed_seed_is_reproducible():
    one = sample_events(small_cfg())
    two = sample_events(small_cfg())
    for col in ("setting_codes", "raw1", "raw2", "obs1", "obs2"):
        assert np.array_equal(getattr(one, col), getattr(two, col))
    assert not np.array_equal(
        sample_events(small_cfg(seed=2)).raw1, one.raw1
    )


def test_csv_export_is_byte_identical(tmp_path):
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    sample_events(small_cfg(alpha=0.6, eta=0.85)).to_csv(p1)
    sample_events(small_cfg(alpha=0.6, eta=0.85)).to_csv(p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    header = b1.splitlines()[0].decode()
    assert header == "index,setting,psi1,psi2,raw1,raw2,obs1,obs2,a,b"
    assert len(b1.splitlines()) == 1 + 4 * 500


#: sha256 of the CSV bytes of seeded batches, pinned from the row-by-row
#: writer; any change to the export format or to the draw shows here
CSV_PINS = {
    "alpha0_lossy": (
        SamplerConfig(5, 500, DetectorModel(alpha=0.0, eta=0.9), IDEAL_SETTINGS),
        "0596338e78cbd7729941bd5ed09842e92cf6480548fb076cc0eb02a4a4432441",
    ),
    "negative_angles": (
        SamplerConfig(31, 500, DetectorModel(alpha=0.6, eta=0.85),
                      ChshSettings(-0.3, -1.2, 0.7, -2.5)),
        "a946e0320e5a2ef9918994caa8211750a3f982a51814dd9eafafff5601f2be44",
    ),
    # 70000 per setting crosses the sampler's CHUNK_SIZE in every setting
    "above_chunk": (
        SamplerConfig(77, 70_000, DetectorModel(alpha=0.5, eta=0.95),
                      ChshSettings(0.4, 2.2, -0.9, 1.3)),
        "c398d8569d31eeaeab864f6526eb5f039495927945cd40c09fb633e4e11060a8",
    ),
}

#: sub-batches of the alpha0_lossy batch: rows are renumbered from 0
SUB_BATCH_PINS = {
    "stride_7": (
        lambda b: b[::7],
        "2158cd7823a774e410937e0c64e3694a99b5ac7aa383ea059dd7a56768c769fd",
    ),
    "obs1_is_1": (
        lambda b: b[b.obs1 == 1],
        "e8f0956cb7ec1145ce57f7c8e347dac8467e3505ae57dc7906d9e49b02a97887",
    ),
    "group_AB_prime": (
        lambda b: b.split_by_setting()["AB'"],
        "5a8799dac8f70c5d766904ab28e8bcb7bffbb3ba44a6d345adbd7d0db4ad4c68",
    ),
    "header_only": (
        lambda b: b[:0],
        "a1fbc0afb924d0ff9359543a87a68ad62b69511e8fbb8c83bfd0d5242462170c",
    ),
}


def csv_sha256(batch, path):
    batch.to_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CSV_PINS))
def test_csv_bytes_are_pinned(name, tmp_path):
    cfg, digest = CSV_PINS[name]
    assert csv_sha256(sample_events(cfg), tmp_path / "events.csv") == digest


@pytest.mark.parametrize("name", sorted(SUB_BATCH_PINS))
def test_sub_batch_csv_bytes_are_pinned(name, tmp_path):
    take, digest = SUB_BATCH_PINS[name]
    batch = take(sample_events(CSV_PINS["alpha0_lossy"][0]))
    assert csv_sha256(batch, tmp_path / "events.csv") == digest


def test_csv_export_memory_is_bounded_by_the_write_chunk(tmp_path):
    # 2.8e5 rows make an 8.7 MB file: building it as one string would
    # break the bound, writing it a chunk at a time peaks near 1 MiB
    batch = sample_events(CSV_PINS["above_chunk"][0])
    tracemalloc.start()
    try:
        batch.to_csv(tmp_path / "events.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch) == 280_000
    assert peak < 4 * 2**20


def test_draw_memory_is_the_columns_plus_one_chunk():
    # the five uint8 columns of 2.8e5 events hold 1.34 MiB; per-chunk
    # lists joined at the end would hold every column twice
    tracemalloc.start()
    try:
        batch = sample_events(CSV_PINS["above_chunk"][0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch) == 280_000
    assert peak < 2.75 * 2**20


COLUMNS = ("setting_codes", "raw1", "raw2", "obs1", "obs2")


def test_fresh_batch_splits_into_views():
    batch = sample_events(small_cfg(n=300))
    groups = batch.split_by_setting()
    assert list(groups) == list(batch.labels)
    for code, group in enumerate(groups.values()):
        assert len(group) == 300
        assert np.all(group.setting_codes == code)
        for col in COLUMNS:
            assert np.shares_memory(getattr(group, col), getattr(batch, col))


def test_any_batch_splits_as_by_mask():
    batch = sample_events(small_cfg(n=300))
    order = np.random.default_rng(3).permutation(len(batch))
    for b in (batch, batch[::7], batch[::-1], batch[batch.raw1 != 3],
              batch[order], batch[:0]):
        groups = b.split_by_setting()
        assert list(groups) == list(b.labels)
        for code, label in enumerate(b.labels):
            ref = b[b.setting_codes == code]
            for col in COLUMNS:
                assert np.array_equal(getattr(groups[label], col), getattr(ref, col))


def test_frequency_check_memory_is_the_draw():
    # 4e5 events in five uint8 columns hold 1.9 MiB; a boolean-mask copy
    # per setting took the peak to 5.8 MiB
    tracemalloc.start()
    try:
        selftest.check_sampler_frequencies()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def hand_batch(*columns):
    """A batch of the columns (codes, raw1, raw2, obs1, obs2) as uint8."""
    return EventBatch(SETTING_LABELS, (0.0,) * 4, (0.0,) * 4,
                      *(np.array(c, dtype=np.uint8) for c in columns))


@pytest.mark.parametrize("chunk", (256, mc.CHUNK_SIZE))
def test_counts_equal_an_add_at_histogram(chunk, monkeypatch):
    batch = sample_events(small_cfg(n=300, alpha=0.5, eta=0.9))
    monkeypatch.setattr(mc, "CHUNK_SIZE", chunk)
    for b in (batch, batch[::7], batch[::-1], batch[batch.raw1 != 3], batch[:0]):
        # the whole histogram, so every marginal the estimators and
        # validate read: per-setting totals, raw and observed tables
        ref = np.zeros((4, 6, 6, 6, 6), dtype=np.int64)
        np.add.at(ref, (b.setting_codes, b.raw1 - 1, b.raw2 - 1,
                        b.obs1 - 1, b.obs2 - 1), 1)
        counts = b.counts()
        assert counts.dtype == np.int64
        assert np.array_equal(counts, ref)


def many_label_batch(n_labels, rows=3000):
    """A hand-built batch over n_labels settings; its last row has the
    largest code and class 6 everywhere, so the largest key."""
    rng = np.random.default_rng(n_labels)
    codes = rng.integers(0, n_labels, rows)
    codes[-1] = n_labels - 1
    classes = rng.integers(1, 7, (4, rows))
    classes[:, -1] = 6
    return EventBatch([f"S{c}" for c in range(n_labels)],
                      [0.1 * c for c in range(n_labels)],
                      [-0.3 * c for c in range(n_labels)],
                      codes.astype(np.uint8), *classes.astype(np.uint8))


@pytest.mark.parametrize("n_labels, key_dtype",
                         ((4, np.uint16), (50, np.uint16), (51, np.uint32)))
def test_row_keys_of_many_labels(n_labels, key_dtype, tmp_path):
    # 51 labels make keys up to 51 * 6**4 > 2**16, past what uint16 holds
    b = many_label_batch(n_labels)
    assert b._row_keys(slice(None)).dtype == key_dtype
    ref = np.zeros((n_labels, 6, 6, 6, 6), dtype=np.int64)
    np.add.at(ref, (b.setting_codes, b.raw1 - 1, b.raw2 - 1, b.obs1 - 1, b.obs2 - 1), 1)
    assert np.array_equal(b.counts(), ref)
    # the CSV bytes of a row-by-row writer
    va = DEFAULT_ASSIGNMENT
    lines = ["index,setting,psi1,psi2,raw1,raw2,obs1,obs2,a,b\n"]
    for i, (c, r1, r2, o1, o2) in enumerate(zip(*(getattr(b, col).tolist()
                                                  for col in COLUMNS))):
        lines.append(f"{i},{b.labels[c]},{0.1 * c:.9g},{-0.3 * c:.9g},{r1},{r2},"
                     f"{o1},{o2},{va.a[o1 - 1]},{va.b[o2 - 1]}\n")
    b.to_csv(tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_text() == "".join(lines)


#: one bad class or code in row 1 of otherwise valid rows; unchecked, the
#: first three alias other rows' keys and the last indexes past the row tails
BAD_ROWS = {
    "obs2_7": ([0, 0, 0], [1, 2, 3], [1, 2, 3], [1, 2, 3], [1, 7, 3]),
    "raw1_7": ([0, 0, 0], [1, 7, 3], [1, 2, 3], [1, 2, 3], [1, 2, 3]),
    "obs2_0": ([0, 0, 0], [1, 2, 3], [1, 2, 3], [1, 2, 3], [1, 0, 3]),
    "code_4": ([0, 4, 0], [1, 2, 3], [1, 2, 3], [1, 2, 3], [1, 2, 3]),
}


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
def test_out_of_range_rows_raise(name, tmp_path):
    batch = hand_batch(*BAD_ROWS[name])
    # a bad batch neither creates a file nor touches an existing one
    fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
    existing.write_bytes(b"index\n0\n")
    for path in (fresh, existing):
        with pytest.raises(ValueError):
            batch.to_csv(path)
    assert not fresh.exists()
    assert existing.read_bytes() == b"index\n0\n"
    with pytest.raises(ValueError):
        batch.counts()
    with pytest.raises(ValueError):
        estimate_correlation(batch)


def test_estimator_mean_is_the_exact_fraction():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 3000))
        # a skewed share of class 1 keeps t away from 0
        p = rng.uniform(0.0, 1.0, size=2)
        obs1, obs2 = (np.where(rng.random(n) < q, 1, rng.integers(2, 7, n)) for q in p)
        batch = hand_batch(np.full(n, rng.integers(0, 4)), rng.integers(1, 7, n),
                           rng.integers(1, 7, n), obs1, obs2)
        ab = np.where(obs1 == 1, -1, 1) * np.where(obs2 == 1, -1, 1)
        t = int(ab.sum())
        mean, err = estimate_correlation(batch)
        assert mean == float(Fraction(t, n))
        ref = math.sqrt(ab.var(ddof=1) / n) if n > 1 else 0.0
        assert math.isclose(err, ref, rel_tol=1e-14, abs_tol=1e-300)


def test_chsh_estimate_memory_is_one_chunk_key():
    # the largest temporary is bincount's intp copy of one chunk's uint16
    # row key, 0.5 MiB; per-event value columns and their float product
    # would add 0.5 MiB each
    groups = sample_events(CSV_PINS["above_chunk"][0]).split_by_setting()
    tracemalloc.start()
    try:
        estimate_chsh(groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(g) for g in groups.values()) == 280_000
    assert peak < 1 * 2**20


def test_raw_stream_does_not_depend_on_alpha():
    ideal = sample_events(small_cfg(alpha=1.0))
    noisy = sample_events(small_cfg(alpha=0.3))
    assert np.array_equal(ideal.raw1, noisy.raw1)
    assert np.array_equal(ideal.raw2, noisy.raw2)


def test_alpha_one_never_relabels():
    events = sample_events(small_cfg(alpha=1.0))
    assert np.array_equal(events.raw1, events.obs1)
    assert np.array_equal(events.raw2, events.obs2)


def test_alpha_zero_always_relabels():
    events = sample_events(small_cfg(alpha=0.0, n=4000))
    assert np.all(events.obs1[events.raw1 == 6] == 1)
    assert np.all(events.obs1[events.raw1 == 5] == 2)
    assert np.all(events.obs2[events.raw2 == 6] == 1)
    assert np.all(events.obs2[events.raw2 == 5] == 2)
    # something must actually have been relabeled at these settings
    assert np.any(events.raw1 >= 5)


def test_relabel_rate_matches_alpha():
    alpha = 0.5
    # psi1 = pi/2 puts an eighth of the mass in each double-click class
    cfg = SamplerConfig(
        seed=3,
        n_per_setting=50_000,
        model=DetectorModel(alpha=alpha),
        settings=ChshSettings(math.pi / 2, 0.0, 0.0, 0.0),
    )
    events = sample_events(cfg).split_by_setting()["AB"]
    eligible = (events.raw1 == 5) | (events.raw1 == 6)
    m = int(eligible.sum())
    relabeled = int((events.obs1 != events.raw1).sum())
    rate = relabeled / m
    sigma = math.sqrt(alpha * (1.0 - alpha) / m)
    assert abs(rate - (1.0 - alpha)) < 3.0 * sigma


def test_no_split_pairs_when_analyzer_at_quarter():
    cfg = SamplerConfig(
        seed=5,
        n_per_setting=20_000,
        model=DetectorModel(),
        settings=ChshSettings(math.pi / 2, 0.0, 0.0, 0.0),
    )
    events = sample_events(cfg).split_by_setting()["AB"]
    # theta1 = pi/4: both photons always exit one analyzer port together
    assert not np.any(events.raw1 == 4)


def test_empirical_frequencies_converge():
    n = 100_000
    cfg = SamplerConfig(
        seed=9,
        n_per_setting=n,
        model=DetectorModel(eta=0.9),
        settings=IDEAL_SETTINGS,
    )
    events = sample_events(cfg).split_by_setting()["AB"]
    theta1, theta2 = PsiAngles(0.0, 3 * math.pi / 4).to_thetas()
    table = joint_table(theta1, theta2, 0.9)
    emp = np.zeros((6, 6))
    np.add.at(emp, (events.raw1 - 1, events.raw2 - 1), 1.0)
    emp /= n
    assert np.max(np.abs(emp - table.probs)) < 5.0 / math.sqrt(n)


def test_estimate_correlation_trivial_cases():
    batch = hand_batch([0] * 3, [2] * 3, [2] * 3, [2] * 3, [2] * 3)
    mean, err = estimate_correlation(batch)
    assert mean == 1.0
    assert err == 0.0
    # one +1 and one -1 event average to zero
    mixed = hand_batch([0, 0], [2, 1], [2, 2], [2, 1], [2, 2])
    mean, err = estimate_correlation(mixed)
    assert mean == 0.0
    # sample variance 2 with ddof=1, so sqrt(2 / 2) = 1
    assert err == 1.0


def test_estimator_error_conditions():
    events = sample_events(small_cfg(n=50))
    with pytest.raises(MixedSettingsError):
        estimate_correlation(events)
    empty = events[events.setting_codes == 99]
    with pytest.raises(EmptyEventsError):
        estimate_correlation(empty)
    groups = events.split_by_setting()
    del groups["A'B'"]
    with pytest.raises(MissingSettingError):
        estimate_chsh(groups)


def test_single_event_has_zero_stderr():
    events = sample_events(small_cfg(n=50))
    one = events.split_by_setting()["AB"][:1]
    mean, err = estimate_correlation(one)
    assert err == 0.0
    assert mean in (-1.0, 1.0)


def test_chsh_estimate_matches_exact_value():
    n = 100_000
    cfg = SamplerConfig(
        seed=17,
        n_per_setting=n,
        model=DetectorModel(),
        settings=IDEAL_SETTINGS,
    )
    groups = sample_events(cfg).split_by_setting()
    s, err = estimate_chsh(groups)
    exact = chsh(cfg.settings, cfg.model)
    assert err > 0.0
    assert abs(s - exact) < 4.0 * err


def test_event_records_and_iteration():
    events = sample_events(small_cfg(n=64))
    rec = events[0]
    assert rec.index == 0
    assert rec.setting == "AB"
    assert rec.psi1 == 0.0
    assert rec.raw[0] == events.raw1[0]
    assert rec.observed[1] == events.obs2[0]
    assert rec.a == np.where(events.obs1 == 1, -1, 1)[0]
    assert rec.b == np.where(events.obs2 == 1, -1, 1)[0]
    last = events[-1]
    assert last.setting == "A'B'"
    with pytest.raises(IndexError):
        events[len(events)]
    seen = 0
    for r in events:
        seen += 1
        assert r.a in (-1, 1)
    assert seen == len(events)


def test_records_read_columns_per_element(monkeypatch):
    cfg = small_cfg(alpha=0.0, n=300)
    events = sample_events(cfg)
    a = np.where(events.obs1 == 1, -1, 1).tolist()
    b = np.where(events.obs2 == 1, -1, 1).tolist()

    def whole_batch(self):
        raise AssertionError("a record read built the whole histogram")

    monkeypatch.setattr(EventBatch, "counts", whole_batch)
    records = list(events)
    assert [r.index for r in records] == list(range(len(events)))
    assert [r.setting for r in records] == [
        events.labels[c] for c in events.setting_codes
    ]
    angles = dict(cfg.settings.pairs())
    assert [PsiAngles(r.psi1, r.psi2) for r in records] == [
        angles[r.setting] for r in records
    ]
    assert [r.raw for r in records] == list(
        zip(events.raw1.tolist(), events.raw2.tolist())
    )
    assert [r.observed for r in records] == list(
        zip(events.obs1.tolist(), events.obs2.tolist())
    )
    assert [r.a for r in records] == a
    assert [r.b for r in records] == b
    assert -1 in a and 1 in a


def test_values_follow_default_assignment():
    events = sample_events(small_cfg(alpha=0.0, n=2000))
    for group in events.split_by_setting().values():
        ab = np.where(group.obs1 == 1, -1, 1) * np.where(group.obs2 == 1, -1, 1)
        assert estimate_correlation(group)[0] == ab.mean()


def test_chunked_sampling_is_chunk_size_invariant(monkeypatch):
    cfg = SamplerConfig(
        seed=23,
        n_per_setting=1000,
        model=DetectorModel(alpha=0.5, eta=0.8),
        settings=IDEAL_SETTINGS,
    )
    full = sample_events(cfg)
    monkeypatch.setattr(mc, "CHUNK_SIZE", 256)
    rechunked = sample_events(cfg)
    # chunk boundaries change which uniforms drive which event, so only
    # the per-stream prefix property holds: the first chunk agrees
    assert np.array_equal(full.raw1[:256], rechunked.raw1[:256])


def philox_generator(seed, setting_index, chunk_index):
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(setting_index, chunk_index))
    return np.random.Generator(np.random.Philox(seq))


def oracle_draw(cfg, generator=philox_generator):
    """The columns (codes, raw1, raw2, obs1, obs2) of the draw as first
    written: three Generator.random() rows per chunk, the cell by
    searchsorted over the cumulative table, the relabel by boolean masks.
    """
    n = int(cfg.n_per_setting)
    alpha = cfg.model.alpha
    pairs = cfg.settings.pairs()
    codes = np.repeat(np.arange(len(pairs), dtype=np.uint8), n)
    raw1, raw2, obs1, obs2 = (np.empty(len(codes), dtype=np.uint8) for _ in range(4))
    for k, (_, psi) in enumerate(pairs):
        theta1, theta2 = psi.to_thetas()
        table = joint_table(theta1, theta2, cfg.model.eta)
        cum = np.cumsum(table.probs.reshape(36))
        # float roundoff must not leave a gap above the last cell
        cum[-1] = max(cum[-1], 1.0)
        for chunk_index, start in enumerate(range(0, n, mc.CHUNK_SIZE)):
            m = min(mc.CHUNK_SIZE, n - start)
            rows = slice(k * n + start, k * n + start + m)
            g = generator(cfg.seed, k, chunk_index)
            # the draw order (cell, station-1 relabel, station-2 relabel)
            # fixes which uniform drives what, and so the output bytes
            cell = np.searchsorted(cum, g.random(m), side="right").astype(np.uint8)
            raw1[rows] = cell // 6 + 1
            raw2[rows] = cell % 6 + 1
            for raw, obs in ((raw1[rows], obs1[rows]), (raw2[rows], obs2[rows])):
                relabel = g.random(m) < (1.0 - alpha)
                obs[:] = raw
                obs[(raw == 6) & relabel] = 1
                obs[(raw == 5) & relabel] = 2
    return codes, raw1, raw2, obs1, obs2


#: psi = +-pi/2 puts an analyzer at theta = +-pi/4, where the cell edges
#: are dyadic (0.25, 0.5, ...) and fall on guide-table bucket edges
PSI = st.sampled_from((math.pi / 2, -math.pi / 2)) | st.floats(-2 * math.pi, 2 * math.pi)


@given(
    seed=st.integers(0, 2**64 - 1),
    n=(st.sampled_from((1, mc.CHUNK_SIZE - 1, mc.CHUNK_SIZE, mc.CHUNK_SIZE + 1))
       | st.integers(1, 3000)),
    alpha=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
    eta=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True),
    psi=st.tuples(PSI, PSI, PSI, PSI),
)
@example(seed=0, n=mc.CHUNK_SIZE + 1, alpha=0.5, eta=1.0, psi=(math.pi / 2,) * 4)
@settings(max_examples=40, deadline=None)
def test_draw_matches_the_searchsorted_oracle(seed, n, alpha, eta, psi):
    cfg = SamplerConfig(seed, n, DetectorModel(alpha=alpha, eta=eta), ChshSettings(*psi))
    batch = sample_events(cfg)
    for name, want in zip(COLUMNS, oracle_draw(cfg)):
        assert np.array_equal(getattr(batch, name), want), name


class GivenWords:
    """A stand-in bit generator, or Generator, that returns the given words
    in turn, or their uniforms as Generator.random() would."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, m):
        out, self.words = self.words[:m], self.words[m:]
        return out

    def random(self, m):
        return (self.random_raw(m) >> 11) * 2.0**-53


def edge_words(cum):
    """The words whose uniform is a cell edge of ``cum`` below 1, where it
    is a multiple of 2**-53, and the words just below them."""
    exact = [int(c * 2**53) << 11 for c in cum if c < 1.0 and (c * 2**53).is_integer()]
    return exact + [w - 1 for w in exact if w]


def assert_cells_are_searchsorted(cum, guide):
    # the first and last word of every bucket, 0 and 2**64 - 1 among them,
    # the words at the cell edges, and words drawn at random
    words = ([j << 54 for j in range(1024)] + [((j + 1) << 54) - 1 for j in range(1024)]
             + edge_words(cum)
             + np.random.default_rng(8).integers(0, 2**64, 5000, dtype=np.uint64).tolist())
    cells = mc._draw_cells(GivenWords(words), cum, guide, np.empty(len(words), dtype=np.intp))
    u = (np.array(words, dtype=np.uint64) >> 11) * 2.0**-53
    assert np.array_equal(cells, np.searchsorted(cum, u, side="right"))


def test_guide_table_with_edges_on_bucket_edges():
    # 35 edges j / 1024 (some repeated, so some cells are empty) and 1.0:
    # no edge cuts a bucket, so the table alone gives every cell
    edges = np.sort(np.random.default_rng(5).integers(0, 1025, 35)) / 1024
    edges[:2] = 0.0
    cum = np.append(edges, 1.0)
    guide = mc._guide_table(cum)
    assert not np.any(guide == mc.STRADDLES)
    assert guide[0] == 2 and guide[-1] == np.count_nonzero(edges <= 1023 / 1024)
    assert_cells_are_searchsorted(cum, guide)


def test_guide_table_marks_the_buckets_an_edge_cuts():
    # edges k / 36: those with 9 | k lie on a bucket edge, the rest cut one
    cum = np.arange(1, 37) / 36
    guide = mc._guide_table(cum)
    scaled = cum[:-1] * 1024
    cut = np.floor(scaled[scaled != np.floor(scaled)]).astype(int)
    assert np.array_equal(np.flatnonzero(guide == mc.STRADDLES), cut)
    assert_cells_are_searchsorted(cum, guide)


@pytest.mark.parametrize("alpha", (0.0, 0.3, 0.5, 1.0 - 2**-40, 1.0))
def test_draw_at_cell_and_relabel_edges_matches_the_oracle(alpha, monkeypatch):
    # cell words at and just below each cell edge; relabel words at the
    # largest word that relabels and the smallest that does not
    cfg = SamplerConfig(0, 3000, DetectorModel(alpha=alpha, eta=0.9),
                        ChshSettings(math.pi / 2, 0.3, -1.1, 2.0))
    below = math.ceil((1.0 - alpha) * 2**53)
    relabel = [max((below << 11) - 1, 0), min(below << 11, 2**64 - 1)]
    words = []
    for _, psi in cfg.settings.pairs():
        cum = np.cumsum(joint_table(*psi.to_thetas(), 0.9).probs.reshape(36))
        words.append(np.concatenate([np.resize(np.array(row, dtype=np.uint64), 3000)
                                     for row in (edge_words(cum), relabel, relabel)]))

    def given_words(seed, setting_index, chunk_index):
        return GivenWords(words[setting_index])

    monkeypatch.setattr(mc, "_philox", given_words)
    batch = sample_events(cfg)
    for name, want in zip(COLUMNS, oracle_draw(cfg, given_words)):
        assert np.array_equal(getattr(batch, name), want), name
    eligible = batch.raw1 >= 5
    relabeled = batch.obs1 != batch.raw1
    assert np.any(eligible & ~relabeled) == (alpha > 0.0)
    assert np.any(relabeled) == (alpha < 1.0)


def test_random_is_the_top_53_bits_of_a_philox_word():
    # the draw reads raw Philox words and takes Generator.random() of a
    # word x to be (x >> 11) * 2**-53; a numpy that draws otherwise fails here
    seq = np.random.SeedSequence(entropy=2**64 - 1, spawn_key=(3, 1))
    u = np.random.Generator(np.random.Philox(seq)).random(3000)
    x = np.random.Philox(seq).random_raw(3000)
    assert np.array_equal(u, (x >> 11) * 2.0**-53)
