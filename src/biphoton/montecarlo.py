"""Event-level sampling of the joint click statistics.

Raw outcome pairs are drawn by inverse CDF over the 36 table cells at
alpha = 1; recognition errors are then applied per event and per station
(class 6 relabeled 1, class 5 relabeled 2, each with probability
1 - alpha).  Randomness comes from the counter-based Philox generator,
with one independent stream per (seed, setting index, chunk index), so
for a fixed CHUNK_SIZE the output is reproducible bit for bit.  Changing
CHUNK_SIZE changes every event after the first chunk of each setting.

Each event consumes three Philox words, one row of each per chunk, in
the order cell, station-1 relabel, station-2 relabel; the raw stream
therefore does not depend on alpha.  A word x stands for the uniform
u = (x >> 11) * 2**-53, which is numpy's Generator.random() of it.  The
cell is the number of cumulative-table entries at most u, read from a
guide table over the leading GUIDE_BITS of x (Chen & Asau, 1974); the
few words whose bucket a cell edge cuts fall back to an exact
searchsorted on u.  At alpha = 1 the relabel words are not drawn: each
chunk has its own stream, so no byte of the output changes.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bell import SETTING_LABELS, ChshSettings, chsh_combination
from .detection import VALUES, DetectorModel, StationOutcome, joint_table

#: events drawn per Philox stream, and rows per bincount in EventBatch.counts
CHUNK_SIZE = 1 << 16

#: rows formatted per write in EventBatch.to_csv
CSV_CHUNK = 1 << 12

#: leading bits of a Philox word that pick its bucket in the guide table
GUIDE_BITS = 10

#: guide-table entry of a bucket that a cell edge cuts
STRADDLES = 255


class EmptyEventsError(ValueError):
    """Raised when an estimator is handed no events."""


class MixedSettingsError(ValueError):
    """Raised when a single-setting estimator sees several labels."""


class MissingSettingError(ValueError):
    """Raised when a CHSH estimate lacks one of the four settings."""


@dataclass(frozen=True)
class SamplerConfig:
    """Seeded sampling plan: one batch of events per CHSH setting."""

    seed: int
    n_per_setting: int
    model: DetectorModel
    settings: ChshSettings

    def __post_init__(self):
        # operator.index rejects floats, which int() would truncate
        if not 0 <= operator.index(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        n = operator.index(self.n_per_setting)
        if n < 1:
            raise ValueError("n_per_setting must be at least 1")
        # the four settings' events share one array, indexed by np.intp
        if len(SETTING_LABELS) * n > np.iinfo(np.intp).max:
            raise ValueError(f"n_per_setting = {n} is too large: its "
                             f"{len(SETTING_LABELS)} x n events overflow an array index")


@dataclass(frozen=True)
class EventRecord:
    """One sampled event, fully labeled."""

    index: int
    setting: str
    psi1: float
    psi2: float
    raw: tuple
    observed: tuple
    a: int
    b: int


class EventBatch:
    """Column-oriented sequence of EventRecord.

    Columns are 1-D integer numpy arrays of one length, or lists that
    convert to them; indexing with an int materializes a single
    EventRecord, slices and boolean masks return a new batch view.  The
    estimators and ``validate``'s frequency check read a batch only
    through ``counts()``, its integer histogram.
    """

    def __init__(self, labels, psi1_by_code, psi2_by_code, setting_codes,
                 raw1, raw2, obs1, obs2):
        self.labels = tuple(labels)
        self._psi1 = np.asarray(psi1_by_code, dtype=float)
        self._psi2 = np.asarray(psi2_by_code, dtype=float)
        # asarray does not copy an ndarray, so slices stay views
        self.setting_codes = np.asarray(setting_codes)
        self.raw1 = np.asarray(raw1)
        self.raw2 = np.asarray(raw2)
        self.obs1 = np.asarray(obs1)
        self.obs2 = np.asarray(obs2)
        # numpy would broadcast a short column and truncate a float class
        for name in ("setting_codes", "raw1", "raw2", "obs1", "obs2"):
            col = getattr(self, name)
            if col.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {col.shape}")
            if len(col) != len(self.setting_codes):
                raise ValueError(f"{name} has {len(col)} rows, setting_codes "
                                 f"{len(self.setting_codes)}")
            # an empty column has no class to misread, whatever its dtype
            if len(col) and not np.issubdtype(col.dtype, np.integer):
                raise ValueError(f"{name} must hold integers, got {col.dtype}")

    def __len__(self):
        return len(self.setting_codes)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            idx = int(key)
            if idx < 0:
                idx += len(self)
            if not 0 <= idx < len(self):
                raise IndexError(idx)
            code = int(self.setting_codes[idx])
            obs1 = int(self.obs1[idx])
            obs2 = int(self.obs2[idx])
            return EventRecord(
                index=idx,
                setting=self.labels[code],
                psi1=float(self._psi1[code]),
                psi2=float(self._psi2[code]),
                raw=(StationOutcome(int(self.raw1[idx])),
                     StationOutcome(int(self.raw2[idx]))),
                observed=(StationOutcome(obs1), StationOutcome(obs2)),
                a=VALUES[obs1 - 1],
                b=VALUES[obs2 - 1],
            )
        return EventBatch(
            self.labels, self._psi1, self._psi2,
            self.setting_codes[key], self.raw1[key], self.raw2[key],
            self.obs1[key], self.obs2[key],
        )

    def split_by_setting(self) -> dict:
        """One sub-batch per label, in SETTING_LABELS order.

        ``sample_events`` lays the settings out in blocks of non-decreasing
        code, so each group is then a slice view of the batch; any other
        batch is split by a boolean mask per label, which copies.
        """
        codes = self.setting_codes
        if np.all(codes[:-1] <= codes[1:]):
            # needles of the codes' own dtype, or searchsorted copies codes
            needles = np.arange(len(self.labels) + 1, dtype=codes.dtype)
            bounds = np.searchsorted(codes, needles).tolist()
            return {label: self[lo:hi] for label, lo, hi
                    in zip(self.labels, bounds, bounds[1:])}
        return {label: self[codes == code] for code, label in enumerate(self.labels)}

    def _check_rows(self) -> None:
        """Raise ValueError for a setting code outside the labels or a class
        outside 1..6 in any row: such a row would take another row's key.
        """
        codes = self.setting_codes
        if len(codes) and not 0 <= codes.min() <= codes.max() < len(self.labels):
            raise ValueError(f"setting codes outside 0..{len(self.labels) - 1}")
        for name in ("raw1", "raw2", "obs1", "obs2"):
            col = getattr(self, name)
            if len(col) and not 1 <= col.min() <= col.max() <= 6:
                raise ValueError(f"{name} holds classes outside 1..6")

    def _row_keys(self, rows) -> np.ndarray:
        """code*6**4 + (raw1-1)*6**3 + (raw2-1)*6**2 + (obs1-1)*6 + (obs2-1)
        for each row in ``rows``, of a batch that passed ``_check_rows``.
        """
        # before any arithmetic, as the columns may be uint8: the narrowest
        # dtype that holds len(labels) * 6**4, the largest value before a
        # last - 1; uint16 serves up to 50 labels
        key = self.setting_codes[rows].astype(np.min_scalar_type(len(self.labels) * 6**4))
        for name in ("raw1", "raw2", "obs1", "obs2"):
            key *= 6
            # a wider column casts into the key: its classes are 1..6
            np.add(key, getattr(self, name)[rows], out=key, casting="unsafe")
            key -= 1
        return key

    def counts(self) -> np.ndarray:
        """Event counts, int64, indexed [code, raw1-1, raw2-1, obs1-1, obs2-1]."""
        self._check_rows()
        size = len(self.labels) * 6**4
        total = np.zeros(size, dtype=np.int64)
        for start in range(0, len(self), CHUNK_SIZE):
            keys = self._row_keys(slice(start, start + CHUNK_SIZE))
            # bincount copies the narrow key to intp; an intp key would spare
            # that copy's memory but makes counts() over twice as slow
            total += np.bincount(keys, minlength=size)
        return total.reshape(len(self.labels), 6, 6, 6, 6)

    def to_csv(self, path) -> None:
        """Deterministic CSV export, in UTF-8; identical configs give
        identical bytes.

        Everything after a row's index depends only on its row key, so the
        row tails are encoded once per call into a table of NUL-padded
        byte rows.  Each chunk of CSV_CHUNK rows is then one uint8 array:
        the tails taken by row key, the index digits written in front of
        them from a table of 4-digit groups, and every NUL dropped.  A
        batch with a bad row, with a label that holds a NUL or does not
        encode, or with angles for another number of labels, raises
        ValueError before ``path`` is opened.
        """
        self._check_rows()
        if any("\0" in label for label in self.labels):
            raise ValueError("a label holds a NUL, the CSV writer's padding byte")
        pairs = list(itertools.product(range(1, 7), repeat=2))
        # strict: a label without its angles would leave its keys no rows
        heads = [f",{label},{psi1:.9g},{psi2:.9g},".encode() for label, psi1, psi2
                 in zip(self.labels, self._psi1, self._psi2, strict=True)]
        raws = [f"{r1},{r2}," for r1, r2 in pairs]
        observed = [f"{o1},{o2},{VALUES[o1 - 1]},{VALUES[o2 - 1]}\n" for o1, o2 in pairs]
        outcomes = [(r + o).encode() for r in raws for o in observed]
        width = max(map(len, outcomes))
        outcomes = np.frombuffer(b"".join(o.ljust(width, b"\0") for o in outcomes),
                                 dtype=np.uint8).reshape(6**4, width)
        # 4 bytes per group of four digits in the longest index
        lead = 4 * -(-len(str(max(len(self) - 1, 0))) // 4)
        # a row is its index's lead bytes and its tail, in whole uint32
        # words, so that the index is written through a uint32 view
        row = lead + max(map(len, heads), default=0) + width
        table = np.zeros((len(heads), 6**4, -(-row // 4) * 4), dtype=np.uint8)
        for code, head in enumerate(heads):
            # each tail NUL-padded only at its end: the compaction pays per
            # run of NULs, and this one joins the next row's padding
            at = lead + len(head)
            table[code, :, lead:at] = np.frombuffer(head, dtype=np.uint8)
            table[code, :, at:at + width] = outcomes
        table = table.reshape(len(heads) * 6**4, -1)
        buf = np.empty((min(len(self), CSV_CHUNK), table.shape[1]), dtype=np.uint8)
        with open(path, "wb") as fh:
            fh.write(b"index,setting,psi1,psi2,raw1,raw2,obs1,obs2,a,b\n")
            for start in range(0, len(self), CSV_CHUNK):
                keys = self._row_keys(slice(start, start + CSV_CHUNK))
                rows = buf[:len(keys)]
                # mode="raise" would take into a copy; the keys are in range
                np.take(table, keys, axis=0, out=rows, mode="clip")
                _write_indices(rows.view(np.uint32)[:, :lead // 4], start)
                fh.write(rows[rows != 0])


def _digit_groups() -> np.ndarray:
    """The decimal digits of 0..9999, 4 bytes read as one uint32 each:
    entries [0, 10**4) NUL-padded on the left, [10**4, 2 * 10**4) zero-padded.
    """
    zero_padded = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
    # blank each leading zero but the last digit, so 0 keeps its "0"
    seen = np.logical_or.accumulate(zero_padded > ord("0"), axis=1)
    seen[:, -1] = True
    table = np.concatenate([zero_padded * seen, zero_padded])
    return np.ascontiguousarray(table).view(np.uint32).ravel()


_QUADS = _digit_groups()


def _write_indices(out, first) -> None:
    """Write first, first + 1, ... in decimal, NUL-padded on the left, into
    the rows of ``out``, a (rows, quads) uint32 view of NUL bytes; group g
    of four digits, counted from the right, goes into column quads - 1 - g.
    """
    q = np.arange(first, first + len(out))
    quads = out.shape[1]
    for g in range(quads):
        # q is each row's index // 10**(4g), and the indices ascend: rows
        # before ``lo`` have no digits in group g and keep their NULs, and
        # rows from ``above`` on have digits above it, so it is zero-padded
        lo = max(0, 10 ** (4 * g) - first) if g else 0
        above = max(0, 10 ** (4 * g + 4) - first)
        higher = q // 10**4
        key = q - higher * 10**4
        key[above:] += 10**4
        out[lo:, quads - 1 - g] = _QUADS[key[lo:]]
        q = higher


def _philox(seed: int, setting_index: int, chunk_index: int) -> np.random.Philox:
    seq = np.random.SeedSequence(entropy=int(seed),
                                 spawn_key=(setting_index, chunk_index))
    return np.random.Philox(seq)


def _guide_table(cum) -> np.ndarray:
    """Cell of the uniforms in each bucket [j, j + 1) / 2**GUIDE_BITS, or
    STRADDLES where a cell edge of ``cum`` falls inside the bucket.

    A bucket's cell is count(cum <= u) for every u in it when that count is
    the same at its lower edge and just below its upper edge.
    """
    edges = np.arange(2**GUIDE_BITS + 1) / 2**GUIDE_BITS
    first = np.searchsorted(cum, edges[:-1], side="right")
    last = np.searchsorted(cum, edges[1:], side="left")
    return np.where(first == last, first, STRADDLES).astype(np.uint8)


def _draw_cells(bits, cum, guide, bucket) -> np.ndarray:
    """Cell of each of len(bucket) words drawn from ``bits``: the number of
    ``cum`` entries at most u = (x >> 11) * 2**-53, which is numpy's own
    Generator.random() of the word x.  ``bucket`` is scratch space.
    """
    x = bits.random_raw(len(bucket))
    # j / 2**GUIDE_BITS <= u < (j + 1) / 2**GUIDE_BITS for the leading bits j
    np.right_shift(x, 64 - GUIDE_BITS, out=bucket, casting="unsafe")
    cell = guide[bucket]
    straddling = np.flatnonzero(cell == STRADDLES)
    cell[straddling] = np.searchsorted(cum, (x[straddling] >> 11) * 2.0**-53,
                                       side="right")
    return cell


def sample_events(cfg: SamplerConfig) -> EventBatch:
    """Draw n_per_setting events for each of the four CHSH settings."""
    n = int(cfg.n_per_setting)
    # a relabel word's uniform u = (x >> 11) * 2**-53 is below 1 - alpha
    # exactly when (x >> 11) < relabel_below, that is when x <= relabel_max;
    # relabel_below is 0 only at alpha = 1, which draws no relabel words
    relabel_below = math.ceil(float(1.0 - cfg.model.alpha) * 2.0**53)
    relabel_max = (relabel_below << 11) - 1
    pairs = cfg.settings.pairs()
    codes = np.repeat(np.arange(len(pairs), dtype=np.uint8), n)
    raw1, raw2, obs1, obs2 = (np.empty(len(codes), dtype=np.uint8) for _ in range(4))
    bucket = np.empty(min(n, CHUNK_SIZE), dtype=np.intp)
    for k, (_, psi) in enumerate(pairs):
        theta1, theta2 = psi.to_thetas()
        table = joint_table(theta1, theta2, cfg.model.eta)
        cum = np.cumsum(table.probs.reshape(36))
        # float roundoff must not leave a gap above the last cell
        cum[-1] = max(cum[-1], 1.0)
        guide = _guide_table(cum)
        for chunk_index, start in enumerate(range(0, n, CHUNK_SIZE)):
            m = min(CHUNK_SIZE, n - start)
            rows = slice(k * n + start, k * n + start + m)
            bits = _philox(cfg.seed, k, chunk_index)
            # the draw order (cell, station-1 relabel, station-2 relabel)
            # fixes which word drives what, and so the output bytes
            cell = _draw_cells(bits, cum, guide, bucket[:m])
            r1, r2 = raw1[rows], raw2[rows]
            np.floor_divide(cell, 6, out=r1)
            np.multiply(r1, 6, out=r2)
            np.subtract(cell, r2, out=r2)
            r1 += 1
            r2 += 1
            for raw, obs in ((r1, obs1[rows]), (r2, obs2[rows])):
                np.copyto(obs, raw)
                if relabel_below:
                    # class 6 becomes 1 and class 5 becomes 2
                    relabel = bits.random_raw(m) <= relabel_max
                    relabel &= raw >= 5
                    np.subtract(7, raw, out=obs, where=relabel)
    return EventBatch(
        [label for label, _ in pairs],
        [psi.psi1 for _, psi in pairs],
        [psi.psi2 for _, psi in pairs],
        codes, raw1, raw2, obs1, obs2,
    )


def estimate_correlation(events: EventBatch) -> tuple:
    """(mean, standard error) of the product a * b over one setting."""
    counts = events.counts()
    if np.count_nonzero(counts.reshape(len(counts), -1).sum(axis=1)) > 1:
        raise MixedSettingsError("events span several settings")
    return correlation_from_counts(counts.sum(axis=0))


def correlation_from_counts(counts) -> tuple:
    """(mean, standard error) of the product a * b over one setting's
    event counts, indexed [raw1-1, raw2-1, obs1-1, obs2-1].

    t, the sum of a * b over the n events, is VALUES @ obs @ VALUES over
    the observed 6x6 counts, in integers; each product is +/-1, so the
    sample variance is (n*n - t*t) / (n*(n-1)).
    """
    n = int(counts.sum())
    if n == 0:
        raise EmptyEventsError("no events")
    t = int(np.array(VALUES) @ counts.sum(axis=(0, 1)) @ VALUES)
    var = (n * n - t * t) / (n * (n - 1)) if n > 1 else 0.0
    return t / n, math.sqrt(var / n)


def _require_settings(by_label) -> None:
    for label in SETTING_LABELS:
        if label not in by_label:
            raise MissingSettingError(f"missing setting {label!r}")


def estimate_chsh(groups) -> tuple:
    """(S estimate, standard error) from per-setting event groups.

    ``groups`` maps each of the four SETTING_LABELS to its events.
    """
    _require_settings(groups)
    return chsh_from_correlations(
        {label: estimate_correlation(groups[label]) for label in SETTING_LABELS})


def chsh_from_correlations(correlations) -> tuple:
    """(S estimate, standard error) from each setting's (mean, standard
    error), keyed by the four SETTING_LABELS; the errors combine in
    quadrature.
    """
    _require_settings(correlations)
    s = chsh_combination({label: correlations[label][0] for label in SETTING_LABELS})
    errs = [correlations[label][1] for label in SETTING_LABELS]
    return s, math.sqrt(sum(e * e for e in errs))
