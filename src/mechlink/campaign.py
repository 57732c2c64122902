"""Monte Carlo campaigns over the exact per-trial outcome distribution.

Per-trial outcomes are drawn from the 4x4 table computed once per
setting by the protocol module, using a counter-based generator keyed by
(master seed, stream, chunk): identical (config, trials, seed) produce
byte-identical click logs regardless of worker count.  Only the trials
with a click are drawn, so the cost scales with clicks, not trials.
"""

from __future__ import annotations

import functools
import io
import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .devices import ProtocolConfig
from .protocol import CODE_SLOTS, TrialModel, build_trial_model

# fixed chunk size: results must not depend on worker count
CHUNK_TRIALS = 1 << 20

# click-log text, formatted the rows of CSV_BLOCK_TRIALS trials at a time
# (a block's temporaries take about 70 bytes a row): a row is the trial's
# digits, then the suffix of its slot (a code's rows listed by slot are in
# log order)
CSV_BLOCK_TRIALS = 1 << 14
_CODE_INCIDENCE = CODE_SLOTS.view(np.uint32).ravel()    # a code's slot flags
_ROW_SUFFIX = np.frombuffer(b",1,pump\n,2,pump\n,1,read\n,2,read\n", "<u8")
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
_CSV_DTYPE = [("trial", np.int64), ("detector", np.int8), ("window", "S8")]


class CampaignError(ValueError):
    pass


def trial_dtype(n_trials: int) -> type:
    """The narrowest dtype of `ClickLog.trial` that holds every index of
    `n_trials` trials: uint32 up to 2**32 trials, int64 beyond."""
    return np.uint32 if n_trials <= 1 << 32 else np.int64


def atomic_write(path, text) -> None:
    """Write-then-rename so readers never observe partial files.

    `text` is a string or an iterable of str or bytes-like blocks, written
    in turn.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for block in [text] if isinstance(text, str) else text:
                fh.write(block.encode() if isinstance(block, str) else block)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def worker_count() -> int:
    env = os.environ.get("MECHLINK_THREADS", "")
    try:
        cap = int(env) if env else 0
    except ValueError:
        cap = 0
    avail = os.cpu_count() or 1
    if cap > 0:
        return max(1, min(cap, avail))
    return max(1, min(4, avail))


@dataclass
class ClickLog:
    """The outcome code of every trial with a click, plus campaign metadata.

    `trial` is strictly increasing, stored as `trial_dtype(n_trials)`;
    `code` (1..15) is the trial's (pump, read) outcome in the
    protocol.CODE_SLOTS layout, an int8.  The rows, one
    per click as (trial, detector, window), exist only in the CSV; the
    length of a log is its number of rows.
    """

    n_trials: int
    seed: int
    stream: int
    trial: np.ndarray
    code: np.ndarray
    config_snapshot: dict = field(default_factory=dict)

    def __post_init__(self):
        # checked as given, then narrowed: an index out of range never wraps
        trial = np.asarray(self.trial)
        self.code = np.asarray(self.code)
        if len(trial) != len(self.code):
            raise CampaignError("trial and code columns must have equal length")
        if len(trial):
            if self.code.min() < 1 or self.code.max() > 15:
                raise CampaignError("outcome code must be in 1..15")
            if np.any(trial[1:] <= trial[:-1]):
                raise CampaignError("trials must be strictly increasing")
            if int(trial[0]) < 0 or int(trial[-1]) >= self.n_trials:
                raise CampaignError("trial index outside campaign range")
        self.trial = trial.astype(trial_dtype(self.n_trials), copy=False)
        self.code = self.code.astype(np.int8, copy=False)

    def __len__(self):
        return int(self.code_counts() @ CODE_SLOTS.sum(axis=1))

    def code_counts(self) -> np.ndarray:
        """Trials per outcome code 0..15, counted CSV_BLOCK_TRIALS codes at
        a time so the int8 column is never widened whole."""
        counts = np.zeros(16, np.int64)
        for lo in range(0, len(self.code), CSV_BLOCK_TRIALS):
            counts += np.bincount(self.code[lo:lo + CSV_BLOCK_TRIALS], minlength=16)
        return counts

    # -- serialization ------------------------------------------------

    def _csv_blocks(self):
        yield b"trial,detector,window\n"
        for lo in range(0, len(self.trial), CSV_BLOCK_TRIALS):
            block = slice(lo, lo + CSV_BLOCK_TRIALS)
            flat = np.flatnonzero(_CODE_INCIDENCE[self.code[block]].view(bool))
            yield from _format_rows(self.trial[block][flat >> 2], flat & 3)

    def to_csv(self) -> str:
        return b"".join(self._csv_blocks()).decode("ascii")

    def metadata(self) -> dict:
        from . import __version__
        return {
            "n_trials": int(self.n_trials),
            "seed": int(self.seed),
            "stream": int(self.stream),
            "clicks": int(len(self)),
            "config": self.config_snapshot,
            "version": __version__,
        }

    def save(self, csv_path, meta_path) -> None:
        atomic_write(csv_path, self._csv_blocks())
        atomic_write(meta_path, json.dumps(self.metadata(), indent=2,
                                           sort_keys=True) + "\n")

    @classmethod
    def from_csv(cls, csv_path, meta_path=None) -> "ClickLog":
        meta = {}
        if meta_path is not None:
            with open(meta_path) as fh:
                meta = json.load(fh)
        with open(csv_path, "rb") as fh:
            header, _, body = fh.read().partition(b"\n")
        if header.rstrip(b"\r") != b"trial,detector,window":
            raise CampaignError(f"unexpected click-log header: {header!r}")
        try:
            rows = (np.loadtxt(io.BytesIO(body), dtype=_CSV_DTYPE, delimiter=",",
                               comments=None, ndmin=1)
                    if body.strip() else np.zeros(0, _CSV_DTYPE))
        except ValueError as exc:
            raise CampaignError(f"malformed click-log row: {exc}") from None
        unknown = (rows["window"] != b"pump") & (rows["window"] != b"read")
        if unknown.any():
            label = rows["window"][unknown][0].decode(errors="replace")
            raise CampaignError(f"unknown window label {label!r}")
        if not np.isin(rows["detector"], (1, 2)).all():
            raise CampaignError("detector must be 1 or 2")
        trial = rows["trial"]
        slot = 2 * (rows["window"] == b"read") + rows["detector"] - 1
        later, same = trial[1:] > trial[:-1], trial[1:] == trial[:-1]
        if not np.all(later | same & (slot[1:] > slot[:-1])):
            raise CampaignError("rows must be strictly ordered by (trial, window, detector)")
        first = np.flatnonzero(np.diff(trial, prepend=trial[:1] - 1))
        n_trials = meta.get("n_trials", int(trial.max()) + 1 if len(trial) else 0)
        return cls(n_trials=n_trials, seed=meta.get("seed", 0),
                   stream=meta.get("stream", 0), trial=trial[first],
                   code=np.bitwise_or.reduceat(1 << slot, first),
                   config_snapshot=meta.get("config", {}))


@functools.cache
def _digit_groups() -> np.ndarray:
    """ASCII 0000..9999, one 4-byte word each (built at the first write)."""
    return (np.arange(10_000, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], np.uint16) % 10
            + ord("0")).astype(np.uint8).view("<u4").ravel()


def _format_rows(trial, slot):
    """Yield the CSV rows of one block, `trial` non-decreasing, one uint8
    buffer per digit count.  Rows of one digit count form fixed-width
    records of 4-byte digit groups and the 8-byte suffix, stored in offset
    order: each word overwrites the unused bytes of a 1-3 digit leading
    group before it."""
    first, last = 1 + np.searchsorted(_POW10, trial[[0, -1]], side="right")
    edges = [0, *np.searchsorted(trial, _POW10[first - 1:last - 1]), len(trial)]
    for width, lo, hi in zip(range(first, last + 1), edges, edges[1:]):
        lead = (width - 1) % 4 + 1
        q, words = trial[lo:hi], [_ROW_SUFFIX[slot[lo:hi]]]
        for _ in range((width - lead) // 4):
            q, r = np.divmod(q, 10_000)
            words.insert(0, _digit_groups()[r])
        words.insert(0, _digit_groups()[q] >> 8 * (4 - lead))
        offsets = [0, *range(lead, width, 4), width]
        # overlapping fields cannot export a buffer, so the records are a
        # view of the bytes, not the other way round
        text = np.empty((hi - lo) * (width + 8), np.uint8)
        record = text.view(np.dtype({
            "names": [f"f{at}" for at in offsets], "offsets": offsets,
            "formats": ["<u4"] * (len(words) - 1) + ["<u8"], "itemsize": width + 8}))
        for name, values in zip(record.dtype.names, words):
            record[name] = values
        yield text


# ---------------------------------------------------------------------------
# sampling


def _chunk_rng(seed: int, stream: int, chunk_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64((stream << 32) | chunk_index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _code_cdf(model) -> np.ndarray:
    """P(pump, read) in code order pump + 4 * read, cumulated over codes 1..15."""
    return np.cumsum(model.joint.T.ravel()[1:])


def _sample_chunk(model, seed, stream, chunk_index, count):
    """Sorted positions in [0, count) of the trials with a click, and their
    outcome codes.  The empty trials are skipped (Devroye, Non-Uniform
    Random Variate Generation, 1986, ch. X): the number of trials with a
    click is binomial, their positions a uniform subset of that size, and
    their codes follow the joint table given a click.
    """
    code_cdf = _code_cdf(model)
    p_click = code_cdf[-1]
    rng = _chunk_rng(seed, stream, chunk_index)
    k = int(rng.binomial(count, p_click))
    positions = np.sort(rng.choice(count, k, replace=False, shuffle=False))
    return positions, _outcome_codes(code_cdf[:-1], p_click * rng.random(k))


def _outcome_codes(thresholds, u) -> np.ndarray:
    """1 + the number of `thresholds` at or below each of `u`, as int8: the
    same as 1 + searchsorted(thresholds, u, side="right"), ties and
    repeated thresholds included, counted one threshold at a time."""
    codes = np.ones(len(u), np.int8)
    for threshold in thresholds:
        codes += u >= threshold
    return codes


def run_campaign(cfg: ProtocolConfig, n_trials: int, seed: int,
                 stream: int = 0, model: TrialModel | None = None,
                 workers: int | None = None,
                 config_snapshot: dict | None = None) -> ClickLog:
    """Sample `n_trials` of the protocol; deterministic in (cfg, n, seed, stream).

    The exact outcome table is computed once; trials are sampled in
    fixed-size chunks whose generators are keyed by chunk index, so any
    worker count yields identical logs.
    """
    if n_trials < 0:
        raise CampaignError("trial count must be non-negative")
    if not 0 <= stream < (1 << 32):
        raise CampaignError("stream must fit in 32 bits")
    if model is None:
        model = build_trial_model(cfg)

    # each chunk's generator draws its click count first, so the counts
    # place every chunk's clicks before any is sampled
    p_click = _code_cdf(model)[-1]
    sizes = np.diff(np.r_[0:n_trials:CHUNK_TRIALS, n_trials]).tolist()
    bounds = np.zeros(len(sizes) + 1, np.int64)
    for c, count in enumerate(sizes):
        bounds[c + 1] = bounds[c] + _chunk_rng(seed, stream, c).binomial(count, p_click)
    trial = np.empty(bounds[-1], trial_dtype(n_trials))
    code = np.empty(bounds[-1], np.int8)

    def work(c):
        positions, codes = _sample_chunk(model, seed, stream, c, sizes[c])
        # every position is below n_trials, so the cast never wraps
        np.add(positions, c * CHUNK_TRIALS, out=trial[bounds[c]:bounds[c + 1]],
               casting="unsafe")
        code[bounds[c]:bounds[c + 1]] = codes

    with ThreadPoolExecutor(max_workers=workers or worker_count()) as pool:
        list(pool.map(work, range(len(sizes))))

    return ClickLog(n_trials=n_trials, seed=seed, stream=stream,
                    trial=trial, code=code, config_snapshot=config_snapshot or {})
