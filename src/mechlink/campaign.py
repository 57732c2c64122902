"""Monte Carlo campaigns over the exact per-trial outcome distribution.

Trials are drawn in fixed chunks from the 4x4 table the protocol module
computes once per setting, each chunk by a counter-based generator keyed
by (master seed, stream, chunk).  A chunk's first draw is its trials per
outcome code, one multinomial over the table, and a tally (`code_counts`)
needs no more.  A click log (`run_campaign`) refines those counts: the
same generator then places the clicked trials and their codes, so the
log's tally equals the counts, and identical (config, trials, seed) give
byte-identical logs.  The chunks are placed one after another, each by
its own generator, so the chunk index, not the order of work, fixes the
log.  The commands sample positions only for a log they write.  The
seed -> click-log mapping has changed twice: when only the clicked
trials came to be drawn, and when the counts came first.
"""

from __future__ import annotations

import functools
import io
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .devices import ProtocolConfig
from .protocol import CODE_SLOTS, TrialModel, build_trial_model

# fixed chunk size: the chunk index keys each chunk's generator, so the
# chunking is part of the seed -> click-log mapping
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
_CLICK_CODES = np.arange(1, 16, dtype=np.uint32)


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


def chunk_draws(model, n_trials, seed, stream=0):
    """Yield each chunk's generator and its first draw: the chunk's trials
    per outcome code 0..15, one multinomial over the joint table.  A click
    log of the same campaign goes on drawing from these generators."""
    if n_trials < 0:
        raise CampaignError("trial count must be non-negative")
    if not 0 <= stream < (1 << 32):
        raise CampaignError("stream must fit in 32 bits")
    p_codes = model.joint.T.ravel()[1:]
    # the trials without a click go last, as the remainder 1 - P(click):
    # the table's own no-click entry can round above 1
    pvals = np.append(p_codes, 1.0 - p_codes.sum())
    for c, start in enumerate(range(0, n_trials, CHUNK_TRIALS)):
        rng = _chunk_rng(seed, stream, c)
        yield rng, np.roll(rng.multinomial(min(CHUNK_TRIALS, n_trials - start), pvals), 1)


def code_counts(model: TrialModel, n_trials: int, seed: int,
                stream: int = 0) -> np.ndarray:
    """Trials per outcome code 0..15 of the campaign (seed, stream): the
    counts of the log `run_campaign` samples, drawn without it."""
    total = np.zeros(16, np.int64)
    for _, counts in chunk_draws(model, n_trials, seed, stream):
        total += counts
    return total


def _place_clicks(rng, counts) -> np.ndarray:
    """The trials of a chunk with a click, as position << 4 | code, sorted:
    `counts[1:]` trials of codes 1..15 placed uniformly at random, one code
    a trial, in [0, counts.sum()).

    The positions are a uniform subset and the codes a uniform permutation
    of their multiset, so every arrangement is equally likely.  numpy's
    unshuffled sample holds no index over the chunk up to a 1/20 click
    yield; its shuffled sample would from 1/50.
    """
    placed = rng.choice(counts.sum(), counts[1:].sum(), replace=False, shuffle=False)
    codes = np.repeat(_CLICK_CODES, counts[1:])
    rng.shuffle(codes)
    return np.sort(placed.astype(np.uint32)) << 4 | codes


def run_campaign(cfg: ProtocolConfig, n_trials: int, seed: int,
                 stream: int = 0, model: TrialModel | None = None,
                 config_snapshot: dict | None = None,
                 chunks: list | None = None) -> ClickLog:
    """Sample `n_trials` of the protocol; deterministic in (cfg, n, seed, stream).

    The exact outcome table is computed once; trials are sampled in
    fixed-size chunks whose generators are keyed by chunk index, each
    chunk's clicks placed in turn.  The log's code counts are
    `code_counts(model, n_trials, seed, stream)`.  `chunks`, if given, is
    the campaign's `chunk_draws` already drawn, whose generators this call
    goes on using.
    """
    if model is None:
        model = build_trial_model(cfg)

    # each chunk's counts are its generator's first draw, so they place
    # every chunk's clicks in the log before any is sampled
    if chunks is None:
        chunks = list(chunk_draws(model, n_trials, seed, stream))
    bounds = np.cumsum([0] + [counts[1:].sum() for _, counts in chunks])
    trial = np.empty(bounds[-1], trial_dtype(n_trials))
    code = np.empty(bounds[-1], np.int8)

    for c, draw in enumerate(chunks):
        placed = _place_clicks(*draw)
        # every position is below n_trials, so the cast never wraps
        np.add(placed >> 4, c * CHUNK_TRIALS, out=trial[bounds[c]:bounds[c + 1]],
               casting="unsafe")
        np.bitwise_and(placed, 15, out=code[bounds[c]:bounds[c + 1]], casting="unsafe")
        del placed      # one chunk's placement is held at a time

    return ClickLog(n_trials=n_trials, seed=seed, stream=stream,
                    trial=trial, code=code, config_snapshot=config_snapshot or {})
