"""Counting-statistics pipeline: tallies, correlations, witness, confidence.

The measurable entanglement witness for a herald at detector j is

    W(g1, g2) = 4 (g1 + g2 - 1) / (g1 - g2)^2

over the two read-detector cross-correlations g_i = g2[r_i, p_j]; any
separable mechanical state obeys W >= 1 in a balanced setup.  Estimator
uncertainty is dominated by the few two-fold coincidences, so each g2
has the flat-prior beta posterior of its coincidence count given the
heralds.  The witness posterior is exact up to quadrature: its CDF at
the edges of bins laid over its own band is a one-dimensional integral
of beta CDFs, and the mass off the band is reported, not folded into
it.  The beta CDF and quantile are evaluated here in numpy (`beta_cdf`,
`beta_quantile`).
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .protocol import click_totals

if TYPE_CHECKING:
    from .campaign import ClickLog

# the witness bound every separable mechanical state obeys (W >= 1)
CLASSICALITY_THRESHOLD = 1.0
# Each witness posterior is binned on its own band (`_witness_band`): a
# power-of-two step of at most 1/(2 WITNESS_BINS) of its 68% width, out to
# WITNESS_REACH half widths past each end.  Against a band ten times finer,
# every percentile is within 1.7e-4 of the width and the confidence under 1
# within 6.4e-5 (at 12 bins, 1.3e-4 on a plan-fiber tally).
WITNESS_BINS = 16
WITNESS_REACH = 10
# Gauss-Legendre nodes of the witness CDF.  Against 1024 nodes, 64 put
# every bin within 9e-7 on the published tallies and on the widest
# planner tally (1 and 10 coincidences); that tally's `above` is within
# 1.2e-5, slowed by the square-root edge where the roots turn complex.
WITNESS_NODES = 64
# (edge, node) CDF elements per `_conditional_cdf` call, a bound on memory;
# each call runs `_fraction`'s loop once per root: 8192 takes 0.06 s on the
# two 1e8 entangle_stats posteriors, 4096 0.1 s
WITNESS_BLOCK = 8192


class StatsError(ValueError):
    pass


# a tally document's keys: the trial count, the pump and read singles, and
# the coincidences C(r_i p_j) row by row
_TALLY_KEYS = ("N", "Cp1", "Cp2", "Cr1", "Cr2", "Cr1p1", "Cr1p2", "Cr2p1", "Cr2p2")


@dataclass(frozen=True)
class CoincidenceTally:
    """Singles and two-fold coincidences of one campaign.

    Counts may also be real expected values, as in the planner's
    projections; the posteriors take them as they are.
    """

    n_trials: int
    pump_singles: tuple        # C(p_1), C(p_2)
    read_singles: tuple        # C(r_1), C(r_2)
    coincidences: tuple        # ((C_r1p1, C_r1p2), (C_r2p1, C_r2p2))

    def __post_init__(self):
        if any(c < 0 for c in (*self.pump_singles, *self.read_singles)):
            raise StatsError("counts must be non-negative")
        for i in (0, 1):
            for j in (0, 1):
                c = self.coincidences[i][j]
                if c < 0:
                    raise StatsError("coincidences must be non-negative")
                if c > min(self.read_singles[i], self.pump_singles[j]):
                    raise StatsError("coincidence exceeds its singles")
        if self.n_trials < max(*self.pump_singles, *self.read_singles):
            raise StatsError("trial count below a singles count")

    def coincidence(self, read_det: int, pump_det: int) -> int:
        return self.coincidences[read_det - 1][pump_det - 1]

    def to_json_dict(self) -> dict:
        return dict(zip(_TALLY_KEYS, (self.n_trials, *self.pump_singles,
                                     *self.read_singles, *self.coincidences[0],
                                     *self.coincidences[1])))

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CoincidenceTally":
        missing = set(_TALLY_KEYS) - doc.keys()
        if missing:
            raise StatsError(f"tally document missing keys: {sorted(missing)}")
        n, p1, p2, r1, r2, c11, c12, c21, c22 = (int(doc[k]) for k in _TALLY_KEYS)
        return cls(n_trials=n, pump_singles=(p1, p2), read_singles=(r1, r2),
                   coincidences=((c11, c12), (c21, c22)))

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "CoincidenceTally":
        return cls.from_json_dict(json.loads(text))


def tally(log: ClickLog) -> CoincidenceTally:
    """Count singles and per-trial pump/read coincidences from a click log."""
    return tally_from_counts(log.code_counts(), log.n_trials)


def tally_from_counts(per_code, n_trials: int) -> CoincidenceTally:
    """The tally of `n_trials` trials counted per outcome code 0..15."""
    singles, coincidences = click_totals(per_code)
    return CoincidenceTally(n_trials=n_trials,
                            pump_singles=tuple(singles[:2].tolist()),
                            read_singles=tuple(singles[2:].tolist()),
                            coincidences=tuple(map(tuple, coincidences.tolist())))


# ---------------------------------------------------------------------------
# beta posterior: regularized incomplete beta function and its inverse
#
# I_x(a, b) = x^a (1-x)^b / B(a, b) * f, with the prefactor in Loader's
# saddle-point form (Loader 2000, "Fast and accurate computation of binomial
# probabilities") and f the continued fraction BFRAC of Didonato & Morris
# (ACM TOMS 18, 1992, Algorithm 708).  With lambda = a - (a + b) x the
# fraction is taken for I_x(a, b) when lambda >= 0 and for
# I_{1-x}(b, a) = 1 - I_x(a, b) otherwise; c = 1 + |lambda| comes from the
# original x, and (a + b)(1 - x) is formed only for x > 1/2, where 1 - x is
# exact.

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# coefficients 1 / (2j + 1), j = 1 ... 9, of the deviance series in v^2:
# at v^2 < 0.01 the first term left out is under 1e-18 of the sum
_BD0_SERIES = 1.0 / np.arange(3.0, 21.0, 2.0)
# each orientation's fraction depth is probed at |lambda| = sigma z_k,
# z_k = 2^(k/4) - 1, sigma = sqrt(ab / (a + b)), and taken at its deepest
_LADDER_STEPS = 32
_LADDER_Z = 2.0 ** (np.arange(_LADDER_STEPS) / 4.0) - 1.0


def _stirlerr(z: float) -> float:
    """log Gamma(z + 1) - log(sqrt(2 pi z) (z / e)^z)."""
    if z <= 15.0:
        return math.lgamma(z + 1.0) - (z + 0.5) * math.log(z) + z - _LN_SQRT_2PI
    zz = z * z
    return (1/12 - (1/360 - (1/1260 - (1/1680 - 1/(1188 * zz)) / zz) / zz) / zz) / z


def _bd0(m, big_m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Loader's deviance m log(m / M) + M - m, d = M - m; m is a scalar or
    one value per element.

    For |v| < 0.1, v = -d / (m + M), it is d^2 / (m + M) plus the odd
    series 2m sum_j v^(2j+1) / (2j + 1), without cancellation; elsewhere
    it is m log(m / M) + d, which loses about eps m |v| to cancellation
    just past |v| = 0.1.  Each form is evaluated on its own elements only.
    """
    v = -d / (m + big_m)
    near = v * v < 0.01
    if near.all():
        return _bd0_series(m, v, d)
    far = ~near
    m_far = m if np.ndim(m) == 0 else m[far]
    out = np.empty_like(v)
    with np.errstate(divide="ignore"):
        out[far] = m_far * np.log(m_far / big_m[far]) + d[far]
    if near.any():
        out[near] = _bd0_series(m if np.ndim(m) == 0 else m[near], v[near],
                                d[near])
    return out


def _bd0_series(m, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    # d^2 / (m + M) + 2m sum_j v^(2j+1) / (2j + 1), Horner's rule in v^2
    v2 = v * v
    series = np.full_like(v, _BD0_SERIES[-1])
    for coef in _BD0_SERIES[-2::-1]:
        series *= v2
        series += coef
    series *= 2.0 * m * v * v2
    series -= v * d
    return series


def _oriented_terms(a: float, b: float, orientation: int, depth: int) -> tuple:
    """(A, U, V, E) for n = 0 ... depth + 1: alpha_n = A[n] x0^2 and
    beta_n = U[n] + V[n] x + E[n] c.

    Orientation 0 (lambda >= 0) is the fraction for I_x(a, b), in x0 = x;
    orientation 1 the one for I_(1-x)(b, a), in x0 = 1 - x.  The terms are
    Didonato & Morris's, beta_n = n + S[n] x0 + E[n] (c + n (1 + y0)),
    written in the original x; the head c / c1 is E[0] c.
    """
    a0, b0 = (a, b) if orientation == 0 else (b, a)
    n = np.arange(1.0, depth + 2.0)
    s = a0 + 2.0 * n - 1.0
    p = 1.0 + (n - 1.0) / a0
    e = a0 / s
    alpha = np.r_[0.0, p * (p + b0 / a0) * e * e * n * (b0 - n)]
    slope = np.r_[0.0, n * (b0 - n) / s]
    t = n / a0
    c1 = 1.0 + 1.0 / a0
    e = np.r_[1.0 / c1, (1.0 + t) / (c1 + t + t)]
    n = np.r_[0.0, n]
    if orientation == 0:
        u, v = n + 2.0 * n * e, slope - n * e           # 1 + y0 = 2 - x
    else:
        u, v = n + slope + n * e, n * e - slope         # 1 + y0 = 1 + x
    u[0] = v[0] = 0.0
    return alpha, u, v, e


@dataclass(frozen=True)
class _Fraction:
    """One posterior's BFRAC, tabulated once per orientation o.

    `depths[o]` is the number of terms after which Didonato & Morris's
    forward recurrence has stopped on every ladder point, plus one.
    `backward[o]` holds A'[n] = A[n] / (E[n-1] E[n]), U' = U / E and
    V' = V / E for n = 0 ... depths[o] + 1, and 1 / E[0], for the
    backward sum t'_n = U'[n] + V'[n] x + c + A'[n+1] x0^2 / t'_(n+1),
    f = 1 / (E[0] t'_0).
    """

    depths: tuple
    backward: tuple


_FRACTIONS: dict = {}


def _fractions(posts: list) -> list:
    """The `_Fraction` of each (a, b), probing new ones 16 at a time."""
    if len(_FRACTIONS) + len(posts) > 256:
        _FRACTIONS.clear()
    new = [p for p in dict.fromkeys(posts) if p not in _FRACTIONS]
    for first in range(0, len(new), 16):
        chunk = new[first:first + 16]
        for (a, b), depths in zip(chunk, _ladder_depths(chunk).tolist()):
            backward = []
            for o in (0, 1):
                alpha, u, v, e = _oriented_terms(a, b, o, depths[o])
                scaled = alpha.copy()
                scaled[1:] /= e[1:] * e[:-1]
                backward.append((scaled, u / e, v / e, 1.0 / e[0]))
            _FRACTIONS[a, b] = _Fraction(tuple(depths), tuple(backward))
    return [_FRACTIONS[p] for p in posts]


def _ladder_depths(posts: list) -> np.ndarray:
    """Forward-recurrence depths, (posterior, orientation), each the
    deepest over the orientation's ladder points.

    Every ladder point of every posterior runs one forward recurrence;
    the tables start at 32 + 2 sigma terms and double until each point
    has stopped, up to 16 times that.
    """
    a, b = (np.array(v)[:, None] for v in zip(*posts))
    sigma = np.sqrt(a * b / (a + b))
    o = np.repeat([0, 1], _LADDER_STEPS)
    lam = sigma * np.r_[_LADDER_Z, _LADDER_Z]
    x = np.where(o == 0, a - lam, a + lam) / (a + b)
    c = 1.0 + lam
    x2 = np.where(o == 0, x, 1.0 - x) ** 2
    x, c, x2 = x.ravel(), c.ravel(), x2.ravel()
    inside = (x > 0.0) & (x < 1.0)      # points off (0, 1) are never used
    cap = 32 + int(2.0 * sigma.max())
    limit = 16 * cap
    while True:
        # every term of every point at once: alpha_n and beta_n (rows n)
        al, be = (np.empty((cap + 2, len(x))) for _ in range(2))
        for j, (aj, bj) in enumerate(posts):
            cols = slice(2 * _LADDER_STEPS * j, 2 * _LADDER_STEPS * (j + 1))
            alpha, u, v, e = np.stack([np.stack(_oriented_terms(aj, bj, oj, cap))
                                       for oj in (0, 1)])[o].transpose(1, 2, 0)
            al[:, cols] = alpha * x2[cols]
            be[:, cols] = u + v * x[cols] + e * c[cols]
        steps = _forward_stops(al, be, inside)
        if steps is not None:
            break
        if cap == limit:
            raise StatsError("beta fraction did not converge")
        cap *= 2
    return steps.reshape(len(posts), 2, _LADDER_STEPS).max(axis=2) + 1


def _forward_stops(al: np.ndarray, be: np.ndarray, inside: np.ndarray):
    """First n at which |f_n - f_(n-1)| <= eps f_n, per column; None if not all.

    Didonato & Morris's recurrence from a_0 = 0, b_0 = 1, a_1 = 1,
    b_1 = c / c1, rescaled each step so that b_(n+1) = 1.
    """
    an, bn = np.zeros(al.shape[1]), 1.0 / be[0]
    r = [bn]
    steps = np.where(inside, 0, -1)
    for n, (al_n, be_n) in enumerate(zip(al[1:], be[1:]), start=1):
        anew, bnew = al_n * an + be_n * r[-1], al_n * bn + be_n
        an, bn = r[-1] / bnew, 1.0 / bnew
        r.append(anew / bnew)
        if n % 16 and n < len(al) - 1:
            continue
        del r[:-17]
        rows = np.array(r)
        done = np.abs(np.diff(rows, axis=0)) <= np.finfo(float).eps * rows[1:]
        first = n - len(rows) + 2 + np.argmax(done, axis=0)
        steps = np.where((steps == 0) & done.any(axis=0), first, steps)
        if (steps != 0).all():
            return np.maximum(steps, 0)
    return None


def _fraction(posts: list, which, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """BFRAC at 0 < x < 1 for element i's posterior posts[which[i]].

    Each column, one (posterior, orientation) pair, is summed backward
    from its own depth, from t = inf.  With one posterior, each orientation
    is one run with scalar terms.  Over several, one run from the deepest
    column covers every element, each gathering its column's terms; U' is
    +inf past a column's depth, so t stays inf until the element reaches
    its own column's depth.  Either way an element sees the same
    arithmetic, so it comes out the same in any batch.
    """
    fr = _fractions(posts)
    group = 2 * which + (lam < 0.0)
    c = 1.0 + np.abs(lam)
    x2 = np.where(group % 2 == 0, x, 1.0 - x) ** 2
    columns = [f.backward[o] for f in fr for o in (0, 1)]
    if len(fr) == 1:
        f = np.empty_like(x)
        for o, (sa, su, sv, head) in enumerate(columns):
            sel = np.flatnonzero(group == o)
            if len(sel):
                terms = zip(sa[:0:-1].tolist(), sv[-2::-1].tolist(), su[-2::-1].tolist())
                f[sel] = head / _backward_sum(x[sel], x2[sel], c[sel], terms)
        return f
    # (term, column) tables, padded past a column's own depth
    shape = (max(max(f.depths) for f in fr) + 2, len(columns))
    alpha, v, u = (np.full(shape, fill) for fill in (0.0, 0.0, np.inf))
    for k, (sa, su, sv, _) in enumerate(columns):
        alpha[:len(sa), k], u[:len(su), k], v[:len(sv), k] = sa, su, sv
    gathered = [np.empty_like(x) for _ in range(3)]
    terms = ([table[n + k].take(group, out=g) for table, k, g
              in zip((alpha, v, u), (1, 0, 0), gathered)]
             for n in range(shape[0] - 2, -1, -1))
    heads = np.array([col[3] for col in columns])
    return heads[group] / _backward_sum(x, x2, c, terms)


def _backward_sum(x: np.ndarray, x2: np.ndarray, c: np.ndarray, terms) -> np.ndarray:
    """t'_0 from t = inf, over (A'[n+1], V'[n], U'[n]) from the deepest n."""
    t = np.full_like(x, np.inf)
    tmp = np.empty_like(x)
    for a_n, v_n, u_n in terms:
        np.divide(x2, t, out=t)
        t *= a_n
        t += c
        np.multiply(x, v_n, out=tmp)
        t += tmp
        t += u_n
    return t


def _prefactor(posts: list, which, x: np.ndarray) -> tuple:
    """(prefactor, lambda) at 0 < x < 1, element i in Beta(posts[which[i]]).

    The prefactor is x^a (1-x)^b / B(a, b) and lambda = a - (a+b) x.
    """
    a, b = (np.array(v)[which] for v in zip(*posts))
    ab = a + b
    # lambda = a - (a+b) x = (a+b)(1-x) - b, from x below 1/2 and from
    # 1 - x, which is exact there, above it; likewise (a+b) x and (a+b)(1-x)
    upper = np.flatnonzero(x > 0.5)
    mx = ab * x
    lam = a - mx
    if len(upper):
        a_up, b_up, y_up = (np.broadcast_to(v, x.shape)[upper]
                            for v in (ab, b, 1.0 - x))
        lam[upper] = a_up * y_up - b_up
        mx[upper] = np.broadcast_to(a, x.shape)[upper] - lam[upper]
    my = b + lam
    if len(upper):
        my[upper] = a_up * y_up
    # Loader: x^a (1-x)^b / B(a, b) = sqrt(ab / (2 pi (a+b)))
    #   exp(st(a+b) - st(a) - st(b) - bd0(a, (a+b) x) - bd0(b, (a+b)(1-x)))
    head = np.array([_stirlerr(p + q) - _stirlerr(p) - _stirlerr(q)
                     + 0.5 * math.log(p * q / (p + q)) - _LN_SQRT_2PI
                     for p, q in posts])[which]
    pre = head - _bd0(a, mx, -lam)
    del mx
    pre -= _bd0(b, my, lam)
    del my
    np.exp(pre, out=pre)
    return pre, lam


def _oriented_tail(posts: list, which, x: np.ndarray, pre: np.ndarray,
                   lam: np.ndarray, run: np.ndarray) -> np.ndarray:
    """The oriented tail, prefactor times BFRAC, where `run` holds; 0
    elsewhere.  It is I_x(a, b) where lambda >= 0 and 1 - I_x(a, b) where
    lambda < 0."""
    w = np.zeros_like(x)
    live = np.flatnonzero(run)
    if len(live):
        which_live = which if np.ndim(which) == 0 else which[live]
        w[live] = pre[live] * _fraction(posts, which_live, x[live], lam[live])
    return w


def _beta_tail(posts: list, which, x: np.ndarray) -> tuple:
    """(w, prefactor, lambda) at 0 < x < 1, element i in Beta(posts[which[i]]),
    with w the oriented tail (`_oriented_tail`) wherever the prefactor is
    not 0."""
    pre, lam = _prefactor(posts, which, x)
    return _oriented_tail(posts, which, x, pre, lam, pre > 0.0), pre, lam


def beta_cdf(a: float, b: float, x, negligible=0.0) -> np.ndarray:
    """Regularized incomplete beta function I_x(a, b), over an array of x.

    Exactly 0 for x <= 0 and exactly 1 for x >= 1.  For a, b >= 1 the
    oriented tail w obeys w <= pre (a0 + 1) / (a0 (1 + |lambda|)) <= 2 pre
    (DLMF 8.17.8; a0 is the fraction's first parameter), so BFRAC is run
    only where it can change the value: an upper tail 1 - w with
    2 pre <= 2^-54 rounds to exactly 1 and is returned as 1, and a lower
    tail with 2 pre under `negligible` (broadcast with x) is returned as 0,
    for a caller that has shown so small a value cannot move its result.
    """
    x = np.asarray(x, dtype=float)
    out = (x >= 1.0).astype(float)
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    if len(inner):
        post = [(float(a), float(b))]
        xi = x.ravel()[inner]
        pre, lam = _prefactor(post, 0, xi)
        upper = lam < 0.0
        run = pre > 0.0
        if min(a, b) >= 1.0:
            # the bound is tight only at lambda = 0, where the prefactor is
            # near its peak (over 0.2), so these tails leave room for w's
            # rounding
            bound = 2.0 * pre
            floor = np.broadcast_to(negligible, x.shape).ravel()[inner]
            run &= ~np.where(upper, bound <= 2.0**-54, bound < floor)
        w = _oriented_tail(post, 0, xi, pre, lam, run)
        out.ravel()[inner] = np.where(upper, 1.0 - w, w)
    return out


def beta_quantile(a, b, p) -> np.ndarray:
    """Inverse of `beta_cdf` in x, for 0 < p < 1; a, b and p broadcast.

    Halley's method in u = log(x / (1 - x)) on h = log T - log t, T the
    nearer tail (I below the median, 1 - I above it) and t its target:
    dI/du is the prefactor x^a (1-x)^b / B(a, b), and its own u-derivative
    is the prefactor times lambda = a - (a + b) x.  A power-law tail makes
    h nearly linear in u.  It starts from the normal approximation with
    its skewness term and keeps a bracket; each element stops on its own,
    so it comes out the same in any batch.
    """
    a, b, p = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, p)))
    shape = p.shape
    a, b, q = a.ravel(), b.ravel(), p.ravel()
    if not ((q > 0.0) & (q < 1.0)).all():
        raise StatsError("beta quantile needs 0 < p < 1")
    index: dict = {}
    which = np.array([index.setdefault(ab, len(index))
                      for ab in zip(a.tolist(), b.tolist())], dtype=np.intp)
    posts = list(index)
    ab = a + b
    mean = a / ab
    sd = np.sqrt(a * b / (ab * ab * (ab + 1.0)))
    skew = 2.0 * (b - a) * np.sqrt(ab + 1.0) / ((ab + 2.0) * np.sqrt(a * b))
    z = np.array([statistics.NormalDist().inv_cdf(v) for v in q])
    x = np.clip(mean + sd * (z + skew * (z * z - 1.0) / 6.0),
                0.01 * mean, 1.0 - 0.01 * (1.0 - mean))
    u = np.log(x) - np.log1p(-x)
    lower = q <= 0.5
    sign = np.where(lower, 1.0, -1.0)
    target = np.log(np.where(lower, q, 1.0 - q))
    lo, hi = np.full_like(u, -np.inf), np.full_like(u, np.inf)
    result = np.full_like(u, np.nan)
    for _ in range(100):
        w, pre, lam = _beta_tail(posts, which, x)
        tail = np.where(lower == (lam < 0.0), 1.0 - w, w)
        below = np.where(lower, tail, 1.0 - tail) < q
        lo, hi = np.where(below, u, lo), np.where(below, hi, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.log(tail) - target
            g = pre / tail
            du = -2.0 * h * sign / (2.0 * g - h * (sign * lam - g))
        step = np.where(np.isfinite(du), np.clip(du, -4.0, 4.0),
                        np.where(below, 4.0, -4.0))
        new = u + step
        bisect = np.isfinite(lo) & np.isfinite(hi) & ~((new > lo) & (new < hi))
        new = np.where(bisect, 0.5 * (lo + hi), new)
        # a step under 1e-9 leaves an error far under 1e-15 after it; near
        # x = 1, where u is resolved more coarsely, x itself stops moving
        done = ((np.abs(du) <= 1e-9)
                | ((1.0 - x) * np.abs(du) <= 4.0 * np.finfo(float).eps))
        finished = done & np.isnan(result)
        result[finished] = 1.0 / (1.0 + np.exp(-(u[finished] + du[finished])))
        if not np.isnan(result).any():
            return result.reshape(shape)
        u = new
        x = 1.0 / (1.0 + np.exp(-u))
    raise StatsError("beta quantile did not converge")


# ---------------------------------------------------------------------------
# second-order coherence from counts


@dataclass
class G2Estimate:
    value: float
    lower: float          # 16th percentile of the posterior
    upper: float          # 84th percentile
    coincidences: int
    heralds: int


def _g2_posterior(tally_: CoincidenceTally, read_det, pump_det) -> tuple:
    """(c, n, scale): g2 is scale times the coincidence fraction c / n.

    The fraction's flat-prior posterior given the n heralds is
    Beta(c + 1, n - c + 1).  Equal-length sequences of read and pump
    detectors pool the pairs they zip into: N sum C_rp / sum C_r C_p,
    with the posterior of the pooled counts.
    """
    pairs = list(zip(np.atleast_1d(read_det).tolist(),
                     np.atleast_1d(pump_det).tolist(), strict=True))
    n = sum(tally_.pump_singles[j - 1] for _, j in pairs)
    if n == 0:
        raise StatsError("zero pump singles")
    denom = sum(tally_.read_singles[i - 1] * tally_.pump_singles[j - 1]
                for i, j in pairs)
    if denom == 0:
        raise StatsError("zero read singles")
    # exact integer products, so one pair rounds exactly like N / C_r
    scale = tally_.n_trials * n / denom
    c = sum(tally_.coincidence(i, j) for i, j in pairs)
    return c, n, scale


def g2_from_counts(tally_: CoincidenceTally, read_det, pump_det) -> G2Estimate:
    """Estimator C_rp N / (C_r C_p) with its posterior's 68% interval."""
    return g2_estimates([(tally_, read_det, pump_det)])[0]


def g2_estimates(requests) -> list:
    """`g2_from_counts` of each (tally, read_det, pump_det), solved together.

    All the 16th and 84th percentiles come from one `beta_quantile` call,
    and each comes out as it would alone.
    """
    posts = [_g2_posterior(*req) for req in requests]
    c, n = (np.array([post[k] for post in posts], dtype=float) for k in (0, 1))
    bounds = beta_quantile((c + 1)[:, None], (n - c + 1)[:, None], [0.16, 0.84])
    return [G2Estimate(value=cj / nj * scale, lower=float(lo * scale),
                       upper=float(hi * scale), coincidences=cj, heralds=nj)
            for (cj, nj, scale), (lo, hi) in zip(posts, bounds.tolist())]


# ---------------------------------------------------------------------------
# witness


def witness_from_g2(g2_r1: float, g2_r2: float) -> float:
    """Measurable witness bound from the two read-side correlations."""
    if g2_r1 < 0 or g2_r2 < 0:
        raise StatsError("correlations must be non-negative")
    d = g2_r1 - g2_r2
    if d == 0.0:
        raise StatsError("witness unbounded (no fringe contrast)")
    return 4.0 * (g2_r1 + g2_r2 - 1.0) / d**2


@dataclass
class WitnessDistribution:
    """Witness posterior binned on its band, with the mass off the band."""

    grid: np.ndarray            # bin centers
    mass: np.ndarray            # in-grid bin masses
    ml_value: float             # mode of the binned distribution
    lower: float                # 16th percentile (equal-tailed 68% interval)
    upper: float                # 84th percentile
    below: float = 0.0          # mass under the grid
    above: float = 0.0          # mass over the grid (see `symmetrize`)

    @property
    def median(self) -> float:
        """Posterior median, read off the CDF at the bin edges."""
        return float(_edge_quantiles(self.grid, self.mass, self.below, [0.5],
                                     "median")[0])


def _edge_quantiles(grid: np.ndarray, mass: np.ndarray, below: float,
                    probs: list, name: str) -> np.ndarray:
    # quantiles in increasing order, read off the CDF at the bin edges
    # (mass is uniform within a bin)
    step = grid[1] - grid[0]
    edges = np.append(grid - 0.5 * step, grid[-1] + 0.5 * step)
    cum = below + np.concatenate(([0.0], np.cumsum(mass)))
    if not (cum[0] <= probs[0] and probs[-1] <= cum[-1]):
        raise StatsError(f"witness {name} reaches off the grid "
                         f"[{edges[0]:g}, {edges[-1]:g}]")
    return np.interp(probs, cum, edges)


def _mode_and_interval(grid: np.ndarray, mass: np.ndarray, below: float) -> tuple:
    # the mode is the heaviest bin; the 68% interval is equal-tailed
    ml_idx = int(np.argmax(mass))
    if ml_idx in (0, len(mass) - 1):
        raise StatsError(f"witness mode lies at the grid edge "
                         f"{grid[ml_idx]:g}: it may sit off the grid")
    lower, upper = _edge_quantiles(grid, mass, below, [0.16, 0.84],
                                   "68% interval")
    return float(grid[ml_idx]), float(lower), float(upper)


def _conditional_cdf(a: np.ndarray, w: np.ndarray, c: int, n: int,
                     scale: float) -> np.ndarray:
    """P(W(a, b) <= w) for b = scale * Beta(c + 1, n - c + 1), over a and w.

    With D = 1 + w (2a - 1), W(a, b) = w at b = r1, r2:
    r1 = a - 2 (2a - 1) / (1 + sqrt D), r2 = a + 2 (1 + sqrt D) / w.
    W <= w holds for b outside [r1, r2] when w >= 0 (r2 = inf at w = 0),
    and for b in [r2, r1] when w < 0; with D < 0 it holds for every b
    when w > 0 and for none when w < 0.

    Only the beta CDFs that can change a bit of the result are evaluated
    in full: none where D < 0, and at w > 0 not f1 = I(r1) where it is a
    lower tail bounded (`beta_cdf`) under a quarter ulp of f2 = I(r2) < 1,
    as f2 - f1 then rounds to f2.  So f2 is evaluated first.
    """
    s = 2.0 * a - 1.0
    d = 1.0 + w * s
    real = d >= 0.0
    root = np.sqrt(np.where(real, d, 0.0))
    with np.errstate(divide="ignore"):
        x = np.stack((a - 2.0 * s / (1.0 + root),        # r1
                      a + 2.0 * (1.0 + root) / w))       # r2
    # the roots' own temporaries are freed first
    del s, d, root
    x /= scale
    np.clip(x, 0.0, 1.0, out=x)
    # with D < 0 neither CDF is read: take them at 0 and 1, where they are
    # exact without the kernel
    x[0][~real], x[1][~real] = 0.0, 1.0
    f2 = beta_cdf(c + 1, n - c + 1, x[1])
    # a quarter ulp of f2, 0 where f2 is subnormal
    spare = np.where((w > 0.0) & (f2 < 1.0), 0.25 * np.spacing(f2), 0.0)
    f1 = beta_cdf(c + 1, n - c + 1, x[0], negligible=spare)
    del x, spare
    # 1 - P(r1 < b < r2) cancels to exactly 0 only where f2 is 1; there the
    # CDF is f1, the tail that f1 - f2 keeps at w < 0, so the tails on both
    # sides of w = 0 join
    outside = 1.0 - (np.where(w > 0.0, f2, 1.0) - f1)
    outside = np.where(outside > 0.0, outside, f1)
    return np.where(w < 0.0, np.where(real, f1 - f2, 0.0),
                    np.where(real, outside, 1.0))


@functools.cache
def _legendre(nodes: int) -> tuple:
    # Gauss-Legendre nodes on [-1, 1], weights halved to average over [0, 1]
    x, weights = np.polynomial.legendre.leggauss(nodes)
    return x, 0.5 * weights


def _witness_nodes(tally_: CoincidenceTally, pump_det: int) -> tuple:
    """(a at the quadrature nodes, node weights, b's posterior (c, n, scale),
    b at its own 16/50/84% points).

    W is symmetric in a and b.  The quadrature runs over the smaller g2:
    W near 0 needs the other one large, and its beta CDF resolves that
    tail exactly, where quadrature nodes would be too sparse.  The nodes
    and b's three points are solved in one `beta_quantile` call, and each
    comes out as it would alone.
    """
    (c, n, scale), post_b = sorted(
        (_g2_posterior(tally_, i, pump_det) for i in (1, 2)),
        key=lambda post: post[0] * post[2])
    x, weights = _legendre(WITNESS_NODES)
    c_b, n_b, scale_b = post_b
    q = beta_quantile([c + 1] * len(x) + [c_b + 1] * 3,
                      [n - c + 1] * len(x) + [n_b - c_b + 1] * 3,
                      np.r_[0.5 * (x + 1.0), 0.16, 0.5, 0.84])
    return scale * q[:len(x)], weights, post_b, scale_b * q[len(x):]


def _witness_band(a: np.ndarray, weights: np.ndarray, b: np.ndarray) -> tuple:
    """(step, first, last): the band's bin edges are step * (first ... last).

    The band is placed by the weighted 16/50/84% points of W(a_k, b_p), over
    the quadrature nodes a_k and b's own 16/50/84% points b_p.  The step is
    a power of two, so the steps of any two posteriors nest.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (4.0 * (a[:, None] + b - 1.0) / (a[:, None] - b) ** 2).ravel()
    order = np.argsort(w)
    cum = np.cumsum(np.repeat(weights, len(b))[order]) / len(b)
    q16, q50, q84 = w[order][np.searchsorted(cum, [0.16, 0.5, 0.84])]
    if not 0.0 < q84 - q16 < math.inf:
        raise StatsError(f"witness band [{q16:g}, {q84:g}] has no finite width")
    step = 2.0 ** math.floor(math.log2((q84 - q16) / (2 * WITNESS_BINS)))
    return (step, math.floor((q16 - WITNESS_REACH * (q50 - q16)) / step),
            math.ceil((q84 + WITNESS_REACH * (q84 - q50)) / step))


def witness_distribution(tally_: CoincidenceTally, pump_det: int) -> WitnessDistribution:
    """Exact witness posterior for heralds at `pump_det`, binned on its band.

    The CDF of W(a, b) over the two g2[r_i, p] at each bin edge is the
    mean, over a's posterior, of b's beta-CDF mass on {W <= w}
    (`_conditional_cdf`), by Gauss-Legendre in a's quantile.  Every node's
    CDF is evaluated at every edge of the band (`_witness_band`), as many
    nodes at a time as keep a call within WITNESS_BLOCK elements.  The
    mass under and over the band is reported as `below` and `above`,
    never folded into a bin.
    """
    a, weights, post_b, b = _witness_nodes(tally_, pump_det)
    step, first, last = _witness_band(a, weights, b)
    edges = step * np.arange(first, last + 1.0)
    mass = np.zeros(len(edges) - 1)
    ends = np.empty((2, len(a)))
    per_call = max(1, WITNESS_BLOCK // len(edges))
    for k in range(0, len(a), per_call):
        cdf = _conditional_cdf(a[k:k + per_call], edges[:, None], *post_b)
        mass += np.diff(cdf, axis=0) @ weights[k:k + per_call]
        ends[:, k:k + per_call] = cdf[[0, -1]]
    below = float(ends[0] @ weights)
    above = float((1.0 - ends[1]) @ weights)
    grid = edges[:-1] + 0.5 * step
    ml, lower, upper = _mode_and_interval(grid, mass, below)
    return WitnessDistribution(grid=grid, mass=mass, ml_value=ml, lower=lower,
                               upper=upper, below=below, above=above)


def symmetrize(dist_1: WitnessDistribution,
               dist_2: WitnessDistribution) -> WitnessDistribution:
    """Distribution of the mean of two independent witness measurements.

    The finer grid's bins are summed, whole, onto the bins of the coarser
    grid's step (band steps are powers of two, so they nest), and pairs of
    in-grid bins land on the half-step grid of the mean.  Pairs with a
    component off the grid are kept apart: both under it go to `below`,
    all others to `above`, whose mean lies over the grid's midpoint or is
    unknown (one component under the grid); counting them over every
    threshold is conservative.
    """
    coarse = max((dist_1, dist_2), key=lambda d: d.grid[1] - d.grid[0])
    step = coarse.grid[1] - coarse.grid[0]
    starts, masses = [], []
    for d in (dist_1, dist_2):
        fine = d.grid[1] - d.grid[0]
        ratio = round(step / fine)
        # d's first edge, in its own bins from a coarse edge
        offset = (d.grid[0] - coarse.grid[0]) / fine + 0.5 * (ratio - 1)
        if (abs(ratio * fine - step) > 1e-9 * step
                or abs(offset - round(offset)) > 1e-6):
            raise StatsError("witness distributions live on incompatible grids")
        pad = round(offset) % ratio
        mass = np.pad(d.mass, (pad, -(pad + len(d.mass)) % ratio))
        masses.append(mass.reshape(-1, ratio).sum(axis=1))
        starts.append(d.grid[0] + (0.5 * (ratio - 1) - pad) * fine)
    mass = np.convolve(*masses)
    # the sum grid starts at start1 + start2; the mean halves everything
    grid = 0.5 * (starts[0] + starts[1]) + 0.5 * step * np.arange(len(mass))
    in_1, in_2 = (m.sum() for m in masses)
    below = dist_1.below * dist_2.below
    above = (dist_1.above * (dist_2.below + in_2 + dist_2.above)
             + (dist_1.below + in_1) * dist_2.above
             + dist_1.below * in_2 + in_1 * dist_2.below)
    ml, lower, upper = _mode_and_interval(grid, mass, below)
    return WitnessDistribution(grid=grid, mass=mass, ml_value=ml, lower=lower,
                               upper=upper, below=below, above=above)


def confidence_below(dist: WitnessDistribution, threshold: float) -> float:
    """Witness mass below `threshold`: one minus `above` and the bins over it.

    A threshold under the grid's first edge counts `below` over it too, as
    the grid does not say where under it that mass lies.  The complement
    keeps a confidence near 1 from passing 1 when the in-grid masses (CDF
    differences) sum past 1 by rounding.
    """
    if threshold <= 0:
        raise StatsError("threshold must be positive")
    step = dist.grid[1] - dist.grid[0]
    over = np.clip(((dist.grid + 0.5 * step) - threshold) / step, 0.0, 1.0)
    conf = 1.0 - dist.above - float(over @ dist.mass)
    if threshold < dist.grid[0] - 0.5 * step:
        conf -= dist.below
    if not -1e-12 <= conf <= 1.0 + 1e-12:
        raise StatsError(f"confidence {conf!r} outside [0, 1]")
    return conf


# ---------------------------------------------------------------------------
# fringe analysis


def visibility(values) -> float:
    """Fringe contrast (max - min) / (max + min) of a correlation sweep."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise StatsError("need at least two fringe samples")
    top, bot = float(v.max()), float(v.min())
    if top + bot == 0:
        raise StatsError("degenerate fringe: extrema sum to zero")
    return (top - bot) / (top + bot)


def _sinusoid_basis(x: np.ndarray, period: float) -> np.ndarray:
    """Columns 1, cos(2 pi x / period), sin(2 pi x / period) at the samples x."""
    w = 2 * math.pi / period
    return np.stack([np.ones_like(x), np.cos(w * x), np.sin(w * x)], axis=1)


def fringe_contrast(x, series, period: float) -> np.ndarray:
    """Contrast (top - bot) / (top + bot) of each row of `series` at a known
    period: one least-squares solve fits offset + c cos(2 pi x / period) +
    s sin(2 pi x / period) to every row, with top the offset plus
    hypot(c, s) and the trough the offset less it, floored at 0."""
    coef, _, rank, _ = np.linalg.lstsq(_sinusoid_basis(np.asarray(x, dtype=float), period),
                                       np.asarray(series, dtype=float).T, rcond=None)
    if rank < 3:
        raise StatsError("need 3 samples at distinct fringe phases")
    amp = np.hypot(coef[1], coef[2])
    top, bot = coef[0] + amp, np.maximum(coef[0] - amp, 0.0)
    if not (top > 0).all():
        raise StatsError("degenerate fringe: fitted top not positive")
    return (top - bot) / (top + bot)


def regula_falsi(probe, lo: tuple, hi: tuple, closed, max_steps=None):
    """Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on a bracket.

    `lo` and `hi` are points (x, f(x), ...) with f < 0 at lo and f >= 0 at
    hi, and `probe(x)` returns the point at x.  Each step probes the secant
    root, or the midpoint when the secant leaves the bracket, and the probe
    replaces the end of its sign; an end kept twice in a row has its value
    halved.  A probe at which f is exactly zero ends the solve with both
    ends at it.  Returns the ends once `closed(x_lo, x_hi)` holds, or None
    when `max_steps` probes did not close them.
    """
    f_lo, f_hi, kept = lo[1], hi[1], 0
    steps = 0
    while not closed(lo[0], hi[0]):
        if steps == max_steps:
            return None
        steps += 1
        x = lo[0] - f_lo * (hi[0] - lo[0]) / (f_hi - f_lo)
        if not lo[0] < x < hi[0]:
            x = 0.5 * (lo[0] + hi[0])
        point = probe(x)
        if point[1] == 0.0:
            return point, point
        if point[1] < 0.0:
            if kept > 0:
                f_hi *= 0.5
            lo, f_lo, kept = point, point[1], 1
        else:
            if kept < 0:
                f_lo *= 0.5
            hi, f_hi, kept = point, point[1], -1
    return lo, hi


@dataclass
class FringeFit:
    amplitude: float
    period: float
    phase: float
    offset: float
    period_error: float
    flagged: bool = False       # amplitude consistent with zero


def fit_fringe(x, values, sigma=None) -> FringeFit:
    """Weighted sinusoid fit offset + A cos(2 pi (x - x0) / period).

    x carries its own units (radians for phase sweeps, seconds for delay
    sweeps); the fitted period is reported in the same units.

    The fit is by variable projection (Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 1973): at a fixed period the model c0 + c1 cos wx + c2 sin wx
    is linear, so a weighted least-squares solve profiles the cost down to
    chi2(period).  A period scan picks the basin, and the period is the
    root of the exact profile slope, bracketed by the scan and closed to a
    few ulp by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971).
    `period_error` is the period's standard error in the linearized
    four-parameter (amplitude, period, x0, offset) fit.  A fringe the fit
    cannot resolve (an amplitude consistent with zero, or no slope root
    within the period bounds) comes back flagged, with no period.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.size != y.size or x.size < 5:
        raise StatsError("need at least 5 samples to fit a fringe")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise StatsError("fringe samples must be finite")
    span = x.max() - x.min()
    if sigma is None:
        sigma = np.full_like(y, max(1e-12, 0.05 * (y.max() - y.min() + 1e-12)))
    else:
        sigma = np.asarray(sigma, dtype=float)
        if not (np.isfinite(sigma).all() and (sigma > 0).all()):
            raise StatsError("uncertainties must be finite and positive")

    amp0 = 0.5 * (y.max() - y.min())
    unresolved = FringeFit(amplitude=0.0, period=float("nan"), phase=0.0,
                           offset=float(np.mean(y)), period_error=float("inf"),
                           flagged=True)
    if amp0 <= 1e-12 or amp0 < 0.05 * np.mean(sigma):
        return unresolved

    def profile(period):
        # the linear solve at one period, its weighted residual r, and the
        # residual's period derivative (dB/dP) c; r is orthogonal to the
        # basis B, so the profile slope d chi2 / dP is exactly 2 r . (dB/dP) c
        w = 2 * math.pi / period
        basis = _sinusoid_basis(x, period)
        cos, sin = basis[:, 1], basis[:, 2]
        bw = basis / sigma[:, None]
        coef, *_ = np.linalg.lstsq(bw, y / sigma, rcond=None)
        resid = bw @ coef - y / sigma
        d_period = w / period * x * (coef[1] * sin - coef[2] * cos) / sigma
        return coef, resid, bw, d_period

    def cost(period):
        resid = profile(period)[1]
        return float(resid @ resid)

    def slope(period):          # half the profile slope
        _, resid, _, d_period = profile(period)
        return float(resid @ d_period)

    # periods under ~2 sample spacings are aliases, not resolvable content
    spacing = float(np.median(np.diff(np.sort(x))))
    min_period = max(span / 12, 2.2 * spacing)
    periods = span / np.exp(np.linspace(math.log(0.4),
                                        math.log(span / min_period), 60))
    best = periods[np.argmin([cost(p) for p in periods])]
    fine = best * np.linspace(0.93, 1.07, 41)
    k = int(np.argmin([cost(p) for p in fine]))

    # bracket the slope's root by the fine winner's neighbours, widened
    # geometrically within [span / 20, 20 span] until the sign changes
    lo, hi = fine[max(k - 1, 0)], fine[min(k + 1, fine.size - 1)]
    g_lo, g_hi = slope(lo), slope(hi)
    while not g_lo < 0.0 < g_hi:
        ratio = hi / lo
        if g_lo >= 0.0 and lo > span / 20:
            lo = max(lo / ratio, span / 20)
            g_lo = slope(lo)
        elif g_hi <= 0.0 and hi < 20 * span:
            hi = min(hi * ratio, 20 * span)
            g_hi = slope(hi)
        else:
            return unresolved
    # the slope is negative at lo and positive at hi, so the root is a minimum
    ends = regula_falsi(lambda period: (period, slope(period)), (lo, g_lo),
                        (hi, g_hi), lambda lo, hi: hi - lo <= 4 * np.spacing(hi),
                        max_steps=200)
    if ends is None:
        return unresolved
    (lo, _), (hi, _) = ends

    period = float(0.5 * (lo + hi))
    coef, _, bw, d_period = profile(period)
    amp = math.hypot(coef[1], coef[2])
    # [(J^T J)^-1] of the period is one over the squared norm of the part
    # of its Jacobian column that the linear columns cannot absorb; that
    # holds for (c0, c1, c2, period) as for (amplitude, period, x0, offset)
    absorbed, *_ = np.linalg.lstsq(bw, d_period, rcond=None)
    free = float(np.linalg.norm(d_period - bw @ absorbed))
    return FringeFit(amplitude=amp, period=period,
                     phase=math.atan2(coef[2], coef[1]) * period / (2 * math.pi),
                     offset=float(coef[0]),
                     period_error=1.0 / free if free > 0.0 else float("inf"),
                     flagged=bool(amp < 2 * np.mean(sigma) / math.sqrt(x.size)))
