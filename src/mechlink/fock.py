"""Truncated Fock-space density-matrix engine.

Dense complex representation of a small multimode bosonic register,
with the linear (Gaussian-preserving) channels the heralding protocol is
built from: two-mode squeezing, beamsplitters, phase rotations, loss and
thermal-noise channels, and a threshold-detector measurement.

States are immutable; every channel returns a new state.  Unitaries that
do not conserve excitation number (squeezing, displacement-like noise)
are evaluated on a temporarily enlarged cutoff and cropped back, so the
truncated result matches the infinite-space channel to well below the
validation tolerances at the excitation scales this package targets
(pair-creation probabilities of order 1e-2).  Mass discarded by cropping
is accumulated in a per-state truncation budget.

Cutoffs may differ per mode: phonon modes carrying tenths of a quantum
of thermal occupation need several more levels than the optical modes,
which never hold more than a few percent of a photon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import expm

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9
TRUNCATION_TOL = 1e-6

# Dense matrices above this dimension are refused outright; positivity
# checks are skipped above _EIG_CHECK_DIM to keep channels cheap.
DEFAULT_MEMORY_BOUND = 512 * 1024 * 1024
_EIG_CHECK_DIM = 700

# Extra levels used internally when applying non-number-conserving
# unitaries; keeps boundary distortion below ~p**(cutoff+pad) in the
# retained block.
_PAD_LEVELS = 2


class FockError(ValueError):
    """Invalid state, register or channel parameter."""


class TruncationError(FockError):
    """Requested operation loses more probability mass than allowed."""


@dataclass(frozen=True)
class ModeRegister:
    """A set of bosonic modes, each truncated at its cutoff excitation.

    `cutoff` is the default for every mode; `cutoffs` overrides it
    per mode when heterogeneous truncation is wanted.
    """

    n_modes: int
    cutoff: int
    cutoffs: tuple | None = None
    memory_bound: int = DEFAULT_MEMORY_BOUND

    def __post_init__(self):
        if self.n_modes < 1:
            raise FockError("register needs at least one mode")
        if self.cutoffs is not None:
            object.__setattr__(self, "cutoffs", tuple(int(c) for c in self.cutoffs))
            if len(self.cutoffs) != self.n_modes:
                raise FockError("need one cutoff per mode")
        if any(c < 1 for c in self.mode_cutoffs):
            raise FockError("cutoff must be at least 1")
        nbytes = 16 * self.dim**2
        if nbytes > self.memory_bound:
            raise FockError(
                f"register with dims {self.mode_dims} needs {nbytes / 1e6:.0f} MB "
                f"> bound {self.memory_bound / 1e6:.0f} MB"
            )

    @property
    def mode_cutoffs(self) -> tuple:
        return self.cutoffs if self.cutoffs is not None else (self.cutoff,) * self.n_modes

    @property
    def mode_dims(self) -> tuple:
        return tuple(c + 1 for c in self.mode_cutoffs)

    @property
    def dim(self) -> int:
        return math.prod(self.mode_dims)

    def levels(self, mode: int) -> int:
        return self.mode_cutoffs[mode] + 1

    def subset(self, keep: Sequence[int]) -> "ModeRegister":
        cuts = tuple(self.mode_cutoffs[m] for m in keep)
        return ModeRegister(len(keep), self.cutoff, cuts, self.memory_bound)

    def extended(self, extra: int = 1, cutoff: int | None = None) -> "ModeRegister":
        cuts = self.mode_cutoffs + (cutoff if cutoff is not None else self.cutoff,) * extra
        return ModeRegister(self.n_modes + extra, self.cutoff, cuts, self.memory_bound)

    def basis_index(self, occupations: Sequence[int]) -> int:
        if len(occupations) != self.n_modes:
            raise FockError("occupation list does not match register size")
        idx = 0
        for n, d in zip(occupations, self.mode_dims):
            if not 0 <= n < d:
                raise FockError(f"occupation {n} outside mode dimension {d}")
            idx = idx * d + n
        return idx


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a register.

    `truncation_budget` accumulates the probability mass discarded and
    renormalized away by cutoff-limited channels applied so far.
    """

    __slots__ = ("register", "mat", "truncation_budget")

    def __init__(self, register: ModeRegister, mat: np.ndarray,
                 truncation_budget: float = 0.0, validate: bool = True):
        mat = np.ascontiguousarray(mat, dtype=np.complex128)
        if mat.shape != (register.dim, register.dim):
            raise FockError(
                f"matrix shape {mat.shape} does not match register dim {register.dim}"
            )
        if validate:
            _validate_state(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "truncation_budget", float(truncation_budget))

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.register.dim

    def tensor(self) -> np.ndarray:
        dims = self.register.mode_dims
        return self.mat.reshape(dims + dims)

    def probabilities(self) -> np.ndarray:
        """Joint number-basis probabilities, shaped one axis per mode."""
        return np.real(np.diagonal(self.mat)).reshape(self.register.mode_dims)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.mat)[0])

    def _replace(self, mat, added_loss: float = 0.0,
                 register: ModeRegister | None = None) -> "DensityMatrix":
        return DensityMatrix(register or self.register, mat,
                             self.truncation_budget + added_loss)


_HERM_CHECK_DIM = 1024


def _validate_state(mat: np.ndarray) -> None:
    # Trace is checked on every construction; the full Hermiticity scan is
    # capped by dimension (channels symmetrize their outputs), and
    # positivity costs an eigendecomposition so it is exercised through
    # min_eigenvalue() by the invariant suite and at pipeline checkpoints.
    if mat.shape[0] <= _HERM_CHECK_DIM:
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > HERMITICITY_TOL:
            raise FockError(f"state not Hermitian: deviation {herm:.2e}")
    tr = np.trace(mat).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise FockError(f"state trace {tr!r} differs from 1")


# ---------------------------------------------------------------------------
# elementary operators


@lru_cache(maxsize=None)
def annihilator(levels: int) -> np.ndarray:
    a = np.zeros((levels, levels), dtype=np.complex128)
    for n in range(1, levels):
        a[n - 1, n] = math.sqrt(n)
    a.setflags(write=False)
    return a


def creator(levels: int) -> np.ndarray:
    return annihilator(levels).conj().T


# ---------------------------------------------------------------------------
# tensor helpers (operate on the raw matrix viewed as a 2n-axis tensor)


def _apply_matrix(mat: np.ndarray, dims: Sequence[int], modes: Sequence[int],
                  op: np.ndarray, dagger_side: bool) -> np.ndarray:
    """Multiply op onto the ket axes (or its conjugate onto the bra axes)."""
    n = len(dims)
    axes = list(modes) if not dagger_side else [n + m for m in modes]
    t = mat.reshape(tuple(dims) + tuple(dims))
    t = np.moveaxis(t, axes, range(len(axes)))
    head = math.prod(dims[m] for m in modes)
    rest = t.size // head
    t = t.reshape(head, rest)
    t = (op if not dagger_side else op.conj()) @ t
    full_shape = tuple(dims[m] for m in modes) + tuple(
        d for i, d in enumerate(tuple(dims) + tuple(dims))
        if i not in axes
    )
    t = t.reshape(full_shape)
    t = np.moveaxis(t, range(len(axes)), axes)
    return t.reshape(math.prod(dims), math.prod(dims))


def _sandwich(mat: np.ndarray, dims: Sequence[int], modes: Sequence[int],
              op: np.ndarray) -> np.ndarray:
    """op rho op^dagger on the given modes."""
    out = _apply_matrix(mat, dims, modes, op, dagger_side=False)
    return _apply_matrix(out, dims, modes, op, dagger_side=True)


def _apply_superop_single(mat: np.ndarray, dims: Sequence[int], mode: int,
                          superop: np.ndarray) -> np.ndarray:
    """Apply a (d^2, d^2) channel matrix to one mode in a single pass.

    The superoperator is indexed (ket_out * d + bra_out, ket_in * d + bra_in);
    batching all Kraus terms into one matrix halves the tensor traffic of
    channels with many Kraus elements.
    """
    n = len(dims)
    d = dims[mode]
    t = mat.reshape(tuple(dims) + tuple(dims))
    t = np.moveaxis(t, (mode, n + mode), (0, 1))
    rest = t.shape[2:]
    t = t.reshape(d * d, -1)
    t = superop @ t
    t = t.reshape((d, d) + rest)
    t = np.moveaxis(t, (0, 1), (mode, n + mode))
    full = math.prod(dims)
    return np.ascontiguousarray(t).reshape(full, full)


def _kraus_superop(kraus: Sequence[np.ndarray]) -> np.ndarray:
    d = kraus[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in kraus:
        s += np.kron(k, k.conj())
    return s


def _pad_axes(mat: np.ndarray, dims: Sequence[int], modes: Sequence[int],
              pad: int) -> tuple[np.ndarray, list]:
    """Zero-pad selected modes by `pad` levels, return (matrix, new dims)."""
    new_dims = list(dims)
    for m in modes:
        new_dims[m] = dims[m] + pad
    t = mat.reshape(tuple(dims) + tuple(dims))
    out = np.zeros(tuple(new_dims) + tuple(new_dims), dtype=np.complex128)
    sl = tuple(slice(0, d) for d in dims) * 2
    out[sl] = t
    n = math.prod(new_dims)
    return out.reshape(n, n), new_dims


def _crop_axes(mat: np.ndarray, dims: Sequence[int], modes: Sequence[int],
               target_dims: Sequence[int]) -> tuple[np.ndarray, float]:
    """Crop selected modes back to target_dims, return (matrix, lost mass)."""
    new_dims = list(dims)
    for m, td in zip(modes, target_dims):
        new_dims[m] = td
    t = mat.reshape(tuple(dims) + tuple(dims))
    sl = tuple(slice(0, d) for d in new_dims) * 2
    out = t[sl]
    n = math.prod(new_dims)
    out = out.reshape(n, n)
    kept = np.trace(out).real
    return out, 1.0 - kept


# ---------------------------------------------------------------------------
# state constructors


def vacuum_state(register: ModeRegister) -> DensityMatrix:
    mat = np.zeros((register.dim, register.dim), dtype=np.complex128)
    mat[0, 0] = 1.0
    return DensityMatrix(register, mat)


def basis_state(register: ModeRegister, occupations: Sequence[int]) -> DensityMatrix:
    idx = register.basis_index(occupations)
    mat = np.zeros((register.dim, register.dim), dtype=np.complex128)
    mat[idx, idx] = 1.0
    return DensityMatrix(register, mat)


def pure_state(register: ModeRegister, amplitudes: np.ndarray) -> DensityMatrix:
    v = np.asarray(amplitudes, dtype=np.complex128)
    if v.shape != (register.dim,):
        raise FockError("amplitude vector does not match register dimension")
    v = v / np.linalg.norm(v)
    return DensityMatrix(register, np.outer(v, v.conj()))


def thermal_probabilities(n_mean: float, levels: int) -> tuple[np.ndarray, float]:
    """Geometric occupation law P(n) = n_mean^n / (1+n_mean)^(n+1), truncated.

    Returns the renormalized per-level probabilities and the untruncated
    mass that fell beyond the cutoff.
    """
    if n_mean < 0:
        raise FockError("mean occupation must be non-negative")
    if n_mean == 0:
        p = np.zeros(levels)
        p[0] = 1.0
        return p, 0.0
    q = n_mean / (1.0 + n_mean)
    p = (1.0 - q) * q ** np.arange(levels)
    tail = q**levels
    return p / p.sum(), tail


def thermal_state(n_mean: float, register: ModeRegister, mode: int,
                  tol: float = TRUNCATION_TOL) -> DensityMatrix:
    """Thermal occupation on one mode, vacuum on the rest.

    Rejects the construction when the truncated tail mass exceeds `tol`;
    callers that accept a larger, tracked truncation budget may pass a
    looser tolerance.
    """
    n_means = [0.0] * register.n_modes
    n_means[mode] = n_mean
    return product_thermal_state(register, n_means, tol=tol)


def product_thermal_state(register: ModeRegister, n_means: Sequence[float],
                          tol: float = TRUNCATION_TOL) -> DensityMatrix:
    if len(n_means) != register.n_modes:
        raise FockError("need one mean occupation per mode")
    diag = np.ones(1)
    lost = 0.0
    for mode, n_mean in enumerate(n_means):
        p, tail = thermal_probabilities(n_mean, register.levels(mode))
        if tail > tol:
            raise TruncationError(
                f"cutoff too small: thermal tail mass {tail:.2e} at n_mean={n_mean}"
            )
        lost += tail
        diag = np.outer(diag, p).ravel()
    return DensityMatrix(register, np.diag(diag.astype(np.complex128)),
                         truncation_budget=lost)


# ---------------------------------------------------------------------------
# channels


def two_mode_squeeze(state: DensityMatrix, mode_a: int, mode_b: int,
                     p_excite: float, phase: float = 0.0,
                     tol: float = TRUNCATION_TOL) -> DensityMatrix:
    """Pair-creation unitary exp(xi a+b+ - xi* a b), tanh^2(r) = p_excite.

    On vacuum input this produces the two-mode squeezed state with
    P(n, n) = p_excite^n (1 - p_excite).
    """
    if mode_a == mode_b:
        raise FockError("two_mode_squeeze needs distinct modes")
    if not 0.0 <= p_excite < 0.5:
        raise FockError("pair-creation probability must lie in [0, 0.5)")
    if p_excite == 0.0:
        return state
    reg = state.register
    r = math.atanh(math.sqrt(p_excite))
    xi = r * np.exp(1j * phase)

    mat, dims = _pad_axes(state.mat, reg.mode_dims, (mode_a, mode_b), _PAD_LEVELS)
    a = annihilator(dims[mode_a])
    b = annihilator(dims[mode_b])
    pair = np.kron(a, b)
    gen = xi * pair.conj().T - np.conj(xi) * pair
    u = expm(gen)
    mat = _sandwich(mat, dims, (mode_a, mode_b), u)
    mat, lost = _crop_axes(mat, dims, (mode_a, mode_b),
                           (reg.mode_dims[mode_a], reg.mode_dims[mode_b]))
    if lost > tol:
        raise TruncationError(
            f"cutoff too small for p_excite={p_excite}: trace deficit {lost:.2e}"
        )
    mat = mat / np.trace(mat).real
    mat = 0.5 * (mat + mat.conj().T)
    return state._replace(mat, added_loss=max(lost, 0.0))


def beamsplitter(state: DensityMatrix, mode_a: int, mode_b: int,
                 transmittance: float, phase: float = 0.0) -> DensityMatrix:
    """Photon-number-conserving mode mixing.

    Mode a keeps amplitude sqrt(T); the amplitude crossing from a to b is
    -e^{-i phase} sqrt(1-T) and from b to a is +e^{i phase} sqrt(1-T).
    Exactly unitary on the truncated space.
    """
    if mode_a == mode_b:
        raise FockError("beamsplitter needs distinct modes")
    if not 0.0 <= transmittance <= 1.0:
        raise FockError("transmittance must lie in [0, 1]")
    if transmittance == 1.0:
        return state
    reg = state.register
    theta = math.acos(math.sqrt(transmittance))
    a = annihilator(reg.levels(mode_a))
    b = annihilator(reg.levels(mode_b))
    adag_b = np.kron(a.conj().T, b)
    gen = theta * (np.exp(1j * phase) * adag_b - np.exp(-1j * phase) * adag_b.conj().T)
    u = expm(gen)
    mat = _sandwich(state.mat, reg.mode_dims, (mode_a, mode_b), u)
    return state._replace(mat)


def phase_rotation(state: DensityMatrix, mode: int, phi: float) -> DensityMatrix:
    """exp(i phi n) on one mode: coherences pick up e^{i phi (m-n)}."""
    reg = state.register
    phases = np.exp(1j * phi * np.arange(reg.levels(mode)))
    u = np.diag(phases)
    mat = _sandwich(state.mat, reg.mode_dims, (mode,), u)
    return state._replace(mat)


def loss_channel(state: DensityMatrix, mode: int, efficiency: float) -> DensityMatrix:
    """Bosonic pure-loss channel; <n> -> efficiency * <n>.

    Kraus form of a beamsplitter to a vacuum ancilla, exact (CPTP to
    machine precision) on the truncated space.
    """
    if not 0.0 <= efficiency <= 1.0:
        raise FockError("efficiency must lie in [0, 1]")
    if efficiency == 1.0:
        return state
    reg = state.register
    d = reg.levels(mode)
    out = _apply_superop_single(state.mat, reg.mode_dims, mode,
                                _loss_superop(d, float(efficiency)))
    out = 0.5 * (out + out.conj().T)
    return state._replace(out)


@lru_cache(maxsize=512)
def _loss_superop(d: int, eta: float) -> np.ndarray:
    kraus = []
    for k in range(d):
        m = np.zeros((d, d), dtype=np.complex128)
        for n in range(k, d):
            m[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k)
                                    * (1 - eta) ** k)
        kraus.append(m)
    s = _kraus_superop(kraus)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=256)
def _noise_superop(d: int, n_add: float, anc_levels: int) -> np.ndarray:
    """Channel matrix of the transmission-one noise channel on d levels.

    Built from its physical decomposition: a quantum-limited amplifier of
    gain 1/(1 - n_add) (two-mode squeezing with a vacuum ancilla, Kraus
    elements <j|U|0>) followed by a pure-loss channel of efficiency
    1/gain, evaluated on a padded space and cropped back to d levels.
    """
    big = d + _PAD_LEVELS
    a = annihilator(big)
    b = annihilator(anc_levels)
    pair = np.kron(a, b)
    r = math.atanh(math.sqrt(n_add))
    u = expm(r * (pair.conj().T - pair))
    u = u.reshape(big, anc_levels, big, anc_levels)
    amp_kraus = [u[:, j, :, 0] for j in range(anc_levels)]

    eta = 1.0 - n_add
    kraus = []
    for k in range(big):
        loss_k = np.zeros((big, big), dtype=np.complex128)
        for n in range(k, big):
            loss_k[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k)
                                         * (1 - eta) ** k)
        for amp_j in amp_kraus:
            m = (loss_k @ amp_j)[:d, :d]
            if np.max(np.abs(m)) > 1e-16:
                kraus.append(m)
    s = _kraus_superop(kraus)
    s.setflags(write=False)
    return s


def thermal_noise_channel(state: DensityMatrix, mode: int, n_add: float,
                          tol: float = TRUNCATION_TOL) -> DensityMatrix:
    """Add n_add quanta of incoherent occupation at unit net transmission.

    The transmission-one Gaussian noise channel: <n> -> <n> + n_add
    exactly, so injections compose additively on the mean.  Mass pushed
    past the cutoff is cropped, checked against `tol`, renormalized and
    added to the truncation budget.
    """
    if n_add < 0:
        raise FockError("added occupation must be non-negative")
    if n_add == 0.0:
        return state
    if n_add >= 0.5:
        raise FockError("added occupation must be below 0.5 per application")
    reg = state.register
    d = reg.levels(mode)
    # ancilla levels sized so the residual tail stays well inside `tol`
    need = max(3, math.ceil(math.log(0.1 * tol) / math.log(max(n_add, 1e-12))) + 1)
    superop = _noise_superop(d, float(n_add), need)
    out = _apply_superop_single(state.mat, reg.mode_dims, mode, superop)
    kept = np.trace(out).real
    lost = 1.0 - kept
    if lost > tol:
        raise TruncationError(
            f"cutoff too small for injection n_add={n_add}: deficit {lost:.2e}"
        )
    out = out / kept
    out = 0.5 * (out + out.conj().T)
    return state._replace(out, added_loss=max(lost, 0.0))


# ---------------------------------------------------------------------------
# measurement and queries


class ClickOutcome:
    """Threshold-detector measurement result; the mode is traced out."""

    def __init__(self, p_click: float, reduced_click, reduced_noclick):
        self.p_click = p_click
        self._click = reduced_click
        self._noclick = reduced_noclick

    def state_given_click(self) -> DensityMatrix:
        if self._click is None:
            raise FockError("impossible condition: click probability is zero")
        return self._click

    def state_given_noclick(self) -> DensityMatrix:
        if self._noclick is None:
            raise FockError("impossible condition: no-click probability is zero")
        return self._noclick


def click_measurement(state: DensityMatrix, mode: int,
                      p_dark: float = 0.0) -> ClickOutcome:
    """Threshold detector on one mode: click iff dark count or >= 1 quantum.

    p_click = 1 - (1 - p_dark) P(n=0).  Conditional states live on the
    register with the measured mode removed.
    """
    if not 0.0 <= p_dark < 1.0:
        raise FockError("dark-count probability must lie in [0, 1)")
    reg = state.register
    keep = tuple(m for m in range(reg.n_modes) if m != mode)
    traced = _partial_trace_mat(state.mat, reg.mode_dims, keep)
    vac = _project_vacuum_mat(state.mat, reg.mode_dims, mode)
    p0 = np.trace(vac).real
    p_click = 1.0 - (1.0 - p_dark) * p0
    p_click = min(max(p_click, 0.0), 1.0)

    small_reg = reg.subset(keep) if keep else None
    noclick_mat = (1.0 - p_dark) * vac
    click_mat = traced - noclick_mat

    def _norm(m):
        tr = np.trace(m).real
        if tr <= 1e-15 or small_reg is None:
            return None
        return DensityMatrix(small_reg, 0.5 * (m + m.conj().T) / tr,
                             state.truncation_budget)

    return ClickOutcome(p_click, _norm(click_mat), _norm(noclick_mat))


def _partial_trace_mat(mat: np.ndarray, dims: Sequence[int],
                       keep: Sequence[int]) -> np.ndarray:
    n = len(dims)
    t = mat.reshape(tuple(dims) + tuple(dims))
    drop = [m for m in range(n) if m not in keep]
    for m in sorted(drop, reverse=True):
        t = np.trace(t, axis1=m, axis2=m + (t.ndim // 2))
    d = math.prod(dims[m] for m in keep) if keep else 1
    return t.reshape(d, d)


def _project_vacuum_mat(mat: np.ndarray, dims: Sequence[int],
                        mode: int) -> np.ndarray:
    """<0|rho|0> on one mode (unnormalized, mode removed)."""
    n = len(dims)
    t = mat.reshape(tuple(dims) + tuple(dims))
    t = np.take(t, 0, axis=n + mode)
    t = np.take(t, 0, axis=mode)
    d = math.prod(d for i, d in enumerate(dims) if i != mode)
    return t.reshape(d, d)


def extend_with_vacuum(state: DensityMatrix, extra: int,
                       cutoff: int | None = None) -> DensityMatrix:
    """Append `extra` fresh vacuum modes after the existing ones."""
    if extra < 1:
        return state
    reg = state.register.extended(extra, cutoff=cutoff)
    vac_dim = math.prod(reg.mode_dims[state.register.n_modes:])
    vac = np.zeros((vac_dim, vac_dim), dtype=np.complex128)
    vac[0, 0] = 1.0
    mat = np.kron(state.mat, vac)
    return DensityMatrix(reg, mat, state.truncation_budget)


def phase_noise_twirl(state: DensityMatrix, mode: int,
                      sigma: float) -> DensityMatrix:
    """Average over a Gaussian random phase on one mode.

    Coherences of excitation-number offset k damp by exp(-sigma^2 k^2 / 2);
    a mixture of unitaries, hence completely positive and trace preserving.
    """
    if sigma < 0:
        raise FockError("phase-noise sigma must be non-negative")
    if sigma == 0.0:
        return state
    reg = state.register
    n = reg.n_modes
    d = reg.levels(mode)
    ket = np.arange(d).reshape([d if i == mode else 1 for i in range(n)] + [1] * n)
    bra = np.arange(d).reshape([1] * n + [d if i == mode else 1 for i in range(n)])
    damp = np.exp(-0.5 * sigma**2 * (ket - bra) ** 2)
    t = state.tensor() * damp
    return state._replace(t.reshape(reg.dim, reg.dim))


def partial_trace(state: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    keep = tuple(keep)
    if not keep:
        raise FockError("must keep at least one mode")
    if sorted(set(keep)) != sorted(keep) or any(
            not 0 <= m < state.register.n_modes for m in keep):
        raise FockError("invalid mode list for partial trace")
    if tuple(sorted(keep)) != keep:
        raise FockError("keep modes must be listed in increasing order")
    mat = _partial_trace_mat(state.mat, state.register.mode_dims, keep)
    reg = state.register.subset(keep)
    return DensityMatrix(reg, 0.5 * (mat + mat.conj().T), state.truncation_budget)


def number_expectation(state: DensityMatrix, mode: int) -> float:
    probs = state.probabilities()
    axes = tuple(m for m in range(state.register.n_modes) if m != mode)
    marginal = probs.sum(axis=axes) if axes else probs
    return float(np.dot(marginal, np.arange(state.register.levels(mode))))


def fidelity_pure(state: DensityMatrix, target: np.ndarray) -> float:
    v = np.asarray(target, dtype=np.complex128)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-9:
        raise FockError("target state vector must be normalized")
    return float(np.real(v.conj() @ state.mat @ v))


def _embed_single(op: np.ndarray, dims: Sequence[int], mode: int) -> np.ndarray:
    before = np.eye(int(math.prod(dims[:mode])), dtype=np.complex128)
    after = np.eye(int(math.prod(dims[mode + 1:])), dtype=np.complex128)
    return np.kron(np.kron(before, op), after)


def mode_moment(state: DensityMatrix,
                ops: Iterable[tuple[int, bool]]) -> complex:
    """Expectation of an ordered product of mode operators.

    `ops` lists (mode, dagger) pairs applied left to right, e.g.
    [(0, True), (1, False)] computes <a0^dag a1>.  Tr[rho O1..Ok] is
    accumulated by applying the operators to the state right-to-left.
    """
    reg = state.register
    acc = state.mat
    for mode, dagger in reversed(list(ops)):
        a = annihilator(reg.levels(mode))
        op = a.conj().T if dagger else a
        acc = _apply_matrix(acc, reg.mode_dims, (mode,), op, dagger_side=False)
    return complex(np.trace(acc))
