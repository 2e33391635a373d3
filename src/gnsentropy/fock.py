"""Second-quantized operator spans and the built-in worked scenarios.

Fermionic ladder matrices live on the 2^d occupation-number Fock space
(mode i occupies bit i, vacuum at index 0) with the Jordan-Wigner sign
``(-1)^(number of occupied modes below i)``. Fixed-particle-number sectors
embed into tensor powers of the one-particle space through normalized
antisymmetrized (or, for bosons, symmetrized) basis vectors, and
one-particle observables lift to a sector by summing the operator over
tensor slots. The lift is applied slot by slot to the sector basis, so no
operator on the whole tensor power is ever formed.

The ladder matrices are ``scipy.sparse``; scipy is imported by
``car_ladders`` on its first call (of the presets, only ``ex4_left``
calls it), so importing this module needs numpy alone.

``example_generators`` returns the preset (subalgebra, state family)
pairs used throughout the test suite and the CLI: a qubit algebra with a
diagonal density family, a Bell pair observed on one side, two fermions
in C^3 with full or partial one-particle observables, two fermions in
C^4 observed at one location, and two bosons in C^3 with block-diagonal
observables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gns import AlgebraState
from .linalg import UNITARY_TOL, as_int, as_square, hs_norm
from .star_algebra import OperatorSpan, full_matrix_algebra, span_closure

MAX_MODES = 12

#: Largest tensor-power dimension a sector context will materialize.
MAX_TENSOR_DIM = 50_000

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class LadderSet:
    """Fermionic creation/annihilation matrices on the 2^d Fock space."""

    modes: int
    creation: tuple
    annihilation: tuple

    @property
    def dim(self) -> int:
        return 1 << self.modes

    def number_operator(self):
        op = self.creation[0] @ self.annihilation[0]
        for c, a in zip(self.creation[1:], self.annihilation[1:]):
            op = op + c @ a
        return op

    def sector_labels(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Increasing mode tuples labeling the k-particle basis, lex order."""
        return tuple(itertools.combinations(range(self.modes), k))

    def sector_isometry(self, k: int) -> np.ndarray:
        """Dense (2^d, C(d,k)) map from k-particle labels to Fock states.

        Column (i_1 < ... < i_k) is the state created by applying the
        creation operators in increasing mode order to the vacuum; with
        the sign convention here that is the bare occupation basis state.
        """
        labels = self.sector_labels(k)
        V = np.zeros((self.dim, len(labels)), dtype=complex)
        for col, label in enumerate(labels):
            index = 0
            for i in label:
                index |= 1 << i
            V[index, col] = 1.0
        return V


def car_ladders(d: int) -> LadderSet:
    """Ladder matrices obeying ``a_i a_j^dag + a_j^dag a_i = delta_ij``.

    ``scipy.sparse`` CSR matrices; the anticommutators hold to machine
    precision and the total number operator is diagonal with spectrum
    {0, ..., d}. This is the package's only use of scipy, so the first call
    imports ``scipy.sparse`` and ``import gnsentropy`` needs numpy alone.
    """
    if not 1 <= as_int(d, "mode count") <= MAX_MODES:
        raise ValueError(f"mode count must be an integer in [1, {MAX_MODES}], got {d!r}")
    from scipy.sparse import csr_matrix

    dim = 1 << d
    states = np.arange(dim)
    creation = []
    for i in range(d):
        bit = 1 << i
        src = states[(states & bit) == 0]
        signs = np.array(
            [1.0 if int(s & (bit - 1)).bit_count() % 2 == 0 else -1.0 for s in src]
        )
        mat = csr_matrix(
            (signs.astype(complex), (src + bit, src)), shape=(dim, dim)
        )
        creation.append(mat)
    annihilation = tuple(c.conj().T.tocsr() for c in creation)
    return LadderSet(modes=d, creation=tuple(creation), annihilation=annihilation)


def _permutation_parity(word: tuple[int, ...]) -> int:
    """Sign of the permutation that sorts a word of distinct letters."""
    inv = sum(
        1
        for a in range(len(word))
        for b in range(a + 1, len(word))
        if word[a] > word[b]
    )
    return -1 if inv % 2 else 1


class FockContext:
    """A fixed-particle-number sector embedded in a tensor power.

    Fermionic sectors exist for any ``0 < particles <= dim`` (basis: unit
    wedge vectors over increasing labels), bosonic sectors for any
    particle number (basis: normalized symmetrizations over nondecreasing
    labels). One symmetrizer builds both: every tensor word goes to the
    column of its sorted label, with the sign of its sort for fermions and
    +1 for bosons, and each column is normalized. Its O(d^k) cost is
    bounded by ``MAX_TENSOR_DIM``.
    """

    def __init__(self, single_particle_dim: int, statistics: str = "fermionic",
                 particles: int = 2):
        d = as_int(single_particle_dim, "single_particle_dim")
        k = as_int(particles, "particles")
        if statistics not in ("fermionic", "bosonic"):
            raise ValueError(f"unknown statistics {statistics!r}")
        if d < 1 or k < 1:
            raise ValueError("need at least one mode and one particle")
        if statistics == "fermionic" and k > d:
            raise ValueError(f"no {k}-fermion sector on {d} modes")
        if d**k > MAX_TENSOR_DIM:
            raise ValueError(f"tensor power dimension {d**k} too large")
        self.single_particle_dim = d
        self.statistics = statistics
        self.particles = k
        if statistics == "fermionic":
            self.labels = tuple(itertools.combinations(range(d), k))
        else:
            self.labels = tuple(itertools.combinations_with_replacement(range(d), k))
        column = {label: col for col, label in enumerate(self.labels)}
        E = np.zeros((d**k, len(self.labels)), dtype=complex)
        # product() enumerates words in row-major index order
        for idx, word in enumerate(itertools.product(range(d), repeat=k)):
            col = column.get(tuple(sorted(word)))
            if col is not None:
                E[idx, col] = _permutation_parity(word) if statistics == "fermionic" else 1.0
        self.embedding = E / np.linalg.norm(E, axis=0)
        self.embedding.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return (
            f"FockContext(d={self.single_particle_dim}, {self.statistics}, "
            f"k={self.particles}, dim={self.dim})"
        )


def _slot_apply(op: np.ndarray, T: np.ndarray, slot: int) -> np.ndarray:
    """``op`` applied to tensor slot ``slot`` of T, shaped (d,)*k + (columns,)."""
    return np.moveaxis(np.tensordot(op, T, axes=([1], [slot])), 0, slot)


def coproduct_embed(A, ctx: FockContext) -> np.ndarray:
    """One-particle operator summed over tensor slots, compressed to the sector.

    The map is a Lie-algebra homomorphism: commutators of one-particle
    operators go to commutators of their embeddings. Each slot's term acts
    on the sector basis directly, at O(k d^(k+1)) per basis vector.
    """
    d, k = ctx.single_particle_dim, ctx.particles
    A = as_square(A, ambient_dim=d, name="one-particle operator")
    E = ctx.embedding
    T = E.reshape((d,) * k + (ctx.dim,))
    total = sum(_slot_apply(A, T, slot) for slot in range(k))
    return E.conj().T @ total.reshape(E.shape)


def group_embed(U, ctx: FockContext) -> np.ndarray:
    """k-fold tensor power of a unitary, compressed to the sector.

    Multiplicative in the group: products map to products of embeddings.
    The power acts on the sector basis one slot at a time.
    """
    d, k = ctx.single_particle_dim, ctx.particles
    U = as_square(U, ambient_dim=d, name="unitary")
    defect = hs_norm(U.conj().T @ U - np.eye(d))
    if defect > UNITARY_TOL * np.sqrt(d):
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    E = ctx.embedding
    T = E.reshape((d,) * k + (ctx.dim,))
    for slot in range(k):
        T = _slot_apply(U, T, slot)
    return E.conj().T @ T.reshape(E.shape)


def f_basis_embedding() -> np.ndarray:
    """The cyclic two-fermion basis of C^3 as columns in C^3 x C^3.

    Column k is the unit wedge vector of the pair complementary to mode k,
    taken in cyclic order: (2,3), (3,1), (1,2) in 1-based mode labels. The
    columns are orthonormal and each has two-level reduced states, so every
    unit combination has one bit of one-side tensor entropy.
    """
    E = np.zeros((9, 3), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    E[1 * 3 + 2, 0], E[2 * 3 + 1, 0] = s, -s
    E[2 * 3 + 0, 1], E[0 * 3 + 2, 1] = s, -s
    E[0 * 3 + 1, 2], E[1 * 3 + 0, 2] = s, -s
    return E


@dataclass(frozen=True)
class StateFamily:
    """A parameterized family of states on a fixed ambient dimension."""

    names: tuple[str, ...]
    defaults: dict
    builder: Callable[[dict], AlgebraState]
    ambient_dim: int

    def state(self, values: dict | None = None, **kw) -> AlgebraState:
        merged = dict(self.defaults)
        for src in (values or {}), kw:
            for key, val in src.items():
                if key not in self.names:
                    raise ValueError(
                        f"unknown parameter {key!r}; family takes {list(self.names)}"
                    )
                merged[key] = float(val)
        return self.builder(merged)


def _matrix_unit(D: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((D, D), dtype=complex)
    m[i, j] = 1.0
    return m


def _ex1_qubit_algebra():
    span = full_matrix_algebra(2)

    def build(p: dict) -> AlgebraState:
        lam = p["lambda"]
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
        return AlgebraState(density=np.diag([lam, 1.0 - lam]).astype(complex))

    family = StateFamily(("lambda",), {"lambda": 0.5}, build, ambient_dim=2)
    return span, family


def _ex2_bell():
    gens = [np.kron(s, np.eye(2)) for s in PAULI]
    span = span_closure(gens, include_unit=True)
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)

    def build(_: dict) -> AlgebraState:
        return AlgebraState(vector=psi)

    family = StateFamily((), {}, build, ambient_dim=4)
    return span, family


def _ex3_family() -> StateFamily:
    def build(p: dict) -> AlgebraState:
        th = p["theta"]
        return AlgebraState(vector=np.array([np.cos(th), 0.0, np.sin(th)], dtype=complex))

    return StateFamily(("theta",), {"theta": np.pi / 4}, build, ambient_dim=3)


def _ex3_choice1():
    return full_matrix_algebra(3), _ex3_family()


def _ex3_choice2():
    gens = [_matrix_unit(3, i, j) for i in range(2) for j in range(2)]
    span = span_closure(gens, include_unit=True)
    return span, _ex3_family()


def _ex4_left():
    ladders = car_ladders(4)
    ad, a = ladders.creation, ladders.annihilation
    t1 = 0.5 * (ad[0] @ a[1] + ad[1] @ a[0])
    t2 = -0.5j * (ad[0] @ a[1] - ad[1] @ a[0])
    t3 = 0.5 * (ad[0] @ a[0] - ad[1] @ a[1])
    n12 = ad[0] @ a[0] @ ad[1] @ a[1]
    na = ad[0] @ a[0] + ad[1] @ a[1]
    V = ladders.sector_isometry(2)
    gens = [V.conj().T @ (op @ V) for op in (t1, t2, t3, n12, na)]
    span = span_closure(gens, include_unit=True)
    labels = ladders.sector_labels(2)
    up_down = labels.index((0, 3))
    down_up = labels.index((1, 2))

    def build(p: dict) -> AlgebraState:
        th = p["theta"]
        psi = np.zeros(len(labels), dtype=complex)
        psi[up_down] = np.cos(th)
        psi[down_up] = np.sin(th)
        return AlgebraState(vector=psi)

    family = StateFamily(("theta",), {"theta": np.pi / 4}, build, ambient_dim=6)
    return span, family


#: Index blocks of the two-boson C^3 sector that one-sided observables
#: preserve: a spin-1 triplet, a doublet, and the lone double occupation.
EX5_BLOCKS = ((0, 1, 3), (2, 4), (5,))


def _ex5_bosons():
    gens = [
        _matrix_unit(6, u, v)
        for block in EX5_BLOCKS
        for u in block
        for v in block
    ]
    span = span_closure(gens, include_unit=True)

    def build(p: dict) -> AlgebraState:
        th, ph = p["theta"], p["phi"]
        psi = np.zeros(6, dtype=complex)
        psi[1] = np.sin(th) * np.cos(ph)
        psi[2] = np.sin(th) * np.sin(ph)
        psi[5] = np.cos(th)
        return AlgebraState(vector=psi)

    family = StateFamily(
        ("theta", "phi"), {"theta": np.pi / 4, "phi": np.pi / 4}, build, ambient_dim=6
    )
    return span, family


_PRESETS = {
    "ex1_m2": _ex1_qubit_algebra,
    "ex2_bell": _ex2_bell,
    "ex3_choice1": _ex3_choice1,
    "ex3_choice2": _ex3_choice2,
    "ex4_left": _ex4_left,
    "ex5_bosons": _ex5_bosons,
}

PRESET_NAMES = tuple(_PRESETS)


def example_generators(preset: str) -> tuple[OperatorSpan, StateFamily]:
    """The named worked scenario: its subalgebra span and state family."""
    try:
        builder = _PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}; choose one of {', '.join(PRESET_NAMES)}"
        ) from None
    return builder()
