"""The qubit-world model: states as subspace specifications, arrow by dimension.

A quantum atom declares a subspace dimension d and a qubit length L with
1 <= d <= 2^L.  Dimension is multiplicative and length additive over
pairing; an eidostate's dimension is the sum over its members.  The
arrow holds exactly when the initial dimension does not exceed the final
dimension.  There are no mechanical states, and records are the
dimension-one states.

Desk-scale exact realizations make the criterion constructive: each
member state receives an orthonormal basis (an orthogonal agent label
tensored with the first columns of a seeded rational orthogonal matrix
on the qubit register), and a partial isometry between two realized
eidostates exists exactly when the dimension criterion allows it.
Entries are exact numbers in Q(sqrt 2), so every projector and isometry
identity holds with ``==``.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Dict, Iterable, Optional

from .exact import ExactEntropy
from .oracle import FactoredState, InformationState, ModelOracle, StateEquivalence
from .states import Atom, Eidostate, StateExpr, fold, singleton

UNIT_ATOM_LABEL = "u"

#: Realization caps: external qubits, agent labels, and total dimension.
DEFAULT_QUBIT_BUDGET = 3
MAX_AGENT_DIM = 8
MAX_TOTAL_DIM = 64


class RealizationBudgetError(ValueError):
    """A matrix realization was requested beyond the desk-scale caps."""


@dataclass(frozen=True)
class QAtomDef:
    """A named atom with subspace dimension and qubit length."""

    label: str
    dim: int
    length: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"atom {self.label!r}: dim must be positive")
        if self.length < 1:
            raise ValueError(f"atom {self.label!r}: length must be positive")
        if self.dim > 2**self.length:
            raise ValueError(
                f"atom {self.label!r}: dim {self.dim} exceeds 2^length = {2**self.length}"
            )


def _minimal_length(dim: int) -> int:
    return max(1, (dim - 1).bit_length())


class QuantumRegistry:
    """Atom table mapping labels to dimensions and lengths."""

    def __init__(self, atoms: Iterable[QAtomDef] = ()):  # noqa: D107
        self._atoms: Dict[str, QAtomDef] = {}
        self._dim_cache: Dict[StateExpr, int] = {}
        self._length_cache: Dict[StateExpr, int] = {}
        for a in atoms:
            self.register(a)

    def register(self, atom: QAtomDef) -> None:
        if atom.label in self._atoms:
            if self._atoms[atom.label] == atom:
                return
            raise ValueError(f"atom {atom.label!r} already registered differently")
        self._atoms[atom.label] = atom

    def get(self, label: str) -> QAtomDef:
        try:
            return self._atoms[label]
        except KeyError:
            raise KeyError(f"unregistered atom {label!r}") from None

    def atom_ids(self) -> tuple:
        return tuple(self._atoms)

    def ensure_dim(self, dim: int) -> Atom:
        """An atom of the exact given dimension, registering one if needed."""
        label = UNIT_ATOM_LABEL if dim == 1 else f"q{dim}"
        if label not in self._atoms:
            self.register(QAtomDef(label, dim, _minimal_length(dim)))
        return Atom(label)

    @classmethod
    def standard(cls, qubit_cap: int = DEFAULT_QUBIT_BUDGET) -> "QuantumRegistry":
        """The unit atom plus one atom of every dimension up to 2^qubit_cap."""
        reg = cls()
        for d in range(1, 2**qubit_cap + 1):
            reg.ensure_dim(d)
        return reg

    def dim(self, a: StateExpr) -> int:
        cached = self._dim_cache.get(a)
        if cached is None:
            cached = fold(a, self._dim_cache, lambda x: self.get(x.atom_id).dim, operator.mul)
        return cached

    def length(self, a: StateExpr) -> int:
        cached = self._length_cache.get(a)
        if cached is None:
            cached = fold(a, self._length_cache, lambda x: self.get(x.atom_id).length,
                          operator.add)
        return cached

    def eidostate_dim(self, e: Eidostate) -> int:
        return sum(self.dim(m) for m in e)


class Sqrt2Matrix:
    """An exact real matrix over Q(sqrt 2), stored by its nonzero entries.

    ``entries`` maps (row, column) to an integer pair (a, b) standing for
    (a + b*sqrt 2) / den.  The constructor cancels common factors and
    drops zeros, so equal matrices have equal fields and ``==`` is exact.
    """

    __slots__ = ("shape", "entries", "den")

    def __init__(self, shape: tuple, entries: dict, den: int = 1):
        entries = {ij: ab for ij, ab in entries.items() if ab != (0, 0)}
        g = gcd(den, *(x for ab in entries.values() for x in ab))
        self.shape = shape
        self.entries = {ij: (a // g, b // g) for ij, (a, b) in entries.items()}
        self.den = den // g

    def __eq__(self, other) -> bool:
        return (isinstance(other, Sqrt2Matrix) and self.shape == other.shape
                and self.den == other.den and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"Sqrt2Matrix({self.shape}, {self.entries}, {self.den})"

    def __matmul__(self, other: "Sqrt2Matrix") -> "Sqrt2Matrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        rows: Dict[int, list] = {}
        for (k, j), ab in other.entries.items():
            rows.setdefault(k, []).append((j, ab))
        out: dict = {}
        for (i, k), (a1, b1) in self.entries.items():
            for j, (a2, b2) in rows.get(k, ()):
                a, b = out.get((i, j), (0, 0))
                out[i, j] = (a + a1 * a2 + 2 * b1 * b2, b + a1 * b2 + b1 * a2)
        return Sqrt2Matrix((self.shape[0], other.shape[1]), out, self.den * other.den)

    def __add__(self, other: "Sqrt2Matrix") -> "Sqrt2Matrix":
        if self.shape != other.shape:
            raise ValueError(f"cannot add {self.shape} and {other.shape}")
        out = {ij: (a * other.den, b * other.den) for ij, (a, b) in self.entries.items()}
        for ij, (a, b) in other.entries.items():
            a0, b0 = out.get(ij, (0, 0))
            out[ij] = (a0 + a * self.den, b0 + b * self.den)
        return Sqrt2Matrix(self.shape, out, self.den * other.den)

    @property
    def T(self) -> "Sqrt2Matrix":
        return Sqrt2Matrix(self.shape[::-1],
                           {(j, i): ab for (i, j), ab in self.entries.items()}, self.den)

    def trace(self) -> tuple:
        """The trace p + q*sqrt 2 as the pair of Fractions (p, q)."""
        diagonal = [ab for (i, j), ab in self.entries.items() if i == j]
        return (Fraction(sum(a for a, _ in diagonal), self.den),
                Fraction(sum(b for _, b in diagonal), self.den))

    def columns(self, k: int) -> "Sqrt2Matrix":
        """The first k columns."""
        return Sqrt2Matrix((self.shape[0], k),
                           {(i, j): ab for (i, j), ab in self.entries.items() if j < k}, self.den)

    def shifted(self, row: int, col: int, shape: tuple) -> "Sqrt2Matrix":
        """This matrix as the block at (row, col) of a zero matrix of the given shape."""
        return Sqrt2Matrix(shape, {(i + row, j + col): ab
                                   for (i, j), ab in self.entries.items()}, self.den)


@dataclass
class ExplicitRealization:
    """Exact orthonormal bases for every member of a realized eidostate.

    ``bases[m]`` has 2^total_qubits rows and dims[m] orthonormal columns
    on the qubit register; member m carries the agent label of its
    position in ``eidostate.members``.
    """

    eidostate: Eidostate
    total_qubits: int
    agent_dim: int
    dims: Dict[StateExpr, int]
    bases: Dict[StateExpr, Sqrt2Matrix]
    entangled_vector: Optional[Sqrt2Matrix] = None

    @property
    def space_dim(self) -> int:
        return self.agent_dim * 2**self.total_qubits

    def basis(self, e: Eidostate) -> Sqrt2Matrix:
        """Orthonormal columns spanning a sub-eidostate's subspace of the
        whole space: each member's basis under its agent label, in order."""
        if not e.issubset(self.eidostate):
            raise ValueError("eidostate is not covered by this realization")
        shape = (self.space_dim, sum(self.dims[m] for m in e))
        qubit_dim = 2**self.total_qubits
        parts, col = [], 0
        for m in e:
            row = self.eidostate.members.index(m) * qubit_dim
            parts.append(self.bases[m].shifted(row, col, shape))
            col += self.dims[m]
        return reduce(operator.add, parts)

    def projector(self, e: Eidostate) -> Sqrt2Matrix:
        """The summed projector of a sub-eidostate of the realized one."""
        basis = self.basis(e)
        return basis @ basis.T


class QuantumModel(ModelOracle):
    """Oracle over a quantum registry."""

    name = "quantum"

    def __init__(self, registry: Optional[QuantumRegistry] = None):
        self.registry = registry if registry is not None else QuantumRegistry.standard()

    # -- relations ----------------------------------------------------

    def arrow_combined(self, parts_a: FactoredState, parts_b: FactoredState) -> bool:
        return self._product_dim(parts_a) <= self._product_dim(parts_b)

    def _product_dim(self, parts: FactoredState) -> int:
        total = 1
        seen = False
        for factor, mult in parts:
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            if mult:
                seen = True
                if isinstance(factor, InformationState):
                    # n records, each of dimension one.
                    dim = factor.n
                else:
                    dim = self.registry.eidostate_dim(factor)
                total *= dim ** mult
        if not seen:
            raise ValueError("empty product has no dimension")
        return total

    def is_uniform(self, e: Eidostate) -> bool:
        """Always: any two dimensions are ordered, so every pair is possible."""
        return True

    # -- state functions ----------------------------------------------

    def state_entropy(self, a: StateExpr) -> ExactEntropy:
        return ExactEntropy.log2_of_int(self.registry.dim(a))

    def components(self, a: StateExpr) -> tuple:
        return ()

    def is_record(self, a: StateExpr) -> bool:
        return self.registry.dim(a) == 1

    def is_mechanical(self, a: StateExpr) -> bool:
        return False

    def make_record(self) -> StateExpr:
        return self.registry.ensure_dim(1)

    def state_equivalence(self, e: Eidostate) -> StateEquivalence:
        unit = self.registry.ensure_dim(1)
        target = self.registry.ensure_dim(self.registry.eidostate_dim(e))
        return StateEquivalence(e=unit, x=unit, y=target)

    # -- generation ---------------------------------------------------

    def random_atom(self, rng: random.Random) -> StateExpr:
        if rng.random() < 0.25:
            return self.registry.ensure_dim(1)
        return self.registry.ensure_dim(rng.randint(1, 8))

    # -- realization --------------------------------------------------

    def realize(
        self,
        e: Eidostate,
        qubit_budget: int = DEFAULT_QUBIT_BUDGET,
        seed: int = 0,
    ) -> ExplicitRealization:
        """Exact orthonormal bases, hence projectors, for every member of e.

        Each member gets an orthogonal agent label tensored with the span
        of the first dim(m) columns of a seeded rational orthogonal matrix
        on the shared qubit register.  The first two member subspaces
        contain e0 and (e0 + e1)/sqrt 2, whose overlap is exactly 2^{-1/2},
        and the entangled membership vector over those two members is
        attached.
        """
        members = e.members
        agent_dim = len(members)
        if agent_dim > MAX_AGENT_DIM:
            raise RealizationBudgetError(
                f"{agent_dim} members exceed the agent cap of {MAX_AGENT_DIM}"
            )
        lengths = [self.registry.length(m) for m in members]
        n_qubits = max(lengths)
        if n_qubits > qubit_budget:
            raise RealizationBudgetError(
                f"member length {n_qubits} exceeds the qubit budget of {qubit_budget}"
            )
        qubit_dim = 2**n_qubits
        if agent_dim * qubit_dim > MAX_TOTAL_DIM:
            raise RealizationBudgetError(
                f"total dimension {agent_dim * qubit_dim} exceeds {MAX_TOTAL_DIM}"
            )
        rng = random.Random(seed)
        dims = {m: self.registry.dim(m) for m in members}
        anchored = agent_dim >= 2
        bases = {}
        for idx, m in enumerate(members):
            basis = _random_basis(rng, qubit_dim, dims[m], fix_e0=anchored and idx < 2)
            if anchored and idx == 1:
                # A 45-degree turn in the (e0, e1) plane carries e0 to (e0 + e1)/sqrt 2.
                turn = {(0, 0): (0, 1), (0, 1): (0, -1), (1, 0): (0, 1), (1, 1): (0, 1)}
                turn.update({(i, i): (2, 0) for i in range(2, qubit_dim)})
                basis = Sqrt2Matrix((qubit_dim, qubit_dim), turn, 2) @ basis
            bases[m] = basis
        real = ExplicitRealization(e, n_qubits, agent_dim, dims, bases)
        if anchored:
            first, second = (real.basis(singleton(m)).columns(1) for m in members[:2])
            real.entangled_vector = (first + second) @ Sqrt2Matrix((1, 1), {(0, 0): (0, 1)}, 2)
        return real

    def find_isometry(
        self, a: Eidostate, b: Eidostate, realization: ExplicitRealization
    ) -> Optional[Sqrt2Matrix]:
        """A partial isometry carrying the subspace of a into that of b.

        Returns None exactly when the dimension criterion forbids it.
        The construction maps the orthonormal basis of a's subspace onto
        the first dim(a) basis vectors of b's subspace.
        """
        d_a = self.registry.eidostate_dim(a)
        if d_a > self.registry.eidostate_dim(b):
            return None
        return realization.basis(b).columns(d_a) @ realization.basis(a).T


def _random_basis(rng: random.Random, n: int, d: int, fix_e0: bool) -> Sqrt2Matrix:
    """The first d columns of a seeded rational orthogonal n x n matrix:
    n reflections I - 2vv^T/(v^T v) in integer vectors v, applied one by
    one to A/den, which starts as the first d columns of the identity.
    The columns keep e0 first when every v has a zero first entry."""
    rows = [[int(i == j) for j in range(d)] for i in range(n)]
    den = 1
    for _ in range(n):
        v = [0] * fix_e0 + [rng.randint(-3, 3) for _ in range(fix_e0, n)]
        v[-1] = v[-1] or 1
        norm = sum(x * x for x in v)
        w = [sum(x * row[j] for x, row in zip(v, rows)) for j in range(d)]
        rows = [[norm * y - 2 * x * z for y, z in zip(row, w)] for x, row in zip(v, rows)]
        den *= norm
    return Sqrt2Matrix((n, d), {(i, j): (x, 0) for i, row in enumerate(rows)
                                for j, x in enumerate(row)}, den)
