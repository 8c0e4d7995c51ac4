"""The qubit-world model: states as subspace specifications, arrow by dimension.

A quantum atom declares a subspace dimension d and a qubit length L with
1 <= d <= 2^L.  Dimension is multiplicative and length additive over
pairing; an eidostate's dimension is the sum over its members.  The
arrow holds exactly when the initial dimension does not exceed the final
dimension.  There are no mechanical states, and records are the
dimension-one states.

Desk-scale matrix realizations make the criterion constructive: each
member state receives an explicit projector (orthogonal agent label
tensored with a seeded pseudo-random subspace projector), and a partial
isometry between two realized eidostates exists exactly when the
dimension criterion allows it.  Only the realization and isometry code
imports numpy, so the arrow, and every command that needs no
realization, runs without loading it.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from .exact import ExactEntropy
from .oracle import FactoredState, InformationState, ModelOracle, StateEquivalence
from .states import Atom, Eidostate, StateExpr, fold

if TYPE_CHECKING:
    import numpy as np

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


@dataclass
class ExplicitRealization:
    """Concrete projectors for every member of a realized eidostate."""

    eidostate: Eidostate
    total_qubits: int
    agent_dim: int
    dims: Dict[StateExpr, int]
    projectors: Dict[StateExpr, np.ndarray]
    member_vectors: Dict[StateExpr, np.ndarray]
    entangled_vector: Optional[np.ndarray] = None
    _total: np.ndarray = field(default=None, repr=False)

    @property
    def space_dim(self) -> int:
        return self.agent_dim * 2**self.total_qubits

    def projector(self, e: Eidostate) -> np.ndarray:
        """The summed projector of a sub-eidostate of the realized one."""
        import numpy as np

        if not e.issubset(self.eidostate):
            raise ValueError("eidostate is not covered by this realization")
        total = np.zeros((self.space_dim, self.space_dim), dtype=complex)
        for m in e:
            total += self.projectors[m]
        return total

    @property
    def total_projector(self) -> np.ndarray:
        if self._total is None:
            self._total = self.projector(self.eidostate)
        return self._total

    def mixture_residual(self) -> float:
        """Entrywise gap between the normalized total projector and the
        dimension-weighted mixture of member density operators."""
        import numpy as np

        d_total = sum(self.dims[m] for m in self.eidostate)
        mix = np.zeros_like(self.total_projector)
        for m in self.eidostate:
            weight = self.dims[m] / d_total
            mix += weight * self.projectors[m] / self.dims[m]
        return float(np.max(np.abs(self.total_projector / d_total - mix)))

    def self_check(self) -> Dict[str, float]:
        """Worst-case deviations from the declared projector invariants."""
        import numpy as np

        idem = 0.0
        ortho = 0.0
        trace = 0.0
        members = list(self.eidostate)
        for i, m in enumerate(members):
            p = self.projectors[m]
            idem = max(idem, float(np.max(np.abs(p @ p - p))))
            idem = max(idem, float(np.max(np.abs(p - p.conj().T))))
            trace = max(trace, abs(float(np.trace(p).real) - self.dims[m]))
            for other in members[i + 1 :]:
                q = self.projectors[other]
                ortho = max(ortho, float(np.max(np.abs(p @ q))))
        return {"idempotence": idem, "orthogonality": ortho, "trace": trace}


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
        return StateEquivalence(e=unit, x=unit, y=target, exact=True)

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
        overlap_demo: bool = True,
    ) -> ExplicitRealization:
        """Concrete orthogonal projectors for every member of e.

        Each member gets an orthogonal agent label tensored with a
        pseudo-random subspace projector of its declared dimension on
        the shared qubit register.  With ``overlap_demo`` the first two
        member subspaces are steered to contain reference vectors with
        overlap exactly 2^{-1/2}, and the entangled membership vector
        over those two members is attached.
        """
        import numpy as np

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
        rng = np.random.default_rng(seed)
        dims = {m: self.registry.dim(m) for m in members}

        anchors: Dict[StateExpr, Optional[np.ndarray]] = {m: None for m in members}
        if overlap_demo and len(members) >= 2 and qubit_dim >= 2:
            psi_a = np.zeros(qubit_dim, dtype=complex)
            psi_a[0] = 1.0
            psi_b = np.zeros(qubit_dim, dtype=complex)
            psi_b[0] = psi_b[1] = 1.0 / np.sqrt(2.0)
            anchors[members[0]] = psi_a
            anchors[members[1]] = psi_b

        projectors: Dict[StateExpr, np.ndarray] = {}
        vectors: Dict[StateExpr, np.ndarray] = {}
        for idx, m in enumerate(members):
            basis = _random_subspace(rng, qubit_dim, dims[m], anchors[m])
            pi = basis @ basis.conj().T
            agent = np.zeros((agent_dim, agent_dim), dtype=complex)
            agent[idx, idx] = 1.0
            projectors[m] = np.kron(agent, pi)
            agent_vec = np.zeros(agent_dim, dtype=complex)
            agent_vec[idx] = 1.0
            vectors[m] = np.kron(agent_vec, basis[:, 0])

        entangled = None
        if len(members) >= 2:
            entangled = (vectors[members[0]] + vectors[members[1]]) / np.sqrt(2.0)

        return ExplicitRealization(
            eidostate=e,
            total_qubits=n_qubits,
            agent_dim=agent_dim,
            dims=dims,
            projectors=projectors,
            member_vectors=vectors,
            entangled_vector=entangled,
        )

    def find_isometry(
        self, a: Eidostate, b: Eidostate, realization: ExplicitRealization
    ) -> Optional[np.ndarray]:
        """A partial isometry carrying the subspace of a into that of b.

        Returns None exactly when the dimension criterion forbids it.
        The construction maps an orthonormal basis of a's subspace onto
        part of an orthonormal basis of b's subspace.
        """
        d_a = self.registry.eidostate_dim(a)
        d_b = self.registry.eidostate_dim(b)
        if d_a > d_b:
            return None
        p_a = realization.projector(a)
        p_b = realization.projector(b)
        basis_a = _range_basis(p_a, d_a)
        basis_b = _range_basis(p_b, d_b)
        return basis_b[:, :d_a] @ basis_a.conj().T

    def isometry_residual(
        self, u: np.ndarray, a: Eidostate, b: Eidostate, realization: ExplicitRealization
    ) -> float:
        """Frobenius norm of the part of U P_a falling outside b's subspace."""
        import numpy as np

        p_a = realization.projector(a)
        p_b = realization.projector(b)
        eye = np.eye(p_b.shape[0], dtype=complex)
        return float(np.linalg.norm((eye - p_b) @ u @ p_a))


def _random_subspace(
    rng: np.random.Generator,
    space_dim: int,
    subspace_dim: int,
    anchor: Optional[np.ndarray],
) -> np.ndarray:
    """An orthonormal basis (columns) of a random subspace, containing the
    anchor vector as its first column when one is given."""
    import numpy as np

    if subspace_dim > space_dim:
        raise ValueError("subspace dimension exceeds the space")
    columns = []
    if anchor is not None:
        columns.append(anchor / np.linalg.norm(anchor))
    while len(columns) < subspace_dim:
        v = rng.normal(size=space_dim) + 1j * rng.normal(size=space_dim)
        for c in columns:
            v = v - c * (c.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            columns.append(v / norm)
    basis = np.column_stack(columns)
    # One re-orthonormalization pass keeps round-off comfortably below
    # the declared tolerances.
    q, _ = np.linalg.qr(basis)
    if anchor is not None:
        phase = q[:, 0].conj() @ columns[0]
        q[:, 0] = q[:, 0] * phase / abs(phase)
    return q


def _range_basis(projector: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis (columns) of a projector's range via eigenvectors."""
    import numpy as np

    eigenvalues, eigenvectors = np.linalg.eigh(projector)
    order = np.argsort(eigenvalues)[::-1]
    top = eigenvalues[order[:rank]]
    if np.any(np.abs(top - 1.0) > 1e-8):
        raise ArithmeticError(
            f"projector rank deficient: leading eigenvalues {top}"
        )
    return eigenvectors[:, order[:rank]]
