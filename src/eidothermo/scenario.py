"""Scenario files: a line-oriented language for defining a model.

A scenario names a model family, its atoms, composite states, and
eidostates so that command-line runs can refer to everything by name:

    model macro
    atom r Q=0 S=0/1
    state rr = (r + r)
    eidostate Ib = { r, rr }

One directive per line; `#` starts a comment; spacing within a line is
free.  Macro atoms carry an integer content Q and a rational entropy
S=p/q with 0 <= p/q <= 1; quantum atoms carry a subspace dimension and
a qubit length with dim <= 2^len.  State expressions are built from
atom names with parenthesized sums, `(a + b)`, nested at most
`MAX_EXPR_NESTING` levels deep so that the recursive state algebra can
handle every state a scenario defines.  Eidostate members name
previously defined states or atoms.

Every diagnostic carries the offending line number.  Serialization
emits the same grammar, and reparsing the output reproduces the
scenario exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .macro import (
    LAMBDA_DENOMINATOR_CAP,
    AtomDef,
    MacroModel,
    MacroRegistry,
    RECORD_ATOM_ID,
)
from .oracle import ModelOracle
from .quantum import (
    UNIT_ATOM_LABEL,
    QAtomDef,
    QuantumModel,
    QuantumRegistry,
    _minimal_length,
)
from .states import Atom, Eidostate, Pair, StateExpr, singleton

__all__ = [
    "MAX_EXPR_NESTING",
    "Scenario",
    "ScenarioError",
    "member_names",
    "parse_scenario",
    "serialize_scenario",
    "write_state_expr",
]

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_MODEL_RE = re.compile(rf"^model\s+({_NAME})\s*$")
_MACRO_ATOM_RE = re.compile(
    rf"^atom\s+({_NAME})\s+Q\s*=\s*(-?\d+)\s+S\s*=\s*(-?\d+)\s*/\s*(-?\d+)\s*$"
)
_QUANTUM_ATOM_RE = re.compile(
    rf"^atom\s+({_NAME})\s+dim\s*=\s*(-?\d+)\s+len\s*=\s*(-?\d+)\s*$"
)
_STATE_RE = re.compile(rf"^state\s+({_NAME})\s*=\s*(.+)$")
_EIDOSTATE_RE = re.compile(rf"^eidostate\s+({_NAME})\s*=\s*\{{(.*)\}}\s*$")
_QUANTUM_RESERVED_RE = re.compile(r"^q(\d+)$")

#: Tokens of a state expression: names, parentheses, plus signs.
_EXPR_TOKEN_RE = re.compile(rf"\s*({_NAME}|[()+])")

#: Deepest parenthesis nesting a state expression may have.  Hashing,
#: ordering and evaluating a state recurse once per level, so much
#: deeper expressions would exhaust the interpreter's recursion limit.
MAX_EXPR_NESTING = 256


class ScenarioError(ValueError):
    """A scenario problem tied to the line that caused it."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


@dataclass(frozen=True, eq=True)
class Scenario:
    """A parsed scenario: model family, atoms, and named states.

    Equality is semantic: two scenarios are equal when they define the
    same model, the same atoms, and the same name-to-state maps,
    regardless of the order or spacing of the source lines.
    """

    model: str
    atom_defs: Tuple[Union[AtomDef, QAtomDef], ...]
    states: Dict[str, StateExpr] = field(default_factory=dict)
    eidostates: Dict[str, Eidostate] = field(default_factory=dict)

    def oracle(self) -> ModelOracle:
        """A fresh model populated with exactly this scenario's atoms."""
        if self.model == "macro":
            return MacroModel(MacroRegistry(self.atom_defs))
        return QuantumModel(QuantumRegistry(self.atom_defs))

    def atom_names(self) -> Tuple[str, ...]:
        if self.model == "macro":
            return tuple(a.atom_id for a in self.atom_defs)
        return tuple(a.label for a in self.atom_defs)

    def lookup_state(self, name: str) -> StateExpr:
        """The state expression a name denotes, trying states then atoms."""
        if name in self.states:
            return self.states[name]
        if name in self.atom_names():
            return Atom(name)
        raise KeyError(f"unknown state {name!r}")

    def lookup_eidostate(self, name: str) -> Eidostate:
        """The eidostate a name denotes; states and atoms act as singletons."""
        if name in self.eidostates:
            return self.eidostates[name]
        try:
            return singleton(self.lookup_state(name))
        except KeyError:
            raise KeyError(f"unknown eidostate {name!r}") from None


def write_state_expr(expr: StateExpr) -> str:
    """The grammar form of a state expression over atom names."""
    if isinstance(expr, Atom):
        return expr.atom_id
    return f"({write_state_expr(expr.left)} + {write_state_expr(expr.right)})"


class _ExprParser:
    """Recursive-descent parser for `name | ( expr + expr )`."""

    def __init__(self, text: str, line_number: int, atoms: Dict[str, object],
                 states: Dict[str, StateExpr]):
        self.tokens = self._tokenize(text, line_number)
        self.pos = 0
        self.line_number = line_number
        self.atoms = atoms
        self.states = states

    def _tokenize(self, text: str, line_number: int):
        tokens = []
        pos = 0
        while pos < len(text):
            m = _EXPR_TOKEN_RE.match(text, pos)
            if m is None:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ScenarioError(
                    line_number, f"unexpected character {rest[0]!r} in state expression"
                )
            tokens.append(m.group(1))
            pos = m.end()
        return tokens

    def _fail(self, reason: str):
        raise ScenarioError(self.line_number, reason)

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            self._fail("state expression ends unexpectedly")
        self.pos += 1
        return tok

    def parse(self) -> StateExpr:
        expr = self.expr(0)
        if self.peek() is not None:
            self._fail(f"trailing {self.peek()!r} after state expression")
        return expr

    def expr(self, nesting: int) -> StateExpr:
        tok = self.take()
        if tok == "(":
            if nesting == MAX_EXPR_NESTING:
                self._fail(
                    f"state expression nests deeper than {MAX_EXPR_NESTING} levels"
                )
            left = self.expr(nesting + 1)
            plus = self.take()
            if plus != "+":
                self._fail(f"expected '+' in state expression, found {plus!r}")
            right = self.expr(nesting + 1)
            close = self.take()
            if close != ")":
                self._fail(f"expected ')' in state expression, found {close!r}")
            return Pair(left, right)
        if tok in ("+", ")"):
            self._fail(f"expected an atom name or '(', found {tok!r}")
        if tok not in self.atoms:
            if tok in self.states:
                self._fail(
                    f"unknown atom {tok!r} (state names cannot appear "
                    "inside expressions)"
                )
            self._fail(f"unknown atom {tok!r}")
        return Atom(tok)


#: Names the macrostate model assigns on its own; scenarios may only
#: re-declare them with the canonical values.
_MACRO_RESERVED = {
    RECORD_ATOM_ID: (0, Fraction(0), "the record atom"),
    "s_0": (1, Fraction(0), "the mechanical unit atom"),
    "s_1": (1, Fraction(1), "the unit atom at entropy 1"),
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.model: Optional[str] = None
        self.atoms: Dict[str, Union[AtomDef, QAtomDef]] = {}
        self.states: Dict[str, StateExpr] = {}
        self.eidostates: Dict[str, Eidostate] = {}
        self.defined_at: Dict[str, int] = {}

    def run(self) -> Scenario:
        for number, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            self.dispatch(number, line)
        if self.model is None:
            raise ScenarioError(
                len(self.text.splitlines()) + 1, "scenario never declares a model"
            )
        return Scenario(
            model=self.model,
            atom_defs=tuple(self.atoms.values()),
            states=dict(self.states),
            eidostates=dict(self.eidostates),
        )

    def dispatch(self, number: int, line: str) -> None:
        keyword = line.split(None, 1)[0]
        if keyword == "model":
            self.parse_model(number, line)
            return
        if self.model is None:
            raise ScenarioError(
                number, f"'{keyword}' before the model declaration"
            )
        if keyword == "atom":
            self.parse_atom(number, line)
        elif keyword == "state":
            self.parse_state(number, line)
        elif keyword == "eidostate":
            self.parse_eidostate(number, line)
        else:
            raise ScenarioError(
                number,
                f"unknown directive {keyword!r} (expected model, atom, "
                "state, or eidostate)",
            )

    def claim_name(self, number: int, name: str) -> None:
        if name in self.defined_at:
            raise ScenarioError(
                number,
                f"duplicate name {name!r} (first defined on line "
                f"{self.defined_at[name]})",
            )
        self.defined_at[name] = number

    def parse_model(self, number: int, line: str) -> None:
        if self.model is not None:
            raise ScenarioError(number, "model declared twice")
        m = _MODEL_RE.match(line)
        if m is None or m.group(1) not in ("macro", "quantum"):
            raise ScenarioError(
                number, "model must be 'model macro' or 'model quantum'"
            )
        self.model = m.group(1)

    def parse_atom(self, number: int, line: str) -> None:
        if self.model == "macro":
            self.parse_macro_atom(number, line)
        else:
            self.parse_quantum_atom(number, line)

    def parse_macro_atom(self, number: int, line: str) -> None:
        m = _MACRO_ATOM_RE.match(line)
        if m is None:
            if _QUANTUM_ATOM_RE.match(line):
                raise ScenarioError(
                    number, "quantum atom syntax in a macro scenario"
                )
            raise ScenarioError(
                number, "macro atoms read: atom <name> Q=<int> S=<p>/<q>"
            )
        name, q_text, num_text, den_text = m.groups()
        self.claim_name(number, name)
        den = int(den_text)
        if den == 0:
            raise ScenarioError(number, f"atom {name!r}: S has denominator zero")
        s = Fraction(int(num_text), den)
        if s.denominator > LAMBDA_DENOMINATOR_CAP:
            raise ScenarioError(
                number,
                f"atom {name!r}: S denominator {s.denominator} exceeds "
                f"the cap {LAMBDA_DENOMINATOR_CAP}",
            )
        reserved = _MACRO_RESERVED.get(name)
        if reserved is not None and (int(q_text), s) != reserved[:2]:
            q_r, s_r, role = reserved
            raise ScenarioError(
                number,
                f"name {name!r} is reserved for {role} "
                f"(Q={q_r} S={s_r.numerator}/{s_r.denominator})",
            )
        try:
            atom = AtomDef(name, int(q_text), s)
        except ValueError as exc:
            raise ScenarioError(number, str(exc)) from None
        self.atoms[name] = atom

    def parse_quantum_atom(self, number: int, line: str) -> None:
        m = _QUANTUM_ATOM_RE.match(line)
        if m is None:
            if _MACRO_ATOM_RE.match(line):
                raise ScenarioError(
                    number, "macro atom syntax in a quantum scenario"
                )
            raise ScenarioError(
                number, "quantum atoms read: atom <name> dim=<int> len=<int>"
            )
        name, dim_text, len_text = m.groups()
        self.claim_name(number, name)
        try:
            atom = QAtomDef(name, int(dim_text), int(len_text))
        except ValueError as exc:
            raise ScenarioError(number, str(exc)) from None
        # Labels the model hands out itself (u, q2, q3, ...) may only be
        # re-declared with the canonical dimension and length, or later
        # on-demand registration would conflict.
        reserved_dim = None
        if name == UNIT_ATOM_LABEL:
            reserved_dim = 1
        else:
            m_reserved = _QUANTUM_RESERVED_RE.match(name)
            if m_reserved is not None and int(m_reserved.group(1)) >= 1:
                reserved_dim = int(m_reserved.group(1))
        if reserved_dim is not None:
            canonical = QAtomDef(name, reserved_dim, _minimal_length(reserved_dim))
            if atom != canonical:
                raise ScenarioError(
                    number,
                    f"name {name!r} is reserved for the atom with "
                    f"dim={canonical.dim} len={canonical.length}",
                )
        self.atoms[name] = atom

    def parse_state(self, number: int, line: str) -> None:
        m = _STATE_RE.match(line)
        if m is None:
            raise ScenarioError(number, "states read: state <name> = <expr>")
        name, expr_text = m.groups()
        self.claim_name(number, name)
        parser = _ExprParser(expr_text, number, self.atoms, self.states)
        self.states[name] = parser.parse()

    def parse_eidostate(self, number: int, line: str) -> None:
        m = _EIDOSTATE_RE.match(line)
        if m is None:
            raise ScenarioError(
                number, "eidostates read: eidostate <name> = { <name>, ... }"
            )
        name, body = m.groups()
        self.claim_name(number, name)
        member_names = [piece.strip() for piece in body.split(",")]
        if member_names == [""]:
            raise ScenarioError(number, f"eidostate {name!r} has no members")
        members = []
        seen: Dict[StateExpr, str] = {}
        for member in member_names:
            if not _NAME_RE.fullmatch(member):
                raise ScenarioError(
                    number, f"bad member {member!r} in eidostate {name!r}"
                )
            if member in self.states:
                expr = self.states[member]
            elif member in self.atoms:
                expr = Atom(member)
            else:
                raise ScenarioError(
                    number, f"unknown member {member!r} in eidostate {name!r}"
                )
            if expr in seen:
                raise ScenarioError(
                    number,
                    f"members {seen[expr]!r} and {member!r} of eidostate "
                    f"{name!r} denote the same state",
                )
            seen[expr] = member
            members.append(expr)
        self.eidostates[name] = Eidostate(members)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text, raising ScenarioError with line numbers."""
    return _Parser(text).run()


def member_names(scenario: Scenario, e: Eidostate) -> Tuple[str, ...]:
    """Scenario names for the members of e, in the eidostate's order."""
    # Atoms first so a state that merely aliases an atom serializes as
    # the atom; members always have names because the grammar only
    # admits named members.
    names: Dict[StateExpr, str] = {}
    for atom_name in scenario.atom_names():
        names.setdefault(Atom(atom_name), atom_name)
    for state_name, expr in scenario.states.items():
        names.setdefault(expr, state_name)
    try:
        return tuple(names[m] for m in e)
    except KeyError as exc:
        raise ValueError(
            f"eidostate member {exc.args[0]} has no scenario name"
        ) from None


def serialize_scenario(scenario: Scenario) -> str:
    """Scenario text in the input grammar; parsing it back is identity."""
    lines = [f"model {scenario.model}"]
    for atom in scenario.atom_defs:
        if scenario.model == "macro":
            lines.append(
                f"atom {atom.atom_id} Q={atom.q} "
                f"S={atom.s.numerator}/{atom.s.denominator}"
            )
        else:
            lines.append(f"atom {atom.label} dim={atom.dim} len={atom.length}")
    for name, expr in scenario.states.items():
        lines.append(f"state {name} = {write_state_expr(expr)}")
    for name, e in scenario.eidostates.items():
        members = ", ".join(member_names(scenario, e))
        lines.append(f"eidostate {name} = {{ {members} }}")
    return "\n".join(lines) + "\n"
