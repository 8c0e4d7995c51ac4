"""Scenario grammar: parsing, diagnostics, and round-trip serialization."""

import re
from fractions import Fraction
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eidothermo.engine import entropy_uniform
from eidothermo.exact import ExactEntropy
from eidothermo.macro import AtomDef
from eidothermo.quantum import QAtomDef
from eidothermo.scenario import (
    Scenario,
    ScenarioError,
    member_names,
    parse_scenario,
    serialize_scenario,
)
from eidothermo.states import Atom, Pair, singleton

BIT_TEXT = """
model macro
atom r Q=0 S=0/1
state rr = (r + r)
eidostate Ib = { r, rr }
"""


def test_bit_state_example():
    sc = parse_scenario(BIT_TEXT)
    assert sc.model == "macro"
    assert sc.atom_names() == ("r",)
    assert sc.states["rr"] == Pair(Atom("r"), Atom("r"))
    assert len(sc.eidostates["Ib"]) == 2
    value = entropy_uniform(sc.eidostates["Ib"], sc.oracle())
    assert value == ExactEntropy.from_rational(1)


def test_unit_entropy_atom():
    sc = parse_scenario("model macro\natom sh Q=1 S=1/2\n")
    assert sc.atom_defs == (AtomDef("sh", 1, Fraction(1, 2)),)


def test_comments_and_spacing():
    sc = parse_scenario(
        "# leading comment\n"
        "model macro\n"
        "\n"
        "atom   x   Q = 2   S = 1 / 4   # trailing comment\n"
        "state y=(x+x)\n"
        "eidostate E={x,y}\n"
    )
    assert sc.atom_defs == (AtomDef("x", 2, Fraction(1, 4)),)
    assert sc.states["y"] == Pair(Atom("x"), Atom("x"))
    assert set(sc.eidostates["E"]) == {Atom("x"), Pair(Atom("x"), Atom("x"))}


def test_nested_expression():
    sc = parse_scenario(
        "model macro\natom a Q=0 S=0/1\nstate t = ((a + a) + (a + a))\n"
    )
    inner = Pair(Atom("a"), Atom("a"))
    assert sc.states["t"] == Pair(inner, inner)


def test_lookup_state_and_eidostate():
    sc = parse_scenario(BIT_TEXT)
    assert sc.lookup_state("r") == Atom("r")
    assert sc.lookup_state("rr") == Pair(Atom("r"), Atom("r"))
    assert sc.lookup_eidostate("rr") == singleton(Pair(Atom("r"), Atom("r")))
    assert len(sc.lookup_eidostate("Ib")) == 2
    with pytest.raises(KeyError):
        sc.lookup_state("nope")
    with pytest.raises(KeyError):
        sc.lookup_eidostate("nope")


def test_member_names_follow_eidostate_order():
    sc = parse_scenario(BIT_TEXT)
    e = sc.eidostates["Ib"]
    names = member_names(sc, e)
    assert set(names) == {"r", "rr"}
    assert [sc.lookup_state(n) for n in names] == list(e.members)


def test_quantum_scenario():
    sc = parse_scenario(
        "model quantum\natom a dim=3 len=2\natom b dim=8 len=3\n"
        "state ab = (a + b)\neidostate E = { a, ab }\n"
    )
    assert sc.model == "quantum"
    assert sc.atom_defs == (QAtomDef("a", 3, 2), QAtomDef("b", 8, 3))
    oracle = sc.oracle()
    assert oracle.state_entropy(Atom("a")) == ExactEntropy.log2_of_int(3)
    assert oracle.state_entropy(sc.states["ab"]) == ExactEntropy.log2_of_int(24)


# -- diagnostics -------------------------------------------------------


def _error(text: str) -> ScenarioError:
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    return info.value


def test_unknown_atom_in_expression():
    err = _error("model macro\natom r Q=0 S=0/1\nstate bad = (r + missing)\n")
    assert err.line_number == 3
    assert "missing" in err.reason


def test_state_name_inside_expression():
    err = _error(
        "model macro\natom r Q=0 S=0/1\nstate rr = (r + r)\n"
        "state deep = (rr + r)\n"
    )
    assert err.line_number == 4
    assert "state names" in err.reason


def test_unknown_eidostate_member():
    err = _error("model macro\natom r Q=0 S=0/1\neidostate E = { r, ghost }\n")
    assert err.line_number == 3
    assert "ghost" in err.reason


def test_duplicate_names():
    err = _error("model macro\natom r Q=0 S=0/1\natom r Q=0 S=0/1\n")
    assert err.line_number == 3
    assert "line 2" in err.reason
    err = _error("model macro\natom a Q=0 S=0/1\nstate a = (a + a)\n")
    assert err.line_number == 3
    assert "duplicate" in err.reason


def test_entropy_out_of_range():
    err = _error("model macro\natom hot Q=1 S=3/2\n")
    assert err.line_number == 2
    assert "[0, 1]" in err.reason


def test_denominator_cap():
    assert parse_scenario("model macro\natom f Q=1 S=1/65536\n")
    err = _error("model macro\natom f Q=1 S=1/65537\n")
    assert err.line_number == 2
    assert "cap" in err.reason


def test_zero_denominator():
    err = _error("model macro\natom f Q=1 S=1/0\n")
    assert err.line_number == 2
    assert "denominator zero" in err.reason


def test_negative_content():
    err = _error("model macro\natom f Q=-1 S=0/1\n")
    assert err.line_number == 2


def test_quantum_dimension_overflow():
    err = _error("model quantum\natom a dim=5 len=2\n")
    assert err.line_number == 2
    assert "2^length" in err.reason


def test_atom_syntax_from_wrong_model():
    err = _error("model macro\natom a dim=2 len=1\n")
    assert err.line_number == 2
    assert "quantum atom syntax" in err.reason
    err = _error("model quantum\natom a Q=1 S=0/1\n")
    assert err.line_number == 2
    assert "macro atom syntax" in err.reason


def test_float_entropy_rejected():
    err = _error("model macro\natom a Q=1 S=0.5\n")
    assert err.line_number == 2


def test_model_required_first():
    err = _error("atom a Q=1 S=0/1\nmodel macro\n")
    assert err.line_number == 1
    assert "before the model" in err.reason


def test_missing_model():
    err = _error("# nothing here\n")
    assert "never declares a model" in err.reason


def test_model_declared_twice():
    err = _error("model macro\nmodel macro\n")
    assert err.line_number == 2


def test_unknown_model():
    err = _error("model classical\n")
    assert err.line_number == 1


def test_unknown_directive():
    err = _error("model macro\nprocess p = a b\n")
    assert err.line_number == 2
    assert "process" in err.reason


def test_reserved_macro_names():
    assert parse_scenario("model macro\natom r Q=0 S=0/1\n")
    assert parse_scenario("model macro\natom s_0 Q=1 S=0/1\n")
    for line in ("atom r Q=1 S=0/1", "atom s_0 Q=0 S=0/1", "atom s_1 Q=1 S=0/1"):
        err = _error(f"model macro\n{line}\n")
        assert err.line_number == 2
        assert "reserved" in err.reason


def test_reserved_quantum_names():
    assert parse_scenario("model quantum\natom u dim=1 len=1\n")
    assert parse_scenario("model quantum\natom q4 dim=4 len=2\n")
    for line in ("atom u dim=2 len=1", "atom q3 dim=2 len=2", "atom q4 dim=4 len=3"):
        err = _error(f"model quantum\n{line}\n")
        assert err.line_number == 2
        assert "reserved" in err.reason


def test_members_with_equal_denotation():
    err = _error(
        "model macro\natom r Q=0 S=0/1\nstate x = r\neidostate E = { x, r }\n"
    )
    assert err.line_number == 4
    assert "same state" in err.reason


def test_empty_eidostate():
    err = _error("model macro\natom r Q=0 S=0/1\neidostate E = { }\n")
    assert err.line_number == 3
    assert "no members" in err.reason


def test_malformed_lines():
    for line, fragment in (
        ("state y = (r + r) junk", "trailing"),
        ("state y = (r +", "unexpectedly"),
        ("state y = (r * r)", "unexpected character"),
        ("state y = ()", "expected an atom name"),
        ("eidostate E = r, rr", "eidostates read"),
        ("eidostate E = { (r) }", "bad member"),
        ("atom", "macro atoms read"),
    ):
        err = _error(f"model macro\natom r Q=0 S=0/1\n{line}\n")
        assert err.line_number == 3, line
        assert fragment in err.reason, line


# -- round trip --------------------------------------------------------


def test_szilard_file_round_trips():
    text = files("eidothermo").joinpath("scenarios", "szilard.txt").read_text()
    sc = parse_scenario(text)
    assert sc.model == "macro"
    assert len(sc.atom_defs) == 6
    assert len(sc.eidostates["Ib"]) == 2
    again = parse_scenario(serialize_scenario(sc))
    assert again == sc


def test_serialize_writes_explicit_fractions():
    sc = parse_scenario("model macro\natom a Q=1 S=0/1\natom b Q=1 S=1/1\n")
    out = serialize_scenario(sc)
    assert "S=0/1" in out and "S=1/1" in out


def test_alias_state_serializes_as_atom_member():
    text = "model macro\natom r Q=0 S=0/1\nstate x = r\neidostate E = { x }\n"
    sc = parse_scenario(text)
    out = serialize_scenario(sc)
    assert "eidostate E = { r }" in out
    assert parse_scenario(out) == sc


_RESERVED_MACRO = {"r", "s_0", "s_1"}
_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in _RESERVED_MACRO and s != "u" and not re.fullmatch(r"q\d+", s)
)


@st.composite
def _macro_scenarios(draw) -> str:
    names = draw(st.lists(_NAMES, min_size=2, max_size=8, unique=True))
    atom_count = draw(st.integers(1, max(1, len(names) - 1)))
    atom_names, free = names[:atom_count], names[atom_count:]
    lines = ["model macro"]
    for name in atom_names:
        q = draw(st.integers(0, 3))
        den = draw(st.sampled_from([1, 2, 3, 8, 64, 65536]))
        num = draw(st.integers(0, den))
        lines.append(f"atom {name} Q={q} S={num}/{den}")

    def expr(depth: int) -> str:
        if depth <= 0 or draw(st.booleans()):
            return draw(st.sampled_from(atom_names))
        return f"({expr(depth - 1)} + {expr(depth - 1)})"

    state_names = []
    for name in free:
        if draw(st.booleans()) and state_names:
            pool = atom_names + state_names
            members = draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
            )
            lines.append(f"eidostate {name} = {{ {', '.join(members)} }}")
        else:
            lines.append(f"state {name} = {expr(2)}")
            state_names.append(name)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_macro_scenarios())
def test_random_macro_round_trip(text):
    try:
        sc = parse_scenario(text)
    except ScenarioError as err:
        # Distinct member names may still denote one state; nothing
        # else in the generator can go wrong.
        assert "same state" in err.reason
        return
    out = serialize_scenario(sc)
    assert parse_scenario(out) == sc
    assert serialize_scenario(parse_scenario(out)) == out


@st.composite
def _quantum_scenarios(draw) -> str:
    names = draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True))
    lines = ["model quantum"]
    atom_names = []
    for name in names:
        length = draw(st.integers(1, 3))
        dim = draw(st.integers(1, 2**length))
        lines.append(f"atom {name} dim={dim} len={length}")
        atom_names.append(name)
    if draw(st.booleans()):
        members = draw(
            st.lists(st.sampled_from(atom_names), min_size=1, max_size=3, unique=True)
        )
        lines.append(f"eidostate E = {{ {', '.join(members)} }}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_quantum_scenarios())
def test_random_quantum_round_trip(text):
    sc = parse_scenario(text)
    out = serialize_scenario(sc)
    assert parse_scenario(out) == sc


def test_write_state_expr_matches_grammar():
    expr = Pair(Pair(Atom("a"), Atom("b")), Atom("c"))
    assert str(expr) == "((a + b) + c)"
