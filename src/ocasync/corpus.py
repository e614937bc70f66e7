"""Frozen example automata and the two hand-built separation trees.

The automata cover the behaviors the test-suite leans on: a deterministic
countdown, a counter fork, a fork whose branches satisfy goals at forever
offset depths (separating plain from synchronized until), a pure increment
loop, and two randomized-but-frozen three-state machines.  ``load`` parses a
fresh automaton per call, so callers cannot corrupt the templates.
"""

from __future__ import annotations

from .errors import UnknownNameError
from .mc import Kripke, KripkeBuilder
from .oca import Oca, parse_oca_text

COUNTDOWN = """\
# decrement to zero, then rest at an absorbing labeled state
states: s t
atoms: p
label t = {p}
s -[>0,-1]-> s
s -[=0,0]-> t
t -[>0,0]-> t
t -[=0,0]-> t
"""

FORK = """\
# one positive and one negative branch out of the start state
states: s a b
atoms: p q
label a = {p}
label b = {q}
s -[>0,+1]-> a
s -[>0,-1]-> b
s -[=0,0]-> s
a -[>0,0]-> a
a -[=0,0]-> a
b -[>0,0]-> b
b -[=0,0]-> b
"""

ASYM_FORK = """\
# two branches that keep satisfying p at depths offset by one, forever
states: f u g h
atoms: p
label g = {p}
label h = {p}
f -[>0,0]-> u
f -[=0,0]-> u
f -[>0,0]-> h
f -[=0,0]-> h
u -[>0,0]-> g
u -[=0,0]-> g
g -[>0,0]-> u
g -[=0,0]-> u
h -[>0,0]-> u
h -[=0,0]-> u
"""

INCREMENT_LOOP = """\
# counter grows forever; p is declared but labels nothing
states: s
atoms: p
s -[>0,+1]-> s
s -[=0,+1]-> s
"""

RANDOM_A = """\
# frozen sample (seed 11)
states: x y z
atoms: p q
label x = {p,q}
label y = {p}
label z = {p}
x -[=0,0]-> x
x -[=0,+1]-> y
x -[>0,-1]-> y
x -[>0,0]-> z
x -[>0,+1]-> x
y -[=0,0]-> x
y -[=0,0]-> z
y -[>0,0]-> z
y -[>0,+1]-> z
z -[=0,0]-> z
z -[>0,-1]-> x
"""

RANDOM_B = """\
# frozen sample (seed 23)
states: x y z
atoms: p q
label y = {p}
label z = {q}
x -[=0,0]-> x
x -[=0,+1]-> y
x -[>0,-1]-> z
x -[>0,+1]-> y
y -[=0,+1]-> y
y -[>0,-1]-> z
z -[=0,0]-> x
z -[=0,0]-> z
z -[>0,0]-> x
z -[>0,+1]-> z
"""

_CORPUS = {
    "countdown": COUNTDOWN,
    "fork": FORK,
    "asym-fork": ASYM_FORK,
    "increment-loop": INCREMENT_LOOP,
    "random-a": RANDOM_A,
    "random-b": RANDOM_B,
}


def names() -> list[str]:
    return sorted(_CORPUS)


def text(name: str) -> str:
    try:
        return _CORPUS[name]
    except KeyError:
        raise UnknownNameError(f"unknown corpus automaton {name!r}; have {names()}") from None


def load(name: str) -> Oca:
    return parse_oca_text(text(name))


def tree_synchronized() -> tuple[Kripke, int]:
    """Finite tree where every branch reaches ● at the same depth (3), and a
    white-until-stripes path exists.  Returns (structure, root)."""
    b = KripkeBuilder()
    b.node("r", "white")
    b.node("a1", "white")
    b.node("b1")
    b.node("a2", "stripes")
    b.node("a3")
    b.node("b2")
    b.node("k1", "black")
    b.node("w")
    for src, dst in [
        ("r", "a1"), ("r", "b1"),
        ("a1", "a2"), ("a1", "a3"), ("b1", "b2"),
        ("a2", "k1"), ("a3", "k1"), ("b2", "k1"),
        ("k1", "w"), ("w", "w"),
    ]:
        b.edge(src, dst)
    return b.build(), b["r"]


def tree_staggered() -> tuple[Kripke, int]:
    """Finite tree where every branch reaches ● but never at a shared depth,
    and the white witnesses to stripes-at-depth-6 sit on different branches
    per level (so plain until fails but the per-level variant succeeds).

    Returns (structure, root)."""
    b = KripkeBuilder()
    b.node("r", "white")
    for i in range(1, 6):
        b.node(f"a{i}", *(["white"] if i % 2 == 0 else []))
        b.node(f"b{i}", *(["white"] if i % 2 == 1 else []))
    b.node("b6")
    b.node("za", "black", "stripes")
    b.node("zb", "black")
    b.node("w")
    b.edge("r", "a1")
    b.edge("r", "b1")
    for i in range(1, 5):
        b.edge(f"a{i}", f"a{i+1}")
        b.edge(f"b{i}", f"b{i+1}")
    for i in (1, 3):
        b.edge(f"b{i}", f"a{i+1}")
    b.edge("a5", "za")
    b.edge("b5", "za")
    b.edge("b5", "b6")
    b.edge("b6", "zb")
    b.edge("za", "w")
    b.edge("zb", "w")
    b.edge("w", "w")
    return b.build(), b["r"]
