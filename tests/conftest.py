import gc
import random

import pytest

from ocasync.oca import Configuration, Oca, Transition, row_bits, validate, POS, ZERO


def random_total_oca(rng: random.Random, n_states: int = 3,
                     atoms: tuple[str, ...] = ("p", "q")) -> Oca:
    """A random automaton that always satisfies the totality invariant."""
    names = tuple(f"s{i}" for i in range(n_states))
    transitions = []
    for s in range(n_states):
        for _ in range(rng.randint(1, 2)):
            transitions.append(Transition(s, ZERO, rng.choice([0, 1]), rng.randrange(n_states)))
        for _ in range(rng.randint(1, 3)):
            transitions.append(Transition(s, POS, rng.choice([-1, 0, 1]), rng.randrange(n_states)))
    labels = []
    for s in range(n_states):
        labels.append(frozenset(a for a in atoms if rng.random() < 0.4))
    oca = Oca(names, frozenset(atoms), tuple(labels), tuple(transitions))
    assert validate(oca) == []
    return oca


def rows_of(configs, n_states: int) -> tuple[int, ...]:
    """A configuration set as row ints: bit v of row s is (s, v)."""
    rows = [0] * n_states
    for s, v in configs:
        rows[s] |= 1 << v
    return tuple(rows)


def rows_to_set(rows) -> frozenset[Configuration]:
    """The configurations of a row tuple."""
    return frozenset(
        Configuration(s, v) for s, row in enumerate(rows) for v in row_bits(row)
    )


def mask_of(nodes) -> int:
    """A node set as a bitmask: bit i is node i."""
    m = 0
    for i in nodes:
        m |= 1 << i
    return m


def nested(shape: str, depth: int) -> str:
    """A formula ``depth`` levels deep: nested parentheses or prefix
    operators, or a left-associated chain of ``depth`` binary operators."""
    if shape == "(":
        return "(" * depth + "p" + ")" * depth
    if shape in ("!", "EX "):
        return shape * depth + "p"
    return f" {shape} ".join(["p"] * (depth + 1))


NESTED_SHAPES = ["(", "!", "EX ", "UA", "&"]


def cyclic_garbage(fn) -> int:
    """Objects that ``fn()`` leaves for the cyclic collector: everything it
    made and dropped that reference counting could not free."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
