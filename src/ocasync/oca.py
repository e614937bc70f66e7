"""One-counter automata: guarded transitions, configurations, level exploration.

An automaton has a finite state set, a single non-negative counter, and
transitions guarded on whether the counter is zero (``=0``) or positive
(``>0``) with effects in {-1, 0, +1}.  Zero-guarded transitions may not
decrement.  The transition relation is required to be total: every state
needs at least one outgoing transition under each guard, so no configuration
deadlocks.  Configuration sets are counter bitsets stepped forward and
backward (``step_rows``, ``pre_rows``), both pinned against ``successors``.
``steps_to`` measures distances in the control graph, the states and
transitions with guards ignored, which ``lps`` and ``oracle`` prune by.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterator, NamedTuple

from .errors import InputError, OcaSyntaxError, UnknownNameError

ZERO = "=0"
POS = ">0"


class Transition(NamedTuple):
    src: int
    guard: str
    effect: int
    dst: int


class Configuration(NamedTuple):
    state: int
    counter: int


@dataclass(frozen=True)
class Oca:
    """Immutable automaton; states are dense indices into ``state_names``."""

    state_names: tuple[str, ...]
    atoms: frozenset[str]
    labels: tuple[frozenset[str], ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        # dedupe and fix a canonical order; semantics are set-based
        object.__setattr__(self, "transitions", tuple(sorted(set(self.transitions))))

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def state_index(self, name: str) -> int:
        try:
            return self.state_names.index(name)
        except ValueError:
            raise UnknownNameError(f"unknown state {name!r}") from None

    @cached_property
    def _outgoing(self) -> dict[tuple[int, str], tuple[Transition, ...]]:
        table: dict[tuple[int, str], list[Transition]] = {}
        for t in self.transitions:
            table.setdefault((t.src, t.guard), []).append(t)
        return {k: tuple(v) for k, v in table.items()}

    def outgoing(self, state: int, guard: str) -> tuple[Transition, ...]:
        return self._outgoing.get((state, guard), ())

    @cached_property
    def row_steps(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per state, the destination states of its transitions grouped as
        (``=0`` effect 0, ``=0`` effect +1, ``>0`` effect -1, ``>0`` effect 0,
        ``>0`` effect +1): the table ``step_rows`` and ``pre_rows`` read."""
        slot = {(ZERO, 0): 0, (ZERO, 1): 1, (POS, -1): 2, (POS, 0): 3, (POS, 1): 4}
        table = [[[] for _ in slot] for _ in range(self.n_states)]
        for t in self.transitions:
            table[t.src][slot[t.guard, t.effect]].append(t.dst)
        return tuple(tuple(tuple(dsts) for dsts in groups) for groups in table)


def validate(oca: Oca) -> list[str]:
    """Return one diagnostic per violated automaton invariant (empty if valid)."""
    diags = []
    for t in oca.transitions:
        if not (0 <= t.src < oca.n_states and 0 <= t.dst < oca.n_states):
            diags.append(f"transition {t} references an out-of-range state index")
            continue
        if t.guard not in (ZERO, POS):
            diags.append(f"transition {t} has unknown guard {t.guard!r}")
        if t.effect not in (-1, 0, 1):
            diags.append(f"transition {t} has illegal effect {t.effect}")
        if t.guard == ZERO and t.effect == -1:
            diags.append(
                f"illegal decrement under zero guard at state "
                f"{oca.state_names[t.src]} (counter would go negative)"
            )
    for s in range(oca.n_states):
        if not oca.outgoing(s, ZERO):
            diags.append(f"missing {ZERO}-successor at state {oca.state_names[s]}")
        if not oca.outgoing(s, POS):
            diags.append(f"missing {POS}-successor at state {oca.state_names[s]}")
    for s, lab in enumerate(oca.labels):
        extra = lab - oca.atoms
        if extra:
            diags.append(
                f"state {oca.state_names[s]} labeled with undeclared atoms {sorted(extra)}"
            )
    return diags


def require_valid(oca: Oca) -> None:
    """Raise ``InputError`` naming every violated invariant, if any."""
    diags = validate(oca)
    if diags:
        raise InputError("invalid automaton: " + "; ".join(diags))


def steps_to(oca: Oca, targets: Container[int]) -> list[float]:
    """Each state's fewest transitions, under either guard, to a state in
    ``targets``, or ``math.inf`` if there is none: distances in the control
    graph, found one layer per round."""
    steps = [0 if s in targets else math.inf for s in range(oca.n_states)]
    for k in range(1, oca.n_states):
        for t in oca.transitions:
            if steps[t.dst] == k - 1 and steps[t.src] > k:
                steps[t.src] = k
    return steps


def successors(oca: Oca, c: Configuration) -> set[Configuration]:
    """All one-step successors of a configuration under the guard semantics."""
    if c.counter < 0:
        raise ValueError("negative counter is not a configuration")
    guard = ZERO if c.counter == 0 else POS
    return {Configuration(t.dst, c.counter + t.effect) for t in oca.outgoing(c.state, guard)}


# ---------------------------------------------------------------------------
# Configuration sets as counter bitsets
#
# A set of configurations is one tuple of ``n_states`` non-negative ints, its
# rows: bit v of row s means configuration (s, v).  A step either way is one
# mask-and-shift per transition: ``=0`` reads bit 0, ``>0`` clears it, and
# the effect shifts the row.

Rows = tuple[int, ...]


def row_bits(row: int) -> Iterator[int]:
    """The set bits of ``row`` (the counters of one state), lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def step_rows(oca: Oca, rows: Rows) -> list[int]:
    """The one-step successors of a row tuple, with no counter cap."""
    nxt = [0] * len(rows)
    for row, (zero_stay, zero_inc, dec, stay, inc) in zip(rows, oca.row_steps):
        if not row:
            continue
        if row & 1:
            for d in zero_stay:
                nxt[d] |= 1
            for d in zero_inc:
                nxt[d] |= 2
            row ^= 1
            if not row:
                continue
        for d in stay:
            nxt[d] |= row
        if dec:
            down = row >> 1
            for d in dec:
                nxt[d] |= down
        if inc:
            up = row << 1
            for d in inc:
                nxt[d] |= up
    return nxt


def pre_rows(oca: Oca, rows: Rows, mask: int) -> Rows:
    """The configurations under ``mask`` (the same bits in every row) with a
    successor in ``rows``; ``mask=-1`` admits every counter."""
    out = []
    for zero_stay, zero_inc, dec, stay, inc in oca.row_steps:
        zero = pos = 0
        for d in zero_stay:
            zero |= rows[d]
        for d in zero_inc:
            zero |= rows[d] >> 1
        for d in stay:
            pos |= rows[d]
        for d in dec:
            pos |= rows[d] << 1
        for d in inc:
            pos |= rows[d] >> 1
        out.append(((zero & 1) | (pos & -2)) & mask)
    return tuple(out)


def iter_level_rows(
    oca: Oca, origin: Configuration, level_cap: int, counter_cap: int
) -> Iterator[tuple[Rows, bool]]:
    """Lazy (rows, truncated) pairs for levels 0..level_cap from ``origin``.

    Bits above ``counter_cap`` are cleared, and the first clearing sets the
    sticky truncation flag, so every later level is a known
    under-approximation; a scan that decides early never builds the deeper
    levels.  No mask of ``counter_cap`` bits is built unless a row already
    reaches that width.
    """
    limit = counter_cap + 1
    level = [0] * oca.n_states
    dropped = origin.counter >= limit
    if not dropped:
        level[origin.state] = 1 << origin.counter
    rows = tuple(level)
    yield rows, dropped
    for _ in range(level_cap):
        level = step_rows(oca, rows)
        if max(level) >> limit:
            keep = (1 << limit) - 1
            level = [row & keep for row in level]
            dropped = True
        rows = tuple(level)
        yield rows, dropped


@dataclass(frozen=True)
class OracleTrace:
    """Level-by-level reachability from an origin configuration.

    ``levels[k]`` holds, as one row tuple (bit v of row s is configuration
    (s, v)), every configuration reachable by a valid path of length exactly
    ``k``, except those whose counter exceeded the counter cap;
    ``truncated[k]`` is set once anything has been dropped at level ``k`` or
    before, marking the level as a known under-approximation.
    """

    origin: Configuration
    levels: tuple[Rows, ...]
    truncated: tuple[bool, ...]


def level_sets(oca: Oca, origin: Configuration, level_cap: int, counter_cap: int) -> OracleTrace:
    """Explore levels 0..level_cap, dropping configurations above counter_cap."""
    if level_cap < 0 or counter_cap < 0:
        raise InputError("caps must be non-negative")
    levels, truncated = zip(*iter_level_rows(oca, origin, level_cap, counter_cap))
    return OracleTrace(origin, levels, truncated)


def _predecessor(
    oca: Oca, prev: Rows, cur: Configuration
) -> tuple[Configuration, Transition] | None:
    """The smallest configuration of ``prev`` (lowest state, then lowest
    counter) with a transition to ``cur``, and its first such transition."""
    w = cur.counter
    for s, row in enumerate(prev):
        for u in (w - 1, w, w + 1):
            if u < 0 or not (row >> u) & 1:
                continue
            guard = ZERO if u == 0 else POS
            for t in oca.outgoing(s, guard):
                if t.dst == cur.state and u + t.effect == w:
                    return Configuration(s, u), t
    return None


def witness_path(
    oca: Oca, trace: OracleTrace, target: Configuration, level: int
) -> list[Transition] | None:
    """Reconstruct one path from the trace origin to ``target`` at ``level``
    by walking predecessors back through the levels; None if the target is
    not there.  Deterministic: the smallest predecessor wins."""
    levels = trace.levels
    if level >= len(levels) or target.counter < 0 or not (
        levels[level][target.state] >> target.counter
    ) & 1:
        return None
    path: list[Transition] = []
    cur = target
    for lv in range(level, 0, -1):
        hit = _predecessor(oca, levels[lv - 1], cur)
        if hit is None:
            return None
        cur, t = hit
        path.append(t)
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# Text and JSON formats

_TRANS_RE = re.compile(
    r"^(?P<src>\w+)\s*-\[\s*(?P<guard>=0|>0)\s*,\s*(?P<eff>[+-]?[01])\s*\]->\s*(?P<dst>\w+)$"
)
_LABEL_RE = re.compile(r"^label\s+(?P<state>\w+)\s*=\s*\{(?P<atoms>[^}]*)\}$")


def parse_oca_text(text: str) -> Oca:
    """Parse the line-oriented automaton format.

    The format has a ``states:`` header, an ``atoms:`` header, ``label s = {p,q}``
    lines, and transition lines such as ``s -[=0,+1]-> t`` or ``s -[>0,-1]-> s``.
    ``#`` starts a comment.
    """
    state_names: list[str] = []
    atoms: set[str] = set()
    labels: dict[str, set[str]] = {}
    transitions: list[tuple[str, str, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("states:"):
            names = line[len("states:"):].replace(",", " ").split()
            if not names:
                raise OcaSyntaxError("empty states declaration", lineno, 1)
            state_names += names
            _index_states(state_names, lineno)
            continue
        if line.startswith("atoms:"):
            atoms.update(line[len("atoms:"):].replace(",", " ").split())
            continue
        m = _LABEL_RE.match(line)
        if m:
            props = {a.strip() for a in m.group("atoms").split(",") if a.strip()}
            labels.setdefault(m.group("state"), set()).update(props)
            continue
        m = _TRANS_RE.match(line)
        if m:
            transitions.append(
                (m.group("src"), m.group("guard"), int(m.group("eff")), m.group("dst"))
            )
            continue
        raise OcaSyntaxError(f"unrecognized line {line!r}", lineno, 1)

    return _named_oca(state_names, atoms, labels, transitions, 1)


def _index_states(names: list[str], lineno: int = 0) -> dict[str, int]:
    """Each state's index; a state declared twice is an ``OcaSyntaxError``
    at ``lineno``."""
    index: dict[str, int] = {}
    for name in names:
        if name in index:
            raise OcaSyntaxError(f"duplicate state {name!r}", lineno, 1)
        index[name] = len(index)
    return index


def _named_oca(names, atoms, labels, transitions, lineno: int = 0) -> Oca:
    """Both readers' automaton, from states, atoms, labels and (src, guard,
    effect, dst) transitions by state name; no states, a state declared twice,
    or one used but not declared is an ``OcaSyntaxError`` at ``lineno``."""
    if not names:
        raise OcaSyntaxError("no states declared", lineno, 1)
    index = _index_states(names, lineno)
    for name in [*labels, *(t[0] for t in transitions), *(t[3] for t in transitions)]:
        if name not in index:
            raise OcaSyntaxError(f"undeclared state {name!r}", lineno, 1)
    return Oca(
        tuple(names), frozenset(atoms),
        tuple(frozenset(labels.get(n, ())) for n in names),
        tuple(Transition(index[s], g, e, index[d]) for s, g, e, d in transitions),
    )


def oca_to_json(oca: Oca) -> dict:
    """JSON mirror of the text format."""
    return {
        "states": list(oca.state_names),
        "atoms": sorted(oca.atoms),
        "label": {n: sorted(oca.labels[i]) for i, n in enumerate(oca.state_names)},
        "transitions": [
            {"src": oca.state_names[t.src], "guard": t.guard, "effect": t.effect,
             "dst": oca.state_names[t.dst]}
            for t in oca.transitions
        ],
    }


def _strings(value: object, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TypeError(f"{what} must be a list of strings, got {json.dumps(value)}")
    return value


def parse_oca_json(doc: dict) -> Oca:
    """Parse the JSON mirror of the text format, with the same state checks."""
    try:
        state_names = _strings(doc["states"], "states")
        atoms = _strings(doc.get("atoms", []), "atoms")
        labels = {n: _strings(a, f"label of {n!r}") for n, a in doc.get("label", {}).items()}
        transitions = [
            (t["src"], t["guard"], t["effect"], t["dst"]) for t in doc["transitions"]
        ]
        for _, guard, effect, _ in transitions:
            if guard not in (ZERO, POS):
                raise ValueError(f"unknown guard {json.dumps(guard)}")
            if type(effect) is not int:
                raise TypeError(f"effect must be an integer, got {json.dumps(effect)}")
        return _named_oca(state_names, atoms, labels, transitions)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise OcaSyntaxError(f"malformed automaton JSON: {exc}") from exc


def oca_to_text(oca: Oca) -> str:
    lines = ["states: " + " ".join(oca.state_names), "atoms: " + " ".join(sorted(oca.atoms))]
    for i, n in enumerate(oca.state_names):
        if oca.labels[i]:
            lines.append(f"label {n} = {{{','.join(sorted(oca.labels[i]))}}}")
    for t in oca.transitions:
        eff = f"{t.effect:+d}" if t.effect else "0"
        lines.append(f"{oca.state_names[t.src]} -[{t.guard},{eff}]-> {oca.state_names[t.dst]}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> Oca:
    """Parse either format: JSON if the text looks like a JSON object."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        return parse_oca_json(doc)
    return parse_oca_text(text)


def parse_configuration(oca: Oca, text: str) -> Configuration:
    """Parse an initial configuration written as ``state,counter``."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise OcaSyntaxError(f"expected 'state,counter', got {text!r}")
    try:
        value = int(parts[1])
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if value < 0:
        raise OcaSyntaxError("counter must be non-negative")
    return Configuration(oca.state_index(parts[0]), value)
