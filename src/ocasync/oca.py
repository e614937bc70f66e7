"""One-counter automata: guarded transitions, configurations, level exploration.

An automaton has a finite state set, a single non-negative counter, and
transitions guarded on whether the counter is zero (``=0``) or positive
(``>0``) with effects in {-1, 0, +1}.  Zero-guarded transitions may not
decrement.  The transition relation is required to be total: every state
needs at least one outgoing transition under each guard, so no configuration
deadlocks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import OcaSyntaxError, UnknownNameError

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


def successors(oca: Oca, c: Configuration) -> set[Configuration]:
    """All one-step successors of a configuration under the guard semantics."""
    if c.counter < 0:
        raise ValueError("negative counter is not a configuration")
    guard = ZERO if c.counter == 0 else POS
    return {Configuration(t.dst, c.counter + t.effect) for t in oca.outgoing(c.state, guard)}


@dataclass(frozen=True)
class OracleTrace:
    """Level-by-level reachability from an origin configuration.

    ``levels[k]`` holds every configuration reachable by a valid path of
    length exactly ``k``, except those whose counter exceeded ``counter_cap``;
    once anything is dropped the level (and all later ones) is flagged
    truncated, marking the set as a known under-approximation.
    """

    origin: Configuration
    levels: tuple[frozenset[Configuration], ...]
    counter_cap: int
    level_cap: int
    truncated: tuple[bool, ...]


def iter_levels(
    origin: Configuration,
    succ: Callable[[Configuration], Iterable[Configuration]],
    level_cap: int,
    counter_cap: int,
) -> Iterator[tuple[frozenset[Configuration], bool]]:
    """Lazy (level, truncated) pairs for levels 0..level_cap under the
    one-step relation ``succ``, dropping configurations above counter_cap
    as ``level_sets`` does; a scan that decides early never builds the
    deeper levels."""
    level = frozenset({origin}) if origin.counter <= counter_cap else frozenset()
    dropped = not level
    yield level, dropped
    for _ in range(level_cap):
        nxt: set[Configuration] = set()
        for c in level:
            nxt.update(succ(c))
        level = frozenset(c for c in nxt if c.counter <= counter_cap)
        dropped = dropped or len(level) != len(nxt)
        yield level, dropped


def level_sets(oca: Oca, origin: Configuration, level_cap: int, counter_cap: int) -> OracleTrace:
    """Explore levels 0..level_cap, dropping configurations above counter_cap."""
    if level_cap < 0 or counter_cap < 0:
        raise ValueError("caps must be non-negative")
    levels, trunc = zip(*iter_levels(
        origin, lambda c: successors(oca, c), level_cap, counter_cap
    ))
    return OracleTrace(origin, levels, counter_cap, level_cap, trunc)


def witness_path(
    oca: Oca, trace: OracleTrace, target: Configuration, level: int
) -> list[Transition] | None:
    """Reconstruct one path from the trace origin to ``target`` at ``level``
    by walking predecessors back through the levels; None if the target is
    not there.  Deterministic: the smallest predecessor wins."""
    if level >= len(trace.levels) or target not in trace.levels[level]:
        return None
    path: list[Transition] = []
    cur = target
    for lv in range(level, 0, -1):
        for cand in sorted(trace.levels[lv - 1]):
            guard = ZERO if cand.counter == 0 else POS
            hit = next(
                (t for t in oca.outgoing(cand.state, guard)
                 if t.dst == cur.state and cand.counter + t.effect == cur.counter),
                None,
            )
            if hit is not None:
                path.append(hit)
                cur = cand
                break
        else:
            return None
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
            for n in names:
                if n in state_names:
                    raise OcaSyntaxError(f"duplicate state {n!r}", lineno, 1)
                state_names.append(n)
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

    if not state_names:
        raise OcaSyntaxError("no states declared", 1, 1)
    index = {n: i for i, n in enumerate(state_names)}
    for name in list(labels) + [t[0] for t in transitions] + [t[3] for t in transitions]:
        if name not in index:
            raise OcaSyntaxError(f"undeclared state {name!r}", 1, 1)
    return Oca(
        state_names=tuple(state_names),
        atoms=frozenset(atoms),
        labels=tuple(frozenset(labels.get(n, ())) for n in state_names),
        transitions=tuple(
            Transition(index[s], g, e, index[d]) for (s, g, e, d) in transitions
        ),
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


def parse_oca_json(doc: dict) -> Oca:
    try:
        state_names = list(doc["states"])
        atoms = set(doc.get("atoms", []))
        index = {n: i for i, n in enumerate(state_names)}
        labels = [frozenset(doc.get("label", {}).get(n, ())) for n in state_names]
        transitions = [
            Transition(index[t["src"]], t["guard"], int(t["effect"]), index[t["dst"]])
            for t in doc["transitions"]
        ]
    except (KeyError, TypeError) as exc:
        raise OcaSyntaxError(f"malformed automaton JSON: {exc}") from exc
    return Oca(tuple(state_names), frozenset(atoms), tuple(labels), tuple(transitions))


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
        return parse_oca_json(json.loads(text))
    return parse_oca_text(text)


def parse_configuration(oca: Oca, text: str) -> Configuration:
    """Parse an initial configuration written as ``state,counter``."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise OcaSyntaxError(f"expected 'state,counter', got {text!r}")
    value = int(parts[1])
    if value < 0:
        raise OcaSyntaxError("counter must be non-negative")
    return Configuration(oca.state_index(parts[0]), value)
