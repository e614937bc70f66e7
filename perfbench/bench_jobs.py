"""The job lists of the three benchmark workloads.

A job is one ``ocasync.cli.main(argv)`` call.  Its ``id`` names it the same
way in every checkout: seeded automata appear as ``seed<n>/r<i>`` rather than
by the file path they are written to.

Every list is fixed apart from the seeded random automata, which
``crosscheck-corpus`` and ``checker-supplied`` add on top of the built-in
corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from ocasync import corpus
from ocasync.formula import formula_atoms, parse_formula
from ocasync.oca import POS, ZERO, Oca, Transition, oca_to_text, validate

WORKLOADS = ("crosscheck-corpus", "checker-supplied", "path-schemes")
DEFAULT_SEED = 0

# The acceptance suite's cross-check formulas (AC2); together they use all
# nine operator kinds.
SUITE = (
    "true",
    "p",
    "!p",
    "p & q",
    "EX p",
    "E p U q",
    "E true U p",
    "A true U p",
    "FA p",
    "p UE q",
    "true UE p",
    "EX (FA p)",
    "FA (EX p)",
    "!(true UE p)",
    "A (EX p) U q",
)

# Seeded automata are cross-checked on the suite's formulas whose oracle cost
# stays in milliseconds on any small automaton.  On a random automaton the
# synchronized scans behind FA p or p UE q take from milliseconds to a minute,
# so one unlucky seed would swamp the pass and its tail; the corpus keeps them
# (random-b's p UE q carries most of crosscheck-corpus's cost).
SEEDED_CROSS_CHECK = ("p & q", "EX p", "E p U q", "A (EX p) U q", "true UE p", "!(true UE p)")

CROSS_CHECK_CAPS = "60,200"
CROSS_CHECK_INITS = range(13)
SEEDED_AUTOMATA = 3

SUPPLIED_PAIRS = (10, 40, 60)  # t = p; cost is not monotone in the pair
SEEDED_SUPPLIED_PAIRS = (10,)

LPS_FLAT, LPS_SIZE, LPS_START_COUNTER, LPS_TARGET_LENGTH = 5, 3, 3, 16
LPS_MAX_SCHEMES = 100_000  # far above any list these bounds produce
LEMMA11_COUNTERS = (40, 41, 42, 43)
NESTED_FORMULAS = (
    "EX (FA (EX p))",
    "E (FA p) U (FA (EX p))",
    "(EX p) UA (E true U p)",
    "A (p UA (EX p)) U (EX p)",
    "!(EX (FA p)) & (FA (EX p))",
    "p UA q",
    "(FA p) UA (FA (EX q))",
    "EX (p UE q)",  # the constant recursion has no UE case: exits 1
)


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    seeded: bool = False  # runs on an automaton drawn from the seed


@dataclass(frozen=True)
class Automaton:
    label: str  # corpus name or seed<n>/r<i>
    spec: str   # what --oca receives
    oca: Oca
    seeded: bool = False


def random_total_oca(rng: random.Random, n_states: int, atoms=("p", "q")) -> Oca:
    """A random automaton under the invariants of the test suite's generator:
    one or two zero-guarded and one to three positive-guarded transitions per
    state, no decrement under the zero guard, each atom labelling a state with
    probability 0.4."""
    names = tuple(f"s{i}" for i in range(n_states))
    transitions = []
    for s in range(n_states):
        for _ in range(rng.randint(1, 2)):
            transitions.append(Transition(s, ZERO, rng.choice([0, 1]), rng.randrange(n_states)))
        for _ in range(rng.randint(1, 3)):
            transitions.append(Transition(s, POS, rng.choice([-1, 0, 1]), rng.randrange(n_states)))
    labels = tuple(
        frozenset(a for a in atoms if rng.random() < 0.4) for _ in range(n_states)
    )
    oca = Oca(names, frozenset(atoms), labels, tuple(transitions))
    diags = validate(oca)
    if diags:
        raise RuntimeError(f"generated automaton is invalid: {diags}")
    return oca


def seeded_automata(seed: int, work_dir: Path) -> list[Automaton]:
    """Draw the seed's automata and write each to a file for ``--oca``."""
    rng = random.Random(seed)
    seed_dir = work_dir / f"seed{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for i in range(SEEDED_AUTOMATA):
        oca = random_total_oca(rng, rng.randint(1, 3))
        path = seed_dir / f"r{i}.oca"
        path.write_text(oca_to_text(oca))
        out.append(Automaton(f"seed{seed}/r{i}", str(path), oca, seeded=True))
    return out


def corpus_automata() -> list[Automaton]:
    return [Automaton(name, name, corpus.load(name)) for name in corpus.names()]


def _formulas(automaton: Automaton, texts) -> list[str]:
    return [text for text in texts if formula_atoms(parse_formula(text)) <= automaton.oca.atoms]


def _cross_check_jobs(automata, formulas=SUITE) -> list[Job]:
    jobs = []
    for a in automata:
        start = a.oca.state_names[0]
        inits = [arg for v in CROSS_CHECK_INITS for arg in ("--init", f"{start},{v}")]
        for text in _formulas(a, formulas):
            jobs.append(Job(
                f"cross-check {a.label} {text}",
                ("cross-check", "--oca", a.spec, "--formula", text,
                 "--mode", "empirical", "--caps", CROSS_CHECK_CAPS, *inits),
                a.seeded,
            ))
    return jobs


def _supplied_jobs(automata, pairs) -> list[Job]:
    """Alternate ``check`` and ``sat-sets``; every other check starts above
    the residue window, whose width is t + 2 + p."""
    jobs = []
    for t in pairs:
        mode = f"supplied:{t},{t}"
        for a in automata:
            start = a.oca.state_names[0]
            for i, text in enumerate(_formulas(a, SUITE)):
                if i % 2:
                    jobs.append(Job(
                        f"sat-sets {mode} {a.label} {text}",
                        ("sat-sets", "--oca", a.spec, "--formula", text, "--mode", mode),
                        a.seeded,
                    ))
                    continue
                counter = 0 if i % 4 == 0 else 2 * t + 5
                jobs.append(Job(
                    f"check {mode} {a.label} {text} @{counter}",
                    ("check", "--oca", a.spec, "--formula", text, "--mode", mode,
                     "--init", f"{start},{counter}"),
                    a.seeded,
                ))
    return jobs


def _paper_jobs(automata) -> list[Job]:
    """Paper-mode checks: exit 0, or 1 (UE, or a default bound on fewer than
    three states), or 2 (constants over the node budget)."""
    jobs = []
    for a in automata:
        start = a.oca.state_names[0]
        for text in _formulas(a, SUITE):
            jobs.append(Job(
                f"check paper {a.label} {text}",
                ("check", "--oca", a.spec, "--formula", text, "--mode", "paper",
                 "--init", f"{start},5"),
            ))
    return jobs


def _path_scheme_jobs(automata) -> list[Job]:
    jobs = []
    for a in automata:
        for src in a.oca.state_names:
            for dst in a.oca.state_names:
                jobs.append(Job(
                    f"lps {a.label} {src}->{dst}",
                    ("lps", "--oca", a.spec, "--src", src, "--dst", dst,
                     "--flat", str(LPS_FLAT), "--size", str(LPS_SIZE),
                     "--max-schemes", str(LPS_MAX_SCHEMES),
                     "--start", f"{src},{LPS_START_COUNTER}",
                     "--target-length", str(LPS_TARGET_LENGTH)),
                ))
    for a in automata:
        counters = [arg for v in LEMMA11_COUNTERS for arg in ("--counter", str(v))]
        jobs.append(Job(
            f"check-lemma11 {a.label}",
            ("check-lemma11", "--oca", a.spec, "--b", "1", *counters),
        ))
    for a in automata:
        for text in _formulas(a, NESTED_FORMULAS):
            for b in ("2", None):
                jobs.append(Job(
                    f"constants {a.label} {text} b={b}",
                    ("constants", "--oca", a.spec, "--formula", text)
                    + (("--b", b) if b else ()),
                ))
    return jobs


def build_jobs(workload: str, seed: int, work_dir: Path) -> list[Job]:
    """The workload's job list for one seed; writes seeded automata under
    ``work_dir``.

    The list is put in a fixed shuffled order, the same for every seed, so
    that cheap and costly jobs interleave and the per-job times sample the
    whole pass rather than one stretch of it.
    """
    fixed = corpus_automata()
    if workload == "crosscheck-corpus":
        jobs = (_cross_check_jobs(fixed)
                + _cross_check_jobs(seeded_automata(seed, work_dir), SEEDED_CROSS_CHECK))
    elif workload == "checker-supplied":
        jobs = (_supplied_jobs(fixed, SUPPLIED_PAIRS)
                + _paper_jobs(fixed)
                + _supplied_jobs(seeded_automata(seed, work_dir), SEEDED_SUPPLIED_PAIRS))
    elif workload == "path-schemes":
        jobs = _path_scheme_jobs(fixed)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    random.Random(f"order {workload}").shuffle(jobs)
    return jobs
