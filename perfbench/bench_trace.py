"""Per-layer tracing from outside the library.

``Tracer.installed()`` wraps the library functions that the CLI reaches,
each under the name its caller looks it up by (modules import by name, so
``oracle.successors`` and ``oca.successors`` are patched separately), and
puts every original back when the block ends.

A span records its name, start, end, parent span and job index, in flat
arrays kept in memory.  Counters are taken in the same wrappers.  A span's
self time is its duration minus the durations of its direct children; spans
nest strictly because the run is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path

from ocasync import cli, corpus, lps, mc, oca, oracle, periodicity, upset
from ocasync.formula import SYNC_KINDS, subformulas

ROOT_SPAN = "cli"

# (metric, unit) in reporting order; every name is produced by layer_metrics
LAYER_METRICS = (
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("oca.load_s", "s"), ("formula.parse_s", "s"),
    ("oca.successors_calls", "count"),
    ("oca.level_sets_s", "s"), ("oca.levels_explored", "count"),
    ("oracle.evaluators", "count"), ("oracle.region_configs", "count"),
    ("oracle.verdict_calls", "count"), ("oracle.verdict_s", "s"),
    ("oracle.sync_verdict_s", "s"),
    ("oracle.mine_calls", "count"), ("oracle.mine_s", "s"),
    ("oracle.mine_certified_ratio", "1"),
    ("oracle.definite_ratio", "1"), ("oracle.unknown_verdicts", "count"),
    ("oracle.audit_s", "s"), ("oracle.audit_cases", "count"),
    ("periodicity.constants_calls", "count"), ("periodicity.constants_s", "s"),
    ("mc.check_calls", "count"), ("mc.check_self_s", "s"),
    ("mc.unfold_s", "s"), ("mc.kripke_nodes", "count"), ("mc.kripke_nodes_max", "count"),
    ("mc.ua_calls", "count"), ("mc.ua_s", "s"), ("mc.ua_iterations", "count"),
    ("mc.ue_calls", "count"), ("mc.ue_s", "s"), ("mc.ue_iterations", "count"),
    ("mc.image_calls", "count"), ("mc.image_s", "s"),
    ("mc.preimage_calls", "count"), ("mc.preimage_s", "s"),
    ("upset.normalize_calls", "count"), ("upset.normalize_s", "s"),
    ("lps.schemes", "count"), ("lps.enumerate_s", "s"),
    ("lps.reach_calls", "count"), ("lps.reach_s", "s"), ("lps.reached_configs", "count"),
    ("lps.witness_calls", "count"), ("lps.witness_s", "s"),
    ("lps.witness_found_ratio", "1"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self.job_index = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._sync_formulas: dict[object, bool] = {}

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_index)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"count": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed_generator(self, name, counter, fn):
        """One span per ``next`` on the generator, so the consumer's work
        between items is not charged to it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                i = tracer.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                tracer.counters[counter] += 1
                yield item
        return wrapper

    def _outermost_verdict(self, fn):
        """Span only the outermost ``BoundedEvaluator.verdict`` call: for its
        duration the instance attribute shadows the wrapper, so the
        evaluator's recursion runs unwrapped."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(ev, f, c):
            sync = tracer._sync_formulas.get(f)
            if sync is None:
                sync = tracer._sync_formulas[f] = any(
                    g.kind in SYNC_KINDS for g in subformulas(f))
            ev.__dict__["verdict"] = fn.__get__(ev)
            i = tracer.open("oracle.sync_verdict" if sync else "oracle.verdict")
            try:
                v = fn(ev, f, c)
            finally:
                tracer.close(i)
                del ev.__dict__["verdict"]
            tracer.counters["oracle.unknown_verdicts" if not v.definite
                            else "oracle.definite_verdicts"] += 1
            return v
        return wrapper

    def _evaluator_init(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(ev, automaton, counter_cap, level_cap):
            fn(ev, automaton, counter_cap, level_cap)
            counters["oracle.evaluators"] += 1
            counters["oracle.region_configs"] += (counter_cap + 1) * automaton.n_states
        return wrapper

    def _patches(self):
        c = self.counters

        def add(key, amount):
            c[key] += amount

        def unfolded(k):
            add("mc.kripke_nodes", k.n)
            c["mc.kripke_nodes_max"] = max(c["mc.kripke_nodes_max"], k.n)

        constants = functools.partial(self._timed, "periodicity.constants")
        return [
            (cli, "loads", functools.partial(self._timed, "oca.load")),
            (corpus, "load", functools.partial(self._timed, "oca.load")),
            (cli, "parse_formula", functools.partial(self._timed, "formula.parse")),
            (oracle, "successors", functools.partial(self._counted, "oca.successors_calls")),
            (oca, "successors", functools.partial(self._counted, "oca.successors_calls")),
            (oracle, "level_sets", lambda fn: self._timed(
                "oca.level_sets", fn, lambda t: add("oca.levels_explored", len(t.levels)))),
            (oracle.BoundedEvaluator, "__init__", self._evaluator_init),
            (oracle.BoundedEvaluator, "verdict", self._outermost_verdict),
            (oracle, "mine_period", lambda fn: self._timed(
                "oracle.mine", fn,
                lambda r: add("oracle.mine_certified", r[0] is not None))),
            (oracle, "check_shift_periodicity", lambda fn: self._timed(
                "oracle.audit", fn, lambda r: add("oracle.audit_cases", len(r.cases)))),
            (periodicity, "ctl_constants", constants),
            (periodicity, "ua_constants", constants),
            (mc, "ctl_constants", constants),
            (mc, "ua_constants", constants),
            (mc, "check_oca", functools.partial(self._timed, "mc.check")),
            (mc, "unfold_kripke", lambda fn: self._timed("mc.unfold", fn, unfolded)),
            (mc, "check_ua_on_kripke", lambda fn: self._timed(
                "mc.ua", fn, lambda r: add("mc.ua_iterations", r.iterations))),
            (mc, "check_ue_on_kripke", lambda fn: self._timed(
                "mc.ue", fn, lambda r: add("mc.ue_iterations", r.iterations))),
            (mc.Kripke, "image", functools.partial(self._timed, "mc.image")),
            (mc.Kripke, "preimage", functools.partial(self._timed, "mc.preimage")),
            (upset, "normalize", functools.partial(self._timed, "upset.normalize")),
            (lps, "enumerate_lps", functools.partial(
                self._timed_generator, "lps.enumerate", "lps.schemes")),
            (lps, "shaped_reach", lambda fn: self._timed(
                "lps.reach", fn, lambda r: add("lps.reached_configs", len(r)))),
            (lps, "shaped_witness_exponents", lambda fn: self._timed(
                "lps.witness", fn, lambda r: add("lps.witness_found", r is not None))),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def patch_points(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._patches()]

    # -- results ------------------------------------------------------------

    def layer_metrics(self, output_bytes: int) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS``.  Times named ``self`` (and the
        verdict times) exclude traced children; the others are inclusive."""
        t = self.totals()
        c = self.counters

        def count(*names):
            return sum(t[n]["count"] for n in names if n in t)

        def total(*names):
            return sum(t[n]["total_s"] for n in names if n in t)

        def self_s(*names):
            return sum(t[n]["self_s"] for n in names if n in t)

        def ratio(num, den):
            return num / den if den else 0.0

        verdicts = count("oracle.verdict", "oracle.sync_verdict")
        mines = count("oracle.mine")
        witness = count("lps.witness")
        m = {
            "cli.self_s": self_s(ROOT_SPAN),
            "cli.output_bytes": output_bytes,
            "oca.load_s": total("oca.load"),
            "formula.parse_s": total("formula.parse"),
            "oca.successors_calls": c["oca.successors_calls"],
            "oca.level_sets_s": total("oca.level_sets"),
            "oca.levels_explored": c["oca.levels_explored"],
            "oracle.evaluators": c["oracle.evaluators"],
            "oracle.region_configs": c["oracle.region_configs"],
            "oracle.verdict_calls": verdicts,
            "oracle.verdict_s": self_s("oracle.verdict", "oracle.sync_verdict"),
            "oracle.sync_verdict_s": self_s("oracle.sync_verdict"),
            "oracle.mine_calls": mines,
            "oracle.mine_s": total("oracle.mine"),
            "oracle.mine_certified_ratio": ratio(c["oracle.mine_certified"], mines),
            "oracle.definite_ratio": ratio(c["oracle.definite_verdicts"], verdicts),
            "oracle.unknown_verdicts": c["oracle.unknown_verdicts"],
            "oracle.audit_s": total("oracle.audit"),
            "oracle.audit_cases": c["oracle.audit_cases"],
            "periodicity.constants_calls": count("periodicity.constants"),
            "periodicity.constants_s": total("periodicity.constants"),
            "mc.check_calls": count("mc.check"),
            "mc.check_self_s": self_s("mc.check"),
            "mc.unfold_s": total("mc.unfold"),
            "mc.kripke_nodes": c["mc.kripke_nodes"],
            "mc.kripke_nodes_max": c["mc.kripke_nodes_max"],
            "mc.ua_calls": count("mc.ua"),
            "mc.ua_s": total("mc.ua"),
            "mc.ua_iterations": c["mc.ua_iterations"],
            "mc.ue_calls": count("mc.ue"),
            "mc.ue_s": total("mc.ue"),
            "mc.ue_iterations": c["mc.ue_iterations"],
            "mc.image_calls": count("mc.image"),
            "mc.image_s": total("mc.image"),
            "mc.preimage_calls": count("mc.preimage"),
            "mc.preimage_s": total("mc.preimage"),
            "upset.normalize_calls": count("upset.normalize"),
            "upset.normalize_s": total("upset.normalize"),
            "lps.schemes": c["lps.schemes"],
            "lps.enumerate_s": total("lps.enumerate"),
            "lps.reach_calls": count("lps.reach"),
            "lps.reach_s": total("lps.reach"),
            "lps.reached_configs": c["lps.reached_configs"],
            "lps.witness_calls": witness,
            "lps.witness_s": total("lps.witness"),
            "lps.witness_found_ratio": ratio(c["lps.witness_found"], witness),
        }
        assert list(m) == [name for name, _ in LAYER_METRICS]
        return m

    def write(self, stem: Path, summary: dict) -> None:
        """Write the spans once: a JSON description and the raw columns."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = [("name_id", self.name_id), ("parent", self.parent), ("job", self.job),
                   ("start", self.start), ("end", self.end)]
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        doc = {
            "spans": len(self.start),
            "columns": [[name, col.typecode] for name, col in columns],
            "names": self.names,
            "counters": dict(sorted(self.counters.items())),
            "totals": self.totals(),
            **summary,
        }
        stem.with_suffix(".json").write_text(json.dumps(doc, indent=1, sort_keys=True))
