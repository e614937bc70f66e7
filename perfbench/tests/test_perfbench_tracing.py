"""The benchmark's tracer changes no output, leaves nothing wrapped, and
counts what a direct computation counts."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402  (perfbench/run.py)
from bench_jobs import Job  # noqa: E402
from bench_trace import Tracer  # noqa: E402

cli = bench._import_ocasync()

from ocasync import corpus  # noqa: E402
from ocasync.mc import check_ua_on_kripke, unfold_kripke  # noqa: E402

UA_JOB = ("check", "--oca", "random-b", "--formula", "FA p",
          "--mode", "supplied:10,10", "--init", "x,0")
SMALL_JOBS = [
    Job("cross-check", ("cross-check", "--oca", "fork", "--formula", "p UE q",
                        "--caps", "20,40", "--init", "s,0", "--init", "s,3")),
    Job("check", UA_JOB),
    Job("sat-sets", ("sat-sets", "--oca", "countdown", "--formula", "E true U p",
                     "--mode", "supplied:5,5")),
    Job("lps", ("lps", "--oca", "fork", "--src", "s", "--dst", "a", "--flat", "3",
                "--size", "1", "--start", "s,1", "--target-length", "4")),
    Job("check-lemma11", ("check-lemma11", "--oca", "countdown", "--b", "1")),
    Job("constants", ("constants", "--oca", "fork", "--formula", "EX (FA p)", "--b", "2")),
    Job("constants-ue", ("constants", "--oca", "fork", "--formula", "p UE q")),
]


def traced_pass(jobs):
    tracer = Tracer()
    with tracer.installed():
        outcomes = bench.run_pass(cli, jobs, tracer)
    return tracer, outcomes


def test_traced_pass_prints_the_same_bytes():
    plain = bench.run_pass(cli, SMALL_JOBS)
    tracer, traced = traced_pass(SMALL_JOBS)
    assert [(o.rc, o.digest) for o in traced] == [(o.rc, o.digest) for o in plain]
    assert [o.rc for o in plain] == [0, 0, 0, 0, 0, 0, 1]
    spans = set(tracer.names)
    for layer in ("cli", "oca.load", "formula.parse", "oracle.mine", "oracle.verdict",
                  "mc.check", "mc.unfold", "mc.ua", "mc.image", "upset.normalize",
                  "lps.enumerate", "lps.reach", "lps.witness", "oracle.audit",
                  "oca.level_sets", "periodicity.constants"):
        assert layer in spans, layer


def test_every_wrapper_is_removed_even_after_an_error():
    tracer = Tracer()
    points = tracer.patch_points()
    originals = [owner.__dict__[attr] for owner, attr in points]
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(owner.__dict__[attr] is not f
                       for (owner, attr), f in zip(points, originals))
            raise RuntimeError("abort the traced block")
    assert all(owner.__dict__[attr] is f for (owner, attr), f in zip(points, originals))


def test_ua_iterations_match_a_direct_computation():
    tracer, (outcome,) = traced_pass([Job("ua", UA_JOB)])
    assert outcome.rc == 0
    metrics = tracer.layer_metrics(outcome.output_bytes)

    oca = corpus.load("random-b")
    kripke = unfold_kripke(oca, 10 + 2, 10)  # the checker pads the threshold by 2
    step_cap = 4 * kripke.n * kripke.n + 64
    p = kripke.atom_mask("p")
    direct = [check_ua_on_kripke(kripke, node, kripke.full_mask, p, step_cap)
              for node in range(kripke.n)]
    assert metrics["mc.kripke_nodes"] == kripke.n
    assert metrics["mc.ua_calls"] == kripke.n
    assert metrics["mc.ua_iterations"] == sum(r.iterations for r in direct)
    assert metrics["mc.image_calls"] > 0


def test_only_outermost_verdicts_get_spans():
    inits = [arg for v in range(4) for arg in ("--init", f"s,{v}")]
    job = Job("x", ("cross-check", "--oca", "fork", "--formula", "FA (EX p)",
                    "--mode", "supplied:5,5", *inits))
    tracer, (outcome,) = traced_pass([job])
    assert outcome.rc == 0
    metrics = tracer.layer_metrics(outcome.output_bytes)
    assert metrics["oracle.evaluators"] == 1
    assert metrics["oracle.verdict_calls"] == 4  # one per init, none for the recursion
    assert metrics["oracle.sync_verdict_s"] == metrics["oracle.verdict_s"] > 0
