"""Mine thresholds and periods on the corpus, reduce to finite structures,
and cross-validate the verdicts against the brute-force oracle.

The point on display: per-state satisfaction of each formula is an
ultimately periodic set of counter values, so a finite unfolding decides the
infinite system once a valid threshold/period pair is known.
"""

from ocasync import corpus
from ocasync.errors import BudgetExceededError
from ocasync.formula import formula_atoms, parse_formula
from ocasync.mc import check_oca
from ocasync.oca import Configuration
from ocasync.oracle import BoundedEvaluator, cross_check, mine_period

FORMULAS = ["EX p", "E true U p", "A true U p", "FA p"]


def main():
    for name in ("countdown", "fork", "asym-fork", "random-b"):
        oca = corpus.load(name)
        print(f"== {name} ({oca.n_states} states)")
        ev = BoundedEvaluator(oca, 60, 200)
        for text in FORMULAS:
            f = parse_formula(text)
            if not formula_atoms(f) <= oca.atoms:
                continue
            mined = [
                mine_period(oca, f, s, 24, (60, 200), evaluator=ev)[0]
                for s in range(oca.n_states)
            ]
            pairs = ", ".join(
                f"{oca.state_names[s]}:{tuple(p) if p else '?'}"
                for s, p in enumerate(mined)
            )
            try:
                result = check_oca(oca, f, Configuration(0, 0), "empirical")
            except BudgetExceededError as exc:
                # no certified pair: the checker refuses rather than guess, and
                # cross_check reports the same refusal as CHECKER-UNKNOWN rows
                checker = f"checker refused: {exc}"
            else:
                sets = {s: u.to_json() for s, u in result.per_state.items()}
                checker = f"per-state sets: {sets}"
            report = cross_check(
                oca, f, [Configuration(0, v) for v in range(13)],
                "empirical", (60, 200), evaluator=ev,
            )
            print(f"  {text:<14} mined {pairs}")
            print(f"    {checker}")
            print(f"    vs oracle: {report.counts()}")
        print()


if __name__ == "__main__":
    main()
