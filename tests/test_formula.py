import pytest
from hypothesis import given, strategies as st

from ocasync.errors import FormulaSyntaxError
from ocasync.formula import (
    FALSE, MAX_DEPTH, TRUE, Formula, Kind, atom, au, eu, ex, formula_atoms, land, lnot,
    lor, parse_formula, pretty, subformulas, ua, ue,
)
from conftest import NESTED_SHAPES, nested


class TestParsing:
    def test_mixfix_all_until(self):
        assert parse_formula("A true U black") == au(TRUE, atom("black"))

    def test_synchronized_eventually_sugar(self):
        assert parse_formula("FA black") == ua(TRUE, atom("black"))

    def test_synchronized_exists_until(self):
        assert parse_formula("white UE stripes") == ue(atom("white"), atom("stripes"))

    def test_boolean_sugar(self):
        assert parse_formula("false") == lnot(TRUE)
        assert parse_formula("p | q") == lor(atom("p"), atom("q"))

    def test_f_and_g_sugar(self):
        p = atom("p")
        assert parse_formula("EF p") == eu(TRUE, p)
        assert parse_formula("AF p") == au(TRUE, p)
        assert parse_formula("EG p") == lnot(au(TRUE, lnot(p)))
        assert parse_formula("AG p") == lnot(eu(TRUE, lnot(p)))
        assert parse_formula("FE p") == ue(TRUE, p)
        assert parse_formula("GA p") == lnot(ue(TRUE, lnot(p)))
        assert parse_formula("GE p") == lnot(ua(TRUE, lnot(p)))

    def test_sync_binds_looser_than_boolean(self):
        assert parse_formula("p & q UA r") == ua(land(atom("p"), atom("q")), atom("r"))
        assert parse_formula("!p UA q") == ua(lnot(atom("p")), atom("q"))

    def test_sync_chain_left_associative(self):
        got = parse_formula("p UA q UE r")
        assert got == ue(ua(atom("p"), atom("q")), atom("r"))

    def test_parentheses_override(self):
        assert parse_formula("p & (q | r)") == land(
            atom("p"), lor(atom("q"), atom("r"))
        )

    def test_until_operand_extends_right(self):
        assert parse_formula("E p U q & r") == eu(atom("p"), land(atom("q"), atom("r")))

    def test_error_position_and_expectations(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("p &")
        assert exc.value.line == 1 and exc.value.column == 4
        assert exc.value.expected

    def test_error_on_missing_until_keyword(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("E p q")
        assert "U" in exc.value.expected

    def test_error_on_trailing_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p q")

    def test_trailing_whitespace_is_not_input(self):
        assert parse_formula("p UA q  ") == ua(atom("p"), atom("q"))

    def test_error_on_bad_character(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p @ q")


class TestDepthLimit:
    """Nesting past ``MAX_DEPTH`` is malformed input, reported at the token
    that goes one level too deep, not a ``RecursionError``."""

    @pytest.mark.parametrize("shape", NESTED_SHAPES)
    def test_limit_is_inclusive(self, shape):
        f = parse_formula(nested(shape, MAX_DEPTH))
        assert f.depth == (0 if shape == "(" else MAX_DEPTH)
        assert subformulas(f)[-1] == f
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(nested(shape, MAX_DEPTH + 1))
        assert exc.value.line == 1

    @pytest.mark.parametrize("text, column, message", [
        (nested("(", 200), 101, "more than 100 nested parentheses and prefix operators"),
        (nested("!", 5000), 101, "more than 100 nested parentheses and prefix operators"),
        (nested("EX ", 600), 301, "more than 100 nested parentheses and prefix operators"),
        (nested("UA", 300), 503, "formula more than 100 operators deep"),
        (nested("&", 1000), 403, "formula more than 100 operators deep"),
        ("!(" * 51 + "p" + ")" * 51, 101, "more than 100 nested parentheses and prefix operators"),
        (nested("|", 34), 135, "formula more than 100 operators deep"),
        # a prefix node is built after its operand, so the outermost EG,
        # at depth 102, is the first node too deep
        ("EG " * 34 + "p", 1, "formula more than 100 operators deep"),
    ], ids=["parens", "not", "EX", "UA", "and", "not-parens", "or", "EG"])
    def test_position_of_the_first_level_too_deep(self, text, column, message):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert (exc.value.line, exc.value.column, exc.value.message) == (1, column, message)

    def test_depth_counts_operators_down_to_a_leaf(self):
        assert atom("p").depth == TRUE.depth == 0
        assert parse_formula("p | q").depth == 3  # !(!p & !q)
        assert parse_formula("EG p").depth == 3  # !(A true U !p)
        assert parse_formula("(p & q) UA EX r").depth == 2


class TestStructure:
    def test_subformulas_children_before_parents(self):
        f = au(atom("p"), ua(TRUE, atom("q")))
        subs = subformulas(f)
        assert len(subs) == len(set(subs))
        for g in subs:
            for child in g.children:
                assert subs.index(child) < subs.index(g)
        assert subs[-1] == f

    def test_subformulas_deduplicate_shared_trees(self):
        p = atom("p")
        f = land(eu(p, p), eu(p, p))
        assert len(subformulas(f)) == 3  # p, EU(p,p), the conjunction

    def test_subformulas_of_a_deep_formula(self):
        f = parse_formula(nested("&", MAX_DEPTH))
        subs = subformulas(f)
        assert len(subs) == MAX_DEPTH + 1 and subs[0] == atom("p") and subs[-1] == f

    def test_formula_atoms(self):
        assert formula_atoms(parse_formula("p UA (q & !r)")) == {"p", "q", "r"}


def formulas(draw_atoms=("p", "q", "black")):
    leaves = st.sampled_from([TRUE] + [atom(a) for a in draw_atoms])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(lnot),
            kids.map(ex),
            st.tuples(kids, kids).map(lambda ab: land(*ab)),
            st.tuples(kids, kids).map(lambda ab: eu(*ab)),
            st.tuples(kids, kids).map(lambda ab: au(*ab)),
            st.tuples(kids, kids).map(lambda ab: ua(*ab)),
            st.tuples(kids, kids).map(lambda ab: ue(*ab)),
        ),
        max_leaves=12,
    )


class TestPrinting:
    @given(formulas())
    def test_round_trip(self, f):
        assert parse_formula(pretty(f)) == f

    def test_core_examples_print_readably(self):
        assert pretty(au(TRUE, atom("black"))) == "A true U black"
        assert pretty(ua(TRUE, atom("p"))) == "true UA p"
        assert pretty(FALSE) == "!true"
