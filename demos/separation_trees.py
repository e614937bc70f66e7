"""Walk through the two finite trees that separate the four until flavors.

Both trees force every branch to reach a black node, but only the first does
so at one shared depth.  The second tree has per-level white witnesses toward
a stripes node at depth 6 without any single all-white path, which is exactly
the gap between the plain and the per-level existential until.
"""

from ocasync import corpus
from ocasync.formula import Kind, parse_formula
from ocasync.mc import label_kripke


def main():
    for title, builder in [
        ("synchronized tree", corpus.tree_synchronized),
        ("staggered tree", corpus.tree_staggered),
    ]:
        kripke, root = builder()
        print(f"== {title} ({kripke.n} nodes, root {root})")
        for text in [
            "A true U black",
            "FA black",
            "E white U stripes",
            "white UE stripes",
        ]:
            f = parse_formula(text)
            sat, witness = label_kripke(kripke, f, root, 500)
            holds = bool(sat[f] >> root & 1)
            extra = ""
            if f.kind in (Kind.UA, Kind.UE) and holds:
                extra = f"  (shared bound k = {witness})"
            print(f"  {text:<22} -> {holds}{extra}")
        print()


if __name__ == "__main__":
    main()
