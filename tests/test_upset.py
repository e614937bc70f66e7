import pytest
from hypothesis import given, strategies as st

from ocasync.upset import UpSet, normalize


def members(u, bound):
    return [v for v in range(bound + 1) if u.member(v)]


upsets = st.builds(
    lambda t, p, base, residues: UpSet(
        t, p,
        frozenset(v for v in base if v < t),
        frozenset(r for r in residues if r < p),
    ),
    st.integers(0, 6),
    st.integers(1, 6),
    st.frozensets(st.integers(0, 5), max_size=6),
    st.frozensets(st.integers(0, 5), max_size=6),
)


class TestNormalize:
    @given(upsets)
    def test_idempotent_and_extension_preserving(self, u):
        n1 = normalize(u)
        assert normalize(n1) == n1
        bound = u.threshold + 3 * u.period
        assert members(u, bound) == members(n1, bound)

    @given(upsets)
    def test_canonical_forms_identify_equal_sets(self, u):
        widened = UpSet(
            u.threshold,
            2 * u.period,
            u.base,
            frozenset(r for r in range(2 * u.period) if (r % u.period) in u.residues),
        )
        assert normalize(widened) == normalize(u)

    @given(upsets)
    def test_representation_is_periodic_from_threshold(self, u):
        n = normalize(u)
        for v in range(n.threshold, n.threshold + 3 * n.period):
            assert n.member(v) == n.member(v + n.period)


class TestValidation:
    def test_field_invariants_enforced(self):
        with pytest.raises(ValueError):
            UpSet(0, 0, frozenset(), frozenset())
        with pytest.raises(ValueError):
            UpSet(1, 1, frozenset({5}), frozenset())
        with pytest.raises(ValueError):
            UpSet(0, 2, frozenset(), frozenset({2}))
        with pytest.raises(ValueError, match="threshold must be non-negative"):
            UpSet(-1, 1, frozenset(), frozenset())
        with pytest.raises(ValueError, match="values are non-negative"):
            UpSet(0, 1, frozenset(), frozenset({0})).member(-1)

