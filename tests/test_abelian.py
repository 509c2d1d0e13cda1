from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from gradeddiv.abelian import (
    FinAbGroup,
    Subgroup,
    all_subgroups,
    index2_subgroups,
    is_direct_summand,
    squares,
    subgroup_presentation,
    torsion_p_part,
    two_torsion,
)
from gradeddiv.intutil import prime_divisors
from gradeddiv.jsonio import group_from_json

small_groups = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3).map(
    lambda orders: FinAbGroup(tuple(orders))
)


def test_element_order_examples():
    G = FinAbGroup((4, 2))
    assert G.element_order(G.identity()) == 1
    assert G.element_order((1, 0)) == 4
    # derived by repeated addition: (2,1)+(2,1) = (0,0)
    g = (2, 1)
    acc = g
    n = 1
    while acc != G.identity():
        acc = G.add(acc, g)
        n += 1
    assert n == 2
    assert G.element_order(g) == 2


@given(small_groups, st.data())
@settings(max_examples=60, deadline=None)
def test_lagrange(G, data):
    exps = tuple(data.draw(st.integers(0, n - 1)) for n in G.orders)
    assert G.order % G.element_order(exps) == 0


def test_torsion_parts_examples():
    Z6 = FinAbGroup((6,))
    assert list(torsion_p_part(Z6, 2).elements) == [(0,), (3,)]
    Z43 = FinAbGroup((4, 3))
    assert list(torsion_p_part(Z43, 3).elements) == [(0, 0), (0, 1), (0, 2)]
    assert torsion_p_part(FinAbGroup((2,)), 3).order == 1
    with pytest.raises(ValueError):
        torsion_p_part(Z6, 4)


@given(small_groups)
@settings(max_examples=40, deadline=None)
def test_torsion_partition_is_direct_product(G):
    parts = [torsion_p_part(G, p) for p in prime_divisors(G.order)] if G.order > 1 else []
    assert prod(s.order for s in parts) == G.order or G.order == 1
    # the multiplication map is a bijection
    seen = set()
    from itertools import product as iproduct

    for combo in iproduct(*(s.elements for s in parts)) if parts else [()]:
        total = G.identity()
        for g in combo:
            total = G.add(total, g)
        seen.add(total)
    assert len(seen) == G.order


def test_two_torsion_and_squares():
    Z4 = FinAbGroup((4,))
    assert list(two_torsion(Z4).elements) == [(0,), (2,)]
    assert list(squares(Z4).elements) == [(0,), (2,)]
    Z22 = FinAbGroup((2, 2))
    assert two_torsion(Z22).order == 4
    assert squares(Z22).order == 1
    Z82 = FinAbGroup((8, 2))
    assert two_torsion(Z82).order == 4
    assert squares(Z82).order == 4


def test_index2_subgroups():
    assert len(index2_subgroups(FinAbGroup((2,)))) == 1
    assert len(index2_subgroups(FinAbGroup((2, 2)))) == 3
    z4 = index2_subgroups(FinAbGroup((4,)))
    assert len(z4) == 1
    assert list(z4[0].elements) == [(0,), (2,)]
    assert index2_subgroups(FinAbGroup((3,))) == []
    for K in index2_subgroups(FinAbGroup((4, 2))):
        assert K.index() == 2


def test_is_direct_summand_examples():
    Z22 = FinAbGroup((2, 2))
    K = Subgroup.from_generators(Z22, [(1, 0)])
    assert is_direct_summand(K, (0, 1))
    Z4 = FinAbGroup((4,))
    K4 = Subgroup.from_generators(Z4, [(2,)])
    assert not is_direct_summand(K4, (1,))
    Z42 = FinAbGroup((4, 2))
    Ka = Subgroup.from_generators(Z42, [(1, 0)])
    assert is_direct_summand(Ka, (0, 1))
    Kb = Subgroup.from_generators(Z42, [(2, 0), (0, 1)])
    assert not is_direct_summand(Kb, (1, 0))


def test_is_direct_summand_choice_free():
    for G in (FinAbGroup((2, 2)), FinAbGroup((4,)), FinAbGroup((4, 2)), FinAbGroup((8, 2))):
        for K in index2_subgroups(G):
            kset = K.element_set()
            answers = {is_direct_summand(K, t) for t in G.elements() if t not in kset}
            assert len(answers) == 1


def test_subgroup_presentation_roundtrip():
    Z82 = FinAbGroup((8, 2))
    S = Subgroup.from_generators(Z82, [(2, 0), (0, 1)])
    pres = subgroup_presentation(S)
    assert sorted(pres.group.orders) == [2, 4]
    coords = pres.coords()
    assert set(coords) == S.element_set()
    for x in pres.group.elements():
        assert coords[pres.embed(x)] == x


def test_all_subgroups_counts():
    assert len(all_subgroups(FinAbGroup((2, 2)))) == 5
    assert len(all_subgroups(FinAbGroup((4,)))) == 3
    assert len(all_subgroups(FinAbGroup((2, 2, 2)))) == 16
    # elementary abelian of rank 4: 67 subgroups (Gaussian binomial sums)
    assert len(all_subgroups(FinAbGroup((2, 2, 2, 2)))) == 67


def test_doubling_saturation_small_groups():
    for G in (FinAbGroup((4, 2)), FinAbGroup((8, 2)), FinAbGroup((4, 4)), FinAbGroup((2, 2, 2))):
        sq = squares(G).element_set()
        preimage = {g for g in G.elements() if G.scale(2, g) in sq}
        for g in G.elements():
            assert (G.scale(2, g) in sq) == (g in preimage)
        # the doubling image of the preimage is exactly the square subgroup
        assert {G.scale(2, g) for g in preimage} == sq


def test_group_json_roundtrip():
    G = FinAbGroup((4, 2))
    assert group_from_json(G.to_json()) == G
