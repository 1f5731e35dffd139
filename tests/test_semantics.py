from __future__ import annotations

import random

import pytest

from semqa.semantics import (
    Activity,
    Linked,
    OperatorSet,
    Referent,
    SemanticsError,
    State,
    UNSPECIFIED,
    Wrapped,
    build_active_achievement,
    build_state,
    build_transfer,
    bundle,
    entity,
    map_referents,
    query,
    referent_matches,
    render,
    unify,
)

MARY = entity("r:mary", "proper", "female", "singular")
JEFF = entity("r:jeff", "proper", "male", "singular")
BILL = entity("r:bill", "proper", "male", "singular")
MILK = entity("r:milk", "definite", "singular")
KITCHEN = entity("r:kitchen", "definite", "singular")


def test_operator_defaults():
    ops = OperatorSet()
    assert (ops.tense, ops.voice, ops.polarity, ops.force, ops.person,
            ops.number) == ("present", "active", "positive", "statement", 3,
                            "singular")


def test_build_state_puts_location_first(lex):
    ls = build_state(lex, "p:be-in", KITCHEN, MARY)
    assert render(ls) == "be-in'(the kitchen,mary)"


def test_build_state_have(lex):
    assert render(build_state(lex, "p:have", BILL, MILK)) == "have'(bill,the milk)"


def test_build_state_where_query(lex):
    ls = build_state(lex, "p:be-LOC", query("where"), MARY)
    assert render(ls) == "be-LOC'(Where,mary)"


def test_build_state_rejects_referent_pred(lex):
    with pytest.raises(SemanticsError):
        build_state(lex, "r:kitchen", KITCHEN, MARY)


def test_active_achievement_canonical(lex):
    ls = build_active_achievement(lex, MARY, "p:go", KITCHEN)
    assert render(ls) == "do'(mary,[go'(mary)]) & INGR be-in'(the kitchen,mary)"


def test_active_achievement_bundle_in_both_halves(lex):
    both = bundle(MARY, JEFF)
    ls = build_active_achievement(lex, both, "p:journey", KITCHEN)
    assert render(ls) == ("do'(mary and jeff,[go'(mary and jeff)])"
                          " & INGR be-in'(the kitchen,mary and jeff)")


def test_active_achievement_surface_uses_on(lex):
    mat = entity("r:mat", "definite", "singular")
    ls = build_active_achievement(lex, MARY, "p:go", mat)
    assert "be-on'(the mat,mary)" in render(ls)


def test_transfer_give():
    ls = build_transfer(MARY, MILK, BILL, causative=True, direction="to")
    assert render(ls) == ("[do'(mary,0)] CAUSE [BECOME NOT have'(mary,the milk)"
                          " ∧ BECOME have'(bill,the milk)]")


def test_map_referents_returns_unchanged_terms_as_they_are(lex):
    give = build_transfer(MARY, MILK, BILL, causative=True, direction="to")
    motion = build_active_achievement(lex, MARY, "p:go", KITCHEN)
    for ls in (give, motion):
        assert map_referents(ls, lambda r: r) is ls
    # only the path down to a changed referent is rebuilt
    swapped = map_referents(give, lambda r: JEFF if r == BILL else r)
    assert render(swapped) == ("[do'(mary,0)] CAUSE [BECOME NOT have'(mary,the milk)"
                               " ∧ BECOME have'(jeff,the milk)]")
    assert swapped.left is give.left and swapped.right.left is give.right.left


def test_transfer_take():
    ls = build_transfer(BILL, MILK, MARY, causative=True, direction="from")
    assert render(ls) == ("[do'(bill,0)] CAUSE [BECOME have'(bill,the milk)"
                          " ∧ BECOME NOT have'(mary,the milk)]")


def test_transfer_pick_up_has_no_cause():
    ls = build_transfer(BILL, MILK, None, causative=False, direction="from")
    assert render(ls) == "BECOME have'(bill,the milk)"


def test_transfer_missing_object_rejected():
    with pytest.raises(SemanticsError):
        build_transfer(BILL, None, MARY, causative=True, direction="to")


def _have_leaves(ls):
    out = []

    def walk(term, neg=False):
        if isinstance(term, State) and term.pred == "p:have":
            out.append(not neg)
        elif isinstance(term, Wrapped):
            walk(term.inner, neg or term.op == "NOT")
        elif isinstance(term, Linked):
            walk(term.left, neg)
            walk(term.right, neg)

    walk(ls)
    return out


@pytest.mark.parametrize("direction", ["to", "from"])
def test_three_role_causative_has_one_positive_one_negative(direction):
    ls = build_transfer(BILL, MILK, MARY, causative=True, direction=direction)
    leaves = _have_leaves(ls)
    assert sorted(leaves) == [False, True]


@pytest.mark.parametrize("direction,positive", [("from", True), ("to", False)])
def test_two_role_polarity_matches_direction(direction, positive):
    ls = build_transfer(BILL, MILK, None, causative=False, direction=direction)
    assert _have_leaves(ls) == [positive]


def test_not_never_wraps_cause():
    cause = Linked(Activity(BILL, None), "CAUSE",
                   Wrapped("BECOME", State("p:have", BILL, MILK)))
    with pytest.raises(SemanticsError):
        Wrapped("NOT", cause)


def test_cause_left_must_be_activity():
    with pytest.raises(SemanticsError):
        Linked(State("p:have", BILL, MILK), "CAUSE",
               Wrapped("BECOME", State("p:have", BILL, MILK)))


def test_bundle_needs_two_entities():
    with pytest.raises(SemanticsError):
        Referent(kind="bundle", members=(MARY,))


def test_unspecified_carries_no_attributes():
    with pytest.raises(SemanticsError, match="unspecified referent carries no attributes"):
        Referent(kind="unspecified", attributes=frozenset({"definite"}))


def test_render_rejects_a_non_term():
    with pytest.raises(SemanticsError, match="cannot render"):
        render("have'(bill,the milk)")


def test_unspecified_renders_as_zero():
    assert render(UNSPECIFIED) == "0"
    assert render(State("p:be-on", entity("r:beach", "definite"), UNSPECIFIED)) \
        == "be-on'(the beach,0)"


def test_referent_matches():
    assert referent_matches(MARY, bundle(MARY, JEFF))
    assert not referent_matches(MARY, JEFF)
    assert referent_matches(query("who"), MARY)
    assert referent_matches(UNSPECIFIED, MARY)
    assert not referent_matches(bundle(MARY, JEFF), MARY)


def test_unify_where_query_binds_position(lex):
    q = State("p:be-LOC", query("where"), MARY)
    item = State("p:be-in", KITCHEN, MARY)
    result = unify(q, item, lex)
    assert result is not None
    assert render(result["where"]) == "be-in'(the kitchen,0)"


def test_unify_location_mismatch(lex):
    q = State("p:be-in", entity("r:playground", "definite"), entity("r:john", "proper"))
    item = State("p:be-in", entity("r:hallway", "definite"), entity("r:john", "proper"))
    assert unify(q, item, lex) is None


def test_unify_reflexive_on_ground_terms(lex):
    terms = [
        build_active_achievement(lex, MARY, "p:go", KITCHEN),
        build_transfer(MARY, MILK, BILL, True, "to"),
        State("p:be-in", KITCHEN, MARY),
        Activity(MARY, "p:eat-chew", entity("r:sandwich", "definite")),
    ]
    for t in terms:
        assert unify(t, t, lex) == {}


def test_unify_monotone_under_bundle_widening(lex):
    q = State("p:be-in", KITCHEN, MARY)
    item = State("p:be-in", KITCHEN, MARY)
    widened = State("p:be-in", KITCHEN, bundle(MARY, JEFF))
    assert unify(q, item, lex) is not None
    assert unify(q, widened, lex) is not None


def test_unify_descends_into_motion_result(lex):
    q = State("p:be-LOC", query("where"), MARY)
    item = build_active_achievement(lex, MARY, "p:journey", KITCHEN)
    assert unify(q, item, lex) is not None


def test_unify_does_not_cross_negation(lex):
    q = Wrapped("BECOME", State("p:have", query("who"), MILK))
    give = build_transfer(MARY, MILK, BILL, True, "to")
    result = unify(q, give, lex)
    assert result is not None
    assert result["who"].sense == "r:bill"   # the gain, never the NOT leaf


def test_unify_binding_consistency_blocks_take_as_give(lex):
    # "who gave the milk": the causer must also be the loser
    q = build_transfer(query("who"), MILK, None, causative=True, direction="to")
    take = build_transfer(BILL, MILK, MARY, causative=True, direction="from")
    give = build_transfer(MARY, MILK, BILL, causative=True, direction="to")
    assert unify(q, take, lex) is None
    result = unify(q, give, lex)
    assert result is not None and result["who"].sense == "r:mary"


def test_unify_conjunction_order_insensitive(lex):
    left = Wrapped("BECOME", State("p:have", BILL, MILK))
    right = Wrapped("BECOME", Wrapped("NOT", State("p:have", MARY, MILK)))
    assert unify(Linked(left, "conj", right), Linked(right, "conj", left), lex) \
        is not None


def test_entails_related_preds_unify(lex):
    q = Activity(MARY, "p:go")
    item = Activity(MARY, "p:journey")
    assert unify(q, item, lex) is not None


def test_random_ground_terms_unify_reflexively(lex):
    rng = random.Random(11)
    people = ["r:mary", "r:john", "r:bill"]
    things = ["r:milk", "r:apple"]
    places = ["r:kitchen", "r:garden"]
    for _ in range(100):
        a = entity(rng.choice(people), "proper")
        b = entity(rng.choice(things), "definite")
        c = entity(rng.choice(places), "definite")
        term = rng.choice([
            State("p:be-in", c, a),
            build_transfer(a, b, entity(rng.choice(people), "proper"), True, "to"),
            build_active_achievement(lex, a, "p:move", c),
            Wrapped("BECOME", State("p:have", a, b)),
        ])
        assert unify(term, term, lex) is not None
