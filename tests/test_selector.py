import json
import random

import pytest

from elicit.backends import ScriptExhaustedError
from elicit.belief import BeliefState
from elicit.ontology import ALL_TRAITS, STRATEGY_ORDER, Strategy, TraitId, default_ontology
from elicit.selector import (
    HeuristicSelector,
    LlmSelector,
    QuestionConstraintError,
    SelectorError,
    SessionContext,
    TRAIT_TOKEN_RE,
    heuristic_question,
    question_violates,
)

from conftest import ScriptedBackend

SEL = HeuristicSelector(default_ontology())


def ctx_for(ontology, belief=None, topic_id=7):
    topic = next(s for s in ontology.dialogic_scenarios() if s.id == topic_id)
    return SessionContext(history=[], belief=belief or BeliefState(), topic=topic)


def with_confirmed(confirmed):
    return BeliefState(confirmed=frozenset(confirmed))


def state_with_entropies(noisy_traits):
    """Partially-evidenced traits, Beta(3, 4) after five turns, have higher
    entropy than pure-negative ones, Beta(1, 6)."""
    return BeliefState(positives=tuple(2 if t in noisy_traits else 0 for t in ALL_TRAITS), turns=5)


def test_think_fresh_priority(ontology):
    thought = SEL.think(ctx_for(ontology))
    assert list(thought.priority_traits) == [TraitId.F1, TraitId.F2, TraitId.F3, TraitId.F4]


def test_think_excludes_confirmed(ontology):
    ctx = ctx_for(ontology, belief=with_confirmed({TraitId.F1, TraitId.F2}))
    thought = SEL.think(ctx)
    assert TraitId.F1 not in thought.priority_traits
    assert TraitId.F2 not in thought.priority_traits
    assert list(thought.priority_traits) == [TraitId.F3, TraitId.F4, TraitId.F5, TraitId.F6]


def test_plan_head_f1_correction_inducing(ontology):
    ctx = ctx_for(ontology)
    thought = SEL.think(ctx)
    assert thought.priority_traits[0] == TraitId.F1
    assert SEL.plan(ctx, thought) == Strategy.CORRECTION_INDUCING


def test_plan_head_f3_hypothetical(ontology):
    ctx = ctx_for(ontology, belief=state_with_entropies({TraitId.F3}))
    thought = SEL.think(ctx)
    assert thought.priority_traits[0] == TraitId.F3
    assert SEL.plan(ctx, thought) == Strategy.HYPOTHETICAL


def test_plan_head_f2_open_ended(ontology):
    ctx = ctx_for(ontology, belief=state_with_entropies({TraitId.F2}))
    thought = SEL.think(ctx)
    assert thought.priority_traits[0] == TraitId.F2
    assert SEL.plan(ctx, thought) == Strategy.OPEN_ENDED


def test_entropy_shift_flips_strategy(ontology):
    # moving the priority head from F1 to F3 flips the planned strategy
    ctx_f1 = ctx_for(ontology, belief=state_with_entropies({TraitId.F1}))
    ctx_f3 = ctx_for(ontology, belief=state_with_entropies({TraitId.F3}))
    assert SEL.plan(ctx_f1, SEL.think(ctx_f1)) == Strategy.CORRECTION_INDUCING
    assert SEL.plan(ctx_f3, SEL.think(ctx_f3)) == Strategy.HYPOTHETICAL


def test_ask_emotion_topic(ontology):
    ctx = ctx_for(ontology, topic_id=7)  # Emotions
    thought = SEL.think(ctx)
    question = SEL.ask(ctx, thought, Strategy.EMOTION_ORIENTED)
    assert "feel" in question.lower()
    assert "F6" not in question
    assert "emotion-oriented" not in question.lower()


def test_ask_is_pure(ontology):
    ctx = ctx_for(ontology)
    thought = SEL.think(ctx)
    a = SEL.ask(ctx, thought, Strategy.MULTI_STEP)
    b = SEL.ask(ctx, thought, Strategy.MULTI_STEP)
    assert a == b


def test_fuzzed_questions_never_leak(ontology):
    rng = random.Random(8)
    topics = ontology.dialogic_scenarios()
    heads = list(ALL_TRAITS) + [None]
    display_names = [p.display_name.lower() for p in ontology.strategies.values()]
    for _ in range(10_000):
        topic = topics[rng.randrange(len(topics))]
        strategy = STRATEGY_ORDER[rng.randrange(6)]
        head = heads[rng.randrange(len(heads))]
        q = heuristic_question(topic, strategy, head)
        assert not TRAIT_TOKEN_RE.search(q)
        low = q.lower()
        assert ontology.strategies[strategy].display_name.lower() not in low


def test_question_violates_screen(ontology):
    assert question_violates("Do you ever think about F3 much?", Strategy.OPEN_ENDED, ontology)
    assert question_violates(
        "This is an open-ended question for you.", Strategy.OPEN_ENDED, ontology
    )
    assert not question_violates("How was your week?", Strategy.OPEN_ENDED, ontology)


# --- scripted generation backend --------------------------------------------


def llm_selector(client):
    return LlmSelector(client, default_ontology(), ask_temperature=0.7, prompt_dir=None)


def scripted_selector(completions):
    return llm_selector(ScriptedBackend(script=completions))


def test_llm_think_fields_from_payload_priority_from_engine(ontology):
    payload = {
        "confirmed_analysis": "nothing confirmed",
        "elicitation_conditions": "gentle topic",
        "strategy_rationale": "go broad",
        "priority_traits": ["F9", "F9", "F9", "F9"],  # adversarial: must be ignored
    }
    sel = scripted_selector([json.dumps(payload)])
    thought = sel.think(ctx_for(ontology))
    assert thought.confirmed_analysis == "nothing confirmed"
    assert thought.elicitation_conditions == "gentle topic"
    assert thought.strategy_rationale == "go broad"
    assert list(thought.priority_traits) == [TraitId.F1, TraitId.F2, TraitId.F3, TraitId.F4]


def test_llm_think_retries_then_errors(ontology):
    sel = scripted_selector(["not json at all", "still not json"])
    with pytest.raises(SelectorError):
        sel.think(ctx_for(ontology))


def test_llm_think_recovers_on_retry(ontology):
    good = json.dumps(
        {"confirmed_analysis": "a", "elicitation_conditions": "b", "strategy_rationale": "c"}
    )
    sel = scripted_selector(["garbage", good])
    thought = sel.think(ctx_for(ontology))
    assert thought.confirmed_analysis == "a"


def test_llm_plan_accepts_valid_strategy(ontology):
    sel = scripted_selector([json.dumps({"strategy": "hypothetical"})])
    ctx = ctx_for(ontology)
    thought = SEL.think(ctx)
    assert sel.plan(ctx, thought) == Strategy.HYPOTHETICAL


def test_llm_plan_rejects_foreign_strategy(ontology):
    sel = scripted_selector(
        [json.dumps({"strategy": "socratic"}), json.dumps({"strategy": "socratic"})]
    )
    ctx = ctx_for(ontology)
    thought = SEL.think(ctx)
    with pytest.raises(SelectorError):
        sel.plan(ctx, thought)


def test_llm_ask_rejects_trait_token_then_recovers(ontology):
    sel = scripted_selector(
        [json.dumps({"question": "Tell me about F3."}), json.dumps({"question": "Tell me more."})]
    )
    ctx = ctx_for(ontology)
    thought = SEL.think(ctx)
    assert sel.ask(ctx, thought, Strategy.OPEN_ENDED) == "Tell me more."


def test_llm_ask_errors_after_two_violations(ontology):
    sel = scripted_selector(
        [json.dumps({"question": "What about F3?"}), json.dumps({"question": "And F10 too?"})]
    )
    ctx = ctx_for(ontology)
    thought = SEL.think(ctx)
    with pytest.raises(QuestionConstraintError):
        sel.ask(ctx, thought, Strategy.OPEN_ENDED)


# a reply of the wrong JSON type is retried once, then fails with the step's typed error
_THOUGHT = {"confirmed_analysis": "a", "elicitation_conditions": "b", "strategy_rationale": "c"}


@pytest.mark.parametrize("field", list(_THOUGHT))
def test_llm_think_rejects_a_null_field_after_one_retry(ontology, field):
    client = ScriptedBackend(script=[json.dumps({**_THOUGHT, field: None})] * 2)
    with pytest.raises(SelectorError, match=field):
        llm_selector(client).think(ctx_for(ontology))
    assert len(client.requests) == 2


def test_llm_plan_rejects_a_number_for_the_strategy_after_one_retry(ontology):
    client = ScriptedBackend(script=[json.dumps({"strategy": 3})] * 2)
    ctx = ctx_for(ontology)
    with pytest.raises(SelectorError, match="strategy must be a str"):
        llm_selector(client).plan(ctx, SEL.think(ctx))
    assert len(client.requests) == 2


def test_llm_ask_rejects_a_null_question_after_one_retry(ontology):
    client = ScriptedBackend(script=[json.dumps({"question": None})] * 2)
    ctx = ctx_for(ontology)
    with pytest.raises(QuestionConstraintError, match="question must be a str"):
        llm_selector(client).ask(ctx, SEL.think(ctx), Strategy.OPEN_ENDED)
    assert len(client.requests) == 2


def test_scripted_queue_exhaustion(ontology):
    sel = scripted_selector([json.dumps({"strategy": "open_ended"})])
    ctx = ctx_for(ontology)
    thought = SEL.think(ctx)
    assert sel.plan(ctx, thought) == Strategy.OPEN_ENDED
    with pytest.raises(ScriptExhaustedError):
        sel.plan(ctx, thought)


def test_plan_falls_back_to_open_ended_when_nothing_matches(ontology):
    from elicit.selector import _plan_from_priority

    assert _plan_from_priority((), ontology) == Strategy.OPEN_ENDED
