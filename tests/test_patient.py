import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit.bank import PatientProfile, THETA_EPS
from elicit.detector import RuleDetector
from elicit.ontology import ALL_TRAITS, TraitId, default_ontology
from elicit.patient import (
    EmissionParams,
    EmptyAnchorError,
    LlmRealiser,
    TemplateRealiser,
    emission_probability,
    emit_traits,
)

from conftest import make_snippet

PARAMS = EmissionParams()


def make_profile(rates=None, default=THETA_EPS):
    base = {t: default for t in ALL_TRAITS}
    for key, val in (rates or {}).items():
        base[TraitId.parse(key) if isinstance(key, str) else key] = val
    return PatientProfile(
        patient_id="PX", base_rates=base,
        ground_truth=frozenset(t for t, v in base.items() if v > THETA_EPS),
    )


def test_emission_identity_unconfirmed():
    assert emission_probability(0.5, False, PARAMS, 0.0) == 0.5


def test_emission_suppressed_half():
    # sigma(logit(0.5) - 4) = 1 / (1 + e^4)
    expected = 1.0 / (1.0 + math.exp(4.0))
    assert emission_probability(0.5, True, PARAMS, 0.0) == pytest.approx(expected, abs=1e-4)
    assert expected == pytest.approx(0.0180, abs=1e-4)


def test_emission_suppressed_point_eight():
    # sigma(ln 4 - 4) = 4 / (4 + e^4)
    expected = 4.0 / (4.0 + math.exp(4.0))
    assert emission_probability(0.8, True, PARAMS, 0.0) == pytest.approx(expected, abs=1e-4)


def test_emission_rejects_unclamped_theta():
    with pytest.raises(ValueError):
        emission_probability(0.0, False, PARAMS, 0.0)
    with pytest.raises(ValueError):
        emission_probability(1.0, False, PARAMS, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-3, max_value=0.998))
def test_emission_monotone_in_theta(theta):
    lo = emission_probability(theta, False, PARAMS, 0.0)
    hi = emission_probability(min(theta + 1e-3, 1 - 1e-3), False, PARAMS, 0.0)
    assert hi >= lo


def test_emission_decreasing_in_M():
    p_small = emission_probability(0.5, True, EmissionParams(M=2.0), 0.0)
    p_large = emission_probability(0.5, True, EmissionParams(M=6.0), 0.0)
    assert p_large < p_small


@pytest.mark.parametrize("name", ["M", "strategy_gain"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_emission_params_reject_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=name):
        EmissionParams(**{name: value})


def test_emit_all_floor_rarely_emits():
    profile = make_profile()
    rng = random.Random(0)
    total = sum(len(emit_traits(profile, (), PARAMS, rng, {})) for _ in range(100_000))
    assert total / 100_000 < 0.02  # expectation is 10 * 1e-3 = 0.01


def test_emit_strong_trait_nearly_always():
    profile = make_profile({"F2": 1 - THETA_EPS})
    rng = random.Random(1)
    hits = sum(TraitId.F2 in emit_traits(profile, (), PARAMS, rng, {}) for _ in range(10_000))
    assert hits / 10_000 >= 0.99


def test_emit_cap_two():
    profile = make_profile({"F1": 0.999, "F2": 0.999, "F3": 0.999})
    rng = random.Random(2)
    emitted = emit_traits(profile, (), PARAMS, rng, {})
    assert len(emitted) == 2
    # overflow keeps the highest-probability traits; all tied here, so lowest indices win
    assert emitted == {TraitId.F1, TraitId.F2}


def test_emit_deterministic_given_seed():
    profile = make_profile({"F2": 0.5, "F6": 0.4})
    a = emit_traits(profile, (), PARAMS, random.Random(99), {})
    b = emit_traits(profile, (), PARAMS, random.Random(99), {})
    assert a == b


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_empirical_rate_matches_probability(p):
    profile = make_profile({"F5": p})
    rng = random.Random(7)
    hits = sum(TraitId.F5 in emit_traits(profile, (), PARAMS, rng, {}) for _ in range(10_000))
    assert hits / 10_000 == pytest.approx(p, abs=0.02)


def test_suppression_empirical():
    profile = make_profile({"F5": 0.5})
    rng = random.Random(11)
    hits = sum(
        TraitId.F5 in emit_traits(profile, {TraitId.F5}, PARAMS, rng, {})
        for _ in range(10_000)
    )
    assert hits / 10_000 < 0.03  # analytic value sigma(-4) ~ 0.018


def test_logit_offset_boosts_emission():
    profile = make_profile({"F5": 0.3})
    boosted = emission_probability(0.3, False, PARAMS, 2.0)
    assert boosted > 0.3
    rng = random.Random(3)
    hits = sum(
        TraitId.F5 in emit_traits(profile, (), PARAMS, rng, {TraitId.F5: 2.0})
        for _ in range(10_000)
    )
    assert hits / 10_000 == pytest.approx(boosted, abs=0.02)


# --- realiser ---------------------------------------------------------------

REAL = TemplateRealiser(default_ontology())
DET = RuleDetector(default_ontology())
ANCHOR = make_snippet(patient_reply="Well I went to the lake with my brother and we talked for a while.")


def test_template_empty_emission_has_no_markers(ontology):
    reply = REAL.realise("How was it?", [], ANCHOR, set(), seed=4)
    assert reply
    assert DET.detect("How was it?", reply).positive() == frozenset()


def test_template_single_trait_exact(ontology):
    reply = REAL.realise("How was it?", [], ANCHOR, {TraitId.F6}, seed=4)
    result = DET.detect("How was it?", reply)
    assert result.positive() == {TraitId.F6}
    lexicon = [p.lower() for p in ontology.traits[TraitId.F6].marker_lexicon]
    assert sum(reply.lower().count(p) for p in lexicon) == 1


def test_template_deterministic():
    a = REAL.realise("How was it?", [], ANCHOR, {TraitId.F2, TraitId.F9}, seed=123)
    b = REAL.realise("How was it?", [], ANCHOR, {TraitId.F2, TraitId.F9}, seed=123)
    assert a == b


def test_template_strips_anchor_markers():
    dirty = make_snippet(
        patient_reply="It is the circle of life, as they say, and that is that."
    )
    reply = REAL.realise("Thoughts?", [], dirty, set(), seed=8)
    assert DET.detect("Thoughts?", reply).positive() == frozenset()


def test_template_marker_only_anchor_falls_back():
    dirty = make_snippet(patient_reply="circle of life")
    reply = REAL.realise("Thoughts?", [], dirty, {TraitId.F1}, seed=8)
    assert reply
    assert DET.detect("Thoughts?", reply).positive() == {TraitId.F1}


def test_template_rejects_empty_question():
    with pytest.raises(ValueError):
        REAL.realise("", [], ANCHOR, set(), seed=1)


def test_template_rejects_empty_anchor():
    empty = make_snippet(patient_reply="   ")
    with pytest.raises(EmptyAnchorError):
        REAL.realise("How was it?", [], empty, set(), seed=1)


def test_round_trip_all_small_sets():
    # every emitted set of size <= 2 maps back exactly through the detector
    rng = random.Random(21)
    anchors = [
        ANCHOR,
        make_snippet(patient_reply="Mostly I keep to myself and watch the birds out back."),
        make_snippet(patient_reply="It is the circle of life, as they say, and that is that."),
    ]
    sets = [frozenset()] + [frozenset({t}) for t in ALL_TRAITS] + [
        frozenset({a, b}) for a in ALL_TRAITS for b in ALL_TRAITS if a < b
    ]
    for anchor in anchors:
        for emitted in sets:
            reply = REAL.realise("Tell me more.", [], anchor, emitted, seed=rng.randrange(2**31))
            assert DET.detect("Tell me more.", reply).positive() == emitted


def llm_realiser(client):
    return LlmRealiser(client, default_ontology(), temperature=0.7, prompt_dir=None)


def test_llm_realiser_uses_anchor_and_prompt():
    class Client:
        def __init__(self):
            self.requests = []

        def complete(self, prompt, temperature):
            self.requests.append((prompt, temperature))
            return "A plain spoken answer."

    client = Client()
    realiser = llm_realiser(client)
    reply = realiser.realise("How was school?", [], ANCHOR, {TraitId.F6}, seed=0)
    assert reply == "A plain spoken answer."
    prompt, temperature = client.requests[0]
    assert ANCHOR.patient_reply in prompt
    assert "How was school?" in prompt
    assert "Superfluous Phrase Attachment" in prompt
    assert temperature == pytest.approx(0.7)


@pytest.mark.parametrize("blank", ["", "  \n\t "])
def test_llm_realiser_asks_once_more_for_a_blank_reply(blank):
    from conftest import ScriptedBackend

    client = ScriptedBackend(script=[blank, "  A plain spoken answer. "])
    reply = llm_realiser(client).realise("How was school?", [], ANCHOR, {TraitId.F6}, seed=0)
    assert reply == "A plain spoken answer."
    assert len(client.requests) == 2 and client.requests[0] == client.requests[1]


def test_llm_realiser_raises_a_typed_error_on_a_second_blank_reply():
    from conftest import ScriptedBackend
    from elicit.patient import RealiserError

    client = ScriptedBackend(script=["   ", "", "never asked for"])
    with pytest.raises(RealiserError, match="unusable reply after one retry: reply is empty"):
        llm_realiser(client).realise("How was school?", [], ANCHOR, {TraitId.F6}, seed=0)
    assert len(client.requests) == 2
