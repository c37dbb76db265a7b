"""Per-turn questioning cycle: gap analysis, strategy selection, question generation.

Two backends share one interface, and each takes its ontology once, at
construction. The heuristic backend is a pure function of that ontology and
the session context, and exists so the whole loop runs deterministically
offline; the generation backend prompts a model with structured templates.
In both cases the priority-trait list is computed by the engine from the
belief state, never taken from model output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import belief as belief_mod
from .belief import BeliefState
from .dialogue import HistoryTurn, render_history
from .errors import BackendError
from .ontology import (
    STRATEGY_ORDER,
    Ontology,
    OntologyError,
    Scenario,
    Strategy,
    TraitId,
)
from .prompting import complete_json, load_prompt

TRAIT_TOKEN_RE = re.compile(r"\bF(?:10|[1-9])\b")
PRIORITY_K = 4  # traits a thought puts first
NO_BACKGROUND = "(none)"  # the think and plan prompts' clinical background
_THOUGHT_KEYS = dict.fromkeys(("confirmed_analysis", "elicitation_conditions", "strategy_rationale"), str)


class SelectorError(BackendError):
    """Backend produced unusable output twice in a row."""


class QuestionConstraintError(SelectorError):
    """The llm's question leaked a trait id or the strategy name after one retry."""


@dataclass(frozen=True)
class SessionContext:
    """What the doctor knows at the start of one turn."""

    history: list[HistoryTurn]
    belief: BeliefState
    topic: Scenario


@dataclass(frozen=True)
class Thought:
    confirmed_analysis: str
    priority_traits: tuple[TraitId, ...]
    elicitation_conditions: str
    strategy_rationale: str

    def to_dict(self) -> dict:
        return {**vars(self), "priority_traits": [t.name for t in self.priority_traits]}


def question_violates(question: str, strategy: Strategy, ontology: Ontology) -> bool:
    """True when the question names a trait id or the selected strategy."""
    if TRAIT_TOKEN_RE.search(question):
        return True
    display = ontology.strategies[strategy].display_name
    return display.lower() in question.lower()


def _plan_from_priority(priority: tuple[TraitId, ...], ontology: Ontology) -> Strategy:
    for trait in priority:
        for strategy in STRATEGY_ORDER:
            if trait in ontology.strategies[strategy].affinity:
                return strategy
    return Strategy.OPEN_ENDED


# lead-in varies with the priority head so the template is a function of it
_LEAD_INS = [
    "Let's stay on this a little longer.",
    "I want to come back to something.",
    "Thanks for that.",
    "That's helpful to hear.",
    "Let's take this one more step.",
    "I was wondering about something.",
    "Bear with me for a moment.",
    "Let me ask it another way.",
    "Here's a different angle.",
    "One more thing on this.",
]

_ASK_TEMPLATES: dict[Strategy, str] = {
    Strategy.OPEN_ENDED: "{lead} Tell me about {topic}. What has that been like for you recently?",
    Strategy.EMOTION_ORIENTED: (
        "{lead} When you think about {topic}, what feelings come up for you, "
        "and what do you usually do with those feelings?"
    ),
    Strategy.HYPOTHETICAL: (
        "{lead} Imagine that tomorrow everything about {topic} suddenly changed. "
        "What would you do first, and who would you tell?"
    ),
    Strategy.MULTI_STEP: (
        "{lead} Walk me through {topic} from start to finish: "
        "what happens first, what comes in the middle, and how does it usually end?"
    ),
    Strategy.PERSPECTIVE_TAKING: (
        "{lead} Think of someone who knows you well. How would they describe {topic}, "
        "and where do you think their view differs from yours?"
    ),
    Strategy.CORRECTION_INDUCING: (
        "{lead} If I remember right, you told me earlier that {topic} never really "
        "matters to you at all. Did I get that right?"
    ),
}


def heuristic_question(topic: Scenario, strategy: Strategy, head: TraitId | None) -> str:
    lead = _LEAD_INS[(int(head) - 1) % len(_LEAD_INS)] if head is not None else _LEAD_INS[0]
    return _ASK_TEMPLATES[strategy].format(lead=lead, topic=topic.name.lower())


class HeuristicSelector:
    """Deterministic twin: affinity-table planning, template questions."""

    def __init__(self, ontology: Ontology):
        self.ontology = ontology

    def think(self, ctx: SessionContext) -> Thought:
        priority = tuple(belief_mod.priority_traits(ctx.belief, PRIORITY_K))
        confirmed = sorted(ctx.belief.confirmed)
        confirmed_text = ", ".join(t.name for t in confirmed) if confirmed else "none yet"
        priority_names = ", ".join(f"{t.name} ({self.ontology.traits[t].name})" for t in priority)
        return Thought(
            confirmed_analysis=f"Confirmed so far: {confirmed_text}.",
            priority_traits=priority,
            elicitation_conditions=(
                f"Highest remaining uncertainty: {priority_names or 'none'}. "
                f"Create conditions on the topic '{ctx.topic.name}' under which these patterns surface."
            ),
            strategy_rationale=(
                "Choose the first strategy whose elicitation profile covers the top remaining trait."
            ),
        )

    def plan(self, ctx: SessionContext, thought: Thought) -> Strategy:
        return _plan_from_priority(thought.priority_traits, self.ontology)

    def ask(self, ctx: SessionContext, thought: Thought, strategy: Strategy) -> str:
        head = thought.priority_traits[0] if thought.priority_traits else None
        question = heuristic_question(ctx.topic, strategy, head)
        if question_violates(question, strategy, self.ontology):
            # the template words are fixed, so the leak comes from the ontology's topic or strategy names
            raise OntologyError(f"template question leaked vocabulary: {question!r}")
        return question


class LlmSelector:
    """Generation-backed selector with structured JSON outputs and one retry per step."""

    def __init__(self, client, ontology: Ontology, *, ask_temperature: float, prompt_dir: str | None):
        self.client = client
        self.ontology = ontology
        self.ask_temperature = ask_temperature
        self._think_tpl = load_prompt("think", prompt_dir)
        self._plan_tpl = load_prompt("plan", prompt_dir)
        self._ask_tpl = load_prompt("ask", prompt_dir)
        self._strategies = "\n".join(f"- {p.strategy.value}: {p.description}" for p in ontology.strategies.values())

    def think(self, ctx: SessionContext) -> Thought:
        priority = tuple(belief_mod.priority_traits(ctx.belief, PRIORITY_K))
        confirmed = sorted(ctx.belief.confirmed)
        traits = self.ontology.traits
        prompt = self._think_tpl.format(
            background=NO_BACKGROUND,
            history=render_history(ctx.history),
            topic=ctx.topic.name,
            strategies=self._strategies,
            confirmed=", ".join(t.name for t in confirmed) or "none yet",
            priority="\n".join(f"- {t.name}: {traits[t].name} -- {traits[t].definition}" for t in priority)
            or "(all traits confirmed)",
        )
        return complete_json(
            self.client,
            prompt,
            0.0,
            _THOUGHT_KEYS,
            lambda doc: Thought(
                confirmed_analysis=doc["confirmed_analysis"],
                priority_traits=priority,  # engine-computed, model output ignored
                elicitation_conditions=doc["elicitation_conditions"],
                strategy_rationale=doc["strategy_rationale"],
            ),
            SelectorError,
        )

    def plan(self, ctx: SessionContext, thought: Thought) -> Strategy:
        prompt = self._plan_tpl.format(
            background=NO_BACKGROUND,
            history=render_history(ctx.history),
            thought=thought.strategy_rationale + "\n" + thought.elicitation_conditions,
            strategies=self._strategies,
        )
        # Strategy() rejects an id outside the six with ValueError
        return complete_json(
            self.client, prompt, 0.0, {"strategy": str}, lambda doc: Strategy(doc["strategy"].strip()), SelectorError
        )

    def ask(self, ctx: SessionContext, thought: Thought, strategy: Strategy) -> str:
        prompt = self._ask_tpl.format(
            history=render_history(ctx.history),
            topic=ctx.topic.name,
            thought=thought.elicitation_conditions,
            strategy_description=self.ontology.strategies[strategy].description,
        )

        def checked(doc: dict) -> str:
            question = doc["question"].strip()
            if not question or question_violates(question, strategy, self.ontology):
                raise ValueError(f"question is empty or names a trait id or the strategy: {question!r}")
            return question

        return complete_json(
            self.client, prompt, self.ask_temperature, {"question": str}, checked, QuestionConstraintError
        )
