"""Meaning-based NLU story engine.

Pipeline: lexicon -> phrase matcher (logical structures, no parse trees)
-> append-only context tracker -> answer realizer, plus a story-task
benchmark harness.
"""

from importlib import resources

from .babi import (
    BabiRecord,
    RunResult,
    TaskConfig,
    answers_match,
    export_csv,
    parse_babi_file,
    run_task,
    score,
)
from .context import AnswerContent, ContextItem, ContextTracker, QueryConfig
from .lexicon import Lexicon, LexiconError, load_lexicon
from .matcher import Matcher, MatchError, Proposition, tokenize
from .nlg import (
    RealizationRequest,
    realize_answer,
    realize_position,
    realize_verb_group,
    realize_verb_group_fr,
)
from .semantics import (
    Activity,
    Linked,
    LogicalStructure,
    OperatorSet,
    Referent,
    State,
    UNSPECIFIED,
    Wrapped,
    render,
    unify,
)

__version__ = "0.1.0"


def core_lexicon_text() -> str:
    return resources.files(__package__).joinpath("data/core.lex").read_text("utf-8")


def load_core_lexicon() -> Lexicon:
    """The bundled lexicon covering the story tasks and demo vocabulary."""
    return load_lexicon(core_lexicon_text())


def fixture_path(name: str):
    return resources.files(__package__).joinpath(f"data/fixtures/{name}")
