"""The one base class of the engine's typed failures."""


class SemqaError(Exception):
    """Input the engine reports and survives: a malformed lexicon or task
    file, a sentence no word sense fits, an unsupported question, an answer
    that cannot be realized.  Any other exception is a programming error."""
