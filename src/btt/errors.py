"""Error types shared across the package.

Every failure carries a machine-readable ``code`` so callers (and the CLI)
can classify problems without matching message text.
"""

from __future__ import annotations


class BttError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, code, message, *, subject=None, span=None):
        self.code = code
        self.message = message
        self.subject = subject  # offending node/template/key name, if any
        self.span = span  # SourceSpan when the input position is known
        super().__init__(self.render())

    def render(self):
        if self.subject is not None:
            return f"{self.code}: {self.subject}: {self.message}"
        return f"{self.code}: {self.message}"


class ParseError(BttError):
    """Input text is not a well-formed document (bad YAML, empty stream)."""


class SchemaError(BttError):
    """Well-formed input that does not fit the document schema."""


class ExprError(BttError):
    """Expression parsing or evaluation failure.

    ``offset`` is the 0-based character position for EXPR_SYNTAX errors.
    """

    def __init__(self, code, message, *, offset=None, subject=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(code, message, subject=subject)


class ExpandError(BttError):
    """Template instantiation failure. ``chain`` is the instantiation stack;
    one of more than 8 names renders as its first and last three."""

    def __init__(self, code, message, *, subject=None, span=None, chain=()):
        self.chain = tuple(chain)
        super().__init__(code, message, subject=subject, span=span)

    def render(self):
        base = super().render()
        chain = self.chain
        if len(chain) > 8:
            chain = (*chain[:3], f"... {len(chain) - 6} more ...", *chain[-3:])
        if chain:
            return f"{base} (while instantiating {' -> '.join(chain)})"
        return base


class ValidationFailure(BttError):
    """An expanded tree failed structural validation.

    Carries the full diagnostic list; code, subject and span mirror the
    first entry.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        first = self.diagnostics[0]
        super().__init__(first.code, first.message, subject=first.node, span=first.span)


class CanonicalizeError(BttError):
    """serialize_expanded was handed a tree that fails validation."""


class EngineError(BttError):
    """Engine construction failure (e.g. scenario names an unknown action)."""


class TickError(BttError):
    """An expression error surfaced while ticking; aborts the whole tick.

    ``events`` holds the aborted tick's events up to the failing node, and
    ``span`` is that node's source span.
    """

    def __init__(self, message, *, node, tick, events=(), span=None):
        self.node = node
        self.tick = tick
        self.events = events
        super().__init__("RUNTIME_ERROR", f"tick {tick}: {message}", subject=node, span=span)


class DumpError(BttError):
    """The final memory cannot be written out (``--memory-dump``)."""
