"""Behavior-tree description language with node templates.

A document defines reusable, parameterized node templates plus the tree
that instantiates them; expansion flattens everything into the six primary
node kinds, and the engine ticks the result over a blackboard memory.
"""

from .errors import (
    BttError,
    CanonicalizeError,
    DumpError,
    EngineError,
    ExpandError,
    ExprError,
    ParseError,
    SchemaError,
    TickError,
    ValidationFailure,
)
from .model import (
    Diagnostic,
    Document,
    ExpandedTree,
    ForeachBlock,
    NodeDef,
    NodeKind,
    ParamDecl,
    ReturnState,
    Scenario,
    TemplateDef,
    diagnostic_render,
    validate_expanded,
    value_text,
    values_equal,
)
from .exprs import (
    MAX_EXPR_DEPTH,
    Assignment,
    Binary,
    Lit,
    Unary,
    Var,
    eval_expr,
    parse_assignment,
    parse_expr,
    print_expr,
)
from .engine import (
    Engine,
    TraceEvent,
    render_memory_dump,
    state_key,
)
from .textio import (
    SourceSpan,
    parse_document,
    parse_scenario,
    parse_templates,
    serialize_expanded,
)
from .expander import bind_arguments, expand_document, instantiate
from .stdlib import builtin_templates, shadowed_builtins

__version__ = "0.1.0"
