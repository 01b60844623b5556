"""Built-in node templates.

The builtins are ordinary template definitions in the external YAML schema,
shipped as package data in ``templates/*.yaml`` (one template per file,
named by the file's stem): nothing about Latch or the Node* family is
hardcoded in the engine.

Document-local templates take precedence over builtins. ``shadowed_builtins``
reports such collisions so front ends can warn (code SHADOWED_BUILTIN).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from importlib.resources import files

from .model import ForeachBlock, TemplateDef

SHADOWED_BUILTIN = "SHADOWED_BUILTIN"


@lru_cache(maxsize=1)
def _builtins():
    from .textio import parse_templates

    merged = {}
    sources = files(__package__).joinpath("templates").iterdir()
    for source in sorted(sources, key=lambda f: f.name):
        if source.name.endswith(".yaml"):
            for name, tmpl in parse_templates(source.read_text(encoding="utf-8")).items():
                merged[name] = _with_source(tmpl, f"btt:templates/{source.name}")
    return merged


def _with_source(x, source):
    """A template, body node or foreach block, with ``source`` on its spans."""
    span = x.span and replace(x.span, source=source)
    if isinstance(x, TemplateDef):
        return replace(x, span=span, body={k: _with_source(v, source) for k, v in x.body.items()})
    if isinstance(x, ForeachBlock):
        nodes = {k: _with_source(v, source) for k, v in x.nodes.items()}
        return replace(x, span=span, nodes=nodes)
    return replace(x, span=span)


def builtin_templates() -> dict:
    """Name -> TemplateDef for every builtin; a fresh mapping each call."""
    return dict(_builtins())


def shadowed_builtins(template_names) -> list:
    """Builtin names that the given user template names would redefine."""
    return [name for name in template_names if name in _builtins()]
