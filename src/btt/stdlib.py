"""Built-in node templates.

The builtins are ordinary template definitions in the external YAML schema,
shipped as package data in ``templates/*.yaml`` (one template per file,
named by the file's stem): nothing about Latch or the Node* family is
hardcoded in the engine.

Document-local templates take precedence over builtins. ``shadowed_builtins``
reports such collisions so front ends can warn (code SHADOWED_BUILTIN).
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files

SHADOWED_BUILTIN = "SHADOWED_BUILTIN"


@lru_cache(maxsize=1)
def _builtins():
    from .textio import parse_templates

    merged = {}
    sources = files(__package__).joinpath("templates").iterdir()
    for source in sorted(sources, key=lambda f: f.name):
        if source.name.endswith(".yaml"):
            merged.update(parse_templates(source.read_text(encoding="utf-8"),
                                          source=f"btt:templates/{source.name}"))
    return merged


def builtin_templates() -> dict:
    """Name -> TemplateDef for every builtin; a fresh mapping each call."""
    return dict(_builtins())


def shadowed_builtins(template_names) -> list:
    """Builtin names that the given user template names would redefine."""
    return [name for name in template_names if name in _builtins()]
