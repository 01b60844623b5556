"""A template is compiled once into its plan, nested instances' args
included: expanding a parsed document again compiles no pattern string, and
a whole reference forwards its bound value with its kind."""

import pytest

from btt import builtin_templates, expand_document, parse_document
from btt import expander
from util import CORPUS, CORPUS_DOCS


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.name)
def test_a_second_expansion_compiles_no_text(monkeypatch, path):
    doc = parse_document(path.read_text(encoding="utf-8"))
    builtins = builtin_templates()
    first = expand_document(doc, builtins=builtins)
    built = []
    init = expander._Text.__init__

    def counting(self, pattern):
        built.append(pattern)
        init(self, pattern)

    monkeypatch.setattr(expander._Text, "__init__", counting)
    assert expand_document(doc, builtins=builtins) == first
    assert built == []


def test_a_whole_reference_forwards_its_value_with_its_kind(monkeypatch):
    """Each nested instance's args as the template passes them: a whole
    ``$param``, ``$name`` or foreach variable keeps its kind, a list bound
    into a list arg splices, and other texts are filled."""
    seen = {}
    bind = expander.bind_arguments

    def recording(tmpl, inst):
        seen[inst.name] = inst.args
        return bind(tmpl, inst)

    monkeypatch.setattr(expander, "bind_arguments", recording)
    doc = parse_document((CORPUS / "forward_args.yaml").read_text(encoding="utf-8"))
    expand_document(doc)
    assert repr(seen) == repr({
        "top": {"label": "speed", "count": 7, "extra": (3, 4.5)},
        "top/whole": {"label": "speed", "count": 7,
                      "tags": ("first", "speed", 7, "top", 3, 4.5, 9)},
        "top/mixed": {"label": "top", "count": 1, "tags": ("x_speed", "top")},
        "top/each_0": {"label": "each_0", "count": 3, "tags": (0, 3)},
        "top/each_1": {"label": "each_1", "count": 4.5, "tags": (1, 4.5)},
    })
