"""The model-language front end's observable output, pinned.

For each text of a fixed corpus this records the (line, col, message) of
every `load_model` diagnostic and, when the text parses, the canonical
`render` of its parse tree.  The corpus is the three shipped models,
`uav_model_text(25)`, every line-prefix truncation of each of these, and
the diagnostic cases of acceptance criterion 10.  Regenerate the pins
with `PYTHONPATH=src python tests/test_modellang_corpus.py`, and only for
a change to that output that is meant.
"""

import json
import pathlib

from mcdsolve.examples import EXAMPLE_NAMES, example_path, uav_model_text
from mcdsolve.modellang import load_model, parse, render

PINS = pathlib.Path(__file__).resolve().parent / "expected" / "modellang_corpus.json"

DIAGNOSTIC_CASES = [  # criterion 10 in tests/test_acceptance.py
    "poset x = R+[g]\nposet x = R+[g]\n",
    "dp a = wigget F(f[W]) R(r[g])\n",
    "dp a = identity R(x[W])\ndp b = identity R(y[g])\nterm series(a, b)\n",
    "term loop(",
    "dp a = catalogue F(f[W]) R(r[g]) { 1.0 -> }\n",
]


def corpus() -> dict:
    """Name -> model text, in a fixed order."""
    sources = {name + ".mcd": example_path(name).read_text(encoding="utf-8")
               for name in EXAMPLE_NAMES}
    sources["uav_model_text(25)"] = uav_model_text(25)
    texts = {}
    for name, text in sources.items():
        lines = text.splitlines(keepends=True)
        for n in range(len(lines) + 1):
            texts["%s, first %d lines" % (name, n)] = "".join(lines[:n])
    for case in DIAGNOSTIC_CASES:
        texts[case] = case
    return texts


def record(text: str) -> dict:
    _, diags = load_model(text)
    result = parse(text)
    return {
        "diagnostics": [[d.span.line, d.span.col, d.message] for d in diags],
        "render": render(result.document) if result.ok else None,
    }


def test_front_end_output_matches_the_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    texts = corpus()
    assert list(pinned) == list(texts)
    for name, text in texts.items():
        assert record(text) == pinned[name], name


if __name__ == "__main__":
    records = {name: record(text) for name, text in corpus().items()}
    PINS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
