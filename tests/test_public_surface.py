"""Every public function, class and method in `src/` has a caller in `src/`.

The guard parses `src/binauralkit/*.py`, collects each public top-level
function and class and each public method, and subtracts every name or
attribute that `src/` loads. A name counts as used when any load in the
package spells it, whatever object it is loaded from; imports, such as the
re-exports in `__init__.py`, are not loads. What is left must equal the
allowlist below, so a new public helper with no caller fails, and so does an
entry whose name gained a caller or left `src/`.
"""

import ast
import pathlib

import binauralkit

PACKAGE = pathlib.Path(binauralkit.__file__).parent

# Qualified name -> why it stays public with no caller in src/, and the
# ROADMAP item that removes it.
ALLOWED_UNUSED = {
    "ambisonic.Trajectory.direction_at": "reference-only, `index_at` covers it; item 3 removes it",
    "ambisonic.encode_mono": "reference-only, equal to `EncodedRows(samples, gains)[0:n]`; item 3",
    "ambisonic.project_to_speakers": "reference-only, the benchmark tracer wraps it; item 3",
    "audio.stft": "reference-only, the metrics transform their own frames; item 3 removes it",
    "flow.backward": "thin wrapper of `_loss_and_grads` kept for tests; item 3 removes it",
    "flow.cfm_loss": "thin wrapper of `_loss_and_grads` kept for tests; item 3 removes it",
    "metrics.SpatialMetricsReport.to_json": "the README library example calls it; item 8 keeps it",
    "metrics.ild": "per-metric API that tests/test_metrics.py pins; item 8 keeps it",
    "metrics.ipd": "per-metric API that tests/test_metrics.py pins; item 8 keeps it",
    "metrics.isd": "per-metric API that tests/test_metrics.py pins; item 8 keeps it",
    "metrics.itd": "per-metric API that tests/test_metrics.py pins; item 8 keeps it",
}


def unused_public_names(sources):
    """Qualified public names that `sources` ({module: text}) define and never load."""
    defined, loaded = {}, set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defined[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{module}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return {name for name, bare in defined.items() if bare not in loaded}


def test_public_names_without_a_caller_are_the_allowlist():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unused_public_names(sources) == set(ALLOWED_UNUSED)


def test_guard_finds_an_uncalled_helper():
    sources = {
        "a": "def used():\n    pass\n\n\ndef helper():\n    return 1\n\n\nclass K:\n"
             "    def run(self):\n        used()\n\n    def _private(self):\n        pass\n",
        "b": "from .a import helper\n\n\ndef main():\n    return K().run()\n",
    }
    assert unused_public_names(sources) == {"a.helper", "b.main"}
