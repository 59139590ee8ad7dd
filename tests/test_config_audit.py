"""Config values are range-checked in one place: ``config.CONFIG_RULES``.

Every ``raise ConfigError`` in ``src/`` is listed here by module and
enclosing function, with the number of sites and why it stays outside the
table. A new site fails the test until its rule moves into the table or it
is added here with a reason.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "acadsearch"

# (module, enclosing function) -> (number of sites, why they stay)
ALLOWED = {
    ("config.py", "_merge"): (
        3, "the type rule: an unknown key, a section set to a value, or a "
           "value of another JSON type than its default"),
    ("config.py", "load_config"): (
        3, "a config file that cannot be read or is not an object, and a "
           "--set item without '='"),
    ("config.py", "check_config"): (1, "the CONFIG_RULES check itself"),
    ("pipeline.py", "Pipeline.__init__"): (
        1, "`threads`, an argument, not a config key"),
    ("pipeline.py", "Pipeline.stage_ingest"): (
        1, "only ingest needs paths.corpus; null is legal for every other "
           "stage"),
    ("graph_baselines.py", "pagerank"): (
        2, "alpha and tol are arguments the pipeline never sets, not config "
           "keys"),
    ("lexical_index.py", "retrieve_topk"): (
        1, "k also comes from callers other than bm25.depth; below 1 there "
           "is no top k"),
    ("kg_embed.py", "init_embeddings"): (
        1, "compares the rows of an embeddings file with the catalog built "
           "from the corpus"),
    ("fusion_eval.py", "Lambdas.__post_init__"): (
        3, "checks the weights read from tune/lambdas.json, which eval "
           "reports as a data error"),
    ("fusion_eval.py", "CandidateList.__post_init__"): (
        1, "checks the shapes of arrays its callers build"),
    ("fusion_eval.py", "minmax_normalize"): (
        2, "checks score lists its callers build"),
    ("fusion_eval.py", "lambda_grid"): (
        1, "hides the grid's algorithm: its step must divide 1"),
    ("fusion_eval.py", "tune_lambdas"): (
        2, "an empty or unjudged validation set, which the data decides"),
}


class _ConfigErrorRaises(ast.NodeVisitor):
    """(module, enclosing function) of each ``raise ConfigError``; a method
    is named with its class."""

    def __init__(self, module):
        self.module, self.scopes, self.found = module, [], Counter()

    def _scope(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_ClassDef = _scope

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "ConfigError":
            self.found[self.module, ".".join(self.scopes) or "<module>"] += 1


def test_config_errors_are_raised_only_at_allowed_sites():
    found = Counter()
    for path in sorted(SRC.rglob("*.py")):
        visitor = _ConfigErrorRaises(path.relative_to(SRC).as_posix())
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    assert dict(found) == {site: n for site, (n, _) in ALLOWED.items()}
