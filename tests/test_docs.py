"""The documentation tree stays link-consistent and runnable.

Runs the same checker CI's docs job runs (``tools/check_docs.py``), so
a broken relative link or heading anchor in README/docs fails the
tier-1 suite before it reaches CI, and runs every ``>>>`` example in
the ``repro`` package's docstrings.
"""

import doctest
import importlib
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def doctest_modules():
    """Dotted names of the ``repro`` modules whose source holds ``>>>``."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        if ">>>" not in path.read_text():
            continue
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)


def test_module_doctests():
    names = list(doctest_modules())
    assert "repro.memsys" in names and "repro.farm" in names
    failed = {}
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        if result.failed:
            failed[name] = result.failed
    assert failed == {}


def test_docs_tree_exists():
    names = {path.name for path in check_docs.doc_files(REPO_ROOT)}
    assert "README.md" in names
    assert "architecture.md" in names
    assert "trace-formats.md" in names
    assert "experiments.md" in names


def test_no_broken_links_or_anchors():
    problems = check_docs.check_tree(REPO_ROOT)
    assert problems == []


def test_checker_flags_broken_links(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "see [missing](docs/nope.md) and [ok](docs/real.md) and "
        "[bad anchor](docs/real.md#nowhere)\n"
    )
    (tmp_path / "docs" / "real.md").write_text("# Real Heading\n")
    problems = check_docs.check_tree(tmp_path)
    assert len(problems) == 2
    assert any("nope.md" in p for p in problems)
    assert any("nowhere" in p for p in problems)


def test_checker_accepts_anchors_and_externals(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "a.md").write_text(
        "# Some Heading!\n[self](#some-heading) "
        "[ext](https://example.com/x) \n"
        "```\n[not a link in code](nope.md)\n```\n"
    )
    (tmp_path / "README.md").write_text(
        "[doc](docs/a.md#some-heading)\n"
    )
    assert check_docs.check_tree(tmp_path) == []
