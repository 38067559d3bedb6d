"""Documentation regression: code blocks run, symbol references resolve."""

import contextlib
import io
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DOCS = ROOT / "docs"
README = ROOT / "README.md"
#: Every document whose backticked ``repro.*`` paths must resolve.
REFERENCE_DOCS = sorted(DOCS.glob("*.md")) + [README, ROOT / "DESIGN.md"]


class TestTutorial:
    def test_all_python_blocks_execute(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = (DOCS / "TUTORIAL.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert len(blocks) >= 5
        namespace = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for block in blocks:
                exec(block, namespace)  # noqa: S102 - doc check


@pytest.mark.parametrize("path", REFERENCE_DOCS, ids=lambda p: p.name)
def test_doc_references_real_symbols(path):
    """Every backticked dotted ``repro.*`` path in a doc must resolve."""
    import importlib

    text = path.read_text()
    for match in re.findall(r"`(repro\.[a-z_.]+)`", text):
        parts = match.split(".")
        # split == 1 tries the name as an attribute of ``repro`` itself.
        for split in range(len(parts), 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            obj = module
            ok = True
            for attr in parts[split:]:
                if not hasattr(obj, attr):
                    ok = False
                    break
                obj = getattr(obj, attr)
            if ok:
                break
        else:
            pytest.fail(f"Dangling reference in {path.name}: {match}")


class TestReadme:
    def test_quickstart_snippet_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = README.read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert blocks
        # The first block is the quickstart; trim the paper-scale call
        # to something test-sized by substituting the grid.
        snippet = blocks[0].replace(
            "spec = jacobi_2d()",
            "spec = jacobi_2d(grid=(256, 256), iterations=32)",
        ).replace("(128, 128), (4, 4), 32", "(64, 64), (2, 2), 8")
        with contextlib.redirect_stdout(io.StringIO()):
            exec(snippet, {})  # noqa: S102 - doc check

    def test_example_scripts_listed_exist(self):
        text = README.read_text()
        root = README.parent
        for match in re.findall(r"python (examples/[a-z_]+\.py)", text):
            assert (root / match).exists(), match
