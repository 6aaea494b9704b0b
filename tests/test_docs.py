"""Documentation consistency: referenced modules, files and CLI
subcommands must exist."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]

MODULE_RE = re.compile(r"`(repro(?:\.[a-z_]+)+)`")
PATH_RE = re.compile(
    r"`((?:src|tests|benchmarks|examples|docs)/[A-Za-z0-9_./-]+\.(?:py|md|json))`"
)

# Docs whose fenced code blocks show runnable `repro-*` command lines.
COMMAND_DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
                *sorted((ROOT / "docs").glob("*.md")),
                ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
FENCE_RE = re.compile(r"^[ \t]*```.*?^[ \t]*```", re.M | re.S)
# `repro-<tool> <subcommand>` or `python -m repro.tools.<tool> <subcommand>`;
# a flag or a file name in second place is not a subcommand.
COMMAND_RE = re.compile(
    r"(repro-[a-z]+|repro\.tools\.[a-z_]+)[ \t]+([a-z][a-z-]*)(?=\s)")
SCRIPTS = dict(re.findall(r'^(repro-[a-z]+) = "([a-z_.]+):main"$',
                          (ROOT / "pyproject.toml").read_text(), re.M))


def _documented_subcommands():
    out = set()
    for doc in COMMAND_DOCS:
        for block in FENCE_RE.findall(doc.read_text()):
            for tool, sub in COMMAND_RE.findall(block):
                out.add((SCRIPTS.get(tool, tool), sub))
    return sorted(out)


def _referenced(pattern):
    out = set()
    for doc in DOCS:
        for match in pattern.findall(doc.read_text()):
            out.add(match)
    return sorted(out)


class TestDocReferences:
    def test_docs_exist(self):
        assert len(DOCS) >= 5

    @pytest.mark.parametrize("module", _referenced(MODULE_RE))
    def test_module_references_import(self, module):
        # A dotted reference may be module.attribute: try module first,
        # then its parent with the final component as an attribute.
        try:
            importlib.import_module(module)
            return
        except ImportError:
            pass
        parent, _, attr = module.rpartition(".")
        mod = importlib.import_module(parent)
        assert hasattr(mod, attr), f"{module} does not resolve"

    @pytest.mark.parametrize("path", _referenced(PATH_RE))
    def test_path_references_exist(self, path):
        assert (ROOT / path).exists(), f"{path} referenced but missing"

    @pytest.mark.parametrize("module, sub", _documented_subcommands())
    def test_documented_subcommands_parse(self, module, sub, capsys):
        """A deleted subcommand cannot linger as a runnable-looking line:
        the tool's own parser must accept it. (A tool without subcommands
        prints its help for any bare word, so it passes trivially.)"""
        with pytest.raises(SystemExit) as exit_info:
            importlib.import_module(module).main([sub, "--help"])
        assert exit_info.value.code == 0, capsys.readouterr().err

    def test_experiments_covers_every_artifact(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for artifact in ("Table 1", "Figure 7", "Figure 8a", "Figure 8b",
                         "Figure 8c", "Figure 9"):
            assert artifact in text, f"{artifact} missing from EXPERIMENTS.md"

    def test_design_inventories_benchmarks(self):
        text = (ROOT / "DESIGN.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            # Every bench module is accounted for in the design doc except
            # the ablations (inventoried as a section).
            if bench.stem != "bench_ablations":
                assert bench.name in text, f"{bench.name} not in DESIGN.md"

    def test_design_inventory_tree_matches_the_source(self):
        """DESIGN.md section 3: every file or directory the fenced tree
        names exists, and every package under ``src/repro/`` is in it."""
        text = (ROOT / "DESIGN.md").read_text()
        section = text[text.index("## 3. Repository inventory"):]
        tree = FENCE_RE.search(section).group(0).splitlines()[1:-1]
        named, stack = set(), []
        for line in tree:
            indent = len(line) - len(line.lstrip())
            entry = line.split()[0]
            # Entries sit at two spaces per level; deeper lines continue
            # the description above them.
            if indent > 4 or not re.fullmatch(r"[\w./-]+(/|\.\w+)", entry):
                continue
            del stack[indent // 2:]
            named.add("/".join(stack + [entry.rstrip("/")]))
            if entry.endswith("/"):
                stack.append(entry.rstrip("/"))
        assert len(named) > 80
        for path in sorted(named):
            assert (ROOT / path).exists(), f"DESIGN.md names missing {path}"
        packages = {f"src/repro/{child.name}"
                    for child in (ROOT / "src" / "repro").iterdir()
                    if (child / "__init__.py").exists()}
        assert packages <= named, sorted(packages - named)

