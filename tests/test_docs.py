from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_snippet_runs():
    text = README.read_text()
    blocks = []
    inside = False
    current: list[str] = []
    for line in text.splitlines():
        if line.strip() == "```python":
            inside = True
            current = []
        elif line.strip() == "```" and inside:
            inside = False
            blocks.append("\n".join(current))
        elif inside:
            current.append(line)
    runnable = [b for b in blocks if b.startswith("import numpy as np")]
    assert runnable, "the library tour block is missing"
    exec(compile(runnable[0], str(README), "exec"), {})


def test_readme_kinds_match_the_reader_tables():
    import re

    from concentra.cli import BOUND_KINDS, MODEL_KINDS, REGIME_KINDS, make_parser
    from concentra.funcs import FUNCTION_KINDS
    from concentra.space import MEASURE_KINDS

    named: dict[str, set[str]] = {}
    for section, kind in re.findall(r"^\| (\w+) \| `([\w-]+)` \|", README.read_text(), re.M):
        named.setdefault(section, set()).add(kind)
    commands = next(a for a in make_parser()._actions if a.dest == "command").choices
    assert named == {
        "command": set(commands) - {"suite"},
        "model": set(MODEL_KINDS),
        "measure": set(MEASURE_KINDS),
        "function": set(FUNCTION_KINDS),
        "regime": set(REGIME_KINDS),
        "bound": set(BOUND_KINDS),
    }


def test_readme_result_keys_match_the_dataclass_fields():
    import dataclasses
    import re

    from concentra.lsi import LsiReport
    from concentra.verify import DominationReport, MomentChainReport

    formats = README.read_text().split("## File formats")[1].split("\n## ")[0]
    keys = {}
    for bullet in formats.split("\n- "):
        named = re.search(r"`(\w+\.json)` with (.*)", bullet, re.S)
        if named:
            keys[named[1]] = set(re.findall(r"`(\w+)`", named[2]))
    assert keys == {
        name: {f.name for f in dataclasses.fields(cls)}
        for name, cls in [
            ("domination.json", DominationReport),
            ("moments.json", MomentChainReport),
            ("lsi_report.json", LsiReport),
        ]
    }
