"""The README's library example runs as written on its instance example."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, lang: str) -> str:
    """The first fenced `lang` block under the `## section` heading."""
    text = README.read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_example(tmp_path, monkeypatch, capsys):
    (tmp_path / "instance.json").write_text(_block("File formats", "json"))
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        feasible, cost, *_ = line.split()
        assert feasible == "True"
        assert float(cost) == 4.0
