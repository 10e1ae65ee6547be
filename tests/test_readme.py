"""The README's library example runs against the current package, so a
renamed or deleted public name cannot linger there."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    eoc = namespace["report"].eoc
    assert capsys.readouterr().out == f"{eoc}\n"
    assert namespace["values"].shape == (601,)
    # The single point reads the grid pass's value at x = 0.5, bit for bit.
    points = namespace["grid"].points()
    assert namespace["value"] == namespace["values"][np.flatnonzero(points == 0.5)[0]]
