"""The README's library sketch runs as written, and its CLI example parses."""

import re
import shlex
from pathlib import Path

from craftkit.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert [hm.concept_index for hm in namespace["heats"]] == list(range(namespace["bank"].r))
    assert [len(maps) for maps in namespace["per_image"]] == [namespace["bank"].r] * 8


def test_cli_example_parses():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    commands = [shlex.split(line) for block in blocks for line in block.splitlines()
                if line.startswith("craftkit ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
