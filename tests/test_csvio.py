import ast
from pathlib import Path

import odrelease

SRC = Path(odrelease.__file__).parent
READERS = {"csvio.py", "config.py"}  # text_chunks decodes every text file, load_json every JSON file


def file_reads(tree: ast.AST) -> list[int]:
    """The lines of calls that read a file: open without a "w", "a" or "x"
    mode (a mode that is not a literal counts as a read), read_bytes and
    read_text."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name in ("read_bytes", "read_text"):
            lines.append(node.lineno)
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) & set("wax")):
                lines.append(node.lineno)
    return lines


def test_only_the_reader_modules_read_files():
    reads = {path.name: file_reads(ast.parse(path.read_text(encoding="utf8"))) for path in SRC.glob("*.py")}
    assert reads["csvio.py"] and reads["config.py"]  # the scan sees the reads it allows
    assert {name: lines for name, lines in reads.items() if lines and name not in READERS} == {}


def test_the_scan_finds_each_kind_of_read():
    source = 'open(p)\nopen(p, "rb")\nopen(p, mode=m)\nPath(p).read_bytes()\np.read_text()\nopen(p, "w")\nopen(p, mode="ab")\n'
    assert file_reads(ast.parse(source)) == [1, 2, 3, 4, 5]
