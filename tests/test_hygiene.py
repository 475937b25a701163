"""Source rules checked over the package itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "paytocontract"


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts, so a security invariant must be an
    # explicit check that raises
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_walk_sees_every_module():
    names = {path.name for path in PACKAGE.glob("*.py")}
    assert {"curve.py", "chain.py", "protocol.py", "cli.py"} <= names


# The CLI's one reader and one writer; no other code may touch a file.
FILE_IO_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
FILE_IO_OWNERS = {"cli.py": {"_read", "_write"}}


def _file_io_calls(name: str, source: str):
    """``name:line`` of each file I/O call in ``source`` outside its owners."""
    tree = ast.parse(source, filename=name)
    exempt = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in FILE_IO_OWNERS.get(name, ()):
            exempt.update(id(inner) for inner in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in exempt:
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in FILE_IO_CALLS:
                found.append(f"{name}:{node.lineno}")
    return found


def test_file_io_only_in_the_cli_reader_and_writer():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _file_io_calls(path.name, path.read_text())
    assert found == []


def test_file_io_check_catches_a_planted_call():
    cli_source = (PACKAGE / "cli.py").read_text()
    lines = cli_source.count("\n")
    planted = cli_source + "\n\ndef _peek(path):\n    return path.read_bytes()\n"
    assert _file_io_calls("cli.py", planted) == [f"cli.py:{lines + 4}"]
    # the exemption belongs to cli.py's two functions, not to their names elsewhere
    assert _file_io_calls("chain.py", "def _read(p):\n    return open(p)\n") == ["chain.py:2"]
