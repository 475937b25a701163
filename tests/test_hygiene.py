"""Source rules checked over the package itself."""

import ast
from pathlib import Path

import click

from paytocontract.cli import chain, cli

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


# Every argument value has a kind (``cli.Arg``, a file path, a range or a
# choice); a plain string would reach a command body unparsed.
def _untyped_params(command: click.Command, path: str = "p2c"):
    """``path name`` of each parameter typed plain ``click.STRING``, through every group."""
    found = [f"{path} {param.name}" for param in command.params if param.type is click.STRING]
    for name, sub in getattr(command, "commands", {}).items():
        found += _untyped_params(sub, f"{path} {name}")
    return found


def test_every_cli_parameter_has_a_kind():
    assert _untyped_params(cli) == []


def test_untyped_check_catches_a_planted_option():
    tip = click.Command("tip", params=[click.Option(["--to"])])
    planted = click.Group("p2c", params=cli.params, commands={
        **cli.commands, "chain": click.Group("chain", commands={**chain.commands, "tip": tip})})
    assert _untyped_params(planted) == ["p2c chain tip to"]


# OpenSSL is reached through two modules only: the curve (ECDH, ECDSA verify)
# and the AEAD of ``sealing``.
CRYPTOGRAPHY_IMPORTERS = {"curve.py", "sealing.py"}


def _imports_cryptography(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "cryptography" for name in names):
            return True
    return False


def test_only_curve_and_sealing_import_cryptography():
    importers = {path.name for path in PACKAGE.glob("*.py") if _imports_cryptography(path.read_text())}
    assert importers == CRYPTOGRAPHY_IMPORTERS


def test_cryptography_check_catches_a_planted_import():
    assert _imports_cryptography("def f():\n    import cryptography.hazmat\n")
    assert _imports_cryptography("from cryptography.exceptions import InvalidSignature\n")
    assert not _imports_cryptography("from .curve import ecdsa_verify_openssl\nimport cryptographyx\n")


# ``cli`` reads every library name as ``pc.<name>`` through the package's
# export table, which imports the defining submodule on the first read.  It
# imports at module level only what every argument kind needs, and nothing of
# the package inside a function, so the table alone says when a module loads.
CLI_MODULE_IMPORTS = {"paytocontract", "paytocontract.curve", "paytocontract.wallet", "paytocontract.errors"}


def _package_imports(source: str):
    """``(module:line of each package import inside a function, modules the
    package imports at module level)`` for ``source``, a module of the package."""
    tree = ast.parse(source)
    in_function = {id(inner) for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)}
    local, top = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [".".join(filter(None, ["paytocontract" if node.level else None, node.module]))]
        else:
            continue
        for module in modules:
            if module.split(".")[0] != "paytocontract":
                continue
            if id(node) in in_function:
                local.append(f"{module}:{node.lineno}")
            else:
                top.add(module)
    return local, top


def test_cli_reads_library_names_through_the_package():
    local, top = _package_imports((PACKAGE / "cli.py").read_text())
    assert local == [] and top <= CLI_MODULE_IMPORTS


def test_cli_import_check_catches_a_planted_import():
    cli_source = (PACKAGE / "cli.py").read_text()
    lines = cli_source.count("\n")
    planted = cli_source + "\n\ndef _peek():\n    from .chain import Ledger\n    return Ledger\n"
    assert _package_imports(planted)[0] == [f"paytocontract.chain:{lines + 4}"]
    assert _package_imports("def f():\n    import paytocontract.protocol\n")[0] == ["paytocontract.protocol:2"]
    assert _package_imports("def f():\n    import json\n") == ([], set())
    _, top = _package_imports(cli_source + "\nfrom .contract import redact\n")
    assert top - CLI_MODULE_IMPORTS == {"paytocontract.contract"}
