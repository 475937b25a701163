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


# Every power of the merchant key in ``protocol`` goes through
# ``curve.fixed_base``, so that its powers share the key's fixed-base table;
# a new flow that raised ``merchant_pub`` directly would quietly take the
# variable-base path.
def _merchant_powers(source: str):
    """``(routed, unrouted)``: the line of each power whose base names
    ``merchant_pub``, split by whether the base is ``fixed_base(merchant_pub)``.
    A ``pow`` call and any use of ``_var_mul`` count as unrouted."""
    routed, unrouted = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = node.left
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow" and node.args:
            base = node.args[0]
        elif (getattr(node, "id", None) or getattr(node, "attr", None)) == "_var_mul":
            unrouted.append(node.lineno)
            continue
        else:
            continue
        if not any(isinstance(n, ast.Name) and n.id == "merchant_pub" for n in ast.walk(base)):
            continue
        fixed = (isinstance(node, ast.BinOp) and isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
                 and base.func.id == "fixed_base" and len(base.args) == 1 and not base.keywords
                 and isinstance(base.args[0], ast.Name) and base.args[0].id == "merchant_pub")
        (routed if fixed else unrouted).append(node.lineno)
    return routed, unrouted


def test_every_merchant_key_power_takes_the_fixed_base_route():
    routed, unrouted = _merchant_powers((PACKAGE / "protocol.py").read_text())
    assert unrouted == []
    assert len(routed) >= 4  # signal_value, prove_dh twice, verify_dh


def test_fixed_base_check_catches_a_planted_power():
    source = (PACKAGE / "protocol.py").read_text()
    lines = source.count("\n")
    routed, _ = _merchant_powers(source)
    planted = source + "\n\ndef _echo(merchant_pub, k):\n    return merchant_pub ** k\n"
    assert _merchant_powers(planted) == (routed, [lines + 4])
    assert _merchant_powers("x = pow(merchant_pub, 3)\n") == ([], [1])
    assert _merchant_powers("x = curve._var_mul(k, merchant_pub.x, merchant_pub.y)\n") == ([], [1])
    assert _merchant_powers("x = fixed_base(other) ** k\ny = (merchant_pub * G) ** k\n") == ([], [2])
    assert _merchant_powers("x = fixed_base(merchant_pub) ** k\ny = signal_pub ** k\n") == ([1], [])


# ``KeyPair(private)`` derives its public key itself, so that no keypair can
# carry a public key other than ``G ** private``; the ``from_private`` alias
# it replaced stays gone, under any spelling that names it.
RETIRED_NAMES = {"from_private"}


def _retired_names(source: str):
    """The line of each mention of a retired name in ``source``: read or bound,
    as an attribute, a definition, an import, an argument or a string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = (node.name,)
        elif isinstance(node, ast.alias):
            names = (node.name.rpartition(".")[2], node.asname)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names = (node.arg,)
        elif isinstance(node, ast.Constant):
            names = (node.value,)
        else:
            continue
        if RETIRED_NAMES.intersection(names):
            found.append(node.lineno)
    return sorted(found)


def test_the_package_names_no_retired_alias():
    found = {path.name: _retired_names(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_retired_name_check_catches_a_planted_alias():
    source = (PACKAGE / "curve.py").read_text()
    lines = source.count("\n")
    planted = source + "\n\ndef _key(k):\n    return KeyPair.from_private(k)\n"
    assert _retired_names(planted) == [lines + 4]
    assert _retired_names("from .curve import from_private\n") == [1]
    assert _retired_names("class K:\n    @classmethod\n    def from_private(cls, k):\n        pass\n") == [3]
    assert _retired_names("make = getattr(KeyPair, 'from_private')\n") == [1]
    assert _retired_names("pair = KeyPair(k)\nfrom_private_key = 1\n") == []


# A spend signs its txid, which ``Transaction`` derives from its preimage, so
# nothing else serializes one: the builders and the validator read the txid.
PREIMAGE_CALLERS = {"chain.py:Transaction.__post_init__"}


def _preimage_callers(name: str, source: str):
    """``module:Class.function`` of each function in ``source`` that calls ``tx_preimage``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                if isinstance(child, ast.Call):
                    func = child.func
                    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "tx_preimage":
                        found.add(f"{name}:{'.'.join(scope)}")
                visit(child, scope)

    visit(ast.parse(source, filename=name), ())
    return found


def test_only_a_transaction_serializes_its_preimage():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _preimage_callers(path.name, path.read_text())
    assert found == PREIMAGE_CALLERS


def test_preimage_check_catches_a_planted_call():
    source = (PACKAGE / "chain.py").read_text()
    planted = source.replace("    def _validate(self, tx: Transaction, verify: Verify):\n",
                             "    def _validate(self, tx: Transaction, verify: Verify):\n"
                             "        preimage = chain.tx_preimage(tx.inputs, tx.outputs)\n")
    assert _preimage_callers("chain.py", planted) == PREIMAGE_CALLERS | {"chain.py:Ledger._validate"}
    assert _preimage_callers("cli.py", "def f():\n    return [tx_preimage(i, o) for i, o in x]\n") == {"cli.py:f"}


# Value types are frozen dataclasses, which generate the equality, hashing and
# refused assignment that a hand-rolled immutable class writes itself, and which
# copy and pickle without help.  So no class defines ``__setattr__``, and only
# ``Signature`` defines ``__reduce__``: a ``bytes`` whose constructor takes (r, s).
SETATTR_OWNERS = set()
REDUCE_OWNERS = {"curve.py:Signature"}


def _defining_classes(name: str, source: str, method: str):
    """``module:Class`` of each class in ``source`` whose body defines or assigns ``method``."""
    found = set()
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            if method in names:
                found.add(f"{name}:{node.name}")
    return found


def _package_classes_defining(method: str):
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _defining_classes(path.name, path.read_text(), method)
    return found


def test_no_class_defines_setattr():
    assert _package_classes_defining("__setattr__") == SETATTR_OWNERS


def test_setattr_check_catches_a_planted_method():
    source = (PACKAGE / "curve.py").read_text()
    planted = source.replace("    def __post_init__(self):\n        x, y = self.x, self.y\n",
                             "    def __setattr__(self, name, value):\n"
                             "        raise AttributeError(name)\n\n"
                             "    def __post_init__(self):\n        x, y = self.x, self.y\n")
    assert _defining_classes("curve.py", planted, "__setattr__") == {"curve.py:Point"}
    assert _defining_classes("chain.py", "class A:\n    __setattr__ = f\n", "__setattr__") == {"chain.py:A"}
    assert _defining_classes("chain.py", "class A:\n    class B:\n        def __setattr__(s, n, v):\n"
                             "            pass\n", "__setattr__") == {"chain.py:B"}
    assert _defining_classes("chain.py", "def __setattr__(s, n, v):\n    pass\n", "__setattr__") == set()


def test_only_signature_defines_reduce():
    assert _package_classes_defining("__reduce__") == REDUCE_OWNERS


def test_reduce_check_catches_a_planted_method():
    source = (PACKAGE / "curve.py").read_text()
    planted = source.replace("    value: int\n",
                             "    value: int\n\n"
                             "    def __reduce__(self):\n        return Scalar, (self.value,)\n", 1)
    assert _defining_classes("curve.py", planted, "__reduce__") == REDUCE_OWNERS | {"curve.py:Scalar"}
    assert _defining_classes("wallet.py", "class A:\n    __reduce__: object = f\n", "__reduce__") == {"wallet.py:A"}
