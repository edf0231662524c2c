"""Guard against dead code growing back: every top-level def in the package
must be reachable by name from a production root, or carry a one-line
reason in ALLOWED.

The scan is a stdlib-``ast`` name-reachability walk.  A def is a module's
top-level ``def``/``class`` or an assigned name.  Its references are the
names and attribute chains in its source, resolved through the module's
own defs and its imports (relative imports, re-exports and module aliases
followed).  The roots are the query registry (``QUERIES``,
``ORACLE_SQL``, ``TRACKED``, ``PINNED_BY``), the extraction job (``run_extraction`` and
``extraction_pipeline``), every module-level statement that is not a def
or an import (it runs on import, ``__main__``'s dispatch included), and
everything in the scripts outside the package that drive it:
``__ray_entry__.py``, ``bench.py``, ``tools/`` and ``perfbench/``.
Tests are not roots: a def only a test reaches is dead code with a test,
and it is deleted with its test, not parked.  ALLOWED takes exactly two
kinds of reason: a reference implementation a test compares a shipped
route against (``_REF``), and a fixture generator (``_FIX``).
"""

import ast
import pathlib

import ocr_platform_ray

PKG = pathlib.Path(ocr_platform_ray.__file__).parent
REPO = PKG.parent
PKG_NAME = PKG.name

_Q = "ocr_platform_ray.pipelines.queries"
ROOT_DEFS = {
    (_Q, "QUERIES"),
    (_Q, "ORACLE_SQL"),
    (_Q, "TRACKED"),
    (_Q, "PINNED_BY"),
    ("ocr_platform_ray.pipelines.extraction", "run_extraction"),
    ("ocr_platform_ray.pipelines.extraction", "extraction_pipeline"),
}

_REF = "reference implementation a remaining test compares a shipped route against: "
_FIX = "fixture generator: "

# Defs no production root reaches that stay, each with its reason: one of
# the two kinds above, nothing else (test_allowlist_reasons holds it).
ALLOWED: dict[tuple[str, str], str] = {
    ("ocr_platform_ray.functions.hijri", "hijri_to_gregorian"): _REF + "gregorian_to_hijri round trips",
    ("ocr_platform_ray.functions.hijri", "_jd_to_gregorian"): _REF + "hijri_to_gregorian's day arithmetic",
    ("ocr_platform_ray.functions.phonetic", "soundex"): _REF + "soundex_batch",
    ("ocr_platform_ray.functions.phonetic", "_HW_TAIL"): _REF + "soundex",
    ("ocr_platform_ray.functions.phonetic", "_RUNS"): _REF + "soundex",
    ("ocr_platform_ray.functions.url", "canonicalize_url"): _REF + "add_canonical_url",
    ("ocr_platform_ray.sources.tfrecord", "crc32c"): _REF + "the batch CRC-32C",
    ("ocr_platform_ray.ops.unigram", "unigram_train"): _REF + "unigram_train_distributed",
    ("ocr_platform_ray.ops.relational", "native_join"): _REF + "bucketed_hash_join",
    ("ocr_platform_ray.ops.cluster", "assign_clusters"): _REF + "kmeans_fit and semdedup's survivor rule",
    ("ocr_platform_ray.sources.pdfgen", "encrypt_pdf_aes256"): _FIX + "AES-256 R6 encrypted PDFs",
    ("ocr_platform_ray.sources.pdfgen", "_enc_hash_r6"): _FIX + "encrypt_pdf_aes256's key hash",
    ("ocr_platform_ray.stages.aes", "aes_ecb_encrypt"): _FIX + "the FIPS-197 KAT entry to the shared AES core",
    ("ocr_platform_ray.stages.aes", "aes_ecb_decrypt"): _FIX + "the FIPS-197 KAT entry to the shared AES core",
    ("ocr_platform_ray.stages.aes", "_encrypt_state"): _FIX + "the AES encrypt path of the PDF encryptors",
    ("ocr_platform_ray.stages.aes", "_SHIFT_COLS"): _FIX + "the AES encrypt path of the PDF encryptors",
}


def _module_name(path: pathlib.Path) -> str:
    parts = [PKG_NAME, *path.relative_to(PKG).with_suffix("").parts]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _bindings(node: ast.AST, modname: str, is_pkg: bool) -> dict[str, tuple[str, str | None]]:
    """Names an import statement binds -> (module, name); name None means
    the binding is the module itself."""
    if isinstance(node, ast.Import):
        # ``import a.b as c`` binds module a.b to c; ``import a.b`` binds a
        out = {}
        for a in node.names:
            bound = a.name if a.asname else a.name.split(".")[0]
            out[a.asname or bound] = (bound, None)
        return out
    mod = node.module or ""
    if node.level:
        base = modname.split(".")
        if not is_pkg:
            base.pop()
        base = base[: len(base) - node.level + 1]
        mod = ".".join(base + ([node.module] if node.module else []))
    return {(a.asname or a.name): (mod, a.name) for a in node.names}


class _Module:
    def __init__(self, name: str, path: pathlib.Path, is_pkg: bool):
        self.name = name
        self.is_pkg = is_pkg
        tree = ast.parse(path.read_text(), filename=str(path))
        self.defs: dict[str, list[ast.AST]] = {}
        self.imports: dict[str, tuple[str, str | None]] = {}
        self.stmts: list[ast.AST] = []
        for node in tree.body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self.imports.update(_bindings(node, name, is_pkg))
            elif targets and all(isinstance(t, ast.Name) for t in targets):
                for t in targets:
                    self.defs.setdefault(t.id, []).append(node)
            else:
                self.stmts.append(node)
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        self.imports.update(_bindings(sub, name, is_pkg))


class Scan:
    """The def graph of the package plus the files that import it."""

    def __init__(self, extra_roots: list[pathlib.Path]):
        self.modules: dict[str, _Module] = {}
        for p in sorted(PKG.rglob("*.py")):
            name = _module_name(p)
            self.modules[name] = _Module(name, p, p.name == "__init__.py")
        self.external = [
            _Module(f"<{p.relative_to(REPO)}>", p, False) for p in extra_roots
        ]

    # -- name resolution ---------------------------------------------------
    def _lookup(self, mod: str, name: str, seen=None) -> tuple[str, str | None] | None:
        """(module, def name) for ``name`` in module ``mod``; def name None
        means the name is a module."""
        seen = seen or set()
        if (mod, name) in seen:
            return None
        seen.add((mod, name))
        m = self.modules.get(mod)
        if m is not None:
            if name in m.defs:
                return (mod, name)
            if name in m.imports:
                return self._target(*m.imports[name], seen)
        sub = f"{mod}.{name}"
        if sub in self.modules:
            return (sub, None)
        return None

    def _target(self, mod: str, name: str | None, seen=None):
        if name is None:
            return (mod, None) if mod in self.modules else None
        return self._lookup(mod, name, seen)

    def _resolve_local(self, m: _Module, name: str):
        if name in m.defs and m.name in self.modules:
            return (m.name, name)
        if name in m.imports:
            return self._target(*m.imports[name])
        return None

    def refs(self, m: _Module, nodes) -> set[tuple[str, str]]:
        """Package defs referenced by ``nodes`` (source of module ``m``)."""
        out: set[tuple[str, str]] = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute):
                    chain = []
                    cur = sub
                    while isinstance(cur, ast.Attribute):
                        chain.append(cur.attr)
                        cur = cur.value
                    if not isinstance(cur, ast.Name):
                        continue
                    hit = self._resolve_local(m, cur.id)
                    for attr in reversed(chain):
                        if hit is None or hit[1] is not None:
                            break
                        hit = self._lookup(hit[0], attr)
                        if hit is not None and hit[1] is not None:
                            out.add(hit)
                elif isinstance(sub, ast.Name):
                    hit = self._resolve_local(m, sub.id)
                    if hit is not None and hit[1] is not None:
                        out.add(hit)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    # ``from x import y`` in a function body or a script
                    for tgt in _bindings(sub, m.name, m.is_pkg).values():
                        hit = self._target(*tgt)
                        if hit is not None and hit[1] is not None:
                            out.add(hit)
        return out

    # -- reachability ------------------------------------------------------
    def all_defs(self) -> set[tuple[str, str]]:
        # dunders (``__version__``) are module metadata, not code
        return {
            (m.name, d)
            for m in self.modules.values()
            for d in m.defs
            if not (d.startswith("__") and d.endswith("__"))
        }

    def reached(self) -> set[tuple[str, str]]:
        todo = set(ROOT_DEFS)
        for m in self.modules.values():
            todo |= self.refs(m, m.stmts)
        for m in self.external:
            todo |= self.refs(m, m.stmts + [n for ns in m.defs.values() for n in ns])
        seen: set[tuple[str, str]] = set()
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            m = self.modules.get(key[0])
            if m is not None and key[1] in m.defs:
                todo |= self.refs(m, m.defs[key[1]]) - seen
        return seen


def production_roots() -> list[pathlib.Path]:
    files = [REPO / "__ray_entry__.py", REPO / "bench.py"]
    files += sorted((REPO / "tools").rglob("*.py"))
    files += sorted((REPO / "perfbench").rglob("*.py"))
    return [p for p in files if p.exists()]


def unreached() -> set[tuple[str, str]]:
    scan = Scan(production_roots())
    return scan.all_defs() - scan.reached()


class TestReachability:
    def test_every_def_is_reached_or_allowed(self):
        dead = sorted(unreached() - set(ALLOWED))
        assert not dead, (
            "top-level defs no query, job or tool reaches (delete them, or "
            f"add a reason to ALLOWED): {dead}"
        )

    def test_allowlist_reasons(self):
        odd = sorted(k for k, why in ALLOWED.items() if not why.startswith((_REF, _FIX)))
        assert not odd, f"ALLOWED entries that are neither _REF nor _FIX: {odd}"

    def test_allowlist_has_no_stale_entries(self):
        stale = sorted(set(ALLOWED) - unreached())
        assert not stale, f"ALLOWED entries that are reached or gone: {stale}"
