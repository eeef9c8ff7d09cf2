"""Stable content fingerprints for pipeline artifacts.

The artifact cache is content-addressed: a pass result is keyed by a
SHA-256 digest of everything that determines it — the canonical
serialization of the input :class:`~repro.ir.program.Program`, the
scheme, the processor count, and the pass's own version string.  Two
structurally identical programs built independently (same arrays, same
nests, same affine expressions, same compute bytecode) therefore map to
the same key, while any change to the IR, the configuration, or the
pass implementation produces a different one.

Statement ``compute`` callables are part of program semantics (the
executor applies them), so they participate in the fingerprint via
their code objects — bytecode, constants, names, defaults and closure
values — which is stable across repeated builds of the same source.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Optional

from repro.decomp.model import Decomposition
from repro.ir.arrays import ArrayRef
from repro.ir.expr import AffineExpr
from repro.ir.loops import LoopNest, Statement
from repro.ir.program import Program

__all__ = [
    "fingerprint_program",
    "fingerprint_decomposition",
    "make_key",
    "source_version",
]

_SEP = b"\x1f"  # unit separator: cannot appear in the ascii tokens below


def _feed(h, *tokens: str) -> None:
    for t in tokens:
        h.update(t.encode("utf-8", "backslashreplace"))
        h.update(_SEP)


def _feed_expr(h, e: AffineExpr) -> None:
    _feed(h, "expr", str(e.const))
    for v, c in e.coeffs:
        _feed(h, v, str(c))


def _feed_code(h, code) -> None:
    _feed(h, "code", str(code.co_argcount), str(code.co_flags))
    h.update(code.co_code)
    h.update(_SEP)
    _feed(h, *code.co_names)
    _feed(h, *code.co_varnames)
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            _feed_code(h, const)
        else:
            _feed(h, repr(const))


def _feed_callable(h, fn) -> None:
    if fn is None:
        _feed(h, "compute:none")
        return
    code = getattr(fn, "__code__", None)
    if code is None:
        # Builtins / callables without bytecode: fall back to their
        # qualified name, which is as stable as such objects get.
        _feed(h, "compute:named", getattr(fn, "__qualname__", repr(fn)))
        return
    _feed(h, "compute:code")
    _feed_code(h, code)
    for d in fn.__defaults__ or ():
        _feed(h, repr(d))
    for cell in fn.__closure__ or ():
        _feed(h, repr(cell.cell_contents))


def _feed_ref(h, ref: ArrayRef) -> None:
    _feed(h, "ref", ref.array.name)
    for e in ref.index_exprs:
        _feed_expr(h, e)


def _feed_statement(h, st: Statement) -> None:
    _feed(h, "stmt", st.label, str(st.depth))
    _feed_ref(h, st.write)
    for r in st.reads:
        _feed_ref(h, r)
    _feed_callable(h, st.compute)


def _feed_nest(h, nest: LoopNest) -> None:
    _feed(h, "nest", nest.name, str(nest.frequency))
    _feed(h, *map(str, nest.parallel_levels))
    _feed(h, *map(str, nest.pipeline_levels))
    for loop in nest.loops:
        _feed(h, "loop", loop.var)
        _feed_expr(h, loop.lower)
        _feed_expr(h, loop.upper)
    for st in nest.body:
        _feed_statement(h, st)


def fingerprint_program(prog: Program) -> str:
    """SHA-256 hex digest of a program's canonical content."""
    h = hashlib.sha256()
    _feed(h, "program", prog.name, str(prog.time_steps))
    for k in sorted(prog.params):
        _feed(h, k, str(prog.params[k]))
    for name in sorted(prog.arrays):
        decl = prog.arrays[name]
        _feed(h, "array", decl.name, str(decl.element_size))
        _feed(h, *map(str, decl.dims))
    for nest in prog.nests:
        _feed_nest(h, nest)
    return h.hexdigest()


def fingerprint_decomposition(decomp: Optional[Decomposition]) -> str:
    """SHA-256 hex digest of a decomposition's content (``"auto"``-less
    callers use this when a decomposition is supplied externally, e.g.
    from HPF directives, so it contributes to downstream pass keys)."""
    if decomp is None:
        return "none"
    h = hashlib.sha256()
    _feed(h, "decomp", str(decomp.rank))
    for (nest, stmt) in sorted(decomp.comp):
        cd = decomp.comp[(nest, stmt)]
        _feed(h, "comp", nest, str(stmt))
        for row in cd.matrix:
            _feed(h, *map(str, row))
        _feed(h, *map(str, cd.offset))
    for name in sorted(decomp.data):
        dd = decomp.data[name]
        _feed(h, "data", name, str(int(dd.replicated)))
        for row in dd.matrix:
            _feed(h, *map(str, row))
        _feed(h, *map(str, dd.offset))
    for f in decomp.foldings:
        _feed(h, "fold", f.kind.value, str(f.block))
    _feed(h, "pipelined", *decomp.pipelined_nests)
    _feed(h, "excluded", *decomp.excluded_nests)
    return h.hexdigest()


def make_key(components: Iterable[str]) -> str:
    """Collapse key components (pass name, version, fingerprints,
    configuration scalars as strings) into one cache key."""
    h = hashlib.sha256()
    _feed(h, *components)
    return h.hexdigest()


def source_version(package_dir: Path, prefix: str) -> str:
    """Version of the code in one package directory: ``prefix`` plus a
    SHA-256 over its sorted ``*.py`` sources (names and bytes), so any
    edit to the package gives a new version."""
    h = hashlib.sha256()
    for path in sorted(Path(package_dir).glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return prefix + h.hexdigest()[:16]
