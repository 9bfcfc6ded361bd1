"""BombC compiler driver: sources -> REXF image.

Program code goes to ``.text``; the runtime library (libc subset, math,
rand, SHA1, AES, pthread) is compiled into the ``.lib`` section so its
functions carry symbol kind ``lib`` — the surface analysis tools can
either analyze ("with libraries") or hook ("no-lib"), matching the two
Angr configurations in the paper's Table II.

The runtime is compiled once per process (:func:`_runtime`) and its
modules are linked into every image.  That is sound because the
runtime's generated code cannot depend on a program that links: locals
shadow globals and every unresolved name raises, a program function or
global that redefines a runtime one is rejected when the program
symbols are merged, and a program global named like a runtime function
fails at link time with ``duplicate symbol``.  ``link`` only reads the
modules it is given, so sharing them between images is safe.
"""

from __future__ import annotations

from functools import lru_cache

from ..asm import Module, assemble
from ..binfmt import Image, link
from . import cast as A
from .codegen import ProgramInfo, generate_unit
from .parser import parse

#: C runtime startup: calls main(argc, argv) then exits with its result.
CRT_ASM = """
.text
.global _start
_start:
    call main
    mov r1, r0
    movi r0, 0      ; SYS_EXIT
    syscall
    hlt
"""


@lru_cache(maxsize=None)
def _crt0() -> Module:
    return assemble(CRT_ASM, "crt0.s")


@lru_cache(maxsize=None)
def _runtime() -> tuple[ProgramInfo, tuple[Module, ...]]:
    """The runtime's program symbols and its assembled ``.lib`` modules.

    Built once per process.  The parsed units are dropped on return:
    only the symbol table and the modules are kept.
    """
    from ..runtime import runtime_sources

    units = [parse(text, name) for name, text in runtime_sources()]
    info = ProgramInfo.collect(units)
    modules = tuple(
        assemble(generate_unit(unit, info, ".lib"), unit.name + ".s")
        for unit in units
    )
    return info, modules


def compile_sources(
    sources: list[tuple[str, str]],
    include_runtime: bool = True,
    asm_modules: list[tuple[str, str]] | None = None,
    entry: str = "_start",
) -> Image:
    """Compile BombC *sources* (name, text) plus optional raw *asm_modules*.

    Only *sources* and *asm_modules* are parsed and assembled; they are
    generated against their own symbols merged with the runtime's, and
    linked as ``crt0, sources, runtime, asm_modules``.  The runtime's
    modules come from the once-per-process build, so every image is
    byte-identical to one compiled with the runtime from scratch.

    Raw assembly modules let individual bombs hand-author code shapes a
    compiler would not emit deterministically (fixed-stride jump-table
    blocks for the symbolic-jump challenge).
    """
    units = [parse(text, name) for name, text in sources]
    info = ProgramInfo.collect(units)
    runtime_modules: tuple[Module, ...] = ()
    if include_runtime:
        runtime_info, runtime_modules = _runtime()
        info.merge(runtime_info)
    _declare_asm_symbols(info, asm_modules or [])

    modules = [_crt0()]
    for unit in units:
        modules.append(assemble(generate_unit(unit, info), unit.name + ".s"))
    modules.extend(runtime_modules)
    for name, text in asm_modules or []:
        modules.append(assemble(text, name))
    return link(modules, entry=entry)


def _declare_asm_symbols(info: ProgramInfo, asm_modules: list[tuple[str, str]]) -> None:
    """Make functions defined in raw asm callable from BombC.

    Any ``.global name`` in an asm module is registered as
    ``int name(int, ..., int)`` with up to 6 int parameters; BombC call
    sites type-check against argument count at the call site only, so we
    register a permissive variadic-style signature per arity by scanning
    for ``name(`` is not possible — instead asm functions are declared
    with a special marker signature accepting any arity.
    """
    import re

    for _name, text in asm_modules:
        for match in re.finditer(r"^\s*\.global\s+([\w.$]+)", text, re.MULTILINE):
            sym = match.group(1)
            if sym not in info.functions:
                info.functions[sym] = (A.INT, [])
                info.asm_functions.add(sym)


def compile_single(source: str, name: str = "prog.bc", **kwargs) -> Image:
    """Compile one BombC source string into an image."""
    return compile_sources([(name, source)], **kwargs)
