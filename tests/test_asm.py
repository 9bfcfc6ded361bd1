"""Tests for the assembler and disassembler."""

import pytest

from repro.asm import assemble, disassemble, format_listing
from repro.binfmt import link
from repro.errors import AsmError, LinkError
from repro.isa import Op

from .helpers import run_asm


class TestAssembler:
    def test_basic_instructions(self):
        module = assemble("""
        .text
        movi r1, 42
        add r1, r2
        ret
        """)
        instrs = list(disassemble(bytes(module.sections[".text"])))
        assert [i.op for i in instrs] == [Op.MOVI, Op.ADD, Op.RET]

    def test_negative_and_hex_immediates(self):
        module = assemble(".text\nmovi r1, -5\nmovi r2, 0xff\n")
        instrs = list(disassemble(bytes(module.sections[".text"])))
        assert instrs[0].operands[1].signed == -5
        assert instrs[1].operands[1].value == 0xFF

    def test_char_immediate(self):
        module = assemble(".text\nmovi r1, 'A'\ncmpi r2, '\\n'\n")
        instrs = list(disassemble(bytes(module.sections[".text"])))
        assert instrs[0].operands[1].value == ord("A")
        assert instrs[1].operands[1].value == ord("\n")

    def test_memory_operands(self):
        module = assemble(".text\nld r1, [r2+8]\nst [sp-16], r3\nld r4, [r5]\n")
        instrs = list(disassemble(bytes(module.sections[".text"])))
        assert instrs[0].operands[1].disp == 8
        assert instrs[1].operands[0].disp == -16
        assert instrs[2].operands[1].disp == 0

    def test_label_on_same_line(self):
        module = assemble(".text\nstart: movi r1, 1\n")
        assert module.symbols["start"] == (".text", 0)

    def test_duplicate_label_rejected(self):
        with pytest.raises(AsmError):
            assemble(".text\nfoo:\nfoo:\n")

    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError, match="unknown mnemonic"):
            assemble(".text\nbogus r1, r2\n")

    def test_wrong_operand_count(self):
        with pytest.raises(AsmError, match="expected 2 operands"):
            assemble(".text\nmov r1\n")

    def test_instruction_outside_code_section(self):
        with pytest.raises(AsmError):
            assemble(".data\nmov r1, r2\n")

    def test_comments_and_blank_lines(self):
        module = assemble("""
        ; full line comment
        .text
        movi r1, 1   ; trailing comment
        # hash comment
        """)
        assert len(list(disassemble(bytes(module.sections[".text"])))) == 1

    def test_comment_characters_in_char_literals(self):
        module = assemble(".data\nd: .byte '#', ';', 'a'  ; three bytes\n"
                          ".text\nmovi r1, ';'\ncmpi r2, '#'  # hash comment\n")
        assert bytes(module.sections[".data"]) == b"#;a"
        instrs = list(disassemble(bytes(module.sections[".text"])))
        assert [i.operands[1].value for i in instrs] == [ord(";"), ord("#")]

    def test_escaped_quotes_do_not_hide_comments(self):
        module = assemble('.rodata\ns: .asciz "a\\\\" ; c"\n'
                          ".text\nmovi r1, '\\'' ; it's a quote\n")
        assert bytes(module.sections[".rodata"]) == b"a\\\0"
        (instr,) = disassemble(bytes(module.sections[".text"]))
        assert instr.operands[1].value == ord("'")

    def test_data_directives(self):
        module = assemble("""
        .data
        a: .byte 1, 2, 0xff
        .align 4
        b: .word 258
        c: .long 70000
        d: .quad 1, 2
        """)
        data = bytes(module.sections[".data"])
        assert data[:3] == b"\x01\x02\xff"
        assert module.symbols["b"] == (".data", 4)

    def test_asciz_with_escapes(self):
        module = assemble('.rodata\ns: .asciz "a\\n\\x41\\0b"\n')
        assert bytes(module.sections[".rodata"]) == b"a\nAb\0"[:3] + b"\x00b\x00"

    def test_space_and_bss(self):
        module = assemble(".bss\nbuf: .space 64\nafter:\n")
        assert module.bss_size == 64
        assert module.symbols["after"] == (".bss", 64)

    def test_quad_with_symbol_reloc(self):
        module = assemble(".data\ntable: .quad target, 5\n.text\ntarget: ret\n")
        relocs = [r for r in module.relocs if r.symbol == "target"]
        assert len(relocs) == 1 and relocs[0].kind == "abs64"

    def test_movi_symbol_plus_addend(self):
        module = assemble(".text\nmovi r1, foo+8\nfoo: ret\n")
        (reloc,) = module.relocs
        assert reloc.addend == 8


class TestEndToEnd:
    def test_loop_program(self):
        result = run_asm("""
        .text
        .global _start
        _start:
            movi r1, 0
            movi r2, 10
        .Lloop:
            add r1, r2
            subi r2, 1
            cmpi r2, 0
            jnz .Lloop
            movi r0, 0
            syscall
            hlt
        """)
        assert result.exit_code == 55

    def test_forward_and_backward_branches(self):
        result = run_asm("""
        .text
        .global _start
        _start:
            movi r1, 1
            jmp .Lfwd
            movi r1, 99
        .Lfwd:
            movi r0, 0
            syscall
            hlt
        """)
        assert result.exit_code == 1

    def test_format_listing(self):
        module = assemble(".text\nf: movi r1, 1\nret\n")
        image = link([module], entry="f")
        sec = image.section(".text")
        text = format_listing(sec.data, sec.vaddr, image.symbols_by_addr())
        assert "f:" in text and "movi r1, 1" in text


class TestDisassembler:
    def test_stops_at_invalid(self):
        instrs = list(disassemble(b"\x00\xff\x00", 0))
        assert len(instrs) == 1  # nop, then invalid opcode stops the sweep

    def test_empty(self):
        assert list(disassemble(b"", 0)) == []
