"""Tests for the shared decoded-instruction table (``Image.decoded``):
each image is decoded once per process, and every machine process and
the symbolic explorer read the same entries."""

import pytest

import repro.binfmt.image as image_mod
import repro.vm.machine as machine_mod
from repro import obs
from repro.asm import assemble
from repro.binfmt import Image, link
from repro.bombs import get_bomb
from repro.fuzz import CoverageFuzzer, FuzzConfig
from repro.isa import decode
from repro.symex import AngrEngine, SymexPolicy
from repro.vm import Machine, Memory


def _fresh(bomb_id: str) -> Image:
    """A new image object for a dataset bomb, so its table starts empty
    whatever other tests ran in this process."""
    return Image.from_bytes(get_bomb(bomb_id).image.to_bytes())


def _policy() -> SymexPolicy:
    return SymexPolicy(name="t", with_libs=True, max_states=64,
                       max_total_steps=20_000, max_queries=100, time_limit=60.0)


def _reference(image: Image, pc: int):
    """``decode()`` of the loaded image bytes at *pc*."""
    memory = Memory()
    for sec in image.sections:
        memory.write(sec.vaddr, sec.data)
    return decode(memory.read(pc, 16), pc)


@pytest.fixture
def decoded_pcs(monkeypatch):
    """Every pc handed to ``decode`` by the image table or the VM."""
    pcs: list[int] = []
    for module in (image_mod, machine_mod):
        real = module.decode

        def counting(data, addr, real=real):
            pcs.append(addr)
            return real(data, addr)

        monkeypatch.setattr(module, "decode", counting)
    return pcs


class TestDecodeOncePerProcess:
    def test_fuzz_campaign_decodes_each_pc_once(self, decoded_pcs):
        image = _fresh("sv_time")
        fuzzer = CoverageFuzzer(image, FuzzConfig(budget=40),
                                get_bomb("sv_time").base_env(), argv0=b"sv_time")
        rec = obs.Recorder()
        with obs.recording(rec):
            result = fuzzer.campaign((b"1",))
        counters = rec.snapshot()["counters"]
        assert result.executions >= 40
        assert decoded_pcs and len(decoded_pcs) == len(set(decoded_pcs))
        assert set(decoded_pcs) == set(image.decoded)
        assert counters["vm.decodes"] == len(decoded_pcs)
        assert counters["vm.instructions"] > 10 * counters["vm.decodes"]

    def test_explorer_and_machines_share_one_decode(self, decoded_pcs):
        image = _fresh("cp_stack")
        AngrEngine(image, _policy()).explore([b"11"], argv0=b"cp_stack")
        explored = dict(image.decoded)
        for arg in (b"11", b"49", b"x"):
            Machine(image, [b"cp_stack", arg]).run()
        assert explored and len(decoded_pcs) == len(set(decoded_pcs))
        assert all(image.decoded[pc] is instr for pc, instr in explored.items())
        machine = Machine(image, [b"cp_stack", b"49"])
        proc = machine.processes[machine.main_pid]
        engine = AngrEngine(image, _policy())
        for pc in image.decoded:
            assert engine._fetch(pc) is machine._fetch(proc, pc)


class TestTableContents:
    def test_entries_are_code_pcs_equal_to_reference_decode(self):
        image = _fresh("cp_stack")
        AngrEngine(image, _policy()).explore([b"11"], argv0=b"cp_stack")
        Machine(image, [b"cp_stack", b"49"]).run()
        assert image.decoded
        for pc, instr in image.decoded.items():
            assert image.is_code_addr(pc)
            assert instr == _reference(image, pc)

    def test_signal_at_non_code_pc_is_not_cached(self):
        # A SIGSEGV handler catches a jump into .data; delivering the
        # signal decodes the faulting pc, which must stay out of both
        # the shared and the process table.
        image = link([assemble("""
        .text
        .global _start
        _start:
            movi r0, 16
            movi r1, 11
            movi r2, handler
            syscall
            movi r3, blob
            jmpr r3
        handler:
            movi r0, 0
            movi r1, 5
            syscall
        .data
        blob: .byte 0, 0, 0, 0
        """, "segv.s")])
        blob = image.symbol_addr("blob")
        machine = Machine(image, [b"t"])
        assert machine.run().exit_code == 5
        assert blob not in image.decoded
        assert blob not in machine.processes[machine.main_pid].code
