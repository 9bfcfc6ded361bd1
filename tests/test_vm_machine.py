"""Tests for the concrete machine: memory, OS layer, processes, signals."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.binfmt import link
from repro.isa import OPSPEC, FReg, Imm, Instruction, Mem, Op, Reg, Target, encode
from repro.vm import Environment, Machine, Memory
from repro.vm.machine import compile_handler
from repro.vm.memory import PAGE_SIZE
from repro.vm.syscalls import BOMB_EXIT_CODE, Sys

from .helpers import run_asm, run_bc


class TestMemory:
    def test_zero_filled(self):
        mem = Memory()
        assert mem.read(0x5000, 16) == b"\0" * 16

    def test_write_read_roundtrip(self):
        mem = Memory()
        mem.write(0x1234, b"hello")
        assert mem.read(0x1234, 5) == b"hello"

    def test_cross_page_access(self):
        mem = Memory()
        data = bytes(range(64))
        mem.write(0xFFF0, data)
        assert mem.read(0xFFF0, 64) == data

    @given(addr=st.integers(min_value=0, max_value=2**48),
           value=st.integers(min_value=0, max_value=2**64 - 1),
           size=st.sampled_from([1, 2, 4, 8]))
    def test_uint_roundtrip(self, addr, value, size):
        mem = Memory()
        mem.write_uint(addr, value, size)
        assert mem.read_uint(addr, size) == value % (1 << (8 * size))

    def test_cstr(self):
        mem = Memory()
        mem.write_cstr(0x100, b"abc")
        assert mem.read_cstr(0x100) == b"abc"

    def test_cstr_crossing_a_page_boundary(self):
        mem = Memory()
        text = bytes(range(1, 200))
        start = 3 * PAGE_SIZE - 50
        mem.write_cstr(start, text)
        assert mem.read_cstr(start) == text
        # Terminated by the untouched (zero) page after the string.
        mem.write(4 * PAGE_SIZE - 3, b"xyz")
        assert mem.read_cstr(4 * PAGE_SIZE - 3) == b"xyz"

    def test_cstr_stops_at_limit(self):
        mem = Memory()
        text = b"a" * (PAGE_SIZE + 100)
        mem.write_cstr(PAGE_SIZE - 10, text)
        assert mem.read_cstr(PAGE_SIZE - 10, limit=PAGE_SIZE + 100) == text
        assert mem.read_cstr(PAGE_SIZE - 10, limit=30) == b"a" * 30
        assert mem.read_cstr(PAGE_SIZE - 10, limit=0) == b""
        assert mem.read_cstr(PAGE_SIZE - 10) == b"a" * 4096

    def test_clone_is_independent(self):
        mem = Memory()
        mem.write(0x10, b"x")
        other = mem.clone()
        other.write(0x10, b"y")
        assert mem.read(0x10, 1) == b"x"

    def test_sint(self):
        mem = Memory()
        mem.write_uint(0, 0xFF, 1)
        assert mem.read_sint(0, 1) == -1


class TestArgvSetup:
    def test_argc_argv_passed_to_main(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            print_int(argc);
            print_str(" ");
            print_str(argv[0]);
            print_str(" ");
            print_str(argv[2]);
            return 0;
        }
        ''', argv=[b"prog", b"one", b"two"])
        assert result.stdout == b"3 prog two"

    def test_argv_regions_recorded(self):
        from repro.lang import compile_single

        image = compile_single("int main(int argc, char **argv) { return 0; }")
        machine = Machine(image, [b"p", b"hello"])
        assert len(machine.argv_regions) == 2
        addr, length = machine.argv_regions[1]
        assert length == 5
        assert machine.processes[machine.main_pid].memory.read_cstr(addr) == b"hello"


class TestSyscalls:
    def test_exit_code_masked(self):
        result = run_bc("int main(int argc, char **argv) { exit(300); return 0; }")
        assert result.exit_code == 300 & 0xFF

    def test_write_to_stdout_and_stderr(self):
        result = run_asm("""
        .text
        .global _start
        _start:
            movi r0, 2
            movi r1, 2
            movi r2, msg
            movi r3, 3
            syscall
            movi r0, 0
            movi r1, 0
            syscall
            hlt
        .rodata
        msg: .asciz "err"
        """)
        assert result.exit_code == 0

    def test_file_lifecycle(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int fd = open("f.dat", 0x42);
            write(fd, "data", 4);
            close(fd);
            fd = open("f.dat", 0);
            char buf[8];
            int n = read(fd, buf, 8);
            close(fd);
            print_int(n);
            unlink("f.dat");
            fd = open("f.dat", 0);
            print_int(fd);
            return 0;
        }
        ''')
        assert result.stdout == b"4-1"

    def test_open_excl_fails_on_existing(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int a = open("x", 0x42);
            close(a);
            int b = open("x", 0xc2);   // CREAT|EXCL
            print_int(b);
            return 0;
        }
        ''')
        assert result.stdout == b"-1"

    def test_lseek(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int fd = open("s", 0x42);
            write(fd, "abcdef", 6);
            lseek(fd, 2);
            char b[2];
            read(fd, b, 1);
            putchar(b[0]);
            return 0;
        }
        ''')
        assert result.stdout == b"c"

    def test_env_time_pid_magic(self):
        env = Environment(time_value=777, pid=888, magic=999)
        result = run_bc(
            "int main(int argc, char **argv) {"
            " print_int(time()); print_int(getpid()); print_int(getmagic());"
            " return 0; }",
            env=env,
        )
        assert result.stdout == b"777888999"

    def test_http_get(self):
        env = Environment(network={"http://a/b": b"payload"})
        result = run_bc(r'''
        int main(int argc, char **argv) {
            char buf[32];
            int n = http_get("http://a/b", buf, 31);
            buf[n] = 0;
            print_str(buf);
            print_int(http_get("http://missing/", buf, 31));
            return 0;
        }
        ''', env=env)
        assert result.stdout == b"payload-1"

    def test_mailbox(self):
        result = run_bc(
            "int main(int argc, char **argv) {"
            " msgsend(5); msgsend(6);"
            " print_int(msgrecv()); print_int(msgrecv()); print_int(msgrecv());"
            " return 0; }"
        )
        assert result.stdout == b"560"

    def test_unknown_syscall_returns_error(self):
        result = run_bc(
            "int main(int argc, char **argv) { return __syscall(99); }"
        )
        assert result.exit_code == 0xFF  # -1 & 0xff

    def test_bomb_syscall(self):
        result = run_bc("int main(int argc, char **argv) { bomb(); return 0; }")
        assert result.bomb_triggered
        assert result.exit_code == BOMB_EXIT_CODE
        assert b"BOOM" in result.stdout


class TestProcesses:
    def test_fork_returns_zero_in_child(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int pid = fork();
            if (pid == 0) {
                print_str("child ");
                exit(7);
            }
            int status = 0;
            waitpid(pid, &status);
            print_int(status);
            return 0;
        }
        ''')
        assert result.stdout == b"child 7"

    def test_fork_memory_isolated(self):
        result = run_bc(r'''
        int g = 1;
        int main(int argc, char **argv) {
            int pid = fork();
            if (pid == 0) {
                g = 100;
                exit(0);
            }
            waitpid(pid, 0);
            print_int(g);
            return 0;
        }
        ''')
        assert result.stdout == b"1"

    def test_pipe_blocking_read(self):
        # Parent reads before the child writes: the read must block.
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int fds[2];
            pipe(fds);
            int pid = fork();
            if (pid == 0) {
                int i = 0;
                while (i < 1000) { i = i + 1; }  // delay
                write_u64(fds[1], 4242);
                exit(0);
            }
            int v = read_u64(fds[0]);
            waitpid(pid, 0);
            print_int(v);
            return 0;
        }
        ''')
        assert result.stdout == b"4242"

    def test_pipe_eof_when_writers_close(self):
        result = run_bc(r'''
        int main(int argc, char **argv) {
            int fds[2];
            pipe(fds);
            close(fds[1]);
            char b[4];
            print_int(read(fds[0], b, 4));
            return 0;
        }
        ''')
        assert result.stdout == b"0"


class TestThreads:
    def test_thread_transforms_shared(self):
        result = run_bc(r'''
        int shared = 0;
        int worker(int *p) { *p = *p + 5; return 0; }
        int main(int argc, char **argv) {
            shared = 10;
            int t = pthread_create(worker, (int)&shared);
            pthread_join(t);
            print_int(shared);
            return 0;
        }
        ''')
        assert result.stdout == b"15"

    def test_two_threads(self):
        result = run_bc(r'''
        int a = 0;
        int b = 0;
        int wa(int *p) { *p = 1; return 0; }
        int wb(int *p) { *p = 2; return 0; }
        int main(int argc, char **argv) {
            int t1 = pthread_create(wa, (int)&a);
            int t2 = pthread_create(wb, (int)&b);
            pthread_join(t1);
            pthread_join(t2);
            print_int(a + b);
            return 0;
        }
        ''')
        assert result.stdout == b"3"


class TestSignals:
    def test_handler_runs_and_resumes(self):
        result = run_bc(r'''
        int hits = 0;
        int handler(int signo) { hits = hits + signo; return 0; }
        int main(int argc, char **argv) {
            signal(8, handler);
            int q = 1 / 0;
            print_int(hits);
            return 0;
        }
        ''')
        assert result.stdout == b"8"

    def test_unhandled_fault_kills_process(self):
        result = run_bc("int main(int argc, char **argv) { return 1 / 0; }")
        assert result.exit_code == 128 + 8

    def test_handler_register_state_restored(self):
        result = run_bc(r'''
        int handler(int signo) {
            int junk = signo * 100;   // clobber registers freely
            return junk;
        }
        int main(int argc, char **argv) {
            signal(8, handler);
            int keep = 1234;
            int q = 1 / 0;
            print_int(keep);
            return 0;
        }
        ''')
        assert result.stdout == b"1234"


class TestRunControl:
    def test_step_budget_reports_timeout(self):
        result = run_bc(
            "int main(int argc, char **argv) { while (1) {} return 0; }",
            max_steps=5000,
        )
        assert result.timed_out
        assert result.exit_code is None

    def test_deterministic_execution(self):
        src = r'''
        int main(int argc, char **argv) {
            srand(atoi(argv[1]));
            print_int(rand() % 1000);
            return 0;
        }
        '''
        a = run_bc(src, argv=[b"p", b"3"])
        b = run_bc(src, argv=[b"p", b"3"])
        assert a.stdout == b.stdout and a.steps == b.steps


# -- self-modifying code -------------------------------------------------

# ``f`` returns 7 until a test rewrites the immediate at f+2 to 9.
_SMC_F = """
f:
    movi r0, 7
    ret
"""
_EXIT_R0 = """
    mov r1, r0
    movi r0, 0
    syscall
"""
_PATCH_F = """
    movi r8, f
    movi r9, 9
    st1 [r8+2], r9
"""


def _smc_image(body: str):
    return link([assemble(".text\n.global _start\n_start:\n" + body + _SMC_F,
                          "smc.s")])


class TestSelfModifyingCode:
    def test_read_over_code_that_already_ran(self):
        patch = encode(Instruction(Op.MOVI, (Reg(0), Imm(9))))
        image = _smc_image("""
            call f
            movi r0, 1
            movi r1, 0
            movi r2, f
            movi r3, %d
            syscall
            call f
        """ % len(patch) + _EXIT_R0)
        result = Machine(image, [b"t"], Environment(stdin=patch)).run()
        assert result.exit_code == 9

    def test_fst_over_code_that_already_ran(self):
        image = _smc_image("""
            call f
            movi r8, f
            movi r9, 9
            fmovr f0, r9
            fst [r8+2], f0
            call f
        """ + _EXIT_R0)
        assert Machine(image, [b"t"]).run().exit_code == 9

    @pytest.mark.parametrize("patch_first, child_code", [(False, 7), (True, 9)])
    def test_fork_keeps_each_process_decoding_its_own_code(self, patch_first,
                                                           child_code):
        # The parent patches f before or after forking, waits for a child
        # that calls f, then calls f itself.
        image = _smc_image((_PATCH_F if patch_first else "") + """
            movi r0, 8
            syscall
            cmpi r0, 0
            jz .Lchild
            mov r10, r0
        """ + ("" if patch_first else _PATCH_F) + """
            movi r0, 10
            mov r1, r10
            movi r2, 0
            syscall
            call f
        """ + _EXIT_R0 + """
        .Lchild:
            call f
        """ + _EXIT_R0)
        machine = Machine(image, [b"t"])
        assert machine.run().exit_code == 9
        [child] = [p for p in machine.processes.values() if p.pid != machine.main_pid]
        assert child.exit_code == child_code

    def test_rewrite_stays_inside_its_machine(self):
        # argc == 2 patches f before f ever runs; a fresh machine of the
        # same image object must still see the original code.
        image = _smc_image("""
            cmpi r1, 2
            jnz .Lrun
        """ + _PATCH_F + """
        .Lrun:
            call f
        """ + _EXIT_R0)
        assert Machine(image, [b"t", b"patch"]).run().exit_code == 9
        assert Machine(image, [b"t"]).run().exit_code == 7


# -- compiled handlers and page templates -------------------------------------

#: A sample operand per operand kind: r3 holds a nonzero divisor and a
#: jump target, r4 a mapped address.
_SAMPLE_OPERANDS = {"R": Reg(3), "F": FReg(2), "I": Imm(5), "M": Mem(4, 8),
                    "J": Target(0x1040)}


class TestCompiledHandlers:
    @pytest.mark.parametrize("op", list(OPSPEC), ids=lambda op: op.name)
    def test_every_opcode_compiles_and_runs(self, op):
        instr = Instruction(op, tuple(_SAMPLE_OPERANDS[k] for k in OPSPEC[op]), 0x1000)
        handler = compile_handler(instr)
        assert handler.instr is instr
        image = link([assemble(".text\n.global _start\n_start: hlt\n")])
        machine = Machine(image, [b"t"])
        proc = machine.processes[machine.main_pid]
        thread = proc.threads[0]
        ctx = thread.ctx
        ctx.pc = instr.addr
        ctx.regs[0] = Sys.GETPID
        ctx.regs[3] = 0x1080
        ctx.regs[4] = 0x2000
        handler(machine, proc, thread)
        if op is Op.HLT:
            assert not proc.alive and ctx.pc == instr.addr
        else:
            assert proc.alive and ctx.pc != instr.addr

    def test_machines_of_one_image_are_isolated(self):
        image = link([assemble("""
        .text
        .global _start
        _start:
            movi r4, counter
            ld r1, [r4]
            addi r1, 1
            st [r4], r1
            movi r0, 0
            syscall
        .data
        counter: .quad 7
        """)])
        counter = image.symbol_addr("counter")
        sections = [(sec.name, sec.vaddr, sec.data) for sec in image.sections]
        before = Machine(image, [b"t"])
        writer = Machine(image, [b"t"])
        assert writer.run().exit_code == 8
        after = Machine(image, [b"t"])
        for machine in (before, after):
            memory = machine.processes[machine.main_pid].memory
            assert memory.read_u64(counter) == 7
            assert machine.run().exit_code == 8
        assert [(sec.name, sec.vaddr, sec.data) for sec in image.sections] == sections
        assert Memory.loaded(image).read_u64(counter) == 7

    def test_clone_shares_template_pages_copy_on_write(self):
        image = link([assemble(
            ".text\n.global _start\n_start: hlt\n.data\nvalue: .quad 7\n")])
        addr = image.symbol_addr("value")
        parent = Memory.loaded(image)
        child = parent.clone()
        child.write_u64(addr, 9)
        assert parent.read_u64(addr) == 7 and child.read_u64(addr) == 9
        parent.write_u64(addr, 5)
        assert child.read_u64(addr) == 9
        assert Memory.loaded(image).read_u64(addr) == 7
