"""The concrete RX64 machine: CPU loop, kernel, processes and threads.

One :class:`Machine` executes one REXF image under a given
:class:`~repro.vm.env.Environment`.  It provides the whole OS surface
the logic bombs need — files, pipes, fork, threads, signals, a clock, a
simulated network — and the hook points the tracing layer uses to play
the role Intel Pin plays in the paper (instruction records, syscall
records, signal-delivery records).

Scheduling is deterministic: threads run round-robin in ``(pid, tid)``
order with a fixed instruction quantum, so a given (image, argv, env)
triple always produces the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..obs import profile, session
from ..binfmt import Image
from ..errors import VMError
from ..isa import (
    COND_BRANCHES,
    LOAD_INFO,
    MAX_INSTRUCTION_SIZE,
    STORE_INFO,
    FReg,
    Imm,
    Instruction,
    Mem,
    Op,
    Reg,
    Target,
    decode,
)
from . import cpu
from .cpu import Context, bits_to_f32, bits_to_f64, f32_round, f32_to_bits, f64_div, f64_to_bits, f64_to_i64, s64, u64
from .env import Environment
from .filesystem import FileHandle, FileSystem, Pipe, PipeEnd, StdStream
from .syscalls import (
    BOMB_EXIT_CODE,
    SIGFPE,
    SIGRETURN_ADDR,
    THREAD_EXIT_ADDR,
    Sys,
)

QUANTUM = 60
STACK_TOP = 0x7FF0_0000
STACK_RESERVE = 0x10_0000
_BLOCK = object()  # sentinel: syscall must retry after blocking
# Return address used by call_function(); never a valid code address, and
# checked *before* stepping so the sentinel is never fetched.
CALL_RETURN_ADDR = 0xCA11_0000
# Ops that end a basic block: every (src, dst) pair they produce is an
# edge for coverage purposes, including the fallthrough side of a
# conditional branch.
_EDGE_OPS = frozenset({Op.JMP, Op.JMPR, Op.CALL, Op.CALLR, Op.RET}) | COND_BRANCHES


@dataclass
class Thread:
    """One schedulable thread inside a process."""

    tid: int
    ctx: Context
    state: str = "run"  # run | blocked | dead
    wake: Callable[[], bool] | None = None
    sig_frames: list[tuple[Context, int]] = field(default_factory=list)


class Process:
    """One process: private memory, fd table, mailbox, signal handlers."""

    def __init__(self, pid: int, memory, code: dict[int, Instruction],
                 parent: int | None = None):
        self.pid = pid
        self.memory = memory
        # Decoded-instruction table the process fetches through: the
        # image's shared table until the process writes into its code
        # range, then a private copy decoded from its own memory.
        self.code = code
        self.parent = parent
        self.threads: list[Thread] = []
        self.fds: dict[int, object] = {}
        self.next_fd = 3
        self.mailbox: list[int] = []
        self.sig_handlers: dict[int, int] = {}
        self.brk = 0
        self.alive = True
        self.exit_code: int | None = None

    def alloc_fd(self, handle) -> int:
        fd = self.next_fd
        self.next_fd += 1
        self.fds[fd] = handle
        return fd

    def live_threads(self) -> list[Thread]:
        return [t for t in self.threads if t.state != "dead"]


@dataclass
class RunResult:
    """Outcome of a machine run."""

    exit_code: int | None
    bomb_triggered: bool
    steps: int
    stdout: bytes
    timed_out: bool = False


class Machine:
    """A concrete RX64 machine executing one image."""

    def __init__(self, image: Image, argv: list[bytes], env: Environment | None = None):
        self.image = image
        self.env = env or Environment()
        self.fs = FileSystem(self.env.files)
        self.processes: dict[int, Process] = {}
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.bomb_triggered = False
        self.steps = 0
        self._next_pid = self.env.pid
        self._next_tid = 1
        self._decodes = 0  # table misses, flushed as vm.decodes
        # Bounds of the code-range guard every guest write passes: only a
        # write overlapping the bytes of some code-pc instruction can
        # make a decode stale, and the last one may run past the end.
        ranges = image.code_ranges()
        self._code_lo = min((lo for lo, _ in ranges), default=0)
        self._code_hi = max((hi for _, hi in ranges), default=0) + MAX_INSTRUCTION_SIZE - 1
        # Per-opcode/per-syscall tallies exist only while a recorder is
        # installed; the hot step loop then pays one None-check per
        # instruction when observability is off.
        on = session.current
        self._opcode_counts: dict[str, int] | None = \
            {} if on.recorder is not None else None
        # Per-PC tallies exist only while an attribution profiler is
        # installed — same gate-at-construction discipline, so the step
        # loop stays one None-check when profiling is off.
        self._pc_counts: dict[int, int] | None = \
            {} if on.profiler is not None else None
        self._syscall_counts: dict[int, int] = {}
        self._signals_delivered = 0
        # Hooks (used by the tracing layer).
        self.on_step: Callable[[Process, Thread, Instruction], None] | None = None
        self.on_syscall: Callable[[Process, Thread, int, list[int], int], None] | None = None
        self.on_signal: Callable[[Process, Thread, int, int], None] | None = None
        # Edge hook (used by the coverage-guided fuzzer): fired once per
        # executed block-terminating instruction with (src, dst), where
        # src is the branch address and dst the address actually reached.
        self.on_edge: Callable[[int, int], None] | None = None

        self._setup_main_process(argv)

    # -- setup ----------------------------------------------------------

    def _setup_main_process(self, argv: list[bytes]) -> None:
        from .memory import Memory

        memory = Memory()
        max_end = 0
        for sec in self.image.sections:
            memory.write(sec.vaddr, sec.data)
            max_end = max(max_end, sec.end)

        proc = Process(self._alloc_pid(), memory, self.image.decoded)
        proc.brk = (max_end + 0xFFF) & ~0xFFF
        proc.fds[0] = StdStream("stdin", in_buffer=bytearray(self.env.stdin))
        proc.fds[1] = StdStream("stdout", out_buffer=self.stdout)
        proc.fds[2] = StdStream("stderr", out_buffer=self.stderr)

        # argv block just above the stack reserve.
        sp = STACK_TOP
        str_addrs = []
        cursor = STACK_TOP + 0x100
        self.argv_regions: list[tuple[int, int]] = []
        for arg in argv:
            memory.write_cstr(cursor, arg)
            str_addrs.append(cursor)
            self.argv_regions.append((cursor, len(arg)))
            cursor += len(arg) + 1
        argv_base = (cursor + 7) & ~7
        for i, addr in enumerate(str_addrs):
            memory.write_u64(argv_base + 8 * i, addr)
        memory.write_u64(argv_base + 8 * len(str_addrs), 0)

        ctx = Context(pc=self.image.entry)
        ctx.regs[15] = sp
        ctx.regs[1] = len(argv)
        ctx.regs[2] = argv_base
        thread = Thread(self._alloc_tid(), ctx)
        proc.threads.append(thread)
        self.processes[proc.pid] = proc
        self.main_pid = proc.pid

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # -- run loop ----------------------------------------------------------

    def run(self, max_steps: int = 2_000_000) -> RunResult:
        """Run to completion or until *max_steps* instructions executed."""
        steps0 = self.steps
        signals0 = self._signals_delivered
        decodes0 = self._decodes
        while self.steps < max_steps:
            ran_any = False
            for proc in sorted(self.processes.values(), key=lambda p: p.pid):
                if not proc.alive:
                    continue
                for thread in list(proc.threads):
                    if thread.state == "blocked" and thread.wake and thread.wake():
                        thread.state = "run"
                        thread.wake = None
                    if thread.state != "run" or not proc.alive:
                        continue
                    ran_any = True
                    self._run_quantum(proc, thread, min(QUANTUM, max_steps - self.steps))
                    if self.steps >= max_steps:
                        break
                if self.steps >= max_steps:
                    break
            if not ran_any:
                break
        main = self.processes[self.main_pid]
        timed_out = self.steps >= max_steps and any(
            p.alive for p in self.processes.values()
        )
        self._flush_metrics(steps0, signals0, decodes0)
        return RunResult(
            exit_code=main.exit_code,
            bomb_triggered=self.bomb_triggered,
            steps=self.steps,
            stdout=bytes(self.stdout),
            timed_out=timed_out,
        )

    def _flush_metrics(self, steps0: int, signals0: int, decodes0: int) -> None:
        """Report this run's tallies to the installed recorder, if any."""
        if self._pc_counts:
            # One flush per run(): the profiler derives the stage (trace,
            # replay, ...) from the innermost open span.
            profile.record_vm(self._pc_counts)
            self._pc_counts = {}
        rec = session.current.recorder
        if rec is None:
            return
        rec.count("vm.instructions", self.steps - steps0)
        rec.count("vm.decodes", self._decodes - decodes0)
        rec.count("vm.signals", self._signals_delivered - signals0)
        if self.bomb_triggered:
            rec.count("vm.bomb_triggered")
        if self._syscall_counts:
            from .syscalls import Sys

            total = 0
            for nr, n in self._syscall_counts.items():
                total += n
                try:
                    name = Sys(nr).name.lower()
                except ValueError:
                    name = str(nr)
                rec.count(f"vm.syscall.{name}", n)
            rec.count("vm.syscalls", total)
            self._syscall_counts.clear()
        if self._opcode_counts:
            for name, n in self._opcode_counts.items():
                rec.count(f"vm.op.{name.lower()}", n)
            self._opcode_counts.clear()

    def _run_quantum(self, proc: Process, thread: Thread, budget: int) -> None:
        for _ in range(budget):
            if thread.state != "run" or not proc.alive:
                return
            try:
                self._step(proc, thread)
            except VMError as err:
                signo = getattr(err, "signo", 11)
                self._deliver_signal(proc, thread, signo)
            self.steps += 1

    # -- instruction execution ------------------------------------------------

    def _guard(self, proc: Process, addr: int, width: int) -> None:
        """The code-range guard every guest memory write passes.

        Self-modifying code: the first write overlapping decoded code
        gives the process a private copy of the shared table (the image
        and other processes keep theirs), then the decodes the write may
        have changed are dropped from the process's table.
        """
        if addr < self._code_hi and addr + width > self._code_lo:
            table = proc.code
            if table is self.image.decoded:
                table = proc.code = dict(table)
            for pc in range(addr - MAX_INSTRUCTION_SIZE + 1, addr + width):
                table.pop(pc, None)

    def _decode(self, proc: Process, pc: int) -> Instruction:
        """Table miss: decode the code address *pc* into the process's
        table, from the image while it is shared, else from memory."""
        table = proc.code
        if table is self.image.decoded:
            instr = self.image.decode_at(pc)
        elif self.image.is_code_addr(pc):
            instr = table[pc] = decode(proc.memory.read(pc, MAX_INSTRUCTION_SIZE), pc)
        else:
            instr = None
        if instr is None:
            raise VMError(f"pc 0x{pc:x} outside code")
        self._decodes += 1
        return instr

    def _fetch(self, proc: Process, pc: int) -> Instruction:
        """The instruction at *pc* for signal delivery and fork: through
        the table at a code address, decoded uncached anywhere else."""
        instr = proc.code.get(pc)
        if instr is None:
            if self.image.is_code_addr(pc):
                return self._decode(proc, pc)
            instr = decode(proc.memory.read(pc, MAX_INSTRUCTION_SIZE), pc)
        return instr

    def _step(self, proc: Process, thread: Thread) -> None:
        ctx = thread.ctx
        pc = ctx.pc
        instr = proc.code.get(pc)
        if instr is None:
            # The magic return addresses are never mapped, so they are
            # never in a table.
            if pc == SIGRETURN_ADDR:
                self._sigreturn(thread)
                return
            if pc == THREAD_EXIT_ADDR:
                self._thread_exit(proc, thread)
                return
            instr = self._decode(proc, pc)
        counts = self._opcode_counts
        if counts is not None:
            name = instr.op.name
            counts[name] = counts.get(name, 0) + 1
        pcs = self._pc_counts
        if pcs is not None:
            pcs[pc] = pcs.get(pc, 0) + 1
        if self.on_step:
            self.on_step(proc, thread, instr)
        self._execute(proc, thread, instr)

    def _execute(self, proc: Process, thread: Thread, instr: Instruction) -> None:
        ctx = thread.ctx
        regs = ctx.regs
        mem = proc.memory
        op = instr.op
        ops = instr.operands
        next_pc = instr.next_addr

        if op is Op.NOP:
            pass
        elif op is Op.MOV:
            regs[ops[0].index] = regs[ops[1].index]
        elif op is Op.MOVI:
            regs[ops[0].index] = ops[1].value
        elif op in LOAD_INFO:
            width, signed = LOAD_INFO[op]
            addr = u64(regs[ops[1].base] + ops[1].disp)
            value = mem.read_uint(addr, width)
            regs[ops[0].index] = cpu.sext(value, width * 8) if signed else value
        elif op in STORE_INFO:
            width = STORE_INFO[op]
            addr = u64(regs[ops[0].base] + ops[0].disp)
            mem.write_uint(addr, regs[ops[1].index], width)
            self._guard(proc, addr, width)
        elif op is Op.LEA:
            regs[ops[0].index] = u64(regs[ops[1].base] + ops[1].disp)
        elif Op.ADD <= op <= Op.SARI:
            name = op.name.lower()
            if isinstance(ops[1], Imm):
                rhs = ops[1].value
                name = name[:-1]  # strip the 'i' immediate-form suffix
            else:
                rhs = regs[ops[1].index]
            regs[ops[0].index] = cpu.alu(name, regs[ops[0].index], rhs, ctx.flags)
        elif op is Op.NOT:
            regs[ops[0].index] = u64(~regs[ops[0].index])
            ctx.flags.set_logic(regs[ops[0].index])
        elif op is Op.NEG:
            regs[ops[0].index] = cpu.alu("sub", 0, regs[ops[0].index], ctx.flags)
        elif op in (Op.CMP, Op.CMPI):
            rhs = ops[1].value if isinstance(ops[1], Imm) else regs[ops[1].index]
            cpu.alu("sub", regs[ops[0].index], rhs, ctx.flags)
        elif op is Op.TEST:
            ctx.flags.set_logic(regs[ops[0].index] & regs[ops[1].index])
        elif op is Op.JMP:
            next_pc = ops[0].addr
        elif op in COND_BRANCHES:
            if ctx.flags.condition(op.name.lower()):
                next_pc = ops[0].addr
        elif op is Op.JMPR:
            next_pc = regs[ops[0].index]
        elif op is Op.CALL or op is Op.CALLR:
            regs[15] = u64(regs[15] - 8)
            mem.write_u64(regs[15], next_pc)
            self._guard(proc, regs[15], 8)
            next_pc = ops[0].addr if op is Op.CALL else regs[ops[0].index]
        elif op is Op.RET:
            next_pc = mem.read_u64(regs[15])
            regs[15] = u64(regs[15] + 8)
        elif op is Op.PUSH:
            regs[15] = u64(regs[15] - 8)
            mem.write_u64(regs[15], regs[ops[0].index])
            self._guard(proc, regs[15], 8)
        elif op is Op.POP:
            regs[ops[0].index] = mem.read_u64(regs[15])
            regs[15] = u64(regs[15] + 8)
        elif op is Op.SYSCALL:
            result = self._syscall(proc, thread)
            if result is _BLOCK:
                return  # do not advance pc; retry on wake
            if result is not None:
                regs[0] = u64(result)
        elif op is Op.HLT:
            self._exit_process(proc, 0)
            return
        else:
            self._execute_float(proc, thread, instr)
        ctx.pc = next_pc
        if self.on_edge is not None and op in _EDGE_OPS:
            self.on_edge(instr.addr, next_pc)

    def _execute_float(self, proc: Process, thread: Thread, instr: Instruction) -> None:
        ctx = thread.ctx
        regs, fregs = ctx.regs, ctx.fregs
        mem = proc.memory
        op = instr.op
        ops = instr.operands

        if op is Op.FLD:
            addr = u64(regs[ops[1].base] + ops[1].disp)
            fregs[ops[0].index] = mem.read_u64(addr)
        elif op is Op.FST:
            addr = u64(regs[ops[0].base] + ops[0].disp)
            mem.write_u64(addr, fregs[ops[1].index])
            self._guard(proc, addr, 8)
        elif op is Op.FMOV:
            fregs[ops[0].index] = fregs[ops[1].index]
        elif op is Op.FMOVR:
            fregs[ops[0].index] = regs[ops[1].index]
        elif op is Op.RMOVF:
            regs[ops[0].index] = fregs[ops[1].index]
        elif op in (Op.FADDS, Op.FSUBS, Op.FMULS, Op.FDIVS):
            a = bits_to_f32(fregs[ops[0].index])
            b = bits_to_f32(fregs[ops[1].index])
            fn = {Op.FADDS: lambda: a + b, Op.FSUBS: lambda: a - b,
                  Op.FMULS: lambda: a * b, Op.FDIVS: lambda: f64_div(a, b)}[op]
            fregs[ops[0].index] = f32_to_bits(f32_round(fn()))
        elif op in (Op.FADDD, Op.FSUBD, Op.FMULD, Op.FDIVD):
            a = bits_to_f64(fregs[ops[0].index])
            b = bits_to_f64(fregs[ops[1].index])
            fn = {Op.FADDD: lambda: a + b, Op.FSUBD: lambda: a - b,
                  Op.FMULD: lambda: a * b, Op.FDIVD: lambda: f64_div(a, b)}[op]
            fregs[ops[0].index] = f64_to_bits(fn())
        elif op is Op.FCMPS:
            ctx.flags.set_fcmp(bits_to_f32(fregs[ops[0].index]),
                               bits_to_f32(fregs[ops[1].index]))
        elif op is Op.FCMPD:
            ctx.flags.set_fcmp(bits_to_f64(fregs[ops[0].index]),
                               bits_to_f64(fregs[ops[1].index]))
        elif op is Op.CVTIFS:
            fregs[ops[0].index] = f32_to_bits(float(s64(regs[ops[1].index])))
        elif op is Op.CVTFIS:
            regs[ops[0].index] = f64_to_i64(bits_to_f32(fregs[ops[1].index]))
        elif op is Op.CVTIFD:
            fregs[ops[0].index] = f64_to_bits(float(s64(regs[ops[1].index])))
        elif op is Op.CVTFID:
            regs[ops[0].index] = f64_to_i64(bits_to_f64(fregs[ops[1].index]))
        elif op is Op.CVTSD:
            fregs[ops[0].index] = f64_to_bits(bits_to_f32(fregs[ops[1].index]))
        elif op is Op.CVTDS:
            fregs[ops[0].index] = f32_to_bits(f32_round(bits_to_f64(fregs[ops[1].index])))
        else:  # pragma: no cover
            raise VMError(f"unimplemented opcode {op.name}")

    # -- signals ----------------------------------------------------------------

    def _deliver_signal(self, proc: Process, thread: Thread, signo: int) -> None:
        self._signals_delivered += 1
        handler = proc.sig_handlers.get(signo)
        if handler is None:
            self._exit_process(proc, 128 + signo)
            return
        instr = self._fetch(proc, thread.ctx.pc)
        resume = instr.next_addr  # faulting instruction is skipped
        thread.sig_frames.append((thread.ctx.clone(), resume))
        if self.on_signal:
            self.on_signal(proc, thread, signo, handler)
        ctx = thread.ctx
        ctx.regs[15] = u64(ctx.regs[15] - 8)
        proc.memory.write_u64(ctx.regs[15], SIGRETURN_ADDR)
        self._guard(proc, ctx.regs[15], 8)
        ctx.regs[1] = signo
        ctx.pc = handler

    def _sigreturn(self, thread: Thread) -> None:
        saved, resume = thread.sig_frames.pop()
        thread.ctx = saved
        thread.ctx.pc = resume

    # -- threads & processes -------------------------------------------------------

    def _thread_exit(self, proc: Process, thread: Thread) -> None:
        thread.state = "dead"
        if not proc.live_threads():
            self._exit_process(proc, 0)

    def _exit_process(self, proc: Process, code: int) -> None:
        proc.alive = False
        proc.exit_code = code
        for thread in proc.threads:
            thread.state = "dead"
        for handle in proc.fds.values():
            if isinstance(handle, PipeEnd):
                handle.close()

    # -- syscalls -------------------------------------------------------------------

    def _syscall(self, proc: Process, thread: Thread):
        regs = thread.ctx.regs
        nr = regs[0]
        args = [regs[i] for i in range(1, 6)]
        if self._opcode_counts is not None:
            self._syscall_counts[nr] = self._syscall_counts.get(nr, 0) + 1
        result = self._dispatch_syscall(proc, thread, nr, args)
        if result is not _BLOCK and self.on_syscall:
            self.on_syscall(proc, thread, nr, args, result if result is not None else 0)
        return result

    def _dispatch_syscall(self, proc: Process, thread: Thread, nr: int, args: list[int]):
        mem = proc.memory
        if nr == Sys.EXIT:
            self._exit_process(proc, s64(args[0]) & 0xFF)
            return None
        if nr == Sys.BOMB:
            self.bomb_triggered = True
            self.stdout.extend(b"BOOM!!!\n")
            self._exit_process(proc, BOMB_EXIT_CODE)
            return None
        if nr == Sys.WRITE:
            handle = proc.fds.get(args[0])
            if handle is None:
                return -1
            data = mem.read(args[1], args[2])
            if isinstance(handle, PipeEnd):
                return handle.pipe.write(data) if handle.write_end else -1
            return handle.write(data)
        if nr == Sys.READ:
            handle = proc.fds.get(args[0])
            if handle is None:
                return -1
            if isinstance(handle, PipeEnd):
                if handle.write_end:
                    return -1
                chunk = handle.pipe.read(args[2])
                if chunk is None:
                    pipe = handle.pipe
                    thread.state = "blocked"
                    thread.wake = lambda: bool(pipe.buffer) or pipe.writers == 0
                    return _BLOCK
            else:
                chunk = handle.read(args[2])
            mem.write(args[1], chunk)
            self._guard(proc, args[1], len(chunk))
            return len(chunk)
        if nr == Sys.OPEN:
            path = mem.read_cstr(args[0]).decode("latin1")
            handle = self.fs.open(path, args[1])
            if handle is None:
                return -1
            return proc.alloc_fd(handle)
        if nr == Sys.CLOSE:
            handle = proc.fds.pop(args[0], None)
            if handle is None:
                return -1
            if isinstance(handle, PipeEnd):
                handle.close()
            return 0
        if nr == Sys.UNLINK:
            return self.fs.unlink(mem.read_cstr(args[0]).decode("latin1"))
        if nr == Sys.LSEEK:
            handle = proc.fds.get(args[0])
            if isinstance(handle, FileHandle):
                return handle.seek(s64(args[1]))
            return -1
        if nr == Sys.TIME:
            return self.env.time_value
        if nr == Sys.GETPID:
            return proc.pid
        if nr == Sys.GETMAGIC:
            return self.env.magic
        if nr == Sys.FORK:
            return self._do_fork(proc, thread)
        if nr == Sys.PIPE:
            pipe = Pipe()
            rfd = proc.alloc_fd(PipeEnd(pipe, write_end=False))
            wfd = proc.alloc_fd(PipeEnd(pipe, write_end=True))
            mem.write_uint(args[0], rfd, 8)
            mem.write_uint(args[0] + 8, wfd, 8)
            self._guard(proc, args[0], 16)
            return 0
        if nr == Sys.WAITPID:
            target = self.processes.get(args[0])
            if target is None:
                return -1
            if target.alive:
                thread.state = "blocked"
                thread.wake = lambda: not target.alive
                return _BLOCK
            if args[1]:
                mem.write_uint(args[1], target.exit_code or 0, 8)
                self._guard(proc, args[1], 8)
            return target.pid
        if nr == Sys.THREAD_CREATE:
            entry, arg, stack_top = args[0], args[1], args[2]
            ctx = Context(pc=entry)
            ctx.regs[1] = arg
            ctx.regs[15] = u64(stack_top - 8)
            mem.write_u64(ctx.regs[15], THREAD_EXIT_ADDR)
            self._guard(proc, ctx.regs[15], 8)
            new_thread = Thread(self._alloc_tid(), ctx)
            proc.threads.append(new_thread)
            return new_thread.tid
        if nr == Sys.THREAD_JOIN:
            tid = args[0]
            target = next((t for t in proc.threads if t.tid == tid), None)
            if target is None:
                return -1
            if target.state != "dead":
                thread.state = "blocked"
                thread.wake = lambda: target.state == "dead"
                return _BLOCK
            return 0
        if nr == Sys.YIELD:
            return 0
        if nr == Sys.HTTP_GET:
            url = mem.read_cstr(args[0]).decode("latin1")
            body = self.env.network.get(url)
            if body is None:
                return -1
            data = body[: args[2]]
            mem.write(args[1], data)
            self._guard(proc, args[1], len(data))
            return len(data)
        if nr == Sys.BRK:
            if args[0]:
                proc.brk = args[0]
            return proc.brk
        if nr == Sys.SIGNAL:
            proc.sig_handlers[args[0]] = args[1]
            return 0
        if nr == Sys.MSGSEND:
            proc.mailbox.append(args[0])
            return 0
        if nr == Sys.MSGRECV:
            if proc.mailbox:
                return proc.mailbox.pop(0)
            return 0
        return -1  # unknown syscall

    def _do_fork(self, proc: Process, thread: Thread) -> int:
        # The child inherits the parent's table: the shared one stays
        # shared, a private one is copied with the memory it mirrors.
        code = proc.code
        if code is not self.image.decoded:
            code = dict(code)
        child = Process(self._alloc_pid(), proc.memory.clone(), code, parent=proc.pid)
        child.brk = proc.brk
        child.mailbox = list(proc.mailbox)
        child.sig_handlers = dict(proc.sig_handlers)
        child.next_fd = proc.next_fd
        for fd, handle in proc.fds.items():
            if isinstance(handle, PipeEnd):
                if handle.write_end:
                    handle.pipe.writers += 1
                else:
                    handle.pipe.readers += 1
                child.fds[fd] = PipeEnd(handle.pipe, handle.write_end)
            elif isinstance(handle, FileHandle):
                child.fds[fd] = FileHandle(handle.fs, handle.path, handle.flags, handle.pos)
            else:
                child.fds[fd] = handle
        # Child: one thread, a copy of the caller, already past the
        # syscall with return value 0.
        ctx = thread.ctx.clone()
        ctx.regs[0] = 0
        ctx.pc = self._fetch(proc, thread.ctx.pc).next_addr
        child.threads.append(Thread(self._alloc_tid(), ctx))
        self.processes[child.pid] = child
        return child.pid

    # -- direct calls -----------------------------------------------------------

    def scratch_alloc(self, size: int) -> int:
        """Carve *size* bytes off the main process's brk for call buffers."""
        proc = self.processes[self.main_pid]
        addr = proc.brk
        proc.brk = (proc.brk + size + 0xF) & ~0xF
        return addr

    def call_function(self, addr: int, args: list[int], max_steps: int = 200_000) -> int:
        """Execute the function at *addr* to completion and return r0.

        Arguments go in r1..rN per the VM calling convention (doubles are
        passed as raw 64-bit bit patterns).  The call runs on the main
        process's first thread with the sentinel return address checked
        *before* each step, so repeated calls on one machine work and
        process globals (e.g. a PRNG state cell) persist between calls.
        """
        proc = self.processes[self.main_pid]
        if not proc.alive:
            raise VMError("call_function: main process has exited")
        thread = proc.threads[0]
        saved = thread.ctx
        ctx = Context(pc=addr)
        for i, value in enumerate(args[:14], start=1):
            ctx.regs[i] = u64(value)
        ctx.regs[15] = u64(STACK_TOP - 8)
        proc.memory.write_u64(ctx.regs[15], CALL_RETURN_ADDR)
        self._guard(proc, ctx.regs[15], 8)
        thread.ctx = ctx
        thread.state = "run"
        try:
            for _ in range(max_steps):
                if ctx.pc == CALL_RETURN_ADDR:
                    return ctx.regs[0]
                if thread.state != "run" or not proc.alive:
                    raise VMError("call_function: callee exited the process")
                self._step(proc, thread)
                self.steps += 1
            raise VMError(f"call_function: no return within {max_steps} steps")
        finally:
            thread.ctx = saved
            thread.state = "run"


def run_image(
    image: Image,
    argv: list[bytes],
    env: Environment | None = None,
    max_steps: int = 2_000_000,
) -> RunResult:
    """Convenience: execute *image* with *argv* and return the result."""
    return Machine(image, argv, env).run(max_steps)
