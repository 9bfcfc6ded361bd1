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

import operator
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
    Op,
    decode,
)
from .cpu import (
    ALU,
    CONDITIONS,
    MASK64,
    Context,
    bits_to_f32,
    bits_to_f64,
    f32_round,
    f32_to_bits,
    f64_div,
    f64_to_bits,
    f64_to_i64,
    s64,
    sext,
    u64,
)
from .env import Environment
from .filesystem import FileHandle, FileSystem, Pipe, PipeEnd, StdStream
from .memory import Memory
from .syscalls import (
    BOMB_EXIT_CODE,
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
#: A compiled instruction: ``handler(machine, process, thread)`` runs it
#: on *thread*; ``handler.instr`` is the :class:`Instruction`.
Handler = Callable[["Machine", "Process", "Thread"], None]
#: Opcode -> the recorder counter of its executions.
_OP_COUNTERS = {op: f"vm.op.{op.name.lower()}" for op in Op}


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

    def __init__(self, pid: int, memory: Memory, code: dict[int, Handler],
                 parent: int | None = None):
        self.pid = pid
        self.memory = memory
        # Compiled-handler table the process steps through (pc ->
        # handler, ``handler.instr`` its instruction): the image's shared
        # table until the process writes into its code range, then a
        # private copy, compiled from its own memory on a miss.
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
        self._decodes = 0  # instructions decoded, flushed as vm.decodes
        # Bounds of the code-range guard every guest write passes: only a
        # write overlapping the bytes of some code-pc instruction can
        # make a decode stale, and the last one may run past the end.
        ranges = image.code_ranges()
        self._code_lo = min((lo for lo, _ in ranges), default=0)
        self._code_hi = max((hi for _, hi in ranges), default=0) + MAX_INSTRUCTION_SIZE - 1
        # Per-handler step tally, kept only while a recorder or an
        # attribution profiler is installed (the step loop pays one
        # None-check otherwise); a run's flush names it per opcode for
        # the recorder and per pc for the profiler.
        on = session.current
        self._tally: dict[Handler, int] | None = \
            {} if on.recorder is not None or on.profiler is not None else None
        self._syscall_counts: dict[int, int] | None = \
            {} if on.recorder is not None else None
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
        memory = Memory.loaded(self.image)
        max_end = max((sec.end for sec in self.image.sections), default=0)

        proc = Process(self._alloc_pid(), memory, self.image.handlers)
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
        on = session.current
        tally = self._tally
        if tally:
            self._tally = {}
            if on.profiler is not None:
                pcs: dict[int, int] = {}
                for handler, n in tally.items():
                    pc = handler.instr.addr
                    pcs[pc] = pcs.get(pc, 0) + n
                # One flush per run(): the profiler derives the stage
                # (trace, replay, ...) from the innermost open span.
                profile.record_vm(pcs)
        rec = on.recorder
        if rec is None:
            return
        rec.count("vm.instructions", self.steps - steps0)
        rec.count("vm.decodes", self._decodes - decodes0)
        rec.count("vm.signals", self._signals_delivered - signals0)
        if self.bomb_triggered:
            rec.count("vm.bomb_triggered")
        if self._syscall_counts:
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
        if tally:
            ops: dict[Op, int] = {}
            for handler, n in tally.items():
                op = handler.instr.op
                ops[op] = ops.get(op, 0) + n
            for op, n in ops.items():
                rec.count(_OP_COUNTERS[op], n)

    def _run_quantum(self, proc: Process, thread: Thread, budget: int) -> None:
        # The body of _step, inlined: the hot loop of every concrete run.
        tally = self._tally
        on_step = self.on_step
        for _ in range(budget):
            if thread.state != "run" or not proc.alive:
                return
            try:
                handler = proc.code.get(thread.ctx.pc) or self._miss(proc, thread)
                if handler is not None:
                    if tally is not None:
                        tally[handler] = tally.get(handler, 0) + 1
                    if on_step is not None:
                        on_step(proc, thread, handler.instr)
                    handler(self, proc, thread)
            except VMError as err:
                signo = getattr(err, "signo", 11)
                self._deliver_signal(proc, thread, signo)
            self.steps += 1

    def _step(self, proc: Process, thread: Thread) -> None:
        """Execute one instruction of *thread* (faults propagate)."""
        handler = proc.code.get(thread.ctx.pc) or self._miss(proc, thread)
        if handler is not None:
            if self._tally is not None:
                self._tally[handler] = self._tally.get(handler, 0) + 1
            if self.on_step is not None:
                self.on_step(proc, thread, handler.instr)
            handler(self, proc, thread)

    # -- instruction table ------------------------------------------------------

    def _guard(self, proc: Process, addr: int, width: int) -> None:
        """The code-range guard every guest memory write passes.

        Self-modifying code: the first write overlapping decoded code
        gives the process a private copy of the shared table (the image
        and other processes keep theirs), then the handlers the write may
        have made stale are dropped from the process's table.
        """
        if addr < self._code_hi and addr + width > self._code_lo:
            table = proc.code
            if table is self.image.handlers:
                table = proc.code = dict(table)
            for pc in range(addr - MAX_INSTRUCTION_SIZE + 1, addr + width):
                table.pop(pc, None)

    def _miss(self, proc: Process, thread: Thread) -> Handler | None:
        """Table miss at *thread*'s pc: take a magic return address (and
        return None), or compile the instruction there."""
        pc = thread.ctx.pc
        # The magic return addresses are never mapped, so they are never
        # in a table.
        if pc == SIGRETURN_ADDR:
            self._sigreturn(thread)
            return None
        if pc == THREAD_EXIT_ADDR:
            self._thread_exit(proc, thread)
            return None
        return self._compile(proc, pc)

    def _compile(self, proc: Process, pc: int) -> Handler:
        """Compile the code address *pc* into the process's table: from
        the image's decode while the table is shared, else decoded from
        the process's memory."""
        table = proc.code
        image = self.image
        shared = table is image.handlers
        instr = image.decoded.get(pc) if shared else None
        if instr is None:
            if shared:
                instr = image.decode_at(pc)
            elif image.is_code_addr(pc):
                instr = decode(proc.memory.read(pc, MAX_INSTRUCTION_SIZE), pc)
            if instr is None:
                raise VMError(f"pc 0x{pc:x} outside code")
            self._decodes += 1
        handler = table[pc] = compile_handler(instr)
        return handler

    def _fetch(self, proc: Process, pc: int) -> Instruction:
        """The instruction at *pc* for signal delivery and fork: through
        the table at a code address, decoded uncached anywhere else."""
        handler = proc.code.get(pc)
        if handler is not None:
            return handler.instr
        if self.image.is_code_addr(pc):
            return self._compile(proc, pc).instr
        return decode(proc.memory.read(pc, MAX_INSTRUCTION_SIZE), pc)

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
        counts = self._syscall_counts
        if counts is not None:
            counts[nr] = counts.get(nr, 0) + 1
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
        if code is not self.image.handlers:
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


# -- compiled handlers ----------------------------------------------------------
#
# Each decoded instruction compiles once into a closure that binds its
# register indices, immediate, width, branch target, fall-through pc and
# operation, so a step is one table lookup and one call.  A handler is
# shared by every machine of its image: it takes the machine, process
# and thread as arguments and re-reads ``thread.ctx`` on every call
# (``_sigreturn`` and ``call_function`` swap it).  A faulting handler
# raises before it writes ``ctx.pc``; a blocking syscall and ``hlt``
# leave it unchanged.  Edge handlers (jumps, calls, returns, both sides
# of a conditional branch) report ``(branch pc, pc reached)`` to
# ``on_edge`` when one is installed.

_REGS = operator.attrgetter("regs")
_FREGS = operator.attrgetter("fregs")


def _file(operand):
    """Getter of the register file (of a context) *operand* names."""
    return _FREGS if isinstance(operand, FReg) else _REGS


def _nop(instr):
    nxt = instr.next_addr

    def h(m, proc, thread):
        thread.ctx.pc = nxt
    return h


def _mov(instr):
    d, s = instr.operands[0].index, instr.operands[1].index
    nxt = instr.next_addr

    def h(m, proc, thread):
        ctx = thread.ctx
        regs = ctx.regs
        regs[d] = regs[s]
        ctx.pc = nxt
    return h


def _movi(instr):
    d, value = instr.operands[0].index, instr.operands[1].value
    nxt = instr.next_addr

    def h(m, proc, thread):
        ctx = thread.ctx
        ctx.regs[d] = value
        ctx.pc = nxt
    return h


def _transfer(fn):
    """Register transfer ``dst = fn(src)`` between (or within) the
    register files: the float moves and conversions."""
    def compile_(instr):
        dst, src = instr.operands
        d, s, nxt = dst.index, src.index, instr.next_addr
        put, get = _file(dst), _file(src)

        def h(m, proc, thread):
            ctx = thread.ctx
            put(ctx)[d] = fn(get(ctx)[s])
            ctx.pc = nxt
        return h
    return compile_


def _load(instr):
    """``ld*`` (zero- or sign-extending) and ``fld`` (raw 64 bits)."""
    dst, src = instr.operands
    d, base, disp, nxt = dst.index, src.base, src.disp, instr.next_addr
    width, signed = LOAD_INFO.get(instr.op, (8, False))
    bits = width * 8
    put = _file(dst)

    def h(m, proc, thread):
        ctx = thread.ctx
        value = proc.memory.read_uint((ctx.regs[base] + disp) & MASK64, width)
        put(ctx)[d] = sext(value, bits) if signed else value
        ctx.pc = nxt
    return h


def _store(instr):
    """``st*`` and ``fst`` (raw 64 bits)."""
    dst, src = instr.operands
    base, disp, s, nxt = dst.base, dst.disp, src.index, instr.next_addr
    width = STORE_INFO.get(instr.op, 8)
    get = _file(src)

    def h(m, proc, thread):
        ctx = thread.ctx
        addr = (ctx.regs[base] + disp) & MASK64
        proc.memory.write_uint(addr, get(ctx)[s], width)
        m._guard(proc, addr, width)
        ctx.pc = nxt
    return h


def _lea(instr):
    dst, src = instr.operands
    d, base, disp, nxt = dst.index, src.base, src.disp, instr.next_addr

    def h(m, proc, thread):
        ctx = thread.ctx
        regs = ctx.regs
        regs[d] = (regs[base] + disp) & MASK64
        ctx.pc = nxt
    return h


#: The ops that only set the flags -> the ALU operation they compute.
_FLAGS_ONLY = {"cmp": "sub", "test": "and"}


def _alu(instr):
    """Register- and immediate-form ALU ops, plus ``cmp``/``cmpi`` and
    ``test``, which keep only the flags of a ``sub`` and an ``and``."""
    dst, rhs = instr.operands
    d, nxt = dst.index, instr.next_addr
    name = instr.op.name.lower()
    if isinstance(rhs, Imm):
        name = name[:-1]  # strip the 'i' immediate-form suffix
    keep = name not in _FLAGS_ONLY
    fn = ALU[_FLAGS_ONLY.get(name, name)]
    if isinstance(rhs, Imm):
        imm = rhs.value

        def h(m, proc, thread):
            ctx = thread.ctx
            regs = ctx.regs
            result = fn(regs[d], imm, ctx.flags)
            if keep:
                regs[d] = result
            ctx.pc = nxt
    else:
        s = rhs.index

        def h(m, proc, thread):
            ctx = thread.ctx
            regs = ctx.regs
            result = fn(regs[d], regs[s], ctx.flags)
            if keep:
                regs[d] = result
            ctx.pc = nxt
    return h


def _not(instr):
    d, nxt = instr.operands[0].index, instr.next_addr

    def h(m, proc, thread):
        ctx = thread.ctx
        regs = ctx.regs
        regs[d] = ~regs[d] & MASK64
        ctx.flags.set_logic(regs[d])
        ctx.pc = nxt
    return h


def _neg(instr):
    d, nxt = instr.operands[0].index, instr.next_addr
    sub = ALU["sub"]

    def h(m, proc, thread):
        ctx = thread.ctx
        regs = ctx.regs
        regs[d] = sub(0, regs[d], ctx.flags)
        ctx.pc = nxt
    return h


def _jmp(instr):
    src, dst = instr.addr, instr.operands[0].addr

    def h(m, proc, thread):
        thread.ctx.pc = dst
        if m.on_edge is not None:
            m.on_edge(src, dst)
    return h


def _branch(instr):
    cond = CONDITIONS[instr.op.name.lower()]
    src, target, nxt = instr.addr, instr.operands[0].addr, instr.next_addr

    def h(m, proc, thread):
        ctx = thread.ctx
        dst = ctx.pc = target if cond(ctx.flags) else nxt
        if m.on_edge is not None:
            m.on_edge(src, dst)
    return h


def _jmpr(instr):
    src, r = instr.addr, instr.operands[0].index

    def h(m, proc, thread):
        ctx = thread.ctx
        dst = ctx.pc = ctx.regs[r]
        if m.on_edge is not None:
            m.on_edge(src, dst)
    return h


def _call(instr):
    """``call`` and ``callr``; ``callr`` reads its target register after
    the return address is pushed."""
    src, nxt, target = instr.addr, instr.next_addr, instr.operands[0]
    direct = instr.op is Op.CALL
    addr = target.addr if direct else 0
    r = 0 if direct else target.index

    def h(m, proc, thread):
        ctx = thread.ctx
        regs = ctx.regs
        sp = regs[15] = (regs[15] - 8) & MASK64
        proc.memory.write_uint(sp, nxt, 8)
        m._guard(proc, sp, 8)
        dst = ctx.pc = addr if direct else regs[r]
        if m.on_edge is not None:
            m.on_edge(src, dst)
    return h


def _ret(instr):
    src = instr.addr

    def h(m, proc, thread):
        ctx = thread.ctx
        regs = ctx.regs
        dst = ctx.pc = proc.memory.read_uint(regs[15], 8)
        regs[15] = (regs[15] + 8) & MASK64
        if m.on_edge is not None:
            m.on_edge(src, dst)
    return h


def _push(instr):
    s, nxt = instr.operands[0].index, instr.next_addr

    def h(m, proc, thread):
        ctx = thread.ctx
        regs = ctx.regs
        sp = regs[15] = (regs[15] - 8) & MASK64
        proc.memory.write_uint(sp, regs[s], 8)
        m._guard(proc, sp, 8)
        ctx.pc = nxt
    return h


def _pop(instr):
    d, nxt = instr.operands[0].index, instr.next_addr

    def h(m, proc, thread):
        ctx = thread.ctx
        regs = ctx.regs
        regs[d] = proc.memory.read_uint(regs[15], 8)
        regs[15] = (regs[15] + 8) & MASK64
        ctx.pc = nxt
    return h


def _syscall(instr):
    nxt = instr.next_addr

    def h(m, proc, thread):
        ctx = thread.ctx
        result = m._syscall(proc, thread)
        if result is _BLOCK:
            return  # do not advance pc; retry on wake
        if result is not None:
            ctx.regs[0] = result & MASK64
        ctx.pc = nxt
    return h


def _hlt(instr):
    def h(m, proc, thread):
        m._exit_process(proc, 0)
    return h


def _float_binop(fn, to_float, to_bits):
    def compile_(instr):
        d, s = instr.operands[0].index, instr.operands[1].index
        nxt = instr.next_addr

        def h(m, proc, thread):
            ctx = thread.ctx
            fregs = ctx.fregs
            fregs[d] = to_bits(fn(to_float(fregs[d]), to_float(fregs[s])))
            ctx.pc = nxt
        return h
    return compile_


def _fcmp(to_float):
    def compile_(instr):
        a, b = instr.operands[0].index, instr.operands[1].index
        nxt = instr.next_addr

        def h(m, proc, thread):
            ctx = thread.ctx
            fregs = ctx.fregs
            ctx.flags.set_fcmp(to_float(fregs[a]), to_float(fregs[b]))
            ctx.pc = nxt
        return h
    return compile_


def _f32_bits(value: float) -> int:
    return f32_to_bits(f32_round(value))


def _raw(value: int) -> int:
    return value


_SINGLE = (bits_to_f32, _f32_bits)
_DOUBLE = (bits_to_f64, f64_to_bits)

#: Opcode -> compiler of its handler: every opcode has its own entry.
_COMPILERS: dict[Op, Callable[[Instruction], Handler]] = {
    Op.NOP: _nop, Op.MOV: _mov, Op.MOVI: _movi, Op.LEA: _lea,
    **{op: _load for op in LOAD_INFO}, Op.FLD: _load,
    **{op: _store for op in STORE_INFO}, Op.FST: _store,
    **{op: _alu for op in Op if Op.ADD <= op <= Op.SARI},
    Op.CMP: _alu, Op.CMPI: _alu, Op.TEST: _alu, Op.NOT: _not, Op.NEG: _neg,
    Op.JMP: _jmp, **{op: _branch for op in COND_BRANCHES}, Op.JMPR: _jmpr,
    Op.CALL: _call, Op.CALLR: _call, Op.RET: _ret,
    Op.PUSH: _push, Op.POP: _pop, Op.SYSCALL: _syscall, Op.HLT: _hlt,
    Op.FMOV: _transfer(_raw), Op.FMOVR: _transfer(_raw), Op.RMOVF: _transfer(_raw),
    Op.FADDS: _float_binop(operator.add, *_SINGLE),
    Op.FSUBS: _float_binop(operator.sub, *_SINGLE),
    Op.FMULS: _float_binop(operator.mul, *_SINGLE),
    Op.FDIVS: _float_binop(f64_div, *_SINGLE),
    Op.FADDD: _float_binop(operator.add, *_DOUBLE),
    Op.FSUBD: _float_binop(operator.sub, *_DOUBLE),
    Op.FMULD: _float_binop(operator.mul, *_DOUBLE),
    Op.FDIVD: _float_binop(f64_div, *_DOUBLE),
    Op.FCMPS: _fcmp(bits_to_f32), Op.FCMPD: _fcmp(bits_to_f64),
    Op.CVTIFS: _transfer(lambda v: f32_to_bits(float(s64(v)))),
    Op.CVTFIS: _transfer(lambda v: f64_to_i64(bits_to_f32(v))),
    Op.CVTIFD: _transfer(lambda v: f64_to_bits(float(s64(v)))),
    Op.CVTFID: _transfer(lambda v: f64_to_i64(bits_to_f64(v))),
    Op.CVTSD: _transfer(lambda v: f64_to_bits(bits_to_f32(v))),
    Op.CVTDS: _transfer(lambda v: _f32_bits(bits_to_f64(v))),
}


def compile_handler(instr: Instruction) -> Handler:
    """The handler running *instr*; ``handler.instr`` is *instr*."""
    handler = _COMPILERS[instr.op](instr)
    handler.instr = instr
    return handler


def run_image(
    image: Image,
    argv: list[bytes],
    env: Environment | None = None,
    max_steps: int = 2_000_000,
) -> RunResult:
    """Convenience: execute *image* with *argv* and return the result."""
    return Machine(image, argv, env).run(max_steps)
