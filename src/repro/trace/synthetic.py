"""Synthetic single-threaded trace generation.

This module is the stand-in for the functional simulator of the paper's
framework (Figure 2): it produces a *dynamic instruction stream* that the
timing simulators consume.  The stream is generated from a
:class:`~repro.trace.profiles.WorkloadProfile`, which statistically describes
a benchmark's instruction mix, code/data locality, branch behaviour and
dependence structure.

The generator is deterministic for a given ``(profile, seed)`` pair so that
the interval and detailed simulators can be run on *exactly* the same
instruction stream — this mirrors the paper's functional-first methodology in
which both simulators see the same committed path.

Model overview
--------------

* **Code model** — the program is a set of "functions" placed in a code
  region of ``profile.code_footprint`` bytes.  Instructions receive PCs inside
  the current function; basic blocks end in a branch which loops, jumps
  locally, calls another function or returns.  Calls prefer a small set of
  hot functions (``profile.code_locality``), so instruction-cache and I-TLB
  behaviour follows the footprint and locality of the profile.
* **Branch model** — each static branch gets a behaviour class: *biased*
  (almost always taken or not-taken), *loop* (taken ``n`` times, then fall
  through) or *hard* (data-dependent, effectively random).  A real
  branch-predictor simulator (:mod:`repro.branch`) predicts the generated
  outcomes.
* **Data model** — loads and stores draw addresses from four streams: a hot
  region that always fits in the L1, an L1-sized working set, a larger
  working set that misses the L1 but fits the shared L2 when running alone,
  and sequential streaming through a large footprint (compulsory misses all
  the way to DRAM).  A fraction of loads is pointer-chasing: the address
  depends on the previous load, serializing memory accesses.  D-cache, D-TLB
  and L2 behaviour then emerge from the memory-hierarchy simulator.
* **Dependence model** — source registers preferentially name registers
  written a geometrically-distributed number of instructions earlier, so the
  profile's ``dependence_distance`` controls the critical-path length seen by
  the interval model's old window.
* **Full-system (kernel) phases** — a fraction of instructions is marked as
  kernel code, generated from a disjoint code region with its own data
  accesses, mimicking the OS activity of full-system traces.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect
from itertools import accumulate
from math import log
from typing import Dict, List, Optional

from ..common.isa import InstructionClass, NUM_ARCH_REGISTERS
from .columnar import TraceBatch
from .profiles import WorkloadProfile
from .stream import ThreadTrace

__all__ = ["SyntheticTraceGenerator", "generate_trace"]


# Memory layout constants for the synthetic address space (byte addresses).
_CODE_BASE = 0x0040_0000
_KERNEL_CODE_BASE = 0x7F00_0000_0000
_DATA_BASE = 0x10_0000_0000
_SHARED_BASE = 0x70_0000_0000
_STACK_BASE = 0x7FFF_0000
_KERNEL_DATA_BASE = 0x7F10_0000_0000

_KERNEL_CODE_FOOTPRINT = 32 * 1024
_KERNEL_DATA_FOOTPRINT = 64 * 1024
_INSTRUCTION_BYTES = 4
_FUNCTION_SIZE = 1024  # bytes of code per synthetic function
_NUM_HOT_FUNCTIONS = 12
_NUM_STREAMS = 4
_LINE_BYTES = 64
_WORD_BYTES = 8

#: Mean length of a kernel (OS) phase in instructions: system call and
#: interrupt handling come in bursts of a few hundred instructions.
_MEAN_KERNEL_PHASE = 600.0
#: Probability that a branch is turned into a call or a return.
_CALL_PROBABILITY = 0.06
#: The initialization sweep's PCs cycle through this many slots of a
#: function starting at offset ``_INIT_PC_OFFSET``.
_INIT_PC_OFFSET = 0x100
_INIT_PC_SLOTS = (0x3F0 - _INIT_PC_OFFSET) // _INSTRUCTION_BYTES

_BRANCH = int(InstructionClass.BRANCH)
_LOAD = int(InstructionClass.LOAD)
_STORE = int(InstructionClass.STORE)
_SERIALIZING = int(InstructionClass.SERIALIZING)
#: Register names are drawn from 1..NUM_ARCH_REGISTERS-1 (register 0 is
#: reserved): ``randrange(1, NUM_ARCH_REGISTERS)`` inlined.
_NUM_REGS = NUM_ARCH_REGISTERS - 1
_REG_BITS = _NUM_REGS.bit_length()
#: Every source-register tuple a generator writes, ``_ONE[a] == (a,)`` and
#: ``_TWO[a][b] == (a, b)``: equal ``src_regs`` entries are one shared object
#: instead of a fresh tuple per position.
_ONE = tuple((a,) for a in range(NUM_ARCH_REGISTERS))
_TWO = tuple(
    tuple((a, b) for b in range(NUM_ARCH_REGISTERS)) for a in range(NUM_ARCH_REGISTERS)
)


def _slots(width: int, step: int) -> int:
    """Number of values ``randrange(start, start + width, step)`` can return."""
    return (width + step - 1) // step


def _randbelow(getrandbits, n: int) -> int:
    """``random.Random._randbelow``, the draw behind ``randrange`` and ``choice``.

    ``randrange(start, stop, step)`` returns ``start + step *
    _randbelow(_slots(stop - start, step))`` and ``choice(seq)`` returns
    ``seq[_randbelow(len(seq))]``; calling it directly skips their argument
    handling but consumes exactly the same bits.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class SyntheticTraceGenerator:
    """Generates the dynamic instruction stream of one software thread.

    The generator writes straight into :class:`~repro.trace.columnar.TraceBatch`
    columns; no :class:`~repro.common.isa.Instruction` object is created while
    a trace is synthesized.

    Parameters
    ----------
    profile:
        Statistical description of the benchmark.
    seed:
        Seed for the deterministic pseudo-random generator.  The same
        ``(profile, seed)`` always produces the identical trace.
    thread_id:
        Thread identifier stamped on every generated instruction.
    shared_region_base / shared_region_size:
        When set (multi-threaded workloads), a fraction
        ``profile.shared_fraction`` of data accesses targets this region,
        which is common to all threads of the workload and therefore causes
        cache-coherence activity.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        thread_id: int = 0,
        shared_region_base: int = _SHARED_BASE,
        shared_region_size: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.thread_id = thread_id
        # A process-independent hash of the profile name keeps trace
        # generation reproducible across interpreter invocations and worker
        # processes (builtin hash() of str is salted per process).
        self._rng = random.Random(
            zlib.crc32(profile.name.encode()) ^ (seed * 2_654_435_761) ^ thread_id
        )
        self.shared_region_base = shared_region_base
        self.shared_region_size = shared_region_size or max(
            64 * 1024, profile.l2_working_set // 2
        )
        # Private data layout: hot region, L1-resident working set, L2-resident
        # working set, and a large streaming region, disjoint per thread.
        thread_stride = profile.data_footprint + profile.l2_working_set + (1 << 24)
        data_base = _DATA_BASE + thread_id * thread_stride
        self._hot_size = 8 * 1024
        # Each thread (or program copy) gets its own stack and its own copy of
        # the code: co-scheduled copies must not warm each other's working
        # sets through the shared L2.
        self._stack_base = _STACK_BASE + thread_id * (1 << 16)
        self._code_base = _CODE_BASE + thread_id * (1 << 22)
        self._l1_ws_base = data_base
        self._l1_ws_size = max(4 * 1024, profile.l1_working_set)
        self._l2_ws_base = data_base + (1 << 22)
        self._l2_ws_size = max(64 * 1024, profile.l2_working_set)
        # Sequential streams through the streaming region: each walks its own
        # quarter of the footprint in 8-byte strides, wrapping at the end.
        footprint = max(profile.data_footprint, 1 << 20)
        stream_base = data_base + (1 << 23)
        self._stream_bases = [
            stream_base + (index * footprint) // _NUM_STREAMS
            for index in range(_NUM_STREAMS)
        ]
        self._stream_length = max(footprint // _NUM_STREAMS, 4096)
        self._stream_offsets = [0] * _NUM_STREAMS
        # Hot-function bases used by most calls (code locality).
        self._code_size = max(profile.code_footprint, _FUNCTION_SIZE)
        self._hot_functions = [
            self._code_base + self._rng.randrange(0, self._code_size, _FUNCTION_SIZE)
            for _ in range(min(_NUM_HOT_FUNCTIONS, self._code_size // _FUNCTION_SIZE))
        ]
        # Instruction classes and their cumulative weights: one random() draw
        # bisected into them is exactly random.choices(weights=...).  The
        # profile-level serializing fraction overrides the mix's.
        weights = profile.mix.normalized().as_weights()
        weights[InstructionClass.SERIALIZING] = profile.serializing_fraction
        self._classes = [int(klass) for klass in weights]
        self._cum_weights = list(accumulate(weights.values()))
        # Generator state carried from one emitted chunk to the next.
        self._pc = self._code_base
        self._function_base = self._code_base
        self._block_remaining = 0
        self._in_kernel = False
        self._kernel_remaining = 0
        self._call_stack: List[int] = []
        # pc -> [loop trip count (0 = not a loop), trips left, taken bias
        # (unused by loops), target]
        self._branch_sites: Dict[int, list] = {}
        self._recent_writers: List[int] = []
        self._last_load_dst: Optional[int] = None
        self._seq = 0

    # -- public API --------------------------------------------------------------

    def generate(
        self,
        num_instructions: Optional[int] = None,
        include_init_phase: bool = True,
    ) -> ThreadTrace:
        """Generate a trace of ``num_instructions`` dynamic instructions.

        When ``include_init_phase`` is set (the default), the trace starts
        with a data-initialization phase that sweeps the benchmark's working
        sets line by line (the way real programs allocate and initialize
        their data structures before the main computation).  Experiments
        place this phase inside the functional warm-up window, so the timed
        region observes warm caches rather than a wall of compulsory misses.
        The phase is capped at one fifth of the requested instruction count
        so short traces used in unit tests are not swamped by it.
        """
        count = num_instructions if num_instructions is not None else self.profile.instructions
        if count <= 0:
            raise ValueError("number of instructions must be positive")
        batch = TraceBatch()
        if include_init_phase:
            self.emit_init_phase(batch, budget=count // 5)
        self.emit(batch, count - len(batch.klass))
        return ThreadTrace(batch.seal(), thread_id=self.thread_id, name=self.profile.name)

    def emit_init_phase(self, batch: TraceBatch, budget: int) -> None:
        """Append the data-initialization sweep over the working sets.

        The sweep stores to every cache line of the hot region, the
        L1-resident working set and the L2-resident working set (in that
        order) and stops when ``budget`` instructions have been appended.
        It draws nothing from the generator's random stream.
        """
        if budget <= 0:
            return
        addresses: List[int] = []
        for base, size in (
            (self._stack_base, self._hot_size),
            (self._l1_ws_base, self._l1_ws_size),
            (self._l2_ws_base, self._l2_ws_size),
        ):
            addresses += range(base, base + size, _LINE_BYTES)[: budget - len(addresses)]
        pc = self._code_base + _INIT_PC_OFFSET
        pcs = [pc + 4 * (index % _INIT_PC_SLOTS) for index in range(len(addresses))]
        seq = self._seq
        self._seq = seq + len(addresses)
        batch.append_records(range(seq, self._seq), _STORE, pcs, addresses, _ONE[1])

    def emit(self, batch: TraceBatch, count: int) -> None:
        """Append the next ``count`` dynamic instructions to ``batch``.

        This is the generator's one emission loop.  It appends ``count``
        placeholder records and overwrites each in place, drawing from the
        random stream exactly what ``random.Random``'s ``choices``,
        ``randrange``, ``choice`` and ``expovariate`` would, in the same
        order, so every trace is the same for a given ``(profile, seed)``.
        Calling it repeatedly continues the same stream.
        """
        if count <= 0:
            return
        start = len(batch.klass)
        seq = self._seq
        self._seq = seq + count
        batch.append_records(range(seq, seq + count), 0, [0] * count, [None] * count)
        klass_col, pc_col, addr_col = batch.klass, batch.pc, batch.mem_addr
        src_col, dst_col = batch.src_regs, batch.dst_reg
        taken_col, target_col = batch.is_taken, batch.branch_target
        call_col, return_col, kernel_col = batch.is_call, batch.is_return, batch.is_kernel
        profile = self.profile
        rng = self._rng
        random_ = rng.random
        getrandbits = rng.getrandbits
        classes = self._classes
        cum_weights = self._cum_weights
        total = cum_weights[-1] + 0.0
        last_class = len(cum_weights) - 1
        code_base = self._code_base
        block_lambd = 1.0 / profile.mean_basic_block
        kernel_on = profile.kernel_fraction > 0.0
        kernel_entry = profile.kernel_fraction / _MEAN_KERNEL_PHASE
        kernel_functions = _slots(_KERNEL_CODE_FOOTPRINT, _FUNCTION_SIZE)
        sites = self._branch_sites
        call_stack = self._call_stack
        chase_fraction = profile.pointer_chase_fraction
        shared_fraction = profile.shared_fraction
        shared_base = self.shared_region_base
        shared_words = _slots(self.shared_region_size, _WORD_BYTES)
        hot_fraction = profile.hot_data_fraction
        stack_base = self._stack_base
        hot_words = _slots(self._hot_size, _WORD_BYTES)
        l2_fraction = profile.l2_fraction
        l2_base = self._l2_ws_base
        l2_words = _slots(self._l2_ws_size, _WORD_BYTES)
        # An eighth of the L2 working set receives most of its accesses,
        # which keeps TLB and L2 behaviour realistic.
        l2_hot_words = _slots(max(4096, self._l2_ws_size // 8), _WORD_BYTES)
        streaming_fraction = profile.streaming_fraction
        stream_bases = self._stream_bases
        stream_offsets = self._stream_offsets
        stream_length = self._stream_length
        l1_base = self._l1_ws_base
        l1_words = _slots(self._l1_ws_size, _WORD_BYTES)
        recent = self._recent_writers
        dep_lambd = 1.0 / profile.dependence_distance

        def source(recent_probability: float) -> int:
            """One source register, preferring recently written registers.

            The distance (in instructions) to the producer is geometric with
            mean ``profile.dependence_distance``, which shapes the dependence
            chains the old window sees.
            """
            if recent and random_() < recent_probability:
                distance = int(-log(1.0 - random_()) / dep_lambd) + 1
                held = len(recent)
                return recent[-(distance if distance < held else held)]
            r = getrandbits(_REG_BITS)
            while r >= _NUM_REGS:
                r = getrandbits(_REG_BITS)
            return r + 1

        pc = self._pc
        function_base = self._function_base
        block_remaining = self._block_remaining
        in_kernel = self._in_kernel
        kernel_remaining = self._kernel_remaining
        last_load_dst = self._last_load_dst
        for i in range(start, start + count):
            # -- kernel (OS) phases, entered so that on average the profile's
            # kernel fraction of instructions runs in kernel mode --
            if in_kernel:
                kernel_remaining -= 1
                if kernel_remaining <= 0:
                    in_kernel = False
                    function_base = code_base
                    block_remaining = 0
            elif kernel_on and random_() < kernel_entry:
                in_kernel = True
                kernel_remaining = int(-log(1.0 - random_()) / (1.0 / _MEAN_KERNEL_PHASE)) + 100
                function_base = _KERNEL_CODE_BASE + _FUNCTION_SIZE * _randbelow(
                    getrandbits, kernel_functions
                )
                block_remaining = 0

            code = classes[bisect(cum_weights, random_() * total, 0, last_class)]
            # -- the PC advances within the basic block; a new block starts at
            # an aligned offset inside the current function --
            if block_remaining <= 0:
                block_remaining = max(2, int(-log(1.0 - random_()) / block_lambd) + 1)
                pc = function_base + _INSTRUCTION_BYTES * _randbelow(
                    getrandbits, _FUNCTION_SIZE // _INSTRUCTION_BYTES
                )
            pc += _INSTRUCTION_BYTES
            klass_col[i] = code
            pc_col[i] = pc
            if in_kernel:
                kernel_col[i] = 1

            if code == _BRANCH:
                # -- a branch ends the basic block; each static site is a
                # loop, a hard (data-dependent) or a biased branch --
                site = sites.get(pc)
                if site is None:
                    # Loops jump back 16..508 bytes, other sites forward 8..252.
                    roll = random_()
                    if roll < profile.loop_branch_fraction:
                        trips = max(1, int(-log(1.0 - random_()) / (1.0 / 12.0)))
                        back = 16 + 4 * _randbelow(getrandbits, _slots(512 - 16, 4))
                        base = _KERNEL_CODE_BASE if in_kernel else code_base
                        site = [trips, trips, 0.0, max(base, pc - back)]
                    else:
                        target = pc + 8 + 4 * _randbelow(getrandbits, _slots(256 - 8, 4))
                        if roll < profile.loop_branch_fraction + profile.hard_branch_fraction:
                            bias = 0.35 + 0.3 * random_()
                        elif random_() < 0.5:
                            bias = 0.02 + 0.08 * random_()
                        else:
                            bias = 0.9 + 0.08 * random_()
                        site = [0, 0, bias, target]
                    sites[pc] = site
                trips = site[0]
                if not trips:
                    taken = random_() < site[2]
                elif site[1] > 0:
                    site[1] -= 1
                    taken = True
                else:
                    site[1] = trips
                    taken = False
                target = site[3]
                # Occasionally a call or a return: exercises the RAS and moves
                # execution between functions (I-cache behaviour).
                if random_() < _CALL_PROBABILITY:
                    if call_stack and random_() < 0.5:
                        target = call_stack.pop()
                        return_col[i] = 1
                    else:
                        hot_functions = self._hot_functions
                        if not in_kernel and random_() < profile.code_locality:
                            target = hot_functions[_randbelow(getrandbits, len(hot_functions))]
                        elif in_kernel:
                            target = _KERNEL_CODE_BASE + _FUNCTION_SIZE * _randbelow(
                                getrandbits, kernel_functions
                            )
                        else:
                            target = code_base + _FUNCTION_SIZE * _randbelow(
                                getrandbits, _slots(self._code_size, _FUNCTION_SIZE)
                            )
                        call_stack.append(pc + _INSTRUCTION_BYTES)
                        call_col[i] = 1
                    taken = True
                    function_base = target - target % _FUNCTION_SIZE
                src_col[i] = _ONE[source(0.55)]
                taken_col[i] = taken
                target_col[i] = target
                block_remaining = 0
            elif code == _LOAD or code == _STORE:
                # -- data address from the profile's locality model --
                if in_kernel:
                    address = _KERNEL_DATA_BASE + _WORD_BYTES * _randbelow(
                        getrandbits, _slots(_KERNEL_DATA_FOOTPRINT, _WORD_BYTES)
                    )
                elif shared_fraction > 0.0 and random_() < shared_fraction:
                    address = shared_base + _WORD_BYTES * _randbelow(getrandbits, shared_words)
                else:
                    roll = random_()
                    if roll < hot_fraction:
                        # Hot region (stack / scalars): always L1-resident.
                        address = stack_base + _WORD_BYTES * _randbelow(getrandbits, hot_words)
                    elif roll - hot_fraction < l2_fraction:
                        # L2-resident working set: misses the L1, hits the L2
                        # when the program runs alone.
                        if random_() < 0.6:
                            address = l2_base + _WORD_BYTES * _randbelow(getrandbits, l2_hot_words)
                        else:
                            address = l2_base + _WORD_BYTES * _randbelow(getrandbits, l2_words)
                    elif roll - hot_fraction - l2_fraction < streaming_fraction:
                        # Streaming: compulsory misses marching through memory.
                        stream = _randbelow(getrandbits, _NUM_STREAMS)
                        offset = stream_offsets[stream]
                        address = stream_bases[stream] + offset
                        stream_offsets[stream] = (offset + _WORD_BYTES) % stream_length
                    else:
                        # L1-resident working set.
                        address = l1_base + _WORD_BYTES * _randbelow(getrandbits, l1_words)
                if code == _LOAD:
                    if last_load_dst is not None and random_() < chase_fraction:
                        # A dependent (pointer-chasing) load goes to an
                        # unpredictable location in the larger working set: it
                        # misses the L1 and serializes with its producer.
                        src_col[i] = _ONE[last_load_dst]
                        address = l2_base + _WORD_BYTES * _randbelow(getrandbits, l2_words)
                    else:
                        src_col[i] = _ONE[source(0.55)]
                    r = getrandbits(_REG_BITS)
                    while r >= _NUM_REGS:
                        r = getrandbits(_REG_BITS)
                    last_load_dst = dst_col[i] = r + 1
                    recent.append(r + 1)
                    if len(recent) > 256:
                        del recent[:128]
                else:
                    src_col[i] = _TWO[source(0.55)][source(0.55)]
                addr_col[i] = address
            elif code != _SERIALIZING:
                # -- ALU/FP operation with register dependences: the first
                # source often names a fresh producer, a second one is mostly
                # a long-lived value --
                if random_() < 0.7:
                    src_col[i] = _TWO[source(0.55)][source(0.30)]
                else:
                    src_col[i] = _ONE[source(0.55)]
                r = getrandbits(_REG_BITS)
                while r >= _NUM_REGS:
                    r = getrandbits(_REG_BITS)
                dst_col[i] = r + 1
                recent.append(r + 1)
                if len(recent) > 256:
                    del recent[:128]
            block_remaining -= 1

        self._pc = pc
        self._function_base = function_base
        self._block_remaining = block_remaining
        self._in_kernel = in_kernel
        self._kernel_remaining = kernel_remaining
        self._last_load_dst = last_load_dst


def generate_trace(
    profile: WorkloadProfile,
    num_instructions: Optional[int] = None,
    seed: int = 0,
    thread_id: int = 0,
) -> ThreadTrace:
    """Convenience wrapper: build a generator and produce one trace."""
    generator = SyntheticTraceGenerator(profile, seed=seed, thread_id=thread_id)
    return generator.generate(num_instructions)
