"""LMI as an executable mechanism (the paper's full system).

Combines the pieces built elsewhere in the library:

* 2^n-aligned allocation in every space (``aligned_*`` flags steer the
  executor onto the buddy/aligned allocators);
* in-pointer extent tagging via :class:`~repro.pointer.PointerCodec`,
  with the device size limit set to the simulated DRAM capacity so the
  extent values above it become debug extents (section IV-A3);
* the :class:`~repro.hardware.ocu.OverflowCheckingUnit` on annotated
  pointer arithmetic (delayed termination: overflow clears the extent,
  nothing faults until a dereference);
* the :class:`~repro.hardware.extent_checker.ExtentChecker` on every
  load/store;
* compiler-inserted extent nullification (``on_invalidate``) stamped
  with the TEMPORAL debug code so use-after-free faults are classified
  correctly;
* optional pointer-liveness tracking (section XII-C) that also catches
  copied-pointer UAF.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..common.config import DEFAULT_LMI_CONFIG, DRAM_BYTES, LmiConfig
from ..common.errors import MemorySpace, SpatialViolation, TemporalViolation
from ..hardware.extent_checker import ExtentChecker
from ..hardware.ocu import OverflowCheckingUnit
from ..liveness.tracking import LivenessTracker
from ..memory.tracker import AllocationRecord
from ..pointer.encoding import DebugCode, PointerCodec
from ..telemetry import EventKind
from ..telemetry.runtime import TELEMETRY
from .base import Mechanism


class LmiMechanism(Mechanism):
    """The full LMI scheme.

    Parameters
    ----------
    config:
        Architectural constants.
    device_size_limit:
        Cap on encodable buffer sizes (default: the simulated 8 GB
        DRAM), freeing high extent values for debug codes.
    liveness_tracking:
        Enable the section XII-C membership table, extending temporal
        protection to copied pointers.
    delayed_termination:
        The paper's default (True): an overflowing pointer-arithmetic
        result is poisoned and only faults if dereferenced.  False
        models the naive alternative that faults at the arithmetic
        itself — the section XII-A ablation showing why it produces
        false positives on one-past-the-end idioms.
    """

    name = "lmi"
    aligned_global = True
    aligned_heap = True
    aligned_stack = True
    aligned_shared = True

    def __init__(
        self,
        config: LmiConfig = DEFAULT_LMI_CONFIG,
        *,
        device_size_limit: Optional[int] = None,
        liveness_tracking: bool = False,
        delayed_termination: bool = True,
    ) -> None:
        super().__init__()
        self.delayed_termination = delayed_termination
        if device_size_limit is None:
            device_size_limit = DRAM_BYTES
        self.codec = PointerCodec(config, device_size_limit=device_size_limit)
        self.ocu = OverflowCheckingUnit(self.codec, config)
        self.ec = ExtentChecker(self.codec)
        self.liveness: Optional[LivenessTracker] = (
            LivenessTracker(self.codec) if liveness_tracking else None
        )

    # ------------------------------------------------------------------
    # Tagging

    def tag_pointer(
        self,
        base: int,
        size: int,
        space: MemorySpace,
        *,
        thread: Optional[int] = None,
        block: Optional[int] = None,
        coarse: bool = False,
        record: Optional[AllocationRecord] = None,
    ) -> int:
        pointer = self.codec.encode(base, size)
        self.stats.tagged_pointers += 1
        if self.liveness is not None:
            self.liveness.register(pointer)
        if TELEMETRY.enabled:
            TELEMETRY.emit(
                EventKind.POINTER_TAG,
                mechanism=self.name,
                space=space,
                size=size,
                extent=self.codec.extent_of(pointer),
            )
        return pointer

    def translate(self, pointer: int) -> int:
        return self.codec.address_of(pointer)

    # ------------------------------------------------------------------
    # Pointer lifecycle

    def on_ptr_arith(
        self,
        input_pointer: int,
        raw_result: int,
        *,
        activated: bool,
        thread: Optional[int] = None,
    ) -> int:
        result = self.ocu.process(
            raw_result, activated=activated, pointer_operand=input_pointer
        )
        if result.checked:
            self.stats.checks += 1
        if result.overflow and not self.delayed_termination:
            # Ablation: fault at the arithmetic, before any access.
            self.stats.detections += 1
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    EventKind.DETECTION,
                    mechanism="lmi-immediate",
                    cause="immediate_termination",
                    thread=thread,
                )
            raise SpatialViolation(
                f"immediate-termination ablation: pointer arithmetic "
                f"escaped its buffer (0x{self.codec.address_of(raw_result):x})",
                thread=thread,
                address=self.codec.address_of(raw_result),
                mechanism="lmi-immediate",
            )
        return result.value

    def on_invalidate(self, pointer: int, thread: Optional[int] = None) -> int:
        # Compiler-inserted nullification is always temporal (free or
        # scope exit); stamp the debug code so the EC classifies it.
        return self.codec.encode_debug(pointer, DebugCode.TEMPORAL_VIOLATION)

    def on_free(
        self,
        pointer: int,
        base: int,
        record: AllocationRecord,
        *,
        thread: Optional[int] = None,
    ) -> None:
        if self.liveness is not None:
            self.liveness.deregister(pointer)

    def on_scope_exit(
        self,
        records: Sequence[AllocationRecord],
        *,
        thread: Optional[int] = None,
    ) -> None:
        if self.liveness is not None:
            for record in records:
                self.liveness.deregister_by_base(record.base, record.size)

    # ------------------------------------------------------------------
    # Access checking

    def check_access(
        self,
        pointer: int,
        raw_address: int,
        width: int,
        space: Optional[MemorySpace],
        *,
        thread: Optional[int] = None,
        is_store: bool = False,
    ) -> None:
        self.stats.checks += 1
        try:
            self.ec.check_access(pointer, space=space, thread=thread)
        except Exception:
            self.stats.detections += 1
            raise
        if self.liveness is not None and not self.liveness.is_live(pointer):
            self.stats.detections += 1
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    EventKind.DETECTION,
                    mechanism=self.name,
                    cause="liveness_table",
                    address=raw_address,
                    thread=thread,
                )
            raise TemporalViolation(
                f"liveness table rejects access to 0x{raw_address:x} "
                "(buffer no longer live)",
                space=space,
                address=raw_address,
                thread=thread,
                mechanism=self.name,
            )

    def describe(self) -> str:
        suffix = "+liveness" if self.liveness is not None else ""
        return f"lmi{suffix}"
