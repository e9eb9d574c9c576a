"""Routine-level dataflow short circuit (paper section 7.2).

``gethostbyname`` translates a host *name* into a network *address* by
consulting a hosts file or a DNS server, so naive dataflow tags the result
with the translation table's source (here FILE("/etc/hosts")) instead of
the queried name's source.  The paper's fix: treat the routine as atomic
and copy the input name's tag onto the result.

Mechanically: on a CALL into a registered routine, capture the tag of the
name string (first argument, in ``ebx``) and remember the return address
and expected stack depth; on the matching RET, overwrite ``eax``'s shadow
tag with the captured tag.
"""

from __future__ import annotations

from repro.harrier.dataflow import InstructionDataFlow
from repro.harrier.state import ProcessShadow, ShortCircuitFrame
from repro.kernel.process import Process


class RoutineShortCircuit:
    def __init__(self, dataflow: InstructionDataFlow) -> None:
        self._dataflow = dataflow

    def on_step(
        self, proc: Process, shadow: ProcessShadow, step
    ) -> None:
        """Track CALL/RET bookkeeping for one executed record.

        ``step`` is any object carrying ``call_target``,
        ``call_return_addr`` and ``ret_target`` — a :class:`BlockRecord`
        in production.  CALL/RET always terminate a block, so the live
        register state at hook time is the state right after the
        CALL/RET retired.
        """
        if step.call_target is not None:
            symbol = shadow.routine_addrs.get(step.call_target)
            if symbol is not None:
                name_ptr = proc.cpu.regs.get("ebx")
                tags = self._dataflow.string_tags(proc, shadow, name_ptr)
                shadow.frames.append(
                    ShortCircuitFrame(
                        symbol=symbol,
                        return_addr=step.call_return_addr,
                        # The CALL pushed the return address, so esp after
                        # the matching RET is one above the current esp.
                        sp_after_ret=proc.cpu.regs.get("esp") + 1,
                        tags=tags,
                    )
                )
            return
        if step.ret_target is None or not shadow.frames:
            return
        frame = shadow.frames[-1]
        if (
            step.ret_target == frame.return_addr
            and proc.cpu.regs.get("esp") == frame.sp_after_ret
        ):
            shadow.frames.pop()
            # The routine's result (eax) now carries the *name's* tags.
            shadow.regs.set("eax", frame.tags)
