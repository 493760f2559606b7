"""A minimal deterministic discrete-event scheduler over packed-int records.

Events fire in (time, sequence) order; the sequence number is assigned at
scheduling time, so simultaneous events fire in the order they were created.
This makes every simulation a pure function of (graph, protocol, delay model).

Performance architecture (DESIGN.md §6, §9): the heap holds small records
whose third field is one packed int

    ``code = (kind << LINK_BITS) | link_id``

so the common transport record is the 3-tuple ``(time, seq, code)`` — the
first two fields give the total order (``seq`` is unique, so comparison
never reaches ``code``), and a single integer both selects the handler and
names the directed link.  Payloads and pre-drawn acknowledgment delays ride
in per-link *side slots* owned by the engine instead of in the tuple
(DESIGN.md §9), so scheduling a message allocates one 3-slot tuple instead
of the 7-slot records of earlier revisions.

Record kinds, ordered so the hottest dispatch tests take the fewest
comparisons (codes for higher kinds are strictly larger, and the two
hottest kinds — packed deliveries and bare acknowledgments — sit at the
top):

* :data:`EV_CALLBACK` (kind 0, code exactly 0) — a zero-argument callable in
  field 3; what :meth:`EventQueue.schedule` produces.
* :data:`EV_DELIVER_PAYLOAD` (kind 1) — the rare "fat" delivery
  ``(time, seq, code, payload, inj_seq, ack_delay)`` used when the link's
  delivery slot is already occupied (only possible during the
  ``on_delivered`` double-inject race, see :mod:`repro.net.async_runtime`).
* :data:`EV_ACK_PAYLOAD` (kind 2) — ``(time, seq, code, payload)``: an
  acknowledgment whose sender wants the ``on_delivered`` callback (decided
  once at delivery time, so dispatch re-checks nothing).
* :data:`EV_ACK` (kind 3) — the bare acknowledgment ``(time, seq, code)``:
  frees the link and drains its outbox, nothing else.
* :data:`EV_DELIVER` (kind 4) — the packed fast path ``(time, seq, code)``;
  payload and pre-drawn ack delay sit in the engine's side slots for the
  link.

The transport kinds are dispatched by
:class:`~repro.net.async_runtime.AsyncRuntime`'s inlined run loop (which
subclasses this queue); :class:`EventQueue` itself only ever fires
:data:`EV_CALLBACK` records.
"""

from __future__ import annotations

import heapq
from itertools import count
from math import inf
from typing import Callable, List, Optional, Tuple

from .delays import InvalidDelayError

Callback = Callable[[], None]

#: Bits reserved for the link id inside a packed record code.  2^24 directed
#: links (8M undirected edges) is far beyond anything the pure-Python engine
#: can run; :class:`~repro.net.async_runtime.LinkSkeleton` guards the bound.
LINK_BITS = 24
LINK_MASK = (1 << LINK_BITS) - 1

#: Record kinds (``code >> LINK_BITS``).  ``EV_CALLBACK`` is handled by
#: :class:`EventQueue` itself; see the module docstring for the layouts.
EV_CALLBACK = 0
EV_DELIVER_PAYLOAD = 1
EV_ACK_PAYLOAD = 2
EV_ACK = 3
EV_DELIVER = 4

#: Code bases: a record's code is ``BASE + link_id``.  Kind tests compare
#: codes against these bases directly — ``code >= CODE_DELIVER`` is "packed
#: delivery", the hottest kind, decided in one comparison.
CODE_DELIVER_PAYLOAD = EV_DELIVER_PAYLOAD << LINK_BITS
CODE_ACK_PAYLOAD = EV_ACK_PAYLOAD << LINK_BITS
CODE_ACK = EV_ACK << LINK_BITS
CODE_DELIVER = EV_DELIVER << LINK_BITS


class EventQueue:
    """Priority queue of packed-int event records with deterministic ties."""

    __slots__ = ("_heap", "_counter", "_now", "_fired")

    def __init__(self) -> None:
        self._heap: List[Tuple] = []
        # itertools.count hands out sequence numbers at C speed (the
        # read-increment-write of a plain int attribute costs twice as much
        # on the hot path).
        self._counter = count()
        self._now = 0.0
        self._fired = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def fired(self) -> int:
        return self._fired

    def schedule(self, delay: float, callback: Callback) -> int:
        """Schedule ``callback`` at ``now + delay`` (delay must be >= 0, finite).

        Returns the record's sequence number.
        """
        # Written as a membership test so NaN (every comparison False) and
        # +inf fail it too, not just negative delays: a non-finite time in
        # the heap silently corrupts (time, seq) ordering for every later
        # event, so fail loudly with a named error at scheduling time.
        if not 0.0 <= delay < inf:
            raise InvalidDelayError(f"invalid delay {delay!r} (must be finite, >= 0)")
        seq = next(self._counter)
        heapq.heappush(self._heap, (self._now + delay, seq, EV_CALLBACK, callback))
        return seq

    def schedule_at(self, time: float, callback: Callback) -> int:
        """Schedule ``callback`` at ``time``; returns its sequence number."""
        if not self._now <= time < inf:
            raise InvalidDelayError(
                f"invalid event time {time!r} (must be finite, >= now={self._now})"
            )
        seq = next(self._counter)
        heapq.heappush(self._heap, (time, seq, EV_CALLBACK, callback))
        return seq

    def dispatch(self, record: Tuple) -> None:
        """Handle a non-callback record; engines embedding the queue override."""
        raise ValueError(
            f"no handler for event kind {record[2] >> LINK_BITS!r}"
        )

    def step(self) -> bool:
        """Fire the earliest event; returns False when the queue is empty."""
        if not self._heap:
            return False
        record = heapq.heappop(self._heap)
        self._now = record[0]
        self._fired += 1
        if record[2] == EV_CALLBACK:
            record[3]()
        else:
            self.dispatch(record)
        return True

    def run(
        self,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> str:
        """Run until quiescence, the time horizon, or the event budget.

        Returns one of ``"quiescent"``, ``"max_time"``, ``"max_events"``.
        """
        heap = self._heap
        pop = heapq.heappop
        budget = max_events
        while heap:
            if max_time is not None and heap[0][0] > max_time:
                return "max_time"
            if budget is not None:
                if budget == 0:
                    return "max_events"
                budget -= 1
            record = pop(heap)
            self._now = record[0]
            self._fired += 1
            if record[2] == EV_CALLBACK:
                record[3]()
            else:
                self.dispatch(record)
        return "quiescent"
