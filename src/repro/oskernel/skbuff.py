"""The ``sk_buff`` abstraction.

The Linux socket buffer is central to the paper's 0-copy story (§3.1):
an ``SK_BUFF`` can describe *fragmented* data — pointers to headers in
kernel memory plus pointers to payload pages still sitting in **user**
memory — which lets the NIC's scatter/gather DMA engine pull the bytes
straight from the application's buffer (path #2 of Figure 1) without the
CPU ever copying them.

Our model tracks where each fragment lives (``user``/``system``/``nic``)
and the header stack pushed by each protocol layer, so tests can assert
copy-count invariants ("a 0-copy send never creates a system-memory
payload fragment").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = ["SkBuff", "USER_MEMORY", "SYSTEM_MEMORY", "NIC_MEMORY"]

USER_MEMORY = "user"
SYSTEM_MEMORY = "system"
NIC_MEMORY = "nic"

@dataclass
class SkBuff:
    """A socket buffer: header stack + payload fragments.

    Attributes
    ----------
    payload_bytes:
        Total user-data bytes described.
    fragments:
        ``(location, nbytes)`` pairs; locations are the module constants.
    headers:
        ``(layer_name, nbytes)`` pairs, outermost last (push order).
    payload:
        Opaque reference to the protocol packet / message object.
    """

    payload_bytes: int
    fragments: List[Tuple[str, int]] = field(default_factory=list)
    headers: List[Tuple[str, int]] = field(default_factory=list)
    payload: Any = None
    #: Figure 8(b) receive path: the DMA was directed by the protocol
    #: module and may have landed straight in user memory — the module
    #: skips its own staging copy for bound receivers.
    direct_delivery: bool = False

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("negative payload")
        if not self.fragments and self.payload_bytes:
            self.fragments = [(SYSTEM_MEMORY, self.payload_bytes)]
        total = sum(n for _, n in self.fragments)
        if total != self.payload_bytes:
            raise ValueError(
                f"fragments sum to {total}, payload says {self.payload_bytes}"
            )

    # -- header stack ------------------------------------------------------
    def push_header(self, layer: str, nbytes: int) -> None:
        """Prepend a protocol header (kernel memory, negligible to move)."""
        if nbytes < 0:
            raise ValueError("negative header size")
        self.headers.append((layer, nbytes))

    def header_bytes(self) -> int:
        """Total pushed protocol-header bytes."""
        return sum(n for _, n in self.headers)

    def total_bytes(self) -> int:
        """Bytes that cross the PCI bus / wire for this buffer."""
        return self.payload_bytes + self.header_bytes()

    # -- fragment queries ----------------------------------------------------
    def bytes_in(self, location: str) -> int:
        """Payload bytes residing in the given memory location."""
        return sum(n for loc, n in self.fragments if loc == location)

    @property
    def is_zero_copy(self) -> bool:
        """True when the payload still lives entirely in user memory."""
        return self.payload_bytes > 0 and self.bytes_in(USER_MEMORY) == self.payload_bytes

    def relocate(self, location: str) -> None:
        """Record that the payload now lives entirely in ``location``
        (the cost of moving it is charged by the caller)."""
        if self.payload_bytes:
            self.fragments = [(location, self.payload_bytes)]

    @classmethod
    def for_user_payload(cls, nbytes: int, payload: Any = None) -> "SkBuff":
        """A buffer describing user-memory data (scatter/gather send)."""
        frags = [(USER_MEMORY, nbytes)] if nbytes else []
        return cls(payload_bytes=nbytes, fragments=frags, payload=payload)

    @classmethod
    def for_system_payload(cls, nbytes: int, payload: Any = None) -> "SkBuff":
        """A buffer whose data has been staged into kernel memory."""
        frags = [(SYSTEM_MEMORY, nbytes)] if nbytes else []
        return cls(payload_bytes=nbytes, fragments=frags, payload=payload)
