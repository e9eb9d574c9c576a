"""Transferred-content classification (paper section 10, item 5).

"If we can analyze and detect what the type of a downloaded file is
(.gif, .doc or .exe) we can incorporate this to our policy.  The
detection itself does not need to be based on the suffix, analyzing the
content itself may be more accurate."

This sniffer looks at leading magic bytes, not names: the simulated
kernel's executables start with ``\\x7fEXE`` (real ELF uses ``\\x7fELF``;
both are recognized), scripts with ``#!``.
"""

from __future__ import annotations

#: Content classes attached to DataTransferEvents.
CONTENT_EXECUTABLE = "executable"
CONTENT_SCRIPT = "script"
CONTENT_TEXT = "text"
CONTENT_BINARY = "binary"
CONTENT_EMPTY = "empty"

_EXECUTABLE_MAGICS = (b"\x7fEXE", b"\x7fELF", b"MZ")

#: Bytes a text sample may hold: printable ASCII, tab, LF and CR.
_PRINTABLE = bytes(range(32, 127)) + b"\t\n\r"


def sniff_content(data: bytes) -> str:
    """Classify transferred bytes by leading magic."""
    if not data:
        return CONTENT_EMPTY
    for magic in _EXECUTABLE_MAGICS:
        if data.startswith(magic):
            return CONTENT_EXECUTABLE
    if data.startswith(b"#!"):
        return CONTENT_SCRIPT
    # Text when deleting every printable byte leaves nothing.
    if not data[:64].translate(None, _PRINTABLE):
        return CONTENT_TEXT
    return CONTENT_BINARY
