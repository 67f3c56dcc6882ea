"""Every hop a model records is one :func:`repro.obs.journeys_of` knows.

Hop sites pass their hop name as a literal to ``Tracer.hop``.  A name
outside :data:`~repro.obs.journey.HOP_CHAIN` and :data:`OFF_CHAIN` would
be recorded and then silently shown as a stray event, and a chain hop
that no site records would silently drop out of every
``journey_waterfall``.  The drop sites sit on cold paths few runs reach,
so this walks the source instead of a run.
"""

import ast
from pathlib import Path

import repro
from repro.obs.journey import HOP_CHAIN

SRC = Path(repro.__file__).parent

#: hops off the send-to-deliver chain: a frame lost or copied on the
#: way, and the reliability layer's retransmit reason
OFF_CHAIN = {
    "wire_drop",    # the link's fault model dropped the frame
    "wire_dup",     # the link's fault model delivered extra copies
    "switch_drop",  # egress queue full or port blacked out
    "nic_drop",     # oversize for the receiver's MTU, or rx ring full
    "retx",         # kind of the packet's next transmission
}


def _hop_sites():
    """``(where, hop name or None)`` of every ``.hop(`` call in src."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "hop"):
                name = node.args[1] if len(node.args) > 1 else None
                literal = (name.value if isinstance(name, ast.Constant)
                           and isinstance(name.value, str) else None)
                sites.append((f"{path.relative_to(SRC)}:{node.lineno}", literal))
    return sites


def test_every_hop_site_names_a_known_hop():
    unknown = [(where, name) for where, name in _hop_sites()
               if name not in HOP_CHAIN and name not in OFF_CHAIN]
    assert not unknown, f"hop sites without a known literal hop name: {unknown}"


def test_every_chain_hop_has_a_site():
    recorded = {name for _, name in _hop_sites()}
    missing = [hop for hop in HOP_CHAIN if hop not in recorded]
    assert not missing, f"chain hops no site records: {missing}"


def test_every_off_chain_hop_has_a_site():
    recorded = {name for _, name in _hop_sites()}
    assert OFF_CHAIN <= recorded, sorted(OFF_CHAIN - recorded)
