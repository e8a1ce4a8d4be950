"""Write ``src/spinchsh/ziggurat.py``: numpy's standard-normal ziggurat tables.

numpy's ``Generator.standard_normal`` takes a raw 64-bit word apart into a
layer index ``idx`` (the low byte), a sign bit and a 52-bit magnitude
``rabs`` (the bits above it).  It returns ``±rabs * wi_double[idx]`` when
``rabs < ki_double[idx]`` and reads further words otherwise (Marsaglia &
Tsang, J. Stat. Softw. 5(8), 2000).  This script asks the installed numpy
for both tables through Philox's documented ``state``: it puts a chosen word
at the head of the generator's buffer, zeros after it, and draws one
``standard_normal``.  ``wi_double[idx]`` is the draw for ``rabs = 1``, and
``ki_double[idx]`` is the least ``rabs`` for which numpy reads more than one
word, found by bisection.  Layer 1 has ``ki = 0``: its wedge test takes the
zero word that follows as its uniform, accepts, and returns ``1 * wi[1]`` all
the same.  The tables are written as Python literals that read back to the
same bits; the library imports the written module and never probes.

Usage::

    python tools/extract_ziggurat.py

``tests/test_states.py`` probes the installed numpy the same way and compares
the result with the committed module.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent.parent / "src" / "spinchsh" / "ziggurat.py"


def probe_tables() -> dict:
    """{"ki_double": ..., "wi_double": ...}, 256 entries each, as numpy's
    ``standard_normal`` runs them."""
    bitgen = np.random.Philox(key=[0, 0])
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # zero counter

    def draw(rabs, idx):
        """numpy's draw for the word of ``rabs`` and ``idx`` (sign bit clear),
        and the number of words it read for it."""
        state["buffer"] = np.array([rabs << 9 | idx, 0, 0, 0], dtype=np.uint64)
        state["buffer_pos"] = 0
        bitgen.state = state
        x = rng.standard_normal()
        after = bitgen.state  # Philox bumps the counter before each refill
        return x, 4 * int(after["state"]["counter"][0]) + after["buffer_pos"]

    ki = []
    for idx in range(256):
        lo, hi = 0, 2 ** 52  # rabs has 52 bits; hi is never probed
        while lo < hi:
            mid = (lo + hi) // 2
            if draw(mid, idx)[1] > 1:
                hi = mid
            else:
                lo = mid + 1
        ki.append(lo)
    return {"ki_double": tuple(ki), "wi_double": tuple(draw(1, idx)[0] for idx in range(256))}


def render(tables: dict) -> str:
    """Source of the constants module: hex ints and ``repr`` floats, both of
    which read back to the same bits."""
    def rows(items, per_row):
        return "\n".join("    " + " ".join(f"{item}," for item in items[i:i + per_row])
                         for i in range(0, len(items), per_row))

    ki = [f"0x{v:013x}" for v in tables["ki_double"]]
    wi = [repr(v) for v in tables["wi_double"]]
    return (
        '"""numpy\'s standard-normal ziggurat tables ``ki_double`` and ``wi_double``.\n'
        "\n"
        "Written by ``tools/extract_ziggurat.py``, which probes the installed\n"
        "numpy's ``standard_normal``; do not edit by hand.  A raw word's low byte\n"
        "is an index ``idx``; its 52-bit magnitude ``rabs`` is accepted iff\n"
        "``rabs < KI_DOUBLE[idx]`` and then gives ``rabs * WI_DOUBLE[idx]``.\n"
        '"""\n'
        "\n"
        "KI_DOUBLE = (\n" + rows(ki, 4) + "\n)\n"
        "\n"
        "WI_DOUBLE = (\n" + rows(wi, 3) + "\n)\n")


def main() -> None:
    OUT.write_text(render(probe_tables()))


if __name__ == "__main__":
    main()
