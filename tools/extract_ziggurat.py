"""Write ``src/spinchsh/ziggurat.py``: numpy's standard-normal ziggurat tables.

numpy's ``Generator.standard_normal`` takes a raw 64-bit word apart into a
layer index ``idx`` (the low byte), a sign bit and a 52-bit magnitude
``rabs`` (the bits above it).  It returns ``x = ±rabs * wi_double[idx]`` when
``rabs < ki_double[idx]`` and reads further words otherwise (Marsaglia &
Tsang, J. Stat. Softw. 5(8), 2000).  In layer ``idx >= 1`` it then reads a
uniform ``u`` from the next word and returns x iff the wedge test
``(fi_double[idx - 1] - fi_double[idx]) * u + fi_double[idx] < exp(-x * x /
2)`` holds; else it starts the draw again from the word after ``u``.

This script asks the installed numpy for the three tables through Philox's
documented ``state``: it puts chosen words at the head of the generator's
buffer, zeros after them, and draws one ``standard_normal``.
``wi_double[idx]`` is the draw for ``rabs = 1``, and ``ki_double[idx]`` is
the least ``rabs`` for which numpy reads more than one word, found by
bisection.  Layer 1 has ``ki = 0``: its wedge test takes the zero word that
follows as its uniform, accepts, and returns ``1 * wi[1]`` all the same.

``fi_double`` is pinned from wedge decisions: a draw reads two words when
the test accepts and three when it fails (the restart takes the zero word
on the fast path).  To ask whether an entry is at least a double c, the
script picks a magnitude and a uniform at which the test's left side
reaches the density ``exp(-x * x / 2)`` if the entry is c, but stays below
it if the entry is the double under c; numpy fails the test exactly when
the entry is at least c.  At ``u = 0`` the left side is ``fi_double[idx]``
itself; otherwise it also needs ``fi_double[idx - 1]``, pinned before it.
Each entry is searched from the density at its layer's outer edge ``x =
wi[idx] * 2**52`` (at ``x = 0`` for ``fi_double[0]``, layer 1's top), and the
script raises if no magnitude separates two neighbouring doubles.  Python's
``math.exp`` and float arithmetic stand in for numpy's C ``exp`` and
expression, as they do in the sampler.

The tables are written as Python literals that read back to the same bits;
the library imports the written module and never probes.

Usage::

    python tools/extract_ziggurat.py

``tests/test_sampler.py`` probes the installed numpy the same way and compares
the result with the committed module.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent.parent / "src" / "spinchsh" / "ziggurat.py"

TOP = 2 ** 52  # rabs has 52 bits
UNITS = 2 ** 53  # a uniform is m * 2**-53, m < 2**53


def least(pred, lo: int, hi: int) -> int:
    """The least n in [lo, hi) with pred(n), pred false then true; hi if none."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def bits(v: float) -> int:
    """A non-negative double's bits as an int: consecutive doubles, consecutive ints."""
    return struct.unpack("<q", struct.pack("<d", v))[0]


def double(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def probe_tables() -> dict:
    """{"ki_double": ..., "wi_double": ..., "fi_double": ...}, 256 entries
    each, as numpy's ``standard_normal`` runs them."""
    bitgen = np.random.Philox(key=[0, 0])
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # zero counter

    def draw(*words):
        """numpy's draw when the next raw words are ``words`` and zeros after
        them, and the number of words it read for it."""
        state["buffer"] = np.array(words + (0,) * (4 - len(words)), dtype=np.uint64)
        state["buffer_pos"] = 0
        bitgen.state = state
        x = rng.standard_normal()
        after = bitgen.state  # Philox bumps the counter before each refill
        return x, 4 * int(after["state"]["counter"][0]) + after["buffer_pos"]

    ki = tuple(least(lambda rabs: draw(rabs << 9 | idx)[1] > 1, 0, TOP) for idx in range(256))
    wi = tuple(draw(1 << 9 | idx)[0] for idx in range(256))

    def density(idx, rabs):
        x = rabs * wi[idx]
        return math.exp(-0.5 * x * x)

    def at_least(idx, height, c):
        """Whether numpy's entry is >= c, ``height(v, m)`` being layer idx's
        wedge left side at uniform m 2**-53 if the entry were v."""
        below = double(bits(c) - 1)
        # the least magnitude whose density is at most c (u = 0 separates
        # there if that density is c), else the layer's outermost ones
        first = least(lambda rabs: density(idx, rabs) <= c, ki[idx], TOP)
        for rabs in (first, TOP - 1, TOP - 2):
            if rabs == TOP:
                continue
            e = density(idx, rabs)
            m = 0 if height(c, 0) >= e else least(lambda m: height(c, m) >= e, 1, UNITS)
            if m < UNITS and height(below, m) < e:
                return draw(rabs << 9 | idx, m << 11)[1] > 2
        raise RuntimeError(f"no wedge test of layer {idx} separates {c!r} from the double below")

    def pin(idx, height, start):
        """The double v with at_least(v) and not at_least(the next double
        up), galloped to from start over the doubles' bits, then bisected."""
        def ask(b):
            return at_least(idx, height, double(b))
        lo = hi = bits(start)
        stride = 1
        while not ask(lo):
            lo, stride = lo - stride, 2 * stride
        stride = 1
        while ask(hi):
            hi, stride = hi + stride, 2 * stride
        # ask(lo) and not ask(hi): the last b before the first that fails
        return double(least(lambda b: not ask(b), lo + 1, hi) - 1)

    def wedge(upper):
        """height(v, m) for the layer below fi_double entry ``upper``."""
        return lambda v, m: v if m == 0 else (upper - v) * (m * 2.0 ** -53) + v

    edge = [0.0] + [w * TOP for w in wi[1:]]
    fi = [math.exp(-0.5 * x * x) for x in edge]
    # fi[1] at u = 0 alone, then fi[0] above it in layer 1, then upwards
    fi[1] = pin(1, wedge(math.nan), fi[1])
    fi[0] = pin(1, lambda v, m: (v - fi[1]) * (m * 2.0 ** -53) + fi[1], fi[0])
    for idx in range(2, 256):
        fi[idx] = pin(idx, wedge(fi[idx - 1]), fi[idx])
    if any(not a > b for a, b in zip(fi, fi[1:] + [0.0])):
        raise RuntimeError("fi_double is not positive and decreasing")
    return {"ki_double": ki, "wi_double": wi, "fi_double": tuple(fi)}


def render(tables: dict) -> str:
    """Source of the constants module: hex ints and ``repr`` floats, both of
    which read back to the same bits."""
    def rows(items, per_row):
        return "\n".join("    " + " ".join(f"{item}," for item in items[i:i + per_row])
                         for i in range(0, len(items), per_row))

    ki = [f"0x{v:013x}" for v in tables["ki_double"]]
    wi = [repr(v) for v in tables["wi_double"]]
    fi = [repr(v) for v in tables["fi_double"]]
    return (
        '"""numpy\'s standard-normal ziggurat tables ``ki_double``, ``wi_double``\n'
        "and ``fi_double``.\n"
        "\n"
        "Written by ``tools/extract_ziggurat.py``, which probes the installed\n"
        "numpy's ``standard_normal``; do not edit by hand.  A raw word's low byte\n"
        "is an index ``idx``; its 52-bit magnitude ``rabs`` is accepted iff\n"
        "``rabs < KI_DOUBLE[idx]`` and then gives ``x = rabs * WI_DOUBLE[idx]``.\n"
        "Otherwise, for ``idx >= 1``, x is accepted iff ``(FI_DOUBLE[idx - 1] -\n"
        "FI_DOUBLE[idx]) * u + FI_DOUBLE[idx] < exp(-x * x / 2)``, u a uniform\n"
        "from the next word.\n"
        '"""\n'
        "\n"
        "KI_DOUBLE = (\n" + rows(ki, 4) + "\n)\n"
        "\n"
        "WI_DOUBLE = (\n" + rows(wi, 3) + "\n)\n"
        "\n"
        "FI_DOUBLE = (\n" + rows(fi, 3) + "\n)\n")


def main() -> None:
    OUT.write_text(render(probe_tables()))


if __name__ == "__main__":
    main()
