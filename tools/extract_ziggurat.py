"""Write ``src/spinchsh/ziggurat.py``: numpy's standard-normal ziggurat tables.

numpy's ``Generator.standard_normal`` accepts a raw 64-bit word on its fast
path by comparing 52 of its bits with ``ki_double`` and scaling them by
``wi_double`` (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000).  Both tables
are local symbols of ``src_distributions_distributions.c.o`` inside the
static library numpy installs as ``numpy/random/lib/libnpyrandom.a``.  This
script reads them from there with the standard library alone (the ``ar``
member list, then the ELF64 section headers, ``.symtab`` and the section each
symbol lives in) and writes them as Python literals that round-trip exactly.
The library imports the written module and never reads the archive.

Usage::

    python tools/extract_ziggurat.py [--archive PATH] [--out PATH]

``--archive`` defaults to the installed numpy's archive, located without
importing numpy.  ``tests/test_states.py`` re-reads the installed archive
with ``read_tables`` and compares it with the committed module.
"""

from __future__ import annotations

import argparse
import importlib.util
import struct
import sys
from pathlib import Path

MEMBER = "src_distributions_distributions.c.o"
TABLES = {"ki_double": "Q", "wi_double": "d"}  # symbol -> struct code of an entry
ENTRIES = 256
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "src" / "spinchsh" / "ziggurat.py"


class TableNotFound(LookupError):
    """The archive, its member or one of the table symbols is absent."""


def default_archive() -> Path:
    """``numpy/random/lib/libnpyrandom.a`` of the numpy on ``sys.path``."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        raise TableNotFound("numpy is not installed")
    return Path(list(spec.submodule_search_locations)[0]) / "random" / "lib" / "libnpyrandom.a"


def ar_member(archive: bytes, name: str) -> bytes:
    """The bytes of member ``name`` of a System V / GNU ``ar`` archive."""
    if not archive.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(archive):
        header = archive[pos:pos + 60]
        if header[58:60] != b"`\n":
            raise ValueError(f"bad ar member header at offset {pos}")
        raw_name = header[:16].decode("ascii").rstrip()
        size = int(header[48:58].decode("ascii"))
        data = archive[pos + 60:pos + 60 + size]
        pos += 60 + size + (size & 1)  # members start on even offsets
        if raw_name == "//":  # GNU table of names longer than 15 characters
            long_names = data
            continue
        if raw_name.startswith("/") and raw_name[1:].isdigit():
            offset = int(raw_name[1:])
            member = long_names[offset:long_names.index(b"/\n", offset)].decode()
        else:
            member = raw_name.rstrip("/")
        if member == name:
            return data
    raise TableNotFound(f"archive has no member {name!r}")


def elf_symbol_bytes(obj: bytes, names) -> dict:
    """{name: bytes} of the defined symbols ``names`` of a little-endian
    ELF64 relocatable object, read from the sections they live in."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        raise ValueError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (type, offset, size, link) of each section header
    sections = [struct.unpack_from("<4xI16xQQI", obj, shoff + i * shentsize)
                for i in range(shnum)]
    found = {}
    for sh_type, sym_off, sym_size, strtab in sections:
        if sh_type != 2:  # SHT_SYMTAB
            continue
        str_off = sections[strtab][1]
        for pos in range(sym_off, sym_off + sym_size, 24):
            st_name, st_shndx, st_value, st_size = struct.unpack_from("<I2xHQQ", obj, pos)
            name = obj[str_off + st_name:obj.index(b"\0", str_off + st_name)].decode()
            if name in names and 0 < st_shndx < len(sections):
                start = sections[st_shndx][1] + st_value
                found[name] = obj[start:start + st_size]
    missing = sorted(set(names) - set(found))
    if missing:
        raise TableNotFound(f"object defines no symbol {', '.join(missing)}")
    return found


def read_tables(archive_path) -> dict:
    """{symbol: tuple of 256 entries} for every table in TABLES."""
    path = Path(archive_path)
    if not path.is_file():
        raise TableNotFound(f"no archive at {path}")
    raw = elf_symbol_bytes(ar_member(path.read_bytes(), MEMBER), TABLES)
    tables = {}
    for name, code in TABLES.items():
        if len(raw[name]) != 8 * ENTRIES:
            raise ValueError(f"{name} holds {len(raw[name])} bytes, not {8 * ENTRIES}")
        tables[name] = struct.unpack(f"<{ENTRIES}{code}", raw[name])
    return tables


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
        "Written by ``tools/extract_ziggurat.py`` from the static library numpy\n"
        "installs (``numpy/random/lib/libnpyrandom.a``); do not edit by hand.  A raw\n"
        "word's low byte is an index ``idx``; its 52-bit magnitude ``rabs`` is\n"
        "accepted iff ``rabs < KI_DOUBLE[idx]`` and then gives ``rabs *\n"
        "WI_DOUBLE[idx]``.\n"
        '"""\n'
        "\n"
        "KI_DOUBLE = (\n" + rows(ki, 4) + "\n)\n"
        "\n"
        "WI_DOUBLE = (\n" + rows(wi, 3) + "\n)\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--archive", type=Path, default=None,
                        help="libnpyrandom.a to read (default: the installed numpy's)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="module to write (default: %(default)s)")
    args = parser.parse_args(argv)
    try:
        text = render(read_tables(args.archive or default_archive()))
    except (TableNotFound, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
