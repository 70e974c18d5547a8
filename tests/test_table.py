"""The CSV writer's text is byte for byte C's ``%.17g``, NaN written empty,
against one ``%`` formatting per row."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavetank
from wavetank import _blocks
from wavetank._table import write_table


def reference(header, block) -> str:
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return ",".join(header) + "\n" + "".join((row % tuple(r)).replace("nan", "") for r in block.tolist())


def written(tmp_path, block) -> str:
    header = [f"c{i}" for i in range(block.shape[1])]
    write_table(tmp_path / "table.csv", header, [block])
    return (tmp_path / "table.csv").read_text()


def sides(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


def near_ties():
    """Doubles in [2^-23, 2^-22) whose 10^23-fold lies r·2^-52 off a half-integer,
    closer than the double-double product can tell apart: M·2^-75·10^23 is
    M·5^23·2^-52, with M·5^23 = 2^51 + r modulo 2^52."""
    inverse = pow(5**23, -1, 2**52)
    return [((2**51 + r) * inverse % 2**52 + 2**52) * 2.0**-75 for r in (1, -1, 5, -5, 0)]


EDGES = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
    5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max, -np.finfo(float).max,
    1e-280, 1e280, np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf),
    *sides(1e-5), *sides(1e-4), *sides(1e16), *sides(1e17),
    # the nearest double lies below the power of ten, and 17 digits carry up to it
    1e-14, 1e-79, 1e98, 1e23, 9.9999999999999999e-5,
    # three-digit exponents
    1.2345678901234567e-100, -9.8765432109876543e+123, 1e100, 1e-100, 1.5e-300, 2.5e300,
    # exact ties at the 18th digit round half to even; the near ties lie
    # closer to a half than the double-double product resolves
    1234567890123456.75, 1234567890123457.25, 0.5, 2.0**-20, 2.0**60,
    *near_ties(),
    1.0, 0.1, 123.456, -1e-3, 99999999999999999.0, 12345678901234567890.0,
]


def test_edge_cases(tmp_path):
    for width in (1, 3):
        block = np.resize(EDGES, (-(-len(EDGES) // width), width))
        assert written(tmp_path, block) == reference([f"c{i}" for i in range(width)], block)


def test_literal_text(tmp_path):
    # NaN of either sign is an empty cell; an exact tie rounds half to even
    block = np.array([
        [np.nan, 1.0, -np.nan],
        [-0.0, np.nan, -np.inf],
        [1234567890123456.75, 1234567890123457.25, 1e-5],
    ])
    assert written(tmp_path, block) == (
        "c0,c1,c2\n,1,\n-0,,-inf\n1234567890123456.8,1234567890123457.2,1.0000000000000001e-05\n"
    )


def test_every_power_of_ten_and_its_neighbours(tmp_path):
    # the decimal exponent is guessed from log10, which can be one off only
    # here, and 17 digits carry to the next exponent only here: 16 doubles on
    # each side of every power of ten from 1e-290 to 1e290
    powers = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-290, 291)])
    block = (powers.view(np.int64)[:, None] + np.arange(-16, 17)).view(np.float64)
    assert written(tmp_path, block) == reference([f"c{i}" for i in range(33)], block)


@st.composite
def bit_tables(draw):
    """1-5 columns of 64-bit patterns drawn field by field: sign, biased
    exponent (all 2048 values, so zero, subnormals, inf and NaN come up) and
    fraction."""
    width = draw(st.integers(1, 5))
    bits = st.builds(
        lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
        st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1),
    )
    rows = draw(st.lists(st.lists(bits, min_size=width, max_size=width), max_size=40))
    return np.array(rows, dtype=np.uint64).reshape(len(rows), width).view(np.float64)


@settings(max_examples=200, deadline=None, database=None)
@given(bit_tables())
def test_raw_bit_patterns(tmp_path_factory, block):
    assert written(tmp_path_factory.mktemp("t"), block) == reference([f"c{i}" for i in range(block.shape[1])], block)


def test_scaled_normals(tmp_path):
    rng = np.random.default_rng(11)
    block = rng.standard_normal((3000, 4)) * 10.0 ** rng.integers(-300, 300, size=(3000, 4))
    assert written(tmp_path, block) == reference(["c0", "c1", "c2", "c3"], block)


def test_block_seams(tmp_path, monkeypatch):
    # blocks of fewer than 8 cells: a 3-wide table goes two rows a block, a
    # 9-wide one a row a block
    monkeypatch.setattr(_blocks, "BLOCK", 8)
    rng = np.random.default_rng(5)
    for width in (1, 3, 9):
        block = rng.standard_normal((23, width)) * 10.0 ** rng.integers(-30, 30, size=(23, width))
        block[::4, 0] = np.nan
        block[1::5, -1] = np.inf
        assert written(tmp_path, block) == reference([f"c{i}" for i in range(width)], block)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts page faults of glibc's malloc")
@pytest.mark.parametrize(
    "warm, work",
    [
        ("write_table(os.devnull, header, [block[:20]])", "write_table(os.devnull, header, [block])"),
        ("spectral_abscissa(h, 8)", "[spectral_abscissa(h, n) for n in (100, 200, 400)]"),
    ],
    ids=["writer", "root-finder"],
)
def test_blocks_take_their_memory_from_the_heap(warm, work):
    # block temporaries, the writer's above 128 KiB and the root finder's below,
    # come back from the heap once wavetank._blocks has raised glibc's thresholds:
    # in a fresh interpreter, after a small warm-up, writing the 808k cells of a
    # record-field series, or the abscissae at N = 100, 200, 400, fault in no
    # block's memory again [measured: 3 and 111 page faults; 74,948 and 7,314
    # where nothing raised the thresholds first]
    probe = (
        "import os, resource, numpy as np\n"
        "from wavetank._table import write_table\n"
        "from wavetank.profiles import WavemakerProfile\n"
        "from wavetank.stability import spectral_abscissa\n"
        "header, block = ['c'] * 404, np.random.default_rng(3).standard_normal((2001, 404))\n"
        "h = WavemakerProfile.linear()\n"
        f"{warm}\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"{work}\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(wavetank.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=120)
    assert int(out.stdout) < 1000


def test_several_columns_and_stdout(capsys):
    t = np.linspace(0.0, 1.0, 11)
    modes = np.outer(t, [1.0, -1e-7, 3e20])
    write_table(None, ["t", "a", "b", "c"], [t, modes])
    assert capsys.readouterr().out == reference(["t", "a", "b", "c"], np.column_stack([t, modes]))
