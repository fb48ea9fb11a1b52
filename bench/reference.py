"""Reference values computed apart from the program.

Nothing here imports ``rieszgauge``: sets are lists of ``(lo, hi)`` float
pairs, lattice values are dicts from coordinate to float (a scalar is the
dict ``{0: x}``), and the regulator envelope and the integrals are written
out from their definitions.  The generators draw dyadic data, so piece-sums
and products with the measure are exact in floating point.
"""

from __future__ import annotations

#: Rows scanned for an envelope; with row and column scales in (0, 1) and a
#: nondecreasing probe, every later term is smaller than the first.
ENVELOPE_ROWS = 64

#: The standard probe set, by the names the program reports them under.
STANDARD_PROBES = tuple(
    [(f"const:{c}", (lambda c: lambda i: c)(c)) for c in range(1, 9)]
    + [("identity", lambda i: i),
       ("affine:2:0", lambda i: 2 * i),
       ("affine:1:4", lambda i: i + 4),
       ("exp", lambda i: 2 ** i)])

#: Antiderivatives of the named Lipschitz forms.
ANTIDERIVATIVES = {
    "t": lambda x: x * x / 2.0,
    "one_minus_t": lambda x: x - x * x / 2.0,
    "half_t": lambda x: x * x / 4.0,
    "neg_t": lambda x: -x * x / 2.0,
    "square": lambda x: x * x * x / 3.0,
}


# ---------------------------------------------------------------------------
# seeded dyadic generators
# ---------------------------------------------------------------------------

def dyadic(rng, lo: float = -16.0, hi: float = 16.0) -> float:
    """A multiple of 1/256 in [lo, hi]."""
    return rng.randrange(int(lo * 256), int(hi * 256) + 1) / 256.0


def union(rng, max_parts: int = 3,
          cells: int = 64) -> list[tuple[float, float]]:
    """A union of 1 to ``max_parts`` disjoint intervals on the 1/``cells``
    grid, sorted and separated by gaps."""
    parts = rng.randint(1, max_parts)
    pts = sorted(rng.sample(range(cells + 1), 2 * parts))
    return [(pts[2 * k] / cells, pts[2 * k + 1] / cells) for k in range(parts)]


def _composition(rng, total: int, parts: int) -> list[int]:
    """``total`` split at random into ``parts`` nonnegative integers."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def union_of_length(rng, parts: int, filled: int,
                    cells: int = 64) -> list[tuple[float, float]]:
    """A union of ``parts`` disjoint intervals on the 1/``cells`` grid that
    covers exactly ``filled`` grid cells, at random positions."""
    sizes = [1 + x for x in _composition(rng, filled - parts, parts)]
    gaps = _composition(rng, cells - filled - (parts - 1), parts + 1)
    out, cursor = [], 0
    for k, size in enumerate(sizes):
        cursor += gaps[k] + (1 if k else 0)
        out.append((cursor / cells, (cursor + size) / cells))
        cursor += size
    return out


# ---------------------------------------------------------------------------
# sets, lengths and integrals
# ---------------------------------------------------------------------------

def intersect(a, b) -> list[tuple[float, float]]:
    """The intersection of two unions of closed intervals, as the pieces of
    positive length."""
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                out.append((lo, hi))
    return sorted(out)


def length(region) -> float:
    return sum(hi - lo for lo, hi in region)


def form_integral(name: str, region) -> float:
    """The integral of a named form over a union of intervals."""
    anti = ANTIDERIVATIVES[name]
    return sum(anti(hi) - anti(lo) for lo, hi in region)


def piece_sum(pieces, region, m0: dict) -> dict:
    """``sum_k v_k * m0 * length(E_k & region)`` for pieces ``(E_k, v_k)``
    whose values are dicts, with the coordinatewise product by ``m0``."""
    out = {k: 0.0 for k in m0}
    for part, value in pieces:
        ln = length(intersect(part, region))
        for k, w in m0.items():
            out[k] += value.get(k, 0.0) * w * ln
    return out


def geometric_envelope(base: float, row: float, col: float, probe) -> float:
    """``base * max_i row**i * col**probe(i)`` for the geometric regulator."""
    return base * max(row ** i * col ** probe(i)
                      for i in range(1, ENVELOPE_ROWS + 1))


def standard_envelopes(row: float = 0.5, col: float = 0.5) -> dict[str, float]:
    """The envelope of the unit geometric regulator for each standard probe."""
    return {name: geometric_envelope(1.0, row, col, probe)
            for name, probe in STANDARD_PROBES}


# ---------------------------------------------------------------------------
# points of a lattice
# ---------------------------------------------------------------------------

def combine(lo: dict, hi: dict, alpha: float) -> dict:
    """``(1 - alpha) * lo + alpha * hi``, coordinatewise."""
    return {k: (1.0 - alpha) * lo[k] + alpha * hi[k] for k in lo}

