"""Regenerate src/milnor/data/expected.json.

Everything here is computed from standalone formulas, deliberately not
through the library, so that the repro subcommands compare two
independent derivations. Run from the repository root:

    python3 tools/gen_expected.py
"""

import json
import math
import pathlib

OUT = (pathlib.Path(__file__).resolve().parent.parent
       / "src" / "milnor" / "data" / "expected.json")


def euler_solutions(k, bound=2000):
    """Brute scan of (p_-^2 - p_+^2)/8 = k over labels = 1 mod 4."""
    out = []
    for p_minus in range(-bound + 1, bound, 2):
        if p_minus % 4 != 1:
            continue
        rhs = p_minus * p_minus - 8 * k
        if rhs < 0:
            continue
        root = math.isqrt(rhs)
        if root * root != rhs:
            continue
        for p_plus in {root, -root}:
            if p_plus % 4 == 1:
                out.append((p_minus, p_plus))
    out = sorted(set(out), key=lambda s: (abs(s[0]), abs(s[1]), s[0], s[1]))
    return out


def canonical_labels(orders):
    labels = {"1", "Z2", "D2"}
    for m in orders:
        if m == 0:
            labels.update(("SO(2)", "O(2)"))
        elif m == 1:
            labels.add("Z2")
        else:
            labels.add("D{}".format(m))
    rank = {"1": (0, 0), "Z2": (1, 0), "SO(2)": (3, 0), "O(2)": (3, 1)}

    def key(t):
        if t in rank:
            return rank[t]
        return (2, int(t[1:]))

    return sorted(labels, key=key)


def cell_orders(k, l, n=None):
    """Dihedral orders straight from the parity-case closed forms."""
    if l == 0:
        if k % 2 == 0:
            orders = (abs(2 * n + 1 + k), abs(2 * n + 1 - k),
                      abs(2 * n + k), abs(2 * n - k))
        else:
            orders = (abs(4 * n + 3 + k) // 2, abs(4 * n + 3 - k) // 2,
                      abs(4 * n - 1 + k) // 2, abs(4 * n - 1 - k) // 2)
    elif k % 2 == 0 and l % 2 == 0:
        orders = (abs(k + l), abs(k + l), abs(k - l + 1), abs(k - l - 1))
    elif k % 2 == 0:
        orders = (abs(2 * k + l + 1) // 2, abs(2 * k + l - 1) // 2,
                  abs(2 * k - l + 3) // 2, abs(2 * k - l - 3) // 2)
    elif l % 2 == 0:
        orders = (abs(k + 2 * l + 1) // 2, abs(k + 2 * l - 1) // 2,
                  abs(k - 2 * l + 3) // 2, abs(k - 2 * l - 3) // 2)
    else:
        orders = (abs(k + l) // 2, abs(k + l) // 2,
                  abs(k - l + 4) // 2, abs(k - l - 4) // 2)
    return orders


def build():
    """The expected-values document, as the text the file should hold."""
    data = {}

    data["euler105"] = [list(s) for s in euler_solutions(105)]

    realized = sorted({(k * (k - 1) // 2) % 28 for k in range(56)})
    folded = sorted({min(v, (28 - v) % 28) for v in realized})
    data["ek_realized"] = realized
    data["ek_folded"] = folded

    data["s7_residues"] = sorted({(k * (k + 1) // 2) % 12
                                  for k in range(24)})

    data["hopf_orbit_types"] = {
        str(n): canonical_labels((abs(2 * n - 1), abs(2 * n),
                                  abs(2 * n + 1), abs(2 * n + 2)))
        for n in range(-20, 21)
    }

    grid = []
    for k in range(-6, 7):
        for l in range(-6, 7):
            if l == 0:
                for n in range(-6, 7):
                    grid.append({"k": k, "l": l, "n": n,
                                 "labels": canonical_labels(cell_orders(k, l, n))})
            else:
                grid.append({"k": k, "l": l,
                             "labels": canonical_labels(cell_orders(k, l))})
    data["table42_grid"] = grid

    data["table42_cells"] = [
        ["k even, l even", "D|k+l| (twice), D|k-l+1|, D|k-l-1|"],
        ["k odd,  l even", "D|k+2l+1|/2, D|k+2l-1|/2, D|k-2l+3|/2, D|k-2l-3|/2"],
        ["k even, l odd", "D|2k+l+1|/2, D|2k+l-1|/2, D|2k-l+3|/2, D|2k-l-3|/2"],
        ["k odd,  l odd", "D|k+l|/2 (twice), D|k-l+4|/2, D|k-l-4|/2"],
        ["k even, l = 0", "D|2n+1+k|, D|2n+1-k|, D|2n+k|, D|2n-k|"],
        ["k odd,  l = 0", "D|4n+3+k|/2, D|4n+3-k|/2, D|4n-1+k|/2, D|4n-1-k|/2"],
    ]

    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def main():
    OUT.write_text(build(), encoding="utf-8")
    print("wrote", OUT)


if __name__ == "__main__":
    main()
