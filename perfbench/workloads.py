"""The benchmark's workloads: seeded input files, CLI argv, correctness gates.

Each workload is one `extalg` CLI command on files written here.  The seed
permutes the order of the generators in the presentation file and draws the
diagonal scalars of the automorphism from a small fixed set of units; the
program sees only the files.  Seed 0 (the default) gives the canonical inputs
whose output hashes are pinned in `reference.json`.

The gates check facts that do not come from extalg and hold for every seed:
Ext dimensions in closed form, all six verify checks, the Frobenius verdict.
"""

from __future__ import annotations

import os
import random
from math import comb

DEFAULT_SEED = 0
Q_UNITS = (2, 3, 5, 7, -2, -3)
F101_UNITS = (2, 3, 5, 7, 11, 13)
VERIFY_CHECKS = ("a_part", "cone", "f_times_z", "injectivity", "smash_table", "z_times_f")


def _dims(pairs):
    """Expected `*_dims` JSON table from ((n, t), dim) pairs, zeros left out."""
    return {"(%d, %d)" % bd: k for bd, k in pairs if k}


class Workload:
    def __init__(self, name, why, field, gens, relations, scalars, units,
                 command, window, cyclic=False, ext_dims=None):
        self.name = name
        self.why = why
        self.field = field
        self.gens = gens              # canonical generator order
        self.relations = relations
        self.scalars = scalars        # canonical diagonal automorphism, or None
        self.units = units
        self.command = command
        self.window = window          # (N, D)
        self.cyclic = cyclic          # seed draws only rotations; see inputs()
        self.ext_dims = ext_dims      # n -> (dim E(A), dim E(B)) at (n, n), for verify

    def inputs(self, seed):
        """(generator order, relations, scalars) for a seed; seed 0 is canonical.

        For a cyclic workload, renaming each generator to the next one maps
        relation i to relation i+1.  Rotating the generators and the relation
        lines together then gives the same problem under new names, with the
        same amount of work.  Any other order changes the Groebner problem.
        """
        if seed == DEFAULT_SEED:
            return list(self.gens), list(self.relations), self.scalars
        rng = random.Random("%s/%d" % (self.name, seed))
        if self.cyclic:
            k = rng.randrange(len(self.gens))
            order = self.gens[k:] + self.gens[:k]
            relations = self.relations[k:] + self.relations[:k]
        else:
            order = rng.sample(self.gens, len(self.gens))
            relations = list(self.relations)
        scalars = None
        if self.scalars is not None:
            scalars = tuple(rng.choice(self.units) for _ in self.gens)
        return order, relations, scalars

    def write_inputs(self, seed, directory):
        """Write the input files for `seed`; return the CLI argv."""
        order, relations, scalars = self.inputs(seed)
        pres = os.path.join(directory, self.name + ".pres")
        lines = ["field " + self.field,
                 "gens " + " ".join("%s:1" % g for g in order)]
        lines += ["rel " + r for r in relations]
        with open(pres, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        N, D = self.window
        argv = [self.command, pres]
        if scalars is not None:
            auto = os.path.join(directory, self.name + ".auto")
            by_gen = dict(zip(self.gens, scalars))
            with open(auto, "w", encoding="utf-8") as fh:
                fh.write("".join("%s -> %d*%s\n" % (g, by_gen[g], g) for g in order))
            argv += ["--auto", auto, "--z-degree", "1"]
        return argv + ["--maxcoh", str(N), "--maxdeg", str(D), "--format", "json"]

    def check(self, payload):
        """Problems found in the parsed JSON output (empty when correct)."""
        problems = []
        N, D = self.window
        if payload.get("command") != self.command:
            problems.append("command is %r" % payload.get("command"))
        if payload.get("certified", {}).get("window") != [N, D]:
            problems.append("window is %r" % payload.get("certified", {}).get("window"))
        if self.command == "verify":
            checks = payload.get("certified", {}).get("checks", {})
            if sorted(checks) != sorted(VERIFY_CHECKS) or not all(checks.values()):
                problems.append("verify checks %r" % checks)
            data = payload.get("data", {})
            for key, want in self.expected_dims().items():
                if data.get(key) != want:
                    problems.append("%s is %r, expected %r" % (key, data.get(key), want))
        else:
            data = payload.get("data", {})
            if data.get("verdict") != "frobenius" or data.get("top") != [3, 3]:
                problems.append("verdict %r top %r" % (data.get("verdict"), data.get("top")))
            if payload.get("certified", {}).get("finite") is not True:
                problems.append("finiteness not certified")
        return problems

    def expected_dims(self):
        N, D = self.window
        diagonal = range(min(N, D) + 1)
        return {
            "ext_A_dims": _dims(((n, n), self.ext_dims(n)[0]) for n in diagonal),
            "ext_B_dims": _dims(((n, n), self.ext_dims(n)[1]) for n in diagonal),
            "ext_z_dims": _dims([((0, 0), 1), ((1, 1), 1)]),
        }


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "verify-triv",
            "verify on k<x,y>/(x^2,xy,yx,y^2) over Q at (6,6): ext, smash and "
            "verify layers do the work, on Fraction scalars",
            "Q", ["x", "y"], ["x^2", "x*y", "y*x", "y^2"], (2, 3), Q_UNITS,
            "verify", (6, 6),
            # E(A) is free on two classes; E(B) adds the z-class times each one
            ext_dims=lambda n: (2 ** n, 3 * 2 ** (n - 1) if n else 1)),
        Workload(
            "verify-skew3-f101",
            "verify on k[a,b,c] over F101 at (4,10): resolution, normal forms "
            "and exactness do the work, on Mod scalars",
            "F101", ["a", "b", "c"], ["a*b - b*a", "b*c - c*b", "a*c - c*a"],
            (2, 3, 5), F101_UNITS, "verify", (4, 10),
            # Koszul duals of polynomial rings: exterior algebras on 3 and 4 classes
            ext_dims=lambda n: (comb(3, n), comb(4, n))),
        Workload(
            "frobenius-skl",
            "frobenius on SKL over Q at (4,10): Groebner completion and the "
            "corollary path do the work",
            "Q", ["x", "y", "w"], ["x*y - 2*y*x + w^2", "y*w - 2*w*y + x^2",
                                   "w*x - 2*x*w + y^2"],
            None, None, "frobenius", (4, 10),
            # a transposed generator order is a different Groebner problem
            # with about 9% more work, so the seed draws rotations only
            cyclic=True),
    ]
}
