"""Record the reference outputs the benchmark's oracle compares against.

Run from the repository root, only on a commit whose outputs are trusted:

    python3 bench/record_reference.py

It writes ``bench/reference.json``: for every grid query the dimension and
coefficient pattern of the CLI document, and for ``hgpt-field`` the
orthonormal patterns with their matrix spans, the degree-1/2 orthonormal
bases as monomial terms and their real-to-complex basis changes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from hgptsym import harmonics, symgroups  # noqa: E402


def record():
    ref = {}
    for workload in ("exact-grid", "float-grid"):
        for argv in wl.grid_queries(workload):
            res = json.loads(wl.run_cli(argv))["result"]
            opts = dict(zip(argv[1::2], argv[2::2]))
            if argv[0] == "invariants":
                key = oracle.invariants_key(opts["--group"], int(opts["--p"]),
                                            int(opts["--q"]), opts.get("--style", "integer"))
                ref[key] = {"dimension": res["dimension"],
                            "coefficient_pattern": res["coefficient_pattern"]}
            else:
                ref[oracle.harmonics_key(opts["--group"], int(opts["--degree"]))] = {
                    "dimension": res["dimension"]}
    field = ref["field"] = {"pattern": {}, "span": {}, "basis": {}, "basis_change": {}}
    for name in wl.FIELD_GROUPS:
        g = symgroups.build_group(name)
        for p, q in wl.FIELD_BLOCKS:
            pat = wl.orthonormal_pattern(g, p, q)
            key = "%s|%d|%d" % (name, p, q)
            field["pattern"][key] = oracle.pattern_document(pat)
            field["span"][key] = [m.tolist() for m in pat.matrix_span()]
    for n in (1, 2):
        basis = harmonics.real_basis(n, "orthonormal")
        field["basis"][str(n)] = [[[list(e), float(c)] for e, c in sorted(p.terms.items())]
                                  for p in basis.polynomials]
        A = harmonics.basis_change(n, "orthonormal").matrix
        field["basis_change"][str(n)] = [[[v.real, v.imag] for v in row] for row in A]
    return ref


if __name__ == "__main__":
    ref = record()
    with open(oracle.REFERENCE_PATH, "w") as f:
        json.dump(ref, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
