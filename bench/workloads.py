"""The benchmark's workloads: inputs made from a seed, and one pass over them.

A pass is a closed loop: a single client sends each query only after the
previous one has returned and been checked.  A query is one CLI invocation,
driven in-process through ``hgptsym.cli.main([..., "--format", "json"])``, or
one library call.  Library functions are looked up on their module at call
time, so the tracer's wrappers are used when installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracle
from hgptsym import cli, hgpt, invariants, symgroups

CELLS = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
EXACT_GROUPS = ["C2", "C4", "D2", "D4", "T", "O", "type3:O/T"]
FLOAT_GROUPS = ["C3", "C5", "C6", "D3", "D5", "D6"]
ICOSAHEDRAL_CELLS = [(1, 1), (1, 2), (1, 3), (2, 2)]
HARMONIC_GROUPS = ["C5", "D6", "I"]
HARMONIC_DEGREES = range(2, 7)

FIELD_GROUPS = ["C4", "D6", "O", "I"]
FIELD_BLOCKS = [(1, 1), (1, 2), (2, 1), (2, 2)]
# K synthetic objects, one random rotation each.  28 gives 1032 queries a pass,
# which puts the p99 on the 90 ms pattern queries (bench/README.md).
FIELD_OBJECTS = 28
FIELD_POINTS = 4        # S sources and R receivers per object
FIELD_RTOL = 1e-9       # identities of the HGPT algebra, relative to the block scale
ROUND_TRIP_RTOL = 1e-12

def grid_queries(workload, tiny=False):
    """CLI argument lists of a grid workload, in the canonical order."""
    def inv(group, p, q, *extra):
        return ["invariants", "--group", group, "--p", str(p), "--q", str(q), *extra]

    if workload == "exact-grid":
        out = [inv(g, p, q) for g in EXACT_GROUPS for p, q in CELLS]
    else:
        out = [inv(g, p, q) for g in FLOAT_GROUPS for p, q in CELLS]
        out += [inv("I", p, q) for p, q in ICOSAHEDRAL_CELLS]
        out += [inv("O", p, q, "--style", "orthonormal") for p, q in CELLS]
        out += [["invariant-harmonics", "--group", g, "--degree", str(m)]
                for g in HARMONIC_GROUPS for m in HARMONIC_DEGREES]
    if tiny:
        out = [out[0], out[1]] + ([out[-1]] if workload == "float-grid" else [])
    return out


def query_text(argv):
    return " ".join(argv)


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------

@dataclass
class Client:
    """Sends queries one at a time, times them and counts failures.

    A query fails if it raises, exits nonzero or disagrees with the oracle.
    """

    tracer: object = None
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def call(self, label, fn, *args, check=None):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.query_id = self.attempted
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed query is counted, the loop goes on
            self.latencies.append(perf_counter() - t0)
            self.failures.append("%s: %s: %s" % (label, type(exc).__name__, exc))
            return None
        self.latencies.append(perf_counter() - t0)
        if check is not None:
            try:
                check(out)
            except Exception as exc:
                self.failures.append("%s: %s: %s" % (label, type(exc).__name__, exc))
                return None
        return out


class QueryError(Exception):
    pass


def run_cli(argv):
    """One CLI invocation; returns its stdout, raises on a nonzero exit."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv) + ["--format", "json"])
    except SystemExit as exc:
        raise QueryError("exit %s" % exc.code) from None
    if rc != 0:
        raise QueryError("exit %d" % rc)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# grid workloads
# ---------------------------------------------------------------------------

def _grid_check(argv, reference):
    opts = dict(zip(argv[1::2], argv[2::2]))
    group = opts["--group"]

    def check(text):
        doc = json.loads(text)
        if argv[0] == "invariants":
            oracle.check_invariants_doc(doc, reference, group, int(opts["--p"]),
                                        int(opts["--q"]), opts.get("--style", "integer"))
        else:
            oracle.check_harmonics_doc(doc, reference, group, int(opts["--degree"]))
    return check


def make_grid_inputs(workload, seed, tiny=False):
    queries = grid_queries(workload, tiny)
    random.Random(seed).shuffle(queries)
    return queries


def grid_pass(client, queries, reference):
    for argv in queries:
        client.call(query_text(argv), run_cli, argv, check=_grid_check(argv, reference))


# ---------------------------------------------------------------------------
# hgpt-field: a synthetic inversion campaign
# ---------------------------------------------------------------------------

@dataclass
class FieldObject:
    group: str
    rotation: np.ndarray
    blocks: dict            # (p, q) -> (2p+1) x (2q+1) array in the pattern span
    sources: np.ndarray     # S x 3
    receivers: np.ndarray   # R x 3


def _random_rotation(rng):
    Q, Rr = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(Rr))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _points(rng, n):
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return d * rng.uniform(2.0, 3.0, size=(n, 1))


def field_span(reference, group, p, q):
    return [np.array(m) for m in reference["field"]["span"]["%s|%d|%d" % (group, p, q)]]


def make_field_inputs(seed, reference, tiny=False):
    rng = np.random.default_rng(seed)
    k = 2 if tiny else FIELD_OBJECTS
    npts = 1 if tiny else FIELD_POINTS
    groups = [FIELD_GROUPS[i % len(FIELD_GROUPS)] for i in range(k)]
    rng.shuffle(groups)
    objects = []
    for g in groups:
        R = _random_rotation(rng)
        blocks = {}
        for p, q in FIELD_BLOCKS:
            span = field_span(reference, g, p, q)
            c = rng.standard_normal(len(span))
            blocks[(p, q)] = sum((ci * m for ci, m in zip(c, span)),
                                 np.zeros((2 * p + 1, 2 * q + 1)))
        objects.append(FieldObject(g, R, blocks, _points(rng, npts), _points(rng, npts)))
    order = list(FIELD_GROUPS[:2] if tiny else FIELD_GROUPS)
    rng.shuffle(order)
    return order, objects


def orthonormal_pattern(group, p, q):
    space = invariants.symmetric_product_space(p, q, "orthonormal")
    return invariants.coefficient_pattern(invariants.invariant_subspace(space, group))


def _eval_basis(terms, x):
    return np.array([sum(c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] for e, c in poly)
                     for poly in terms])


def oracle_voltage(blocks, basis_terms, x_r, x_s):
    """V(x_r, x_s) from the recorded degree-1/2 bases; returns (V, scale)."""
    rr, rs = np.linalg.norm(x_r), np.linalg.norm(x_s)
    v = scale = 0.0
    for (p, q), N in blocks.items():
        Ir = _eval_basis(basis_terms[str(p)], x_r)
        Is = _eval_basis(basis_terms[str(q)], x_s)
        den = rr ** (2 * p + 1) * rs ** (2 * q + 1)
        v += float(Ir @ N @ Is) / den
        scale += float(np.abs(Ir) @ np.abs(N) @ np.abs(Is)) / den
    return v, scale


def _require(cond, what):
    if not cond:
        raise oracle.OracleMismatch(what)


def field_pass(client, inputs, reference):
    # Each check runs inside client.call, before the loop moves on, so the
    # closures may read the loop variables.
    order, objects = inputs
    ref = reference["field"]
    basis_terms = ref["basis"]
    changes = {int(n): np.array(m)[..., 0] + 1j * np.array(m)[..., 1]
               for n, m in ref["basis_change"].items()}
    groups, patterns = {}, {}
    for name in order:
        def check_group(g):
            _require(g.order == oracle.group_order(name), "%s: order %d" % (name, g.order))
        g = groups[name] = client.call("build_group " + name, symgroups.build_group, name,
                                       check=check_group)

        def check_verify(rep):
            _require(rep.passed and rep.order == oracle.group_order(name),
                     "%s: verification %s" % (name, rep.failures))
        client.call("verify_group " + name, symgroups.verify_group, g, check=check_verify)
    for name in order:
        for p, q in FIELD_BLOCKS:
            want = ref["pattern"]["%s|%d|%d" % (name, p, q)]

            def check_pattern(pat):
                dim = oracle.dim_symmetric_product(name, p, q)
                _require(len(pat.independent) == dim, "%s S%d%d: %d independent, character "
                         "formula %d" % (name, p, q, len(pat.independent), dim))
                oracle.check_pattern(oracle.pattern_document(pat), want,
                                     "%s S%d%d" % (name, p, q))
            patterns[(name, p, q)] = client.call(
                "pattern %s S%d%d" % (name, p, q), orthonormal_pattern, groups[name], p, q,
                check=check_pattern)

    for obj in objects:
        R = obj.rotation
        blocks = {pq: hgpt.HgptMatrix(pq[0], pq[1], N) for pq, N in obj.blocks.items()}
        rotated = {}
        for pq, N in blocks.items():
            rotated[pq] = client.call("rotate S%d%d" % pq, hgpt.rotate, N, R)
        moved = [b for b in rotated.values() if b is not None]

        for x_s in obj.sources:
            for x_r in obj.receivers:
                want, scale = oracle_voltage(obj.blocks, basis_terms, R @ x_r, R @ x_s)

                def check_voltage(v):
                    _require(abs(v - want) <= FIELD_RTOL * scale,
                             "V'(x_r, x_s) = %.17g, V(R x_r, R x_s) = %.17g" % (v, want))
                client.call("forward_voltage", hgpt.forward_voltage, moved, x_r, x_s,
                            check=check_voltage)

        for pq, Nr in rotated.items():
            N = obj.blocks[pq]
            scale = max(1.0, float(np.max(np.abs(N))))

            def check_back(b):
                _require(float(np.max(np.abs(b.entries - N))) <= FIELD_RTOL * scale,
                         "back-rotation does not restore the block")
            back = client.call("rotate back S%d%d" % pq, hgpt.rotate, Nr, R.T,
                               check=check_back)

            def check_projection(out):
                _require(out[1] <= FIELD_RTOL * scale, "pattern residual %.3g" % out[1])
            client.call("apply_pattern S%d%d" % pq, hgpt.apply_pattern, back,
                        patterns[(obj.group,) + pq], check=check_projection)

            Ap, Aq = changes[pq[0]], changes[pq[1]]

            def check_cgpt(M):
                ref_m = Ap @ Nr.entries @ Aq.conj().T
                _require(float(np.max(np.abs(M.entries - ref_m))) <= FIELD_RTOL * scale,
                         "CGPT differs from the reference basis change")
            M = client.call("cgpt_from_hgpt S%d%d" % pq, hgpt.cgpt_from_hgpt, Nr,
                            check=check_cgpt)

            def check_round_trip(out):
                N2, residue = out
                err = float(np.max(np.abs(N2.entries - Nr.entries)))
                _require(err <= ROUND_TRIP_RTOL * scale and residue <= FIELD_RTOL * scale,
                         "round trip error %.3g, imaginary residue %.3g" % (err, residue))
            client.call("hgpt_from_cgpt S%d%d" % pq, hgpt.hgpt_from_cgpt, M,
                        check=check_round_trip)


# ---------------------------------------------------------------------------
# single query, for tracing one expensive call
# ---------------------------------------------------------------------------

def single_pass(client, argv):
    """One CLI query, checked against the character formula where it has one."""
    opts = dict(zip(argv[1::2], argv[2::2]))

    def check(text):
        res = json.loads(text)["result"]
        if argv[0] == "invariants":
            dim = oracle.dim_symmetric_product(opts["--group"], int(opts["--p"]),
                                               int(opts["--q"]))
        elif argv[0] == "invariant-harmonics":
            dim = oracle.dim_harmonics(opts["--group"], int(opts["--degree"]))
        elif argv[0] == "group":
            _require(res["verified"] and res["order"] == oracle.group_order(opts["--name"]),
                     "group %s not verified" % opts["--name"])
            return
        else:
            return
        _require(res["dimension"] == dim,
                 "dimension %s, character formula %d" % (res["dimension"], dim))
    client.call(query_text(argv), run_cli, argv, check=check)


# ---------------------------------------------------------------------------

def make_inputs(workload, seed, reference, tiny=False):
    if workload == "hgpt-field":
        return make_field_inputs(seed, reference, tiny)
    return make_grid_inputs(workload, seed, tiny)


def run_pass(workload, client, inputs, reference):
    if workload == "hgpt-field":
        field_pass(client, inputs, reference)
    else:
        grid_pass(client, inputs, reference)
