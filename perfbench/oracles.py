"""Independent checks of every query result, and their self-test.

Each check takes plain values (words, sizes, flags, parsed CLI output) and
returns a list of failure messages; an empty list means the result passed.
The checks use classical formulas (root counts, Weyl group orders, the
diagram involution) and their own permutation arithmetic on the root list,
so they do not share code with the library's Weyl-group, parabolic or tower
layers.  Only the root list and the simple-reflection permutations come from
the library, and the root count is itself checked against the formula.
"""

from __future__ import annotations

import io
import json
import math
import re


def root_count(lie_type: str, n: int) -> int:
    return {
        "A": n * (n + 1),
        "B": 2 * n * n,
        "C": 2 * n * n,
        "D": 2 * n * (n - 1),
        "E": {6: 72, 7: 126, 8: 240}.get(n),
        "F": 48,
        "G": 12,
    }[lie_type]


def weyl_order(lie_type: str, n: int) -> int:
    return {
        "A": math.factorial(n + 1),
        "B": 2**n * math.factorial(n),
        "C": 2**n * math.factorial(n),
        "D": 2 ** (n - 1) * math.factorial(n),
        "E": {6: 51840, 7: 2903040, 8: 696729600}.get(n),
        "F": 1152,
        "G": 12,
    }[lie_type]


def involution(lie_type: str, n: int) -> tuple:
    """The diagram involution -w0 in Bourbaki labels (0-based)."""
    if lie_type == "A":
        return tuple(n - 1 - i for i in range(n))
    if lie_type == "D" and n % 2:
        return tuple(range(n - 2)) + (n - 1, n - 2)
    if lie_type == "E" and n == 6:
        return (5, 1, 4, 3, 2, 0)
    return tuple(range(n))


class Perms:
    """Weyl group elements as permutations of the root list of one datum."""

    def __init__(self, rd):
        self.rd = rd
        self.refl = rd.reflection_perms()
        self.simple = [rd.simple_root_index(i) for i in range(rd.rank)]
        self.npos = len(rd.roots) // 2
        self.e = tuple(range(len(rd.roots)))

    def word(self, word) -> tuple:
        p = self.e
        for i in word:
            p = tuple(p[x] for x in self.refl[i])
        return p

    def length(self, p) -> int:
        return sum(1 for r in range(self.npos) if p[r] >= self.npos)

    @staticmethod
    def compose(a, b) -> tuple:
        return tuple(a[x] for x in b)

    @staticmethod
    def inverse(p) -> tuple:
        out = [0] * len(p)
        for r, x in enumerate(p):
            out[x] = r
        return tuple(out)

    def reduce(self, p, gens, left: bool, right: bool) -> tuple:
        """Descent walk to the shortest element of W_gens p, p W_gens or
        W_gens p W_gens."""
        n = self.length(p)
        while True:
            for i in gens:
                cands = ([self.compose(self.refl[i], p)] if left else []) + (
                    [self.compose(p, self.refl[i])] if right else []
                )
                q = next((q for q in cands if self.length(q) < n), None)
                if q is not None:
                    p, n = q, n - 1
                    break
            else:
                return p

    def borel_element(self, borel_indices) -> tuple:
        """The element sending the standard Borel onto the given Borel."""
        cur, letters = set(borel_indices), []
        while True:
            i = next((i for i in range(len(self.simple)) if self.simple[i] + self.npos in cur), None)
            if i is None:
                break
            letters.append(i)
            cur = {self.refl[i][r] for r in cur}
            if len(letters) > self.npos:
                return None
        return self.word(letters)


def quotient_dim(rd, marks) -> int:
    """dim G/P: positive roots whose support meets the marks."""
    npos = len(rd.roots) // 2
    return sum(1 for r in rd.roots[:npos] if any(r.coords[i] for i in marks))


def _root_failures(rd) -> list:
    want = root_count(rd.lie_type, rd.rank)
    return [] if len(rd.roots) == want else [f"{len(rd.roots)} roots, classical count {want}"]


def _reduced_in(P: Perms, word, target, gens, left, right, what) -> list:
    p = P.word(word)
    out = []
    if P.length(p) != len(word):
        out.append(f"{what} {list(word)} is not reduced")
    if P.reduce(p, gens, left, right) != P.reduce(target, gens, left, right):
        out.append(f"{what} {list(word)} lies in the wrong coset")
    return out


# -- towers -------------------------------------------------------------------


def tower_facts(tower, chain, dim, smooth, model) -> dict:
    return {
        "refined_word": tuple(chain.word),
        "base_word": tuple(tower.base_word),
        "base_borel": frozenset(tower.base_borel.indices),
        "dimension": dim,
        "smooth": smooth,
        "model_base_word": tuple(model.base_word),
    }


def check_tower(rd, q, f: dict) -> list:
    P = Perms(rd)
    w = P.word(q.word)
    gens = [i for i in range(rd.rank) if i not in q.p_nodes]
    out = _root_failures(rd)
    want = P.length(P.reduce(w, gens, left=True, right=False))
    if f["dimension"] != want:
        out.append(f"tower_dimension {f['dimension']}, shortest of W_P.w has length {want}")
    w2 = P.word(f["base_word"])
    out += _reduced_in(P, f["base_word"], w, gens, False, True, "base word")
    u = P.borel_element(f["base_borel"])
    refined = P.word(f["refined_word"])
    if P.length(refined) != len(f["refined_word"]):
        out.append(f"refined word {list(f['refined_word'])} is not reduced")
    if u is None or refined != P.compose(P.compose(P.inverse(u), w2), u):
        out.append("refined word is not u^-1 w2 u")
    if f["model_base_word"] != f["base_word"]:
        out.append("minimal_schubert and build_tower disagree on the base word")
    if not isinstance(f["smooth"], bool):
        out.append(f"smoothness_sufficient returned {f['smooth']!r}")
    return out


# -- orbits -------------------------------------------------------------------


def orbit_facts(table, ge2, min_codim, dense_w0, leq) -> dict:
    return {
        "sizes": [o.size for o in table],
        "dims": [o.dimension for o in table],
        "dense": [o.dense for o in table],
        "rep_lengths": [o.w.length for o in table],
        "ge2": ge2,
        "min_codim": min_codim,
        "dense_w0": dense_w0,
        "leq": leq,
    }


def _table_failures(rd, p_nodes, sizes, dims, dense) -> list:
    out = []
    order = weyl_order(rd.lie_type, rd.rank)
    if sum(sizes) != order:
        out.append(f"orbit sizes sum to {sum(sizes)}, |W| = {order}")
    dense_dims = [d for d, flag in zip(dims, dense) if flag]
    total = quotient_dim(rd, p_nodes)
    if dense_dims != [total]:
        out.append(f"dense orbit dimensions {dense_dims}, dim G/P = {total}")
    return out


def check_orbits(rd, q, f: dict) -> list:
    out = _root_failures(rd)
    out += _table_failures(rd, q.p_nodes, f["sizes"], f["dims"], f["dense"])
    mc = f["min_codim"]
    if f["ge2"] != (mc is None or mc >= 2):
        out.append(f"complement_codim_ge2 {f['ge2']} but complement_min_codim {mc}")
    if f["dense_w0"] is not True:
        out.append("w0 is not in the dense orbit")
    leq, lengths = f["leq"], f["rep_lengths"]
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            out.append(f"closure order not reflexive at {i}")
        for j in range(n):
            if i != j and leq[i][j] and (leq[j][i] or lengths[i] >= lengths[j]):
                out.append(f"closure order {i} <= {j} breaks antisymmetry or length")
        if lengths[i] == 0 and not all(leq[i]):
            out.append("the identity is not below every representative")
    return out


# -- cli-cold -----------------------------------------------------------------


def expected_exit(rd, q) -> int:
    """2 for the two documented refusals, 0 otherwise."""
    if q.command == "levi":
        inv = involution(rd.lie_type, rd.rank)
        if {inv[j] for j in q.p_nodes} & set(q.pprime_nodes):
            return 2
    if q.command == "hilbert" and any(d < 0 for d in q.degrees):
        return 2
    return 0


def _bool(text: str):
    return {"true": True, "false": False}.get(text.strip())


def _ints(text: str) -> list:
    return [int(x) for x in re.findall(r"-?\d+", text)]


def check_cli(rd, q, rc: int, out: str, curve_degrees=None) -> list:
    """Judge one invocation from its exit code and standard output.

    ``curve_degrees`` is the pair (tangent_degree, tangent_degree_from_roots)
    for curves and hilbert queries, computed by the caller.
    """
    want_rc = expected_exit(rd, q)
    if rc != want_rc:
        return [f"exit code {rc}, expected {want_rc}"]
    if rc == 2:
        return [] if ("refused:" in out or "domain_refusal" in out) else ["refusal without a reason"]
    try:
        return _check_cli_output(rd, q, out, curve_degrees)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output ({type(exc).__name__}: {exc})"]


def _check_cli_output(rd, q, out: str, curve_degrees) -> list:
    fails = []
    P = Perms(rd)
    js = json.loads(out) if q.fmt == "json" else None
    cmd = q.command
    p_nodes = q.p_nodes if q.p_nodes is not None else frozenset(range(rd.rank))
    if cmd == "root-system":
        fails += _root_failures(rd)
        if js is not None:
            got = (js["type"], js["rank"], len(js["roots"]), js["positive_count"])
            want = (rd.lie_type, rd.rank, len(rd.roots), len(rd.roots) // 2)
        elif q.fmt == "dot":
            got = out.count("[label=")
            want = rd.rank
        else:
            got = tuple(_ints(out.splitlines()[0])[1:])
            want = (len(rd.roots), len(rd.roots) // 2)
        if got != want:
            fails.append(f"root-system reports {got}, expected {want}")
    elif cmd == "orbits":
        if js is not None:
            sizes = [o["size"] for o in js]
            dims = [o["dimension"] for o in js]
            dense = [o["dense"] for o in js]
        else:
            lines = out.splitlines()
            rows = [_ints(line.split("rep")[0]) for line in lines[1:]]
            dims, sizes = [r[0] for r in rows], [r[1] for r in rows]
            dense = ["(dense)" in line for line in lines[1:]]
            if _ints(lines[0])[0] != quotient_dim(rd, p_nodes):
                fails.append(f"header {lines[0]!r} has the wrong dim G/P")
        fails += _table_failures(rd, p_nodes, sizes, dims, dense)
    elif cmd == "codim":
        inv = involution(rd.lie_type, rd.rank)
        want = not (p_nodes & {inv[j] for j in q.pprime_nodes})
        got = js["codim_ge2"] if js is not None else _bool(out)
        if got is not want:
            fails.append(f"codim says {got}, diagram test says {want}")
    elif cmd == "levi":
        if js is not None:
            ranks = [f["rank"] for f in js["factors"]]
            torus = js["torus_rank"]
        else:
            ranks = [int(m) for m in re.findall(r"^\s+[A-G](\d+) on nodes", out, re.M)]
            torus = _ints(out.splitlines()[-1])[0]
        if torus != len(q.pprime_nodes) or sum(ranks) != rd.rank - len(q.pprime_nodes):
            fails.append(f"levi factors {ranks} with torus rank {torus} do not fill the diagram")
    elif cmd == "nilradical":
        if js is not None:
            sizes = [len(layer) for layer in js["layers"]]
            abelian = js["abelian"]
        elif out.strip() == "empty nilradical":
            sizes, abelian = [], True
        else:
            sizes = [line.count("(") for line in out.splitlines() if "layer" in line]
            abelian = "abelian" in out
        want = quotient_dim(rd, q.pprime_nodes)
        if sum(sizes) != want or abelian != (len(sizes) <= 1):
            fails.append(f"nilradical layers {sizes} (abelian {abelian}), dim G/P' = {want}")
    elif cmd in ("curves", "hilbert"):
        td, td_roots = curve_degrees
        if td != td_roots:
            fails.append(f"tangent_degree {td} but tangent_degree_from_roots {td_roots}")
        total = quotient_dim(rd, p_nodes)
        if cmd == "curves":
            if js is not None:
                mor, smooth = js["mor_nonempty"], js["smooth"]
            else:
                mor, smooth = (_bool(line.split(":")[1]) for line in out.splitlines()[:2])
            if mor is not all(d >= 0 for d in q.degrees):
                fails.append(f"mor_nonempty {mor} for degrees {list(q.degrees)}")
            if smooth and total < 1:
                fails.append("smooth curve reported on a point (dim G/P = 0)")
        else:
            dim = js["dimension"] if js is not None else int(out)
            if dim != td_roots + total - 3:
                fails.append(f"hilbert {dim}, expected {td_roots} + {total} - 3")
            if total < 1:
                fails.append(f"hilbert dimension {dim} reported on a point (dim G/P = 0)")
    else:
        fails += _check_tower_cli(P, q, out, js)
    return fails


def _check_tower_cli(P: Perms, q, out: str, js) -> list:
    rd = P.rd
    w = P.word(q.word)
    p_nodes = q.p_nodes if q.p_nodes is not None else frozenset(range(rd.rank))
    gens = [i for i in range(rd.rank) if i not in p_nodes]
    cmd = q.command
    if cmd == "desing":
        if js is not None:
            dim = js["dimension"]
        elif q.fmt == "dot":
            dim = sum(int(m) for m in re.findall(r"fibre (\d+)", out))
        else:
            dim = _ints(out.split("dimension")[1])[0]
        want = P.length(P.reduce(w, gens, left=True, right=False))
        return [] if dim == want else [f"tower dimension {dim}, shortest of W_P.w has length {want}"]
    if cmd == "refine":
        if js is not None:
            word = [i - 1 for i in js["word"]]
            count = len(js["factors"])
        else:
            inside = out.split("[")[1].split("]")[0]
            word = [] if inside == "e" else [int(x) - 1 for x in inside.split()]
            count = _ints(out.split("]")[1])[0]
        fails = _reduced_in(P, word, w, gens, True, True, "refined word")
        return fails + ([] if count == len(word) else [f"{count} minimal factors for {len(word)} letters"])
    if cmd == "minimal":
        if js is None:
            keys = [line.split(":")[0] for line in out.splitlines()]
            want = ["is_minimal", "p1_nodes", "minimal_model_dimension"]
            return [] if keys == want else [f"minimal output has fields {keys}"]
        return _reduced_in(P, [i - 1 for i in js["base_word"]], w, gens, False, True, "base word")
    verdict = js["smooth_sufficient"] if js is not None else _bool(out)
    return [] if isinstance(verdict, bool) else [f"smooth printed {out!r}"]


# -- self-test ----------------------------------------------------------------


def selftest(lib) -> list:
    """Show that every check rejects a corrupted result.

    ``lib`` is the imported ``lieorbits`` package.  Returns the checks that
    failed to pass a genuine result or failed to reject a corrupted one.
    """
    from inputs import CliQuery, OrbitQuery, TowerQuery

    problems = []

    def expect(name, genuine, corrupted):
        if genuine:
            problems.append(f"{name}: genuine result rejected: {genuine}")
        if not corrupted:
            problems.append(f"{name}: corrupted result accepted")

    rd = lib.build_root_system("A", 4)
    q = TowerQuery("A", 4, frozenset({1}), (0, 1, 2, 1, 3, 0))
    w = lib.from_word(rd, q.word)
    tower = lib.build_tower(rd, q.p_nodes, w)
    f = tower_facts(
        tower,
        lib.demazure_refinement(rd, tower),
        lib.tower_dimension(tower),
        lib.smoothness_sufficient(rd, q.p_nodes, w),
        lib.minimal_schubert(rd, q.p_nodes, w),
    )
    ok = check_tower(rd, q, f)
    expect("refined word", ok, check_tower(rd, q, dict(f, refined_word=f["refined_word"][1:])))
    expect("tower dimension", ok, check_tower(rd, q, dict(f, dimension=f["dimension"] + 1)))
    expect("base word", ok, check_tower(rd, q, dict(f, base_word=f["base_word"][:-1])))

    rd = lib.build_root_system("B", 3)
    q = OrbitQuery("B", 3, frozenset({0}), frozenset({1, 2}))
    table = lib.orbit_table(rd, q.p_nodes, q.pprime_nodes)
    leq = [[lib.bruhat_leq(a.w, b.w) for b in table] for a in table]
    f = orbit_facts(
        table,
        lib.complement_codim_ge2(rd, q.p_nodes, q.pprime_nodes),
        lib.complement_min_codim(rd, q.p_nodes, q.pprime_nodes),
        lib.is_dense_orbit(rd, lib.longest_element(rd), q.p_nodes, q.pprime_nodes, cross_check=True),
        leq,
    )
    ok = check_orbits(rd, q, f)
    expect("orbit sizes", ok, check_orbits(rd, q, dict(f, sizes=[f["sizes"][0] + 1] + f["sizes"][1:])))
    expect("dense orbit", ok, check_orbits(rd, q, dict(f, dense=[False] * len(f["dense"]))))
    expect("codim agreement", ok, check_orbits(rd, q, dict(f, ge2=not f["ge2"])))
    flipped = [row[:] for row in leq]
    flipped[-1][0] = True
    expect("closure order", ok, check_orbits(rd, q, dict(f, leq=flipped)))

    from lieorbits import cli as lie

    def run(cq):
        buf = io.StringIO()
        rc = lie.run_query(lie.parse_query(cq.argv()), buf)
        rd = lib.build_root_system(cq.lie_type, cq.rank)
        degrees = None
        if cq.degrees is not None:
            c = lib.curve_class(cq.p_nodes, cq.degrees)
            degrees = (
                lib.tangent_degree(rd, cq.p_nodes, c),
                lib.tangent_degree_from_roots(rd, cq.p_nodes, c),
            )
        return rd, rc, buf.getvalue(), degrees

    cases = [
        (CliQuery("orbits", "A", 3, "text", frozenset({1}), frozenset({0, 2})),
         lambda s: s.replace("size 4", "size 5", 1)),
        (CliQuery("refine", "A", 4, "json", frozenset(range(4)), word=(0, 1, 2, 1, 3)),
         lambda s: json.dumps(dict(json.loads(s), word=json.loads(s)["word"][1:]))),
        (CliQuery("desing", "B", 3, "dot", frozenset({0}), word=(2, 1, 2, 0, 1)),
         lambda s: re.sub(r"fibre (\d+)", lambda m: f"fibre {int(m.group(1)) + 1}", s, count=1)),
        (CliQuery("codim", "E", 6, "text", frozenset({0}), frozenset({0})),
         lambda s: "false\n" if s == "true\n" else "true\n"),
        (CliQuery("levi", "A", 5, "json", frozenset({0}), frozenset({0})), lambda s: s.replace('"torus_rank": 1', '"torus_rank": 2')),
        (CliQuery("hilbert", "C", 3, "text", frozenset({0, 2}), degrees=(1, 2)),
         lambda s: f"{int(s) + 1}\n"),
        (CliQuery("curves", "A", 2, "json", frozenset({0, 1}), degrees=(1, -1)),
         lambda s: s.replace('"mor_nonempty": false', '"mor_nonempty": true')),
        (CliQuery("nilradical", "D", 5, "json", pprime_nodes=frozenset({0})),
         lambda s: s.replace('"abelian": true', '"abelian": false')),
        (CliQuery("root-system", "F", 4, "text"), lambda s: s.replace("48 roots", "47 roots")),
    ]
    for cq, corrupt in cases:
        rd, rc, out, degrees = run(cq)
        bad = corrupt(out)
        if bad == out:
            problems.append(f"cli {cq.command}: corruption left the output unchanged")
        expect(f"cli {cq.command}", check_cli(rd, cq, rc, out, degrees), check_cli(rd, cq, rc, bad, degrees))
    return problems
