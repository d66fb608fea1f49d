"""The workloads: inputs made from a seed, operations, output checks.

A workload's ``setup(seed, workdir)`` builds ``ops``, a fixed list of
``(key, fn)`` operations that the runner repeats in whole passes, and
``warmup``, one operation run before timing.  Each ``fn()`` returns a
hashable record of what the program produced; ``check(key, record)``
returns ``None`` when the record is right and a message when it is not.
The checks use :mod:`checks` only, never ``pathcycle.tutte``,
``factor.solve`` or ``PathCycleSystem.validate``.

pathcycle is reached through module attributes at call time, so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from pathlib import Path

import checks


def _mod(name: str):
    return importlib.import_module("pathcycle." + name)


def _cli_op(argv: list[str]):
    cli = _mod("cli")

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return rc, (err if rc == 2 else out).getvalue()

    return run


def _write(inst, prefix: Path) -> tuple[str, str]:
    _mod("families").write_instance(inst, prefix)
    return str(prefix.with_suffix(".graph")), str(prefix.with_suffix(".terminals"))


# -- counterexamples -------------------------------------------------------------


class Counterexamples:
    """verify, solve and certify --witness on the sharpness families, via the CLI."""

    name = "counterexamples"
    tail = 0.90
    # (family, generator, parameters); includes the paper's 60-, 132- and
    # 238-vertex counterexamples: prop2-r4(6), prop1-odd(5,6), prop1-even(10,12)
    LADDER = [
        ("prop2-r4", "gen_prop2_r4", (6,)),
        ("prop2-r4", "gen_prop2_r4", (8,)),
        ("prop2-r4", "gen_prop2_r4", (10,)),
        ("prop2-r4", "gen_prop2_r4", (12,)),
        ("prop2-r4", "gen_prop2_r4", (14,)),
        ("prop1-even", "gen_prop1_even", (6, 6)),
        ("prop1-even", "gen_prop1_even", (6, 8)),
        ("prop1-odd", "gen_prop1_odd", (5, 6)),
        ("prop1-odd", "gen_prop1_odd", (5, 8)),
        ("prop1-even", "gen_prop1_even", (8, 8)),
        ("prop1-even", "gen_prop1_even", (10, 12)),
    ]

    def setup(self, seed: int, workdir: Path) -> None:
        families = _mod("families")
        for _, gen, _ in self.LADDER:  # the generators are memoised
            getattr(getattr(families, gen), "cache_clear", lambda: None)()
        self.instances = {}
        ops = []
        for family, gen, params in self.LADDER:
            inst = getattr(families, gen)(*params)
            name = family + "-" + "-".join(map(str, params))
            graph, terms = _write(inst, workdir / name)
            witness = str((workdir / name).with_suffix(".witness"))
            mode = inst.terminal_mode if inst.terminal_mode in ("distance3", "nbhd1") else "nbhd1"
            r = str(inst.r)
            self.instances[name] = (inst.r, mode, graph, terms, witness)
            ops += [
                (name + "/verify", _cli_op([
                    "verify", "--graph", graph, "--regular", r, "--edge-connectivity", r,
                    "--star-free", r, "--terminals", terms, "--mode", mode,
                ])),
                (name + "/solve", _cli_op(["solve", "--graph", graph, "--terminals", terms])),
                (name + "/certify", _cli_op([
                    "certify", "--graph", graph, "--terminals", terms, "--witness", witness,
                ])),
            ]
        self.warmup = ops[1]
        random.Random(f"{self.name}/{seed}").shuffle(ops)
        self.ops = ops
        self._facts = {}

    def _instance_facts(self, name: str):
        if name not in self._facts:
            r, mode, graph, terms, witness = self.instances[name]
            n, edges = checks.read_graph(Path(graph).read_text())
            w = [int(x) for x in Path(terms).read_text().split()]
            rows = checks.read_vertex_lists(Path(witness).read_text())
            s, t = rows["S"][0], rows["T"][0]
            self._facts[name] = dict(
                r=r, mode=mode, n=n, edges=edges, w=w, s=s, t=t,
                delta=checks.deficiency(n, edges, checks.terminal_spec(n, w), s, t),
            )
        return self._facts[name]

    def check(self, key: str, record) -> str | None:
        name, kind = key.split("/")
        rc, out = record
        x = self._instance_facts(name)
        if x["delta"] >= 0:
            return f"stored witness has deficiency {x['delta']} >= 0"
        if kind == "solve":
            return None if (rc, out) == (1, "INFEASIBLE\n") else f"solve gave {rc} {out[:60]!r}"
        if kind == "certify":
            rows = checks.read_vertex_lists(out)
            printed = (rows.get("S"), rows.get("T"), rows.get("delta"))
            if printed != ([x["s"]], [x["t"]], [(x["delta"],)]) or rc != 1:
                return f"certify gave {rc} {out[:80]!r}, expected delta {x['delta']}"
            return None
        return self._check_verify(x, rc, out)

    def _check_verify(self, x, rc: int, out: str) -> str | None:
        n, edges, r = x["n"], x["edges"], x["r"]
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        regular = checks.is_regular(n, edges, r)
        free = checks.star_free(n, edges, r) if regular else None
        lam = checks.edge_connectivity(n, edges)
        holds = {
            "regular": regular,
            "edge-connectivity": lam >= r,
            f"star-free-{r}": free,
            f"terminals-{x['mode']}": (
                checks.terminals_distance3 if x["mode"] == "distance3" else checks.terminals_nbhd1
            )(n, edges, x["w"]),
        }
        if set(lines) != set(holds):
            return f"verify printed {sorted(lines)}"
        for label, ok in holds.items():
            if lines[label].startswith("PASS") != ok:
                return f"verify says {label}: {lines[label][:60]}, independently {ok}"
        if not holds["edge-connectivity"] and f"computed {lam}," not in lines["edge-connectivity"]:
            return f"verify edge-connectivity line {lines['edge-connectivity'][-40:]!r}, lambda {lam}"
        if rc != (0 if all(holds.values()) else 1):
            return f"verify exit code {rc}"
        return None


# -- duality-small ------------------------------------------------------------------------


def _random_tree_edges(rng: random.Random, vertices: list[int]) -> set[tuple[int, int]]:
    return {
        tuple(sorted((v, rng.choice(vertices[:i])))) for i, v in enumerate(vertices) if i
    }


def planted_feasible(rng: random.Random, n: int):
    """A connected graph built around a random spanning path-cycle system.

    Returns ``(edges, w, (paths, cycles))``: the system's path ends are W,
    so the instance is feasible by construction.
    """
    order = list(range(n))
    rng.shuffle(order)
    parts = []
    while order:
        size = rng.randint(3, 6)
        if len(order) - size < 3:
            size = len(order)
        parts.append(order[:size])
        order = order[size:]
    edges, w, paths, cycles = set(), [], [], []
    for part in parts:
        chain = list(zip(part, part[1:]))
        if rng.random() < 0.5:
            w += [part[0], part[-1]]
            paths.append(tuple(part))
        else:
            chain.append((part[-1], part[0]))
            cycles.append(tuple(part))
        edges |= {tuple(sorted(e)) for e in chain}
    for a, b in zip(parts, parts[1:]):  # join consecutive parts
        edges.add(tuple(sorted((rng.choice(a), rng.choice(b)))))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.12:
                edges.add((u, v))
    return sorted(edges), sorted(w), (paths, cycles)


def planted_infeasible(rng: random.Random, n: int):
    """A connected graph with a planted Tutte obstruction.

    k = |S| non-terminal vertices separate the rest into 2k + 2 components,
    each holding one terminal, so delta(S, {}) = 2k - (2k + 2) = -2 and the
    instance is infeasible by construction.  Returns ``(edges, w, (S, ()))``.
    """
    k = rng.choice((1, 2))
    labels = list(range(n))
    rng.shuffle(labels)
    s, rest = labels[:k], labels[k:]
    comps = [[v] for v in rest[:2 * k + 2]]
    for v in rest[2 * k + 2:]:
        rng.choice(comps).append(v)
    edges, w = set(), []
    for comp in comps:
        rng.shuffle(comp)
        w.append(comp[0])
        edges |= _random_tree_edges(rng, comp)
        edges |= {
            (u, v) for u in comp for v in comp if u < v and rng.random() < 0.3
        }
        edges |= {tuple(sorted((x, rng.choice(comp)))) for x in s}
    if k == 2 and rng.random() < 0.5:
        edges.add(tuple(sorted(s)))
    return sorted(edges), sorted(w), (tuple(s), ())


class DualitySmall:
    """solve, the brute-force oracle and the 3^n certificate scan on small graphs."""

    name = "duality-small"
    tail = 0.975
    SIZES = range(8, 13)
    # cases per size; 30% infeasible, so that the median call is a feasible
    # solve and the tail the middle one of the fourteen full scans at n = 12
    FEASIBLE, INFEASIBLE = 14, 6

    def setup(self, seed: int, workdir: Path) -> None:
        graphs, factor = _mod("graphs"), _mod("factor")
        rng = random.Random(f"{self.name}/{seed}")
        self.cases = {}
        ops = []
        for n in self.SIZES:
            plan = [True] * self.FEASIBLE + [False] * self.INFEASIBLE
            for i, feasible in enumerate(plan):
                edges, w, _ = (planted_feasible if feasible else planted_infeasible)(rng, n)
                g = graphs.Graph(n, edges)
                f = factor.degree_spec_from_terminals(g, w)
                name = f"n{n}-{'feasible' if feasible else 'infeasible'}-{i}"
                self.cases[name] = (n, edges, w, feasible)
                ops += [
                    (name + "/solve", self._solve(g, w)),
                    (name + "/oracle", self._oracle(g, f)),
                    (name + "/certificate", self._certificate(g, f)),
                ]
        self.warmup = ops[0]
        self.ops = ops

    @staticmethod
    def _solve(g, w):
        factor = _mod("factor")

        def run():
            system = factor.solve(g, w)
            return None if system is None else (system.paths, system.cycles)

        return run

    @staticmethod
    def _oracle(g, f):
        factor = _mod("factor")

        def run():
            found = factor.brute_force_f_factor(g, f, max_edges=64)
            return None if found is None else found.edges

        return run

    @staticmethod
    def _certificate(g, f):
        tutte = _mod("tutte")

        def run():
            cert = tutte.search_certificate(g, f)
            return None if cert is None else (cert.s, cert.t, cert.delta)

        return run

    def check(self, key: str, record) -> str | None:
        name, kind = key.split("/")
        n, edges, w, feasible = self.cases[name]
        # the three routes must agree with each other and with the construction
        says_feasible = record is None if kind == "certificate" else record is not None
        if says_feasible != feasible:
            return f"{kind} says {'feasible' if says_feasible else 'infeasible'}"
        f = checks.terminal_spec(n, w)
        if kind == "solve" and feasible:
            errors = checks.system_errors(n, edges, w, *record)
        elif kind == "oracle" and feasible:
            errors = checks.factor_errors(n, edges, f, list(record))
        elif kind == "certificate" and not feasible:
            s, t, claimed = record
            value = checks.deficiency(n, edges, f, s, t)
            errors = [] if value == claimed < 0 else [f"certificate delta {claimed}, recomputed {value}"]
        else:
            errors = []
        return "; ".join(errors[:3]) or None


# -- discharge-pairs -----------------------------------------------------------------------


class DischargePairs:
    """discharge on (S, T) pairs sampled as acceptance criterion 5 samples them."""

    name = "discharge-pairs"
    tail = 0.99
    # (r, size, pairs): criterion 5's sizes 14-26, and three larger instances
    PLAN = [(4 + i % 3, 14 + 2 * (i % 7), 100) for i in range(12)] + [
        (4, 100, 30), (5, 150, 30), (6, 200, 30),
    ]

    def setup(self, seed: int, workdir: Path) -> None:
        families, discharge = _mod("families"), _mod("discharge")
        rng = random.Random(f"{self.name}/{seed}")
        self.instances = []
        ops = []
        for r, size, pairs in self.PLAN:
            inst = families.random_valid_instance(r, size, rng.randrange(1 << 30))
            g = inst.graph
            hyp = discharge.GraphHypotheses.compute(g, r)
            index = len(self.instances)
            self.instances.append((r, g.n, g.edges, inst.w, hyp))
            for j in range(pairs):
                s, t = self._sample_pair(rng, g)
                ops.append((f"{index}/{j}", self._discharge(g, inst.w, s, t, r, hyp)))
        self.warmup = ops[0]
        self.ops = ops
        self._hypotheses_checked = {}

    @staticmethod
    def _sample_pair(rng: random.Random, g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        s, t = [], []
        want_t, want_s = rng.randrange(0, 5), rng.randrange(0, 6)
        for v in perm:
            if len(t) < want_t and all(not g.has_edge(v, u) for u in t):
                t.append(v)
            elif len(s) < want_s:
                s.append(v)
        return tuple(s), tuple(t)

    @staticmethod
    def _discharge(g, w, s, t, r, hyp):
        discharge = _mod("discharge")

        def run():
            rep = discharge.discharge(g, w, s, t, r, hypotheses=hyp)
            flags = (
                rep.conservation_ok, rep.identity_ok, rep.delta_consistent,
                rep.all_bounds_hold, rep.t_independent, rep.terminal_nbhd1,
            )
            return s, t, flags, rep.derived_delta

        return run

    def _check_hypotheses(self, index: int) -> str | None:
        if index not in self._hypotheses_checked:
            r, n, edges, w, hyp = self.instances[index]
            regular = checks.is_regular(n, edges, r)
            want = (regular, regular and checks.star_free(n, edges, r),
                    checks.edge_connectivity(n, edges) >= r)
            got = (hyp.regular, hyp.star_free, hyp.edge_connected)
            self._hypotheses_checked[index] = (
                None if got == want == (True, True, True)
                else f"hypotheses {got}, independently {want}"
            )
        return self._hypotheses_checked[index]

    def check(self, key: str, record) -> str | None:
        index = int(key.split("/")[0])
        problem = self._check_hypotheses(index)
        if problem:
            return problem
        r, n, edges, w, hyp = self.instances[index]
        s, t, flags, derived = record
        if not all(flags):
            return f"report flags {flags}"
        value = checks.deficiency(n, edges, checks.terminal_spec(n, w), s, t)
        if derived != value or value < 0:
            return f"derived delta {derived}, independently {value}"
        return None


WORKLOADS = {w.name: w for w in (Counterexamples, DualitySmall, DischargePairs)}
