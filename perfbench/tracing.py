"""Traced ops: the CLI's pipeline as direct calls into procalc's public
functions, with a span around each call.

``traced_op`` does what ``procalc.cli.run`` does for the commands the
workloads use, one layer call at a time, and returns the same exit code and
stdout text, so the traced run is checked like the untraced one.  Spans are
``[name, start, end, parent, op]`` lists kept in memory; counts are taken
from the calls' return values after each op's span has closed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from procalc import (axioms, cli, equivalence, semantics, solver, star, syntax,
                     theory as th)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    def call(self, name, fn, *args):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def self_times(self):
        """Total self time per span name: duration minus the part covered
        by child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return out


def _actions(args):
    return args.actions.split(",") if args.actions else None


def _verdict(cert):
    return ("equivalent: " if cert.equivalent else "not equivalent: ") + cert.detail


def _equiv(tr, args, theory):
    use = syntax.NameUse(_actions(args))
    e1 = tr.call("syntax.parse_exp", syntax.parse_exp, args.term1, theory, None, use)
    e2 = tr.call("syntax.parse_exp", syntax.parse_exp, args.term2, theory, None, use)
    c1 = tr.call("semantics.reachable", semantics.reachable, e1, theory, args.cap)
    c2 = tr.call("semantics.reachable", semantics.reachable, e2, theory, args.cap)
    c = tr.call("semantics.disjoint_union", semantics.disjoint_union, c1, c2)
    cert = tr.call("equivalence.check_states", equivalence.check_states, c, "as0", "bs0")

    def count():
        tr.counts["syntax.parse_exp.calls"] += 2
        tr.counts["semantics.reachable.states"] += len(c.states)
        _count_refinement(tr, c, cert)

    return (0 if cert.equivalent else 10), _verdict(cert), count


def _count_refinement(tr, c, cert):
    tr.counts["equivalence.check_states.rounds"] += cert.rounds
    tr.counts["equivalence.check_states.state_rounds"] += len(c.states) * cert.rounds
    if cert.equivalent:
        tr.counts["equivalence.check_states.blocks"] += cert.detail.count("{")


def _step(tr, args, theory):
    e = tr.call("syntax.parse_exp", syntax.parse_exp, args.term, theory, _actions(args))
    nf = tr.call("semantics.step", semantics.step, e, theory)
    text = tr.call("semantics.render_sterm", semantics.render_sterm, theory.term_of_nf(nf))

    def count():
        tr.counts["syntax.parse_exp.calls"] += 1
        tr.counts["semantics.step.gens"] += len(theory.generators(nf))

    return 0, text, count


def _solve(tr, args, theory):
    with open(args.file) as fh:
        text = fh.read()
    c = tr.call("semantics.coalgebra_from_json", semantics.coalgebra_from_json, text)
    system = tr.call("solver.associated_system", solver.associated_system, c)
    phi = tr.call("solver.solve", solver.solve, system)
    var = args.state if args.state in phi \
        else system.variables[list(c.states).index(args.state)]
    out = tr.call("syntax.unparse", syntax.unparse, phi[var])

    def count():
        tr.counts["solver.solve.in_chars"] += len(system.render())
        tr.counts["solver.solve.out_chars"] += len(out)

    return 0, out, count


def _prove(tr, args, theory):
    with open(args.file) as fh:
        text = fh.read()
    proof = tr.call("axioms.load_proof", axioms.load_proof, text, _actions(args))
    verdict = tr.call("axioms.check_proof", axioms.check_proof, proof)

    def count():
        tr.counts["axioms.check_proof.steps"] += len(proof.steps)

    if verdict.accepted:
        return 0, "accepted", count
    where = "" if verdict.step is None else f" at step {verdict.step}"
    return 11, f"rejected{where}: {verdict.reason}", count


def _star_equiv(tr, args, theory):
    actions = _actions(args)
    s1 = tr.call("star.parse_sexp", star.parse_sexp, args.term1, theory, args.gkat, actions)
    s2 = tr.call("star.parse_sexp", star.parse_sexp, args.term2, theory, args.gkat, actions)
    c1 = tr.call("star.star_reachable", star.star_reachable, s1, theory, args.cap)
    c2 = tr.call("star.star_reachable", star.star_reachable, s2, theory, args.cap)
    c = tr.call("semantics.disjoint_union", semantics.disjoint_union, c1, c2)
    cert = tr.call("equivalence.check_states", equivalence.check_states, c, "as0", "bs0")
    text = _verdict(cert)
    if not cert.equivalent and theory.id == "ca":
        m1 = tr.call("star.tick_mass", star.tick_mass, s1, theory)
        m2 = tr.call("star.tick_mass", star.tick_mass, s2, theory)
        text += f" (termination mass {m1} vs {m2})"

    def count():
        tr.counts["star.star_reachable.states"] += len(c.states)
        _count_refinement(tr, c, cert)

    return (0 if cert.equivalent else 10), text, count


_COMMANDS = {"equiv": _equiv, "step": _step, "solve": _solve, "prove": _prove}


def traced_op(tr, op):
    """Run one op traced; returns (exit code, stdout text, seconds)."""
    tr.op = op["id"]
    count = None

    def body():
        nonlocal count
        args = tr.call("cli.parse_args", cli.build_parser().parse_args, op["argv"])
        theory = th.make_theory(args.theory, args.atoms.split(",") if args.atoms else None)
        if args.command == "star" and args.star_command == "equiv":
            code, text, count = _star_equiv(tr, args, theory)
        else:
            code, text, count = _COMMANDS[args.command](tr, args, theory)
        return code, text

    start = perf_counter()
    try:
        code, text = tr.call(f"op.{op['kind']}", body)
    except Exception as err:  # an op that raises is a failed op, not a crash
        code, text = 2, f"internal error: {type(err).__name__}: {err}"
    seconds = perf_counter() - start
    if count is not None:
        count()
    return code, text + "\n", seconds


def layer_metrics(tr):
    """The per-layer figures of one traced run, before the overhead ratio."""
    t = tr.self_times()
    c = tr.counts
    reach_s = t["semantics.reachable"]
    return {
        "cli.parse_args.s": t["cli.parse_args"],
        "syntax.parse_exp.s": t["syntax.parse_exp"],
        "syntax.parse_exp.calls": c["syntax.parse_exp.calls"],
        "syntax.unparse.s": t["syntax.unparse"],
        "semantics.reachable.s": reach_s,
        "semantics.reachable.states": c["semantics.reachable.states"],
        "semantics.reachable.states_per_s":
            c["semantics.reachable.states"] / reach_s if reach_s else 0.0,
        "semantics.disjoint_union.s": t["semantics.disjoint_union"],
        "semantics.coalgebra_from_json.s": t["semantics.coalgebra_from_json"],
        "semantics.step.s": t["semantics.step"],
        "semantics.step.gens": c["semantics.step.gens"],
        "equivalence.check_states.s": t["equivalence.check_states"],
        "equivalence.check_states.rounds": c["equivalence.check_states.rounds"],
        "equivalence.check_states.blocks": c["equivalence.check_states.blocks"],
        "equivalence.check_states.state_rounds": c["equivalence.check_states.state_rounds"],
        "solver.associated_system.s": t["solver.associated_system"],
        "solver.solve.s": t["solver.solve"],
        "solver.solve.in_chars": c["solver.solve.in_chars"],
        "solver.solve.out_chars": c["solver.solve.out_chars"],
        "axioms.check_proof.s": t["axioms.check_proof"],
        "axioms.check_proof.steps": c["axioms.check_proof.steps"],
        "star.parse_sexp.s": t["star.parse_sexp"],
        "star.star_reachable.s": t["star.star_reachable"],
        "star.star_reachable.states": c["star.star_reachable.states"],
    }
