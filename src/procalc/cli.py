"""Command-line front end.

A TERM argument of ``-`` is read from stdin, so a term may be longer than
one argv string may be; at most one term of a command can be ``-``.

Exit codes: 0 success (equivalent / accepted), 10 not equivalent, 11 proof
rejected, 1 parse or validation error, 2 usage error, state cap exceeded or
internal error.
"""

from __future__ import annotations

import functools
import sys
import types
from fractions import Fraction

from . import semantics, syntax, theory as th  # every command's; the others load in theirs


# The command table.  Each command path maps to its help text and its
# arguments, in the order ``build_parser`` adds them: ``(name, keywords)``
# with argparse's own keywords, where a name that starts with ``--`` is an
# option, stored under its name without the dashes, and every option spells
# out its default.  A group (``star``) has no arguments of its own; its
# commands follow it.
_COMMON = (
    ("--theory", {"default": "sl", "choices": th.THEORY_NAMES}),
    ("--atoms", {"default": None, "help": "comma-separated atoms (gs)"}),
    ("--actions", {"default": None, "help": "comma-separated action names"}),
    ("--format", {"default": "text", "choices": ("json", "dot", "text")}),
    ("--gkat", {"action": "store_true", "default": False, "help": "enable test[...] sugar"}),
    ("--cap", {"type": int, "default": 10000, "help": "state cap for lts construction"}),
)
_TERM = _COMMON + (("term", {}),)
_TERMS = _COMMON + (("term1", {}), ("term2", {}))
_FILE = _COMMON + (("file", {}),)

COMMANDS = {
    ("step",): ("one-step behaviour of a term", _TERM),
    ("lts",): ("reachable coalgebra of a term", _TERM),
    ("equiv",): ("bisimilarity of two terms", _TERMS),
    ("solve",): ("solve an equation system or coalgebra file",
                 _FILE + (("--state", {"default": None, "help": "synthesize this state only"}),)),
    ("prove",): ("check an equational proof", _FILE),
    ("skew",): ("skew-associativity of the theory", _COMMON),
    ("star",): ("star fragment commands", None),
    ("star", "step"): (None, _TERM),
    ("star", "lts"): (None, _TERM),
    ("star", "equiv"): (None, _TERMS),
    ("star", "estar"): (None, _COMMON + (
        ("axiom", {"choices": ("E1", "E2", "E3", "E4", "E5", "E6")}),
        ("--exp", {"action": "append", "default": [], "metavar": "NAME=TERM"}),
        ("--sigma", {"default": None}),
        ("--tau", {"default": None}),
    )),
    ("star", "deriv"): (None, _TERM),
}


def _command_dest(group):
    """Where the command chosen under ``group`` (a path) is stored."""
    return "_".join((*group, "command"))


def _split(arguments):
    """A command's options by flag, and its positionals in order."""
    options = {name: kw for name, kw in arguments if name.startswith("-")}
    return options, [(name, kw) for name, kw in arguments if not name.startswith("-")]


_READ = {path: _split(arguments) for path, (_, arguments) in COMMANDS.items()
         if arguments is not None}


def _value(kw, text):
    """``text`` as argparse stores it for the argument with keywords ``kw``,
    or None where argparse would read it as an option or refuse it."""
    if text.startswith("-") and text != "-":
        return None
    try:
        value = kw["type"](text) if "type" in kw else text
    except ValueError:
        return None
    if "choices" in kw and value not in kw["choices"]:
        return None
    return value


def read_argv(argv):
    """The namespace that ``build_parser().parse_args(argv)`` returns, read
    from the command table by exact lookup, or None where argparse has more
    to do: help, abbreviations, ``--opt=value``, ``--``, a value or
    positional other than ``-`` that starts with ``-``, an unknown word,
    the wrong number of positionals and a bad value, whose messages
    argparse prints."""
    path = ()
    for word in argv:
        if path + (word,) not in COMMANDS:
            break
        path += (word,)
    if path not in _READ:
        return None
    options, positionals = _READ[path]
    ns = {_command_dest(path[:depth]): word for depth, word in enumerate(path)}
    for name, kw in options.items():
        default = kw["default"]
        ns[name[2:]] = default.copy() if type(default) is list else default
    words, pos = iter(argv[len(path):]), []
    for word in words:
        if not word.startswith("-") or word == "-":
            pos.append(word)
            continue
        kw = options.get(word)
        if kw is None:
            return None
        action = kw.get("action")
        if action == "store_true":
            ns[word[2:]] = True
            continue
        text = next(words, None)
        if text is None:  # a missing value: argparse prints the usage error
            return None
        value = _value(kw, text)
        if value is None:
            return None
        if action == "append":
            ns[word[2:]].append(value)
        else:
            ns[word[2:]] = value
    if len(pos) != len(positionals):
        return None
    for (name, kw), text in zip(positionals, pos):
        ns[name] = _value(kw, text)
        if ns[name] is None:
            return None
    return types.SimpleNamespace(**ns)


@functools.cache
def build_parser():
    """The argparse parser of the command table, built on first use and
    kept for the process.  It prints help, usage and errors, and parses the
    command lines that `read_argv` leaves to it.  Parsing keeps no state in
    it, so one invocation cannot see another's arguments; callers share it
    and must not add to it."""
    import argparse

    ap = argparse.ArgumentParser(prog="procalc", description=__doc__)
    groups = {(): ap.add_subparsers(dest=_command_dest(()), required=True)}
    for path, (help_text, arguments) in COMMANDS.items():
        shown = {} if help_text is None else {"help": help_text}
        p = groups[path[:-1]].add_parser(path[-1], **shown)
        if arguments is None:
            groups[path] = p.add_subparsers(dest=_command_dest(path), required=True)
        for name, kw in arguments or ():
            p.add_argument(name, **kw)
    return ap


def _theory(args):
    atoms = args.atoms.split(",") if args.atoms else None
    return th.make_theory(args.theory, atoms)


def _actions(args):
    return args.actions.split(",") if args.actions else None


def _param_text(text, theory):
    if text is None:
        return None
    if text in ("", "*"):
        theory.check_param(None)
        return None
    if "gplus" in theory.binary_families:
        guard = frozenset(x for x in text.replace(",", " ").split() if x)
        theory.check_param(guard)
        return guard
    try:
        prob = th.exact_fraction(text)
    except ZeroDivisionError:
        raise syntax.ParseError("zero denominator") from None
    theory.check_param(prob)
    return prob


def _emit_nf(nf, theory, fmt):
    t = theory.term_of_nf(nf)
    if fmt == "json":
        print(semantics.structure_json(t))
    else:
        print(syntax.unparse(t))


def _emit_coalgebra(c, fmt):
    if fmt == "json":
        print(semantics.coalgebra_to_json(c))
    elif fmt == "dot":
        sys.stdout.write(semantics.coalgebra_to_dot(c))
    else:  # the equations that solve reads
        print(c.render())


def _read_stdin(args):
    """Replace the one TERM argument that is ``-`` by the text on stdin."""
    names = [name for name in ("term", "term1", "term2") if getattr(args, name, None) == "-"]
    if len(names) > 1:
        raise ValueError("at most one TERM can be '-' (read from stdin)")
    for name in names:
        setattr(args, name, sys.stdin.read())


def run(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.cap < 1:
        raise ValueError("--cap must be a positive integer")
    _read_stdin(args)
    theory = _theory(args)
    actions = _actions(args)
    # step, lts and equiv read either grammar with its parser
    command = args.command
    if command == "star":
        from . import star
        command = args.star_command
        if command in ("estar", "deriv"):
            return run_star(args, theory, actions)
        parse = functools.partial(star.parse_sexp, theory=theory, gkat=args.gkat, actions=actions)
    else:
        use = syntax.NameUse(actions)  # equiv's two terms share it
        parse = functools.partial(syntax.parse_exp, theory=theory, names=use)

    if command == "step":
        _emit_nf(semantics.step(parse(args.term), theory), theory, args.format)
        return 0

    if command == "lts":
        c = semantics.reachable(parse(args.term), theory, args.cap)
        _emit_coalgebra(c, args.format)
        return 0

    if command == "equiv":
        from . import equivalence
        e1, e2 = parse(args.term1), parse(args.term2)
        cert = equivalence.equivalent(e1, e2, theory, args.cap)
        msg = ("equivalent: " if cert.equivalent else "not equivalent: ") + cert.detail
        if args.command == "star" and not cert.equivalent:
            # where weights are masses, the termination masses explain the split
            if isinstance(theory.weight(theory.bottom(), semantics.TICK), Fraction):
                m1, m2 = star.tick_mass(e1, theory), star.tick_mass(e2, theory)
                msg += f" (termination mass {m1} vs {m2})"
        print(msg)
        return 0 if cert.equivalent else 10

    if command == "solve":
        from . import solver
        with open(args.file) as fh:
            text = fh.read()
        if text.removeprefix("\ufeff").lstrip().startswith("{"):
            d = th.read_json(text, "coalgebra")
            system = semantics.coalgebra_from_dict(d)
            # the file's state ids, some of them renamed to unknowns
            unknown_of = dict(zip(d["states"], system.variables))
        else:
            system = solver.parse_system(text, theory, actions)
            unknown_of = {}
        if args.state is not None:
            unknown_of.update((x, x) for x in system.variables)
            x = unknown_of.get(args.state)
            # solving first keeps system errors ahead of an unknown state
            phi = solver.solve(system, wanted=() if x is None else (x,))
            if x is None:
                raise syntax.ParseError(f"unknown state {args.state!r}")
            print(syntax.unparse(phi[x]))
            return 0
        phi = solver.solve(system)
        for x in system.variables:
            print(f"{x} = {syntax.unparse(phi[x])}")
        return 0

    if command == "prove":
        from . import axioms
        with open(args.file) as fh:
            proof = axioms.load_proof(fh.read(), actions)
        verdict = axioms.check_proof(proof)
        if verdict.accepted:
            print("accepted")
            return 0
        where = "" if verdict.step is None else f" at step {verdict.step}"
        print(f"rejected{where}: {verdict.reason}")
        return 11

    if command == "skew":
        answer = th.is_skew_associative(theory)
        print("skew-associative" if answer else "not skew-associative")
        return 0

    raise AssertionError("unreachable")


def run_star(args, theory, actions):
    """The star commands that have no counterpart for process terms."""
    from . import star
    if args.star_command == "estar":
        exps = {}
        for item in args.exp:
            if "=" not in item:
                raise syntax.ParseError(f"--exp expects NAME=TERM, got {item!r}")
            name, text = item.split("=", 1)
            exps[name.strip()] = star.parse_sexp(text, theory, args.gkat, actions)
        params = {
            "sigma": _param_text(args.sigma, theory),
            "tau": _param_text(args.tau, theory),
        }
        result = star.check_estar_instance(args.axiom, theory, exps, params, args.cap)
        if result.ok:
            print(f"{args.axiom} instance holds")
            return 0
        kind = "side condition fails" if not result.side_condition_ok else "instance fails"
        print(f"{args.axiom} {kind}: {result.detail}")
        return 10

    if args.star_command == "deriv":
        s = star.parse_sexp(args.term, theory, args.gkat, actions)
        d = star.partial_derivative(s, theory)
        guard = star.output_guard(s, theory)
        if isinstance(guard, bool):
            shown = "yes" if guard else "no"
        else:
            shown = "{" + " ".join(sorted(guard)) + "}"
        print(f"derivative: {syntax.unparse(d)}")
        print(f"outputs: {shown}")
        return 0

    raise AssertionError("unreachable")


def main():
    try:
        sys.exit(run())
    except (OSError, ValueError) as err:  # parse, theory, system and JSON errors too
        print(f"error: {err}", file=sys.stderr)
        sys.exit(1)
    except semantics.StateCapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
    except Exception as err:  # a fault in procalc, not in its input
        print(f"internal error: {str(err) or type(err).__name__}", file=sys.stderr)
        sys.exit(2)
