"""Small expression language for defining curves, surfaces and functions.

Grammar (standard precedence, ``^`` binds tightest, no implicit
multiplication, unary minus allowed):

    source   := ["vars:" name ("," name)* NEWLINE] expression
    expression := term (("+" | "-") term)*
    term     := unary (("*" | "/") unary)*
    unary    := ("-" | "+") unary | power
    power    := atom ["^" exponent]
    exponent := ["-"] INT | "(" ["-"] INT ["/" INT] ")"
    atom     := NUMBER | NAME | NAME "(" expression ")" | "(" expression ")"

Rational exponents are restricted to denominators 1, 2 and 3, and nesting to
``MAX_DEPTH`` levels.  ASTs evaluate
over any scalar that supports field operations - floats, ``Fraction`` or jets -
so one definition serves both numeric evaluation and derivative extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import jets
from .errors import ArityError, DomainError, ExprSyntaxError, UnboundVariable, UnknownFunction

_FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
}

_ALLOWED_EXP_DENOMS = (1, 2, 3)

# Deepest nesting accepted, both while parsing (parentheses, signs, calls) and
# in the finished tree (which also deepens by one per chained operator):
# evaluation and printing recurse on the tree, so this keeps every expression
# well inside the interpreter's recursion limit.
MAX_DEPTH = 100

_DIGITS = "0123456789"


# --- AST nodes ---------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: Fraction


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class ExprAst:
    root: object
    free_vars: tuple


# --- tokenizer ---------------------------------------------------------------

_PUNCT = "+-*/^(),"


def _tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and src[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (src[j] in _DIGITS or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", offset=i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.level = 0
        self.seen_vars = []

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", offset=tok[2])
        return tok

    def parse_expression(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        # every nested construct passes through here
        kind, _, off = self.peek()
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                  offset=off)
        if kind == "-":
            self.advance()
            node = Neg(self.parse_unary())
        elif kind == "+":
            self.advance()
            node = self.parse_unary()
        else:
            node = self.parse_power()
        self.level -= 1
        return node

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            return Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self):
        kind, text, off = self.peek()
        sign = 1
        if kind == "-":
            self.advance()
            sign = -1
            kind, text, off = self.peek()
        if kind == "num":
            self.advance()
            if "." in text:
                raise ExprSyntaxError("exponent must be an integer or (p/q)", offset=off)
            return Fraction(sign * int(text))
        if kind == "(":
            self.advance()
            nsign = sign
            kind, text, off = self.peek()
            if kind == "-":
                self.advance()
                nsign = -nsign
                kind, text, off = self.peek()
            num_tok = self.expect("num")
            if "." in num_tok[1]:
                raise ExprSyntaxError("exponent must be an integer or (p/q)", offset=num_tok[2])
            numer = nsign * int(num_tok[1])
            denom = 1
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("num")
                if "." in den_tok[1]:
                    raise ExprSyntaxError("exponent denominator must be an integer",
                                          offset=den_tok[2])
                denom = int(den_tok[1])
                if denom == 0:
                    raise ExprSyntaxError("exponent denominator is zero", offset=den_tok[2])
            self.expect(")")
            fr = Fraction(numer, denom)
            if fr.denominator not in _ALLOWED_EXP_DENOMS:
                raise ExprSyntaxError(
                    f"exponent denominator {fr.denominator} not in {_ALLOWED_EXP_DENOMS}",
                    offset=off,
                )
            return fr
        raise ExprSyntaxError("expected an exponent", offset=off)

    def parse_atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Num(Fraction(text))
        if kind == "name":
            if self.peek()[0] == "(":
                if text not in _FUNCTIONS:
                    raise UnknownFunction(f"unknown function {text!r}", offset=off)
                self.advance()
                args = [self.parse_expression()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.parse_expression())
                self.expect(")")
                if len(args) != 1:
                    raise ArityError(f"{text} takes one argument, got {len(args)}", offset=off)
                return Call(text, args[0])
            if text not in self.seen_vars:
                self.seen_vars.append(text)
            return Var(text)
        if kind == "(":
            node = self.parse_expression()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}", offset=off)


def parse(src):
    """Parse source text to an ExprAst; free variables in declaration or
    first-appearance order."""
    declared = None
    body = src
    stripped = src.lstrip()
    if stripped.startswith("vars:"):
        header, _, body = stripped.partition("\n")
        names = header[len("vars:"):].split(",")
        declared = tuple(n.strip() for n in names if n.strip())
    parser = _Parser(body)
    root = parser.parse_expression()
    tok = parser.peek()
    if tok[0] != "end":
        raise ExprSyntaxError(f"trailing input {tok[1]!r}", offset=tok[2])
    if _tree_depth(root) > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels")
    if declared is not None:
        for v in parser.seen_vars:
            if v not in declared:
                raise UnboundVariable(f"{v!r} not among declared vars {declared}")
        free = declared
    else:
        free = tuple(parser.seen_vars)
    return ExprAst(root, free)


def _tree_depth(root):
    """Depth of an AST, found without recursion."""
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, BinOp):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, Neg):
            stack.append((node.child, depth + 1))
        elif isinstance(node, Pow):
            stack.append((node.base, depth + 1))
        elif isinstance(node, Call):
            stack.append((node.arg, depth + 1))
    return deepest


# --- printer -----------------------------------------------------------------

def _decimal_string(fr):
    """Finite decimal expansion; parser literals always have 2^a 5^b denominators."""
    if fr.denominator == 1:
        return str(fr.numerator)
    den = fr.denominator
    a = b = 0
    while den % 2 == 0:
        den //= 2
        a += 1
    while den % 5 == 0:
        den //= 5
        b += 1
    if den != 1:
        raise ValueError(f"{fr} has no finite decimal expansion")
    k = max(a, b)
    scaled = fr.numerator * 10**k // fr.denominator
    text = str(abs(scaled)).rjust(k + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{text[:-k]}.{text[-k:]}"


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _print_node(node):
    """Returns (text, precedence)."""
    if isinstance(node, Num):
        text = _decimal_string(node.value)
        return text, _PRECEDENCE["atom"] if node.value >= 0 else _PRECEDENCE["neg"]
    if isinstance(node, Var):
        return node.name, _PRECEDENCE["atom"]
    if isinstance(node, Call):
        inner, _ = _print_node(node.arg)
        return f"{node.func}({inner})", _PRECEDENCE["atom"]
    if isinstance(node, Neg):
        inner, prec = _print_node(node.child)
        if prec < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PRECEDENCE["neg"]
    if isinstance(node, Pow):
        base, prec = _print_node(node.base)
        if prec < _PRECEDENCE["atom"]:
            base = f"({base})"
        e = node.exponent
        if e.denominator == 1 and e >= 0:
            return f"{base}^{e.numerator}", _PRECEDENCE["pow"]
        return f"{base}^({e.numerator}/{e.denominator})", _PRECEDENCE["pow"]
    if isinstance(node, BinOp):
        lhs, lp = _print_node(node.left)
        rhs, rp = _print_node(node.right)
        prec = _PRECEDENCE[node.op]
        if lp < prec:
            lhs = f"({lhs})"
        # left-associative ops need parens on an equal-precedence right child
        if rp < prec or (rp == prec and node.op in ("-", "/", "+", "*")):
            rhs = f"({rhs})"
        return f"{lhs} {node.op} {rhs}", prec
    raise TypeError(f"not an AST node: {node!r}")


def to_text(ast):
    """Canonical printer; parse(to_text(ast)) round-trips."""
    return _print_node(ast.root)[0]


# --- evaluation --------------------------------------------------------------

def _wants_exact(env):
    for v in env.values():
        if isinstance(v, Fraction):
            return True
        if isinstance(v, (jets.TaylorJet, jets.MultiJet)) and v.exact:
            return True
    return False


def _eval_node(node, env, exact):
    if isinstance(node, Num):
        return node.value if exact else float(node.value)
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariable(f"unbound variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval_node(node.child, env, exact)
    if isinstance(node, BinOp):
        lhs = _eval_node(node.left, env, exact)
        rhs = _eval_node(node.right, env, exact)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        return lhs / rhs
    if isinstance(node, Pow):
        base = _eval_node(node.base, env, exact)
        e = node.exponent
        if isinstance(base, (jets.TaylorJet, jets.MultiJet)):
            return base ** (int(e) if e.denominator == 1 else e)
        return _scalar_pow(base, e)
    if isinstance(node, Call):
        return _FUNCTIONS[node.func](_eval_node(node.arg, env, exact))
    raise TypeError(f"not an AST node: {node!r}")


def _scalar_pow(base, e):
    if e.denominator == 1:
        return base ** int(e)
    if e.denominator == 2:
        root = jets.sqrt(base)
    else:
        root = jets.cbrt(base)
    return root ** e.numerator


def evaluate(ast, env):
    """Evaluate on scalars or jets; every free variable must be bound.

    A value beyond the float range (``exp(800)``, ``2^2000``) raises
    DomainError, so a caller treats it as it treats any other domain error.
    """
    exact = _wants_exact(env)
    for name in ast.free_vars:
        if name not in env:
            raise UnboundVariable(f"unbound variable {name!r}")
    try:
        return _eval_node(ast.root, env, exact)
    except OverflowError as err:
        raise DomainError(f"value out of the float range: {err}") from None
