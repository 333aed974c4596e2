"""Float expressions as graphs, folded without changing a bit, written out
as Python source.

A real value is a node of a :class:`Graph`: a float constant, a name, or a
sum, difference, product or negation of nodes.  Each node keeps the classes
of doubles it can take for finite operands, as bits: +0.0 (``PZ``), -0.0
(``NZ``), > 0 (``POS``) and < 0 (``NEG``).  Building a node applies only
identities that hold for every finite operand:

* constant operands are evaluated, and x*1.0 = x, x*-1.0 = -x and
  (-x)*y = -(x*y); x + -0.0 = x and x - 0.0 = x;
* x + z = x for a zero z when x is never -0.0 (x + z differs from x only
  for x = -0.0), and u + 0.0 = v + 0.0 when u and v differ at most in the
  sign of a zero, as (x + z) + 0.0 and x + 0.0 do for any zero z;
* a node that can only be +0.0 (or only -0.0) is that constant.

So a zero changes sign nowhere.  Equal nodes are one node, so a value is
computed once.  :class:`Complex` pairs two nodes and repeats the complex
arithmetic of CPython 3.10 to 3.13 on them: a real operand is the complex
(x, 0.0), a product is ``_Py_c_prod`` and w**n is ``c_powu``'s
square-and-multiply.  :func:`source` writes the nodes an output reads as
Python lines, bit-equal to the arithmetic they were built from.
"""

import functools
import math

PZ, NZ, POS, NEG = 1, 2, 4, 8
ZERO, ANY = PZ | NZ, 15
_CLASSES = (PZ, NZ, POS, NEG)


def _neg_classes(cls):
    """The classes of -x for x in ``cls``."""
    return (cls & (PZ | POS)) << 1 | (cls & (NZ | NEG)) >> 1


@functools.cache
def _add_classes(cx, cy):
    """The classes of x + y for x in ``cx`` and y in ``cy``."""
    out = 0
    for x in _CLASSES:
        for y in _CLASSES:
            if cx & x and cy & y:
                if x & ZERO and y & ZERO:
                    out |= NZ if x == y == NZ else PZ
                elif x & ZERO or y & ZERO or x == y:
                    out |= y if x & ZERO else x
                else:  # opposite signs may cancel to +0.0
                    out |= POS | NEG | PZ
    return out


@functools.cache
def _mul_classes(cx, cy, no_underflow):
    """The classes of x * y for x in ``cx`` and y in ``cy``; a product of
    nonzeros may underflow to a zero unless ``no_underflow``."""
    out = 0
    for x in _CLASSES:
        for y in _CLASSES:
            if cx & x and cy & y:
                neg = (x in (NZ, NEG)) != (y in (NZ, NEG))
                zero = NZ if neg else PZ
                if x & ZERO or y & ZERO:
                    out |= zero
                else:
                    out |= (NEG if neg else POS) | (0 if no_underflow else zero)
    return out


class Real:
    """One node of a :class:`Graph`; ``bound`` when it reads bound names
    alone, so that it can be computed once, before the calls."""

    __slots__ = ("graph", "op", "args", "cls", "bound", "id")

    def is_const(self, value):
        return self.op == "const" and repr(self.args) == repr(value)

    def __add__(self, other):
        return self.graph.add(self, other)

    def __radd__(self, other):
        return self.graph.add(other, self)

    def __sub__(self, other):
        return self.graph.add(self, self.graph.neg(other))

    def __mul__(self, other):
        if isinstance(other, Complex):
            return NotImplemented
        return self.graph.mul(self, other)

    def __rmul__(self, other):
        return self.graph.mul(other, self)

    def __neg__(self):
        return self.graph.neg(self)


class Graph:
    """The nodes of one computation, each made once by the rules above."""

    def __init__(self):
        self.nodes = {}

    def _node(self, op, args, cls, key=None):
        """The node op(args), made once; x + y and x * y are y + x and y * x."""
        if cls in (PZ, NZ) and op != "const":
            return self.const(0.0 if cls == PZ else -0.0)
        if key is None:
            key = (op, *map(id, args))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = Real()
            node.graph, node.op, node.args, node.cls = self, op, args, cls
            node.bound = op == "const" or op != "name" and all(x.bound for x in args)
            node.id = len(self.nodes)
        return node

    def const(self, value):
        value = float(value)
        if value == 0.0:
            cls = NZ if math.copysign(1.0, value) < 0 else PZ
        else:
            cls = POS if value > 0 else NEG
        return self._node("const", value, cls, ("const", repr(value)))

    def name(self, name, cls=ANY, bound=False):
        """A name the source reads, taking the classes ``cls``: ``bound``
        ones are set before the calls, the others on each call."""
        node = self._node("name", name, cls, ("name", name))
        node.bound = bound
        return node

    def real(self, x):
        return x if isinstance(x, Real) else self.const(x)

    def neg(self, x):
        x = self.real(x)
        if x.op == "const":
            return self.const(-x.args)
        if x.op == "neg":
            return x.args[0]
        return self._node("neg", (x,), _neg_classes(x.cls))

    def mul(self, x, y):
        x, y = self.real(x), self.real(y)
        if x.op == y.op == "const":
            return self.const(x.args * y.args)
        for u, v in ((x, y), (y, x)):
            if v.is_const(1.0):
                return u
            if v.is_const(-1.0):
                return self.neg(u)
            if v.op == "neg" or v.op == "const" and math.copysign(1.0, v.args) < 0:
                return self.neg(self.mul(u, self.neg(v)))
        if x is y:  # a square is never negative
            cls = _mul_classes(x.cls, x.cls, False) & ~(NEG | NZ)
        else:  # no product with a constant of size >= 1 underflows
            big = any(v.op == "const" and abs(v.args) >= 1.0 for v in (x, y))
            cls = _mul_classes(x.cls, y.cls, big)
        return self._node("*", (x, y), cls, ("*", *sorted((id(x), id(y)))))

    def add(self, x, y):
        x, y = self.real(x), self.real(y)
        if x.op == y.op == "const":
            return self.const(x.args + y.args)
        for u, v in ((x, y), (y, x)):
            if v.is_const(-0.0) or not v.cls & ~ZERO and not u.cls & NZ:
                return u
            if v.is_const(0.0):
                stripped = self._strip(u)
                if stripped is not u:
                    return self.add(stripped, v)
        # a sum with a negated term is a difference
        if y.op == "neg":
            return self._node("-", (x, y.args[0]), _add_classes(x.cls, y.cls))
        if x.op == "neg":
            return self._node("-", (y, x.args[0]), _add_classes(x.cls, y.cls))
        return self._node("+", (x, y), _add_classes(x.cls, y.cls), ("+", *sorted((id(x), id(y)))))

    def _strip(self, u):
        """A node equal to u up to the sign of a zero result, for u + 0.0:
        (x + z) + 0.0 = x + 0.0 for any zero z, and -(0.0 - x) + 0.0 =
        x + 0.0."""
        if u.op == "neg":
            return self.neg(self._strip(u.args[0]))
        if u.op in ("+", "-"):
            x, y = u.args
            if not y.cls & ~ZERO:
                return self._strip(x)
            if not x.cls & ~ZERO:
                return self._strip(y if u.op == "+" else self.neg(y))
        return u


class Complex:
    """A complex value as CPython computes it: a pair of real nodes."""

    def __init__(self, re, im):
        self.real, self.imag = re, im

    @staticmethod
    def _of(x, graph):
        """A real operand as CPython converts it: (x, 0.0)."""
        return x if isinstance(x, Complex) else Complex(graph.real(x), graph.const(0.0))

    def __add__(self, other):
        other = self._of(other, self.real.graph)
        return Complex(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other):
        other = self._of(other, self.real.graph)
        return Complex(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other):  # _Py_c_prod
        other = self._of(other, self.real.graph)
        return Complex(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __rmul__(self, other):
        return self._of(other, self.real.graph) * self

    def __neg__(self):
        return Complex(-self.real, -self.imag)

    def __pow__(self, n):
        """w**n for an integer 0 <= n <= 100: 1/c_powu(w, 0) = (1.0, 0.0)
        exactly for n = 0, else c_powu's square-and-multiply from (1.0, 0.0)."""
        one = self._of(1.0, self.real.graph)
        if n == 0:
            return one
        result, power, mask = one, self, 1
        while n >= mask:
            if n & mask:
                result = result * power
            mask <<= 1
            power = power * power
        return result


def source(outputs):
    """Python source for the (name, node) ``outputs``: (bound, text), the
    lines to run once before the calls and the lines each call runs, which
    assign each output to its name.  A node read more than once, or a bound
    one read on each call, gets a local name (f0, f1, ... when bound, else
    v0, v1, ...); the others are written inline."""
    uses, run_time = {}, set()
    stack = [node for _, node in outputs]
    while stack:
        node = stack.pop()
        uses[node] = uses.get(node, 0) + 1
        if uses[node] == 1 and node.op not in ("const", "name"):
            stack.extend(node.args)
            if not node.bound:
                run_time.update(node.args)
    run_time.update(node for _, node in outputs)
    names = {node: node.args for node in uses if node.op == "name"}
    for name, node in outputs:
        if node.op != "const" and node not in names and not node.bound:
            names[node] = name
    bound, lines = [], []
    for node in sorted(uses, key=lambda n: n.id):
        if node.op in ("const", "name"):
            continue
        if node.bound and (node in run_time or uses[node] > 1):
            names[node] = f"f{len(bound)}"
            bound.append(f"{names[node]} = {_text(node, names, top=True)}\n")
        elif node in names or uses[node] > 1:
            names.setdefault(node, f"v{len(lines)}")
            lines.append(f"{names[node]} = {_text(node, names, top=True)}\n")
    lines += [f"{name} = {_text(node, names)}\n"
              for name, node in outputs if names.get(node) != name]
    return "".join(bound), "".join(lines)


def _text(node, names, top=False):
    """The expression of ``node``, its operands by name where they have one."""
    if node in names and not top:
        return names[node]
    if node.op == "const":
        return repr(node.args)
    args = [_text(x, names) for x in node.args]
    inline = [x not in names and x.op != "const" for x in node.args]
    if node.op == "neg":
        return f"-({args[0]})" if inline[0] else f"-{args[0]}"
    # parentheses only where Python's left-to-right reading needs them
    x, y = node.args
    if inline[0] and node.op == "*" and x.op in ("+", "-"):
        args[0] = f"({args[0]})"
    if inline[1] and (y.op in ("+", "-") or y.op == node.op == "*"):
        args[1] = f"({args[1]})"
    return f"{args[0]} {node.op} {args[1]}"
